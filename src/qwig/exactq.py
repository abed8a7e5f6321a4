"""Exact arithmetic over the field of rational functions in q^(1/2).

Elements are quotients of Laurent polynomials in the half-integer power
q^(1/2) with rational coefficients.  Exponents are stored doubled, so the
monomial q^(k/2) lives at integer key k and every object is hashable and
exactly comparable.  Monomials are units of the Laurent ring, which keeps
most denominators equal to 1 and makes gcd reduction cheap in practice.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from .errors import PoleAtOne

__all__ = [
    "HalfLaurent",
    "QFraction",
    "qpow",
    "qnum",
    "ZERO",
    "ONE",
    "Q_MINUS_QINV",
]


def _as_fraction(c):
    """Validate a coefficient.  Plain ints are kept as ints: integer
    arithmetic is much faster than Fraction arithmetic and the two compare
    and hash identically, so mixed representations stay consistent."""
    if isinstance(c, int):
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError("coefficients must be int or Fraction, got %r" % (c,))


def _coeff_div(a, b):
    """Exact coefficient quotient, demoted to int when integral."""
    if type(a) is int and type(b) is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    r = Fraction(a) / b
    return r.numerator if r.denominator == 1 else r


class HalfLaurent:
    """Laurent polynomial in q^(1/2) over the rationals.

    Terms map doubled exponents (int) to nonzero Fraction coefficients;
    the empty map is zero.  Instances are immutable.
    """

    __slots__ = ("_t", "_hash")

    def __init__(self, terms=None):
        t = {}
        if terms:
            for k, c in (terms.items() if isinstance(terms, dict) else terms):
                c = _as_fraction(c)
                if c:
                    c0 = t.get(k)
                    c = c if c0 is None else c0 + c
                    if c:
                        t[k] = c
                    elif k in t:
                        del t[k]
        self._t = t
        self._hash = None

    @classmethod
    def _raw(cls, t):
        # internal: t already a clean dict
        p = cls.__new__(cls)
        p._t = t
        p._hash = None
        return p

    @classmethod
    def const(cls, c):
        c = _as_fraction(c)
        return cls._raw({0: c} if c else {})

    def items(self):
        return self._t.items()

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if isinstance(other, HalfLaurent):
            return self._t == other._t
        if isinstance(other, (int, Fraction)):
            return self == HalfLaurent.const(other)
        return NotImplemented

    def __hash__(self):
        # a constant equals, so must hash like, its int or Fraction value
        if self._hash is None:
            t = self._t
            if not t or (len(t) == 1 and 0 in t):
                self._hash = hash(t.get(0, 0))
            else:
                self._hash = hash(frozenset(t.items()))
        return self._hash

    def __neg__(self):
        return HalfLaurent._raw({k: -c for k, c in self._t.items()})

    # each operator tests for the usual HalfLaurent operand first: the
    # Fraction test goes through abc.__instancecheck__ on every miss

    def __add__(self, other):
        if type(other) is not HalfLaurent:
            if isinstance(other, (int, Fraction)):
                other = HalfLaurent.const(other)
            elif not isinstance(other, HalfLaurent):
                return NotImplemented
        if not self._t:
            return other
        if not other._t:
            return self
        t = dict(self._t)
        for k, c in other._t.items():
            c0 = t.get(k)
            if c0 is None:
                t[k] = c
            else:
                c0 = c0 + c
                if c0:
                    t[k] = c0
                else:
                    del t[k]
        return HalfLaurent._raw(t)

    __radd__ = __add__

    def __sub__(self, other):
        if type(other) is not HalfLaurent:
            if isinstance(other, (int, Fraction)):
                other = HalfLaurent.const(other)
            elif not isinstance(other, HalfLaurent):
                return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is not HalfLaurent:
            if isinstance(other, (int, Fraction)):
                c = _as_fraction(other)
                if not c:
                    return HalfLaurent._raw({})
                return HalfLaurent._raw({k: v * c for k, v in self._t.items()})
            if not isinstance(other, HalfLaurent):
                return NotImplemented
        t = {}
        for k1, c1 in self._t.items():
            for k2, c2 in other._t.items():
                k = k1 + k2
                c = c1 * c2
                c0 = t.get(k)
                if c0 is None:
                    t[k] = c
                else:
                    c0 = c0 + c
                    if c0:
                        t[k] = c0
                    else:
                        del t[k]
        return HalfLaurent._raw(t)

    __rmul__ = __mul__

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        out = HalfLaurent.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- structure queries ------------------------------------------------

    def min_dexp(self):
        return min(self._t)

    def is_monomial(self):
        return len(self._t) == 1

    def shift(self, dexp):
        """Multiply by the monomial q^(dexp/2)."""
        if not self._t or not dexp:
            return self
        return HalfLaurent._raw({k + dexp: c for k, c in self._t.items()})

    # -- evaluation -------------------------------------------------------

    def at_one(self):
        """Exact value at q = 1 (every monomial evaluates to 1)."""
        return sum(self._t.values(), Fraction(0))

    # -- printing ---------------------------------------------------------

    def __str__(self):
        if not self._t:
            return "0"
        parts = []
        for k in sorted(self._t):
            c = self._t[k]
            neg = c < 0
            c = -c if neg else c
            if k == 0:
                body = str(c)
            else:
                e = str(k // 2) if k % 2 == 0 else "%d/2" % k
                body = "q^%s" % e if c == 1 else "%s*q^%s" % (c, e)
            if not parts:
                parts.append("-" + body if neg else body)
            else:
                parts.append((" - " if neg else " + ") + body)
        return "".join(parts)

    def __repr__(self):
        return "HalfLaurent(%s)" % dict(sorted(self._t.items()))


@lru_cache(maxsize=None)
def qpow(x):
    """The monomial q^x for x an integer or half-integer Fraction."""
    if isinstance(x, int):
        return HalfLaurent._raw({2 * x: 1})
    x2 = _as_fraction(_as_fraction(x) * 2)
    if isinstance(x2, Fraction):
        raise ValueError("exponent must be a multiple of 1/2")
    return HalfLaurent._raw({x2: 1})


@lru_cache(maxsize=None)
def qnum(x):
    """Symmetric q-number [x]_q = (q^x - q^-x)/(q - q^-1) for integer x."""
    if not isinstance(x, int):
        raise ValueError("qnum takes an integer argument")
    if x == 0:
        return HalfLaurent._raw({})
    s = 1 if x > 0 else -1
    n = abs(x)
    return HalfLaurent._raw({s * 2 * (n - 1 - 2 * j): s for j in range(n)})


# -- univariate gcd over Q, on shifted (nonnegative) exponents -------------
#
# The gcd is unique up to a unit (a monomial times a nonzero scalar), so it
# is computed on primitive integer polynomials with pseudo-remainders:
# Python int arithmetic is far cheaper than Fraction arithmetic, and the
# normalized result is the same polynomial whichever associate is found.


def _primitive(p):
    """The nonzero dict p scaled by a rational to coprime int coefficients."""
    lcm = None
    for c in p.values():
        if type(c) is not int:
            d = c.denominator
            lcm = d if lcm is None else lcm * d // math.gcd(lcm, d)
    if lcm is not None:
        p = {k: c * lcm if type(c) is int else c.numerator * (lcm // c.denominator)
             for k, c in p.items()}
    g = math.gcd(*p.values())
    if g != 1:
        p = {k: c // g for k, c in p.items()}
    return p


def _poly_gcd(a, b):
    """Gcd of two nonzero HalfLaurents up to a unit (monomial times scalar).

    The result is normalized with lowest doubled exponent 0 and lowest
    coefficient 1.
    """
    # shift both so exponents start at 0; monomial factors are units
    pa = _primitive({k - a.min_dexp(): c for k, c in a.items()})
    pb = _primitive({k - b.min_dexp(): c for k, c in b.items()})
    while pb:
        pa = _poly_prem(pa, pb)
        pa, pb = pb, (_primitive(pa) if pa else pa)
    low = min(pa)
    lc = pa[low]
    return HalfLaurent._raw({k - low: _coeff_div(c, lc) for k, c in pa.items()})


def _poly_prem(pa, pb):
    """Remainder of pa by pb up to a nonzero int factor; int-coefficient
    dicts with nonnegative doubled exponents."""
    pa = dict(pa)
    db = max(pb)
    lb = pb[db]
    while pa:
        da = max(pa)
        if da < db:
            break
        # pa <- s*pa - f*q^sh*pb cancels the leading term of pa
        f = pa[da]
        g = math.gcd(f, lb)
        s, f = lb // g, f // g
        if s != 1:
            pa = {k: s * c for k, c in pa.items()}
        sh = da - db
        for k, c in pb.items():
            kk = k + sh
            c0 = pa.get(kk)
            c0 = -f * c if c0 is None else c0 - f * c
            if c0:
                pa[kk] = c0
            elif kk in pa:
                del pa[kk]
    return pa


def _cancel(a, b):
    """(a/h, b/h) for h = gcd(a, b), on nonzero HalfLaurents."""
    if a.is_monomial() or b.is_monomial():
        return a, b
    g = _poly_gcd(a, b)
    if g.is_monomial():
        return a, b
    return _exact_div(a, g), _exact_div(b, g)


# The closed forms draw their factors from a small recurring set, so the
# pairs that from_factors cancels recur across values.  A gcd is defined only
# up to a monomial, so the pairs are cached shifted to lowest doubled
# exponent 0 (the cancelled factors then have lowest exponent 0 too).  The
# bound keeps memory flat over a long run.
_cancel_low = lru_cache(maxsize=1024)(_cancel)


_POLY_ONE = HalfLaurent.const(1)


def _is_one(p):
    return p._t == _POLY_ONE._t


def _strip_unit(num, den):
    """num/den with the unit of den's lowest term moved into num, so that
    den has lowest doubled exponent 0 and lowest coefficient 1."""
    low = den.min_dexp()
    lc = den._t[low]
    if not low and lc == 1:
        return num, den
    return (
        HalfLaurent._raw({k - low: _coeff_div(c, lc) for k, c in num.items()}),
        HalfLaurent._raw({k - low: _coeff_div(c, lc) for k, c in den.items()}),
    )


class QFraction:
    """Canonical quotient of two HalfLaurent polynomials.

    Normal form: the denominator has lowest doubled exponent 0 and lowest
    coefficient 1, and shares no non-unit factor with the numerator, so
    equality of values coincides with structural equality.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num, den=None):
        if isinstance(num, (int, Fraction)):
            num = HalfLaurent.const(num)
        if den is None:
            den = _POLY_ONE
        elif isinstance(den, (int, Fraction)):
            den = HalfLaurent.const(den)
        if not den:
            raise ZeroDivisionError("zero denominator")
        if not num:
            den = _POLY_ONE
        else:
            num, den = _strip_unit(*_cancel(num, den))
        self.num = num
        self.den = den
        self._hash = None

    @classmethod
    def _raw(cls, num, den):
        # internal: num/den already in normal form
        out = cls.__new__(cls)
        out.num = num
        out.den = den
        out._hash = None
        return out

    @classmethod
    def from_factors(cls, nums, dens):
        """prod(nums)/prod(dens) for sequences of HalfLaurent factors, in
        normal form.

        Each numerator factor is cancelled against each denominator factor,
        both updated in place, so every pair ends coprime and so do the two
        products: they are multiplied out with no gcd of the whole.  A zero
        denominator factor raises ZeroDivisionError; otherwise a zero
        numerator factor gives ZERO.
        """
        if not all(dens):
            raise ZeroDivisionError("zero denominator")
        if not all(nums):
            return ZERO
        # factors are cancelled shifted to lowest exponent 0; shift keeps
        # the monomial taken out of them
        shift = 0
        low = []
        for d in dens:
            s = d.min_dexp()
            shift -= s
            low.append(d.shift(-s))
        num = _POLY_ONE
        for f in nums:
            s = f.min_dexp()
            shift += s
            f = f.shift(-s)
            for i, d in enumerate(low):
                if f.is_monomial():
                    break
                if not d.is_monomial():
                    f, low[i] = _cancel_low(f, d)
            num = num * f
        den = _POLY_ONE
        for d in low:
            den = den * d
        return cls._raw(*_strip_unit(num.shift(shift), den))

    @classmethod
    def sum_of_products(cls, pairs):
        """sum(a * b for a, b in pairs) for QFraction pairs, in normal form.

        The products of pairs whose denominators are both 1 are added term
        by term into one coefficient map, so no HalfLaurent or QFraction is
        built per product or per partial sum.  The other pairs go through
        * and +, and the polynomial part joins them in one last addition.
        """
        t = {}
        rest = None
        for a, b in pairs:
            if _is_one(a.den) and _is_one(b.den):
                bt = b.num._t
                for k1, c1 in a.num._t.items():
                    for k2, c2 in bt.items():
                        k = k1 + k2
                        c0 = t.get(k)
                        t[k] = c1 * c2 if c0 is None else c0 + c1 * c2
            else:
                p = a * b
                rest = p if rest is None else rest + p
        poly = cls._raw(HalfLaurent._raw({k: c for k, c in t.items() if c}),
                        _POLY_ONE)
        return poly if rest is None else rest + poly

    @classmethod
    def _reduced(cls, num, den):
        # num/den in lowest terms; den is already normalized
        return cls._raw(num, den) if _is_one(den) else cls(num, den)

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, QFraction):
            return x
        if isinstance(x, (int, Fraction, HalfLaurent)):
            return cls(x)
        return None

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        other = QFraction._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a value with denominator 1 equals, so must hash like, its
        # numerator (and through it a constant's int or Fraction value)
        if self._hash is None:
            if _is_one(self.den):
                self._hash = hash(self.num)
            else:
                self._hash = hash((self.num, self.den))
        return self._hash

    def __neg__(self):
        return QFraction._raw(-self.num, self.den)

    def __add__(self, other):
        other = QFraction._coerce(other)
        if other is None:
            return NotImplemented
        if self.den == other.den:
            if _is_one(self.den):
                return QFraction._raw(self.num + other.num, self.den)
            return QFraction(self.num + other.num, self.den)
        # a + c/d = (a*d + c)/d is already in lowest terms, since c and d
        # are coprime
        if _is_one(self.den):
            return QFraction._raw(self.num * other.den + other.num, other.den)
        if _is_one(other.den):
            return QFraction._raw(other.num * self.den + self.num, self.den)
        # Henrici's rule (Knuth, TAOCP vol. 2, 4.5.1): with g = gcd(b, d),
        # a/b + c/d = t/((b/g)(d/g)g) for t = a(d/g) + c(b/g), and t shares
        # with that denominator only the factors it shares with g
        a, b, c, d = self.num, self.den, other.num, other.den
        g = _poly_gcd(b, d)
        if g.is_monomial():
            return QFraction._raw(a * d + c * b, b * d)
        b, d = _exact_div(b, g), _exact_div(d, g)
        t, g = _cancel(a * d + c * b, g)
        return QFraction._raw(t, b * d * g)

    __radd__ = __add__

    def __sub__(self, other):
        other = QFraction._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = QFraction._coerce(other)
        if other is None:
            return NotImplemented
        if not self.num or not other.num:
            return ZERO
        if _is_one(self.den) and _is_one(other.den):
            return QFraction._raw(self.num * other.num, self.den)
        # a/b and c/d are in lowest terms, so a*c/(b*d) is too once the
        # factors shared by a and d and by c and b are cancelled
        u = QFraction._reduced(self.num, other.den)
        v = QFraction._reduced(other.num, self.den)
        return QFraction._raw(u.num * v.num, u.den * v.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = QFraction._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = QFraction._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return QFraction._raw(*_strip_unit(self.den, self.num))

    def __pow__(self, n):
        if not isinstance(n, int):
            raise ValueError("exponent must be an integer")
        if n < 0:
            return self.inverse() ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    # -- evaluation -------------------------------------------------------

    def limit_q1(self):
        """Exact classical limit q -> 1, as a Fraction."""
        d = self.den.at_one()
        if not d:
            raise PoleAtOne("no finite limit at q=1 for %s" % self)
        return self.num.at_one() / d

    # -- serialization ----------------------------------------------------

    def to_json(self):
        return {
            "num": [[k, str(c)] for k, c in sorted(self.num.items())],
            "den": [[k, str(c)] for k, c in sorted(self.den.items())],
        }

    def __str__(self):
        if _is_one(self.den):
            return str(self.num)
        num = str(self.num)
        if len(self.num._t) > 1:
            num = "(%s)" % num
        return "%s/(%s)" % (num, self.den)

    def __repr__(self):
        return "QFraction(%s)" % self


def _exact_div(a, g):
    """Exact division of a by g in the Laurent ring (g must divide a)."""
    sh_a = a.min_dexp()
    sh_g = g.min_dexp()
    pa = {k - sh_a: c for k, c in a.items()}
    pg = {k - sh_g: c for k, c in g.items()}
    out = {}
    dg = max(pg)
    lg = pg[dg]
    while pa:
        da = max(pa)
        if da < dg:
            raise ArithmeticError("inexact polynomial division")
        f = _coeff_div(pa[da], lg)
        sh = da - dg
        out[sh] = f
        for k, c in pg.items():
            kk = k + sh
            c0 = pa.get(kk)
            c0 = -f * c if c0 is None else c0 - f * c
            if c0:
                pa[kk] = c0
            elif kk in pa:
                del pa[kk]
    return HalfLaurent._raw({k + sh_a - sh_g: c for k, c in out.items()})


ZERO = QFraction(0)
ONE = QFraction(1)
Q_MINUS_QINV = QFraction(qpow(1) - qpow(-1))


# -- parsing of the printed form ------------------------------------------


def _is_int_str(s):
    """Whether s is ASCII digits with an optional leading minus sign."""
    d = s[1:] if s[:1] == "-" else s
    return d.isascii() and d.isdigit()


def _parse_coeff(s):
    return int(s) if _is_int_str(s) else Fraction(s)


def _parse_dexp(s):
    """The doubled exponent of a printed power q^s."""
    if _is_int_str(s):
        return 2 * int(s)
    if s.endswith("/2") and _is_int_str(s[:-2]):
        return int(s[:-2])
    return int(Fraction(s) * 2)


def parse_half_laurent(s):
    """Parse the output of HalfLaurent.__str__.

    Integer coefficients and integer or half-integer exponents, the forms
    __str__ prints, are read as ints; anything else goes through Fraction.
    """
    s = s.strip()
    if s == "0":
        return HalfLaurent._raw({})
    terms = []
    # normalize separators, then split on signs
    s = s.replace(" - ", " +-").replace(" + ", " +")
    for piece in s.split(" +"):
        piece = piece.strip()
        if not piece:
            continue
        sign = 1
        if piece.startswith("-"):
            sign = -1
            piece = piece[1:]
        if "q^" in piece:
            if "*" in piece:
                cs, es = piece.split("*q^")
                coeff = _parse_coeff(cs)
            else:
                coeff = 1
                es = piece[2:]
            dexp = _parse_dexp(es)
        else:
            coeff = _parse_coeff(piece)
            dexp = 0
        terms.append((dexp, sign * coeff))
    return HalfLaurent(terms)


def parse_qfraction(s):
    """Parse the output of QFraction.__str__."""
    s = s.strip()
    if "/(" in s:
        # split at the last "/(" so numerators like (..)/(..) work
        i = s.rindex("/(")
        num_s, den_s = s[:i], s[i + 2 : -1]
        if num_s.startswith("(") and num_s.endswith(")"):
            num_s = num_s[1:-1]
        return QFraction(parse_half_laurent(num_s), parse_half_laurent(den_s))
    return QFraction(parse_half_laurent(s))
