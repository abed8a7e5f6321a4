"""Exact arithmetic over the field of rational functions in q^(1/2).

Elements are quotients of Laurent polynomials in the half-integer power
q^(1/2) with rational coefficients.  Exponents are stored doubled, so the
monomial q^(k/2) lives at integer key k and every object is hashable and
exactly comparable.  Monomials are units of the Laurent ring, which keeps
most denominators equal to 1 and makes gcd reduction cheap in practice.
"""

from __future__ import annotations

import math
import re
import struct
from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest

from .errors import ConsistencyError, InvalidArgument, PoleAtOne

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

    HalfLaurent(t) takes a clean map t: doubled exponents (int) to nonzero
    int or Fraction coefficients, the empty map for zero.  t is kept, not
    copied, and never changed.  The operators take HalfLaurent operands
    only; a scalar enters through const or QFraction.
    """

    __slots__ = ("_t", "_hash")

    def __init__(self, t):
        self._t = t
        self._hash = None

    @classmethod
    def const(cls, c):
        c = _as_fraction(c)
        return cls({0: c} if c else {})

    def items(self):
        return self._t.items()

    def __bool__(self):
        return bool(self._t)

    def __eq__(self, other):
        if type(other) is not HalfLaurent:
            return NotImplemented
        return self._t == other._t

    def __hash__(self):
        # QFraction(c) == c for a scalar c and hashes through its
        # numerator, so a constant must hash like its int or Fraction value
        if self._hash is None:
            t = self._t
            if not t or (len(t) == 1 and 0 in t):
                self._hash = hash(t.get(0, 0))
            else:
                self._hash = hash(frozenset(t.items()))
        return self._hash

    def __neg__(self):
        return HalfLaurent({k: -c for k, c in self._t.items()})

    def __add__(self, other):
        if type(other) is not HalfLaurent:
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
        return HalfLaurent(t)

    def __sub__(self, other):
        if type(other) is not HalfLaurent:
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if type(other) is not HalfLaurent:
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
        return HalfLaurent(t)

    # -- structure queries ------------------------------------------------

    def min_dexp(self):
        return min(self._t)

    def is_monomial(self):
        return len(self._t) == 1

    # -- evaluation -------------------------------------------------------

    def at_one(self):
        """Exact value at q = 1 (every monomial evaluates to 1); an int when
        every coefficient is an int."""
        return sum(self._t.values())

    # -- printing ---------------------------------------------------------

    def __str__(self):
        return _format(self._t)[1]

    def __repr__(self):
        return "HalfLaurent(%s)" % dict(sorted(self._t.items()))


def _format(t):
    """(pairs, text) for the coefficient map t of a HalfLaurent, from one
    pass over its terms in increasing exponent: the pairs [k, str(c)] that
    to_json writes, and the text that str prints.  Each coefficient is
    formatted once: the text reuses the pair's string, its "-" moved into
    the separator."""
    if not t:
        return [], "0"
    pairs = []
    parts = []
    for k in sorted(t):
        c = str(t[k])
        pairs.append([k, c])
        if not k:
            parts.append(" - " + c[1:] if c[0] == "-" else " + " + c)
        elif c == "1":
            parts.append(" + " + _power_text(k))
        elif c == "-1":
            parts.append(" - " + _power_text(k))
        elif c[0] == "-":
            parts.append(" - " + c[1:] + "*" + _power_text(k))
        else:
            parts.append(" + " + c + "*" + _power_text(k))
    text = "".join(parts)
    return pairs, text[3:] if text[1] == "+" else "-" + text[3:]


@lru_cache(maxsize=None)
def _power_text(k):
    """The printed power q^(k/2) for a doubled exponent k != 0."""
    return "q^%d" % (k >> 1) if not k & 1 else "q^%d/2" % k


@lru_cache(maxsize=None)
def qpow(x):
    """The monomial q^x for x an integer or half-integer Fraction."""
    if isinstance(x, int):
        return HalfLaurent({2 * x: 1})
    x2 = _as_fraction(_as_fraction(x) * 2)
    if isinstance(x2, Fraction):
        raise InvalidArgument("exponent must be a multiple of 1/2")
    return HalfLaurent({x2: 1})


@lru_cache(maxsize=None)
def qnum(x):
    """Symmetric q-number [x]_q = (q^x - q^-x)/(q - q^-1) for integer x."""
    if not isinstance(x, int):
        raise InvalidArgument("qnum takes an integer argument")
    if x == 0:
        return HalfLaurent({})
    s = 1 if x > 0 else -1
    n = abs(x)
    return HalfLaurent({s * 2 * (n - 1 - 2 * j): s for j in range(n)})


# -- univariate gcd over Q, on shifted (nonnegative) exponents -------------
#
# The gcd is unique up to a unit (a monomial times a nonzero scalar), so it
# is computed on primitive integer polynomials: Python int arithmetic is far
# cheaper than Fraction arithmetic, and the normalized result is the same
# polynomial whichever associate is found.


def _primitive_list(cs):
    """The nonzero coefficient sequence cs scaled by a rational to coprime
    int coefficients, as a list."""
    lcm = None
    for c in cs:
        if type(c) is not int:
            d = c.denominator
            lcm = d if lcm is None else lcm * d // math.gcd(lcm, d)
    if lcm is not None:
        cs = [c * lcm if type(c) is int else c.numerator * (lcm // c.denominator)
              for c in cs]
    g = math.gcd(*cs)
    return [c // g for c in cs] if g != 1 else list(cs)


# GCDHEU evaluates at up to this many points, each larger by 73794/27011
# (about 2.73) than the last, before the pseudo-remainder loop takes over
_HEU_POINTS = 6


def _poly_gcd(a, b):
    """(g, a/g, b/g) for the gcd g of two nonzero HalfLaurents, which is
    unique up to a unit (monomial times scalar) and normalized with lowest
    doubled exponent 0 and lowest coefficient 1.

    The heuristic gcd GCDHEU (Char, Geddes and Gonnet, J. Symbolic Comput.
    7, 1989; Geddes, Czapor and Labahn, Algorithms for Computer Algebra,
    7.7) evaluates the primitive int polynomials A, B of a and b, shifted to
    exponent 0, at an integer xi >= 2 min(|A|, |B|) + 2 (max norms), and
    reads a polynomial h back from the balanced base-xi digits of
    gcd(A(xi), B(xi)).  If the primitive part of h divides both A and B it
    is their gcd, and a constant h proves them coprime; the divisions that
    show it give the cofactors.  A point where it does not divide is
    unlucky, and the next is larger; after _HEU_POINTS points the
    pseudo-remainder gcd of A and B (_prs_gcd) is the last h, and goes
    through the same divisions and normalisation.
    """
    la, pa = _dense(a._t)
    lb, pb = _dense(b._t)
    ia, ib = _primitive_list(pa), _primitive_list(pb)
    xi = 2 * min(max(map(abs, ia)), max(map(abs, ib))) + 2
    for point in range(_HEU_POINTS + 1):
        if point < _HEU_POINTS:
            h = _balanced_digits(math.gcd(_horner(ia, xi), _horner(ib, xi)), xi)
            xi = xi * 73794 // 27011
        else:
            h = _prs_gcd(ia, ib)
        if len(h) == 1:
            return _POLY_ONE, a, b
        if len(h) <= min(len(pa), len(pb)):
            c = math.gcd(*h)
            if c != 1:
                h = [x // c for x in h]
            qa = _divide(pa, h)
            qb = None if qa is None else _divide(pb, h)
            if qb is not None:
                # a = x^la qa h and h = h0 g with g(0) = 1
                h0 = h[0]
                if h0 != 1:
                    h = [_coeff_div(x, h0) for x in h]
                    qa = [x * h0 for x in qa]
                    qb = [x * h0 for x in qb]
                return _sparse(0, h), _sparse(la, qa), _sparse(lb, qb)


def _horner(p, x):
    """The int coefficient list p evaluated at the int x."""
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _balanced_digits(v, xi):
    """The list h with v = sum_i h[i] xi^i and -xi/2 < h[i] <= xi/2, for an
    int v > 0: the polynomial GCDHEU reads back from gcd(A(xi), B(xi))."""
    h = []
    half = xi // 2
    while v:
        v, c = divmod(v, xi)
        if c > half:
            c -= xi
            v += 1
        h.append(c)
    return h


def _prs_gcd(a, b):
    """A gcd of the primitive int coefficient lists a and b, with nonzero
    constant terms, by primitive pseudo-remainders (Geddes, Czapor and
    Labahn, 7.2).  Each remainder is stripped of its factors of x, a unit
    of the Laurent ring that divides neither input."""
    while len(b) > 1:
        # a <- s a - f x^(deg a - deg b) b cancels the leading term of a
        a = list(a)
        lb = b[-1]
        while len(a) >= len(b):
            f = a[-1]
            g = math.gcd(f, lb)
            s, f = lb // g, f // g
            if s != 1:
                a = [s * c for c in a]
            for i, c in enumerate(b, len(a) - len(b)):
                a[i] -= f * c
            while a and not a[-1]:
                a.pop()
        if not a:
            break
        low = 0
        while not a[low]:
            low += 1
        a, b = b, _primitive_list(a[low:])
    return b


# -- dense polynomial kernel ------------------------------------------------
#
# Every polynomial quotient below is synthetic division on coefficient lists,
# p[i] the coefficient of x^i and p[-1] nonzero, and every product it needs
# is a product of binomials (Knuth, TAOCP vol. 2, 4.6.1).


def _dense(t):
    """(low, p) with t = x^low sum_i p[i] x^i, for a nonzero coefficient
    dict t."""
    low = min(t)
    p = [0] * (max(t) - low + 1)
    for i, c in t.items():
        p[i - low] = c
    return low, p


def _sparse(low, p):
    """The HalfLaurent x^low sum_i p[i] x^i."""
    return HalfLaurent({i + low: c for i, c in enumerate(p) if c})


def _times_binomial(p, n, k):
    """The coefficient list p times (1 - x^n)^k; p itself for k <= 0."""
    for _ in range(k):
        out = p + [0] * n
        for i, c in enumerate(p):
            out[i + n] -= c
        p = out
    return p


def _divide(p, g):
    """The quotient list p / g, or None if g does not divide p."""
    m = len(g) - 1
    lc = g[m]
    lower = [(j, c) for j, c in enumerate(g[:m]) if c]
    p = list(p)
    q = [0] * (len(p) - m)
    for i in range(len(q) - 1, -1, -1):
        c = p[i + m]
        if c:
            if lc != 1:
                c = _coeff_div(c, lc)
            q[i] = c
            for j, cj in lower:
                p[i + j] -= c * cj
    if any(p[:m]):
        return None
    return q


def _cancel(a, b):
    """(a/h, b/h) for h = gcd(a, b), on nonzero HalfLaurents."""
    if a.is_monomial() or b.is_monomial():
        return a, b
    _, a, b = _poly_gcd(a, b)
    return a, b


# -- cyclotomic factor maps, in x = q^(1/2) ---------------------------------
#
# A closed-form value is a ratio of products of q-numbers and monomials, so
# each of its factors is c x^s prod_d Phi_d(x)^e_d.  The Phi_d are
# irreducible over Q and pairwise coprime, so such factors cancel by adding
# exponents, and the value's canonical form follows with no gcd.  The closed
# forms draw their factors from a small recurring set; the bounds keep memory
# flat over a long run.
#
# A map is (c, s, E, b).  E packs the exponents as one int,
# E = sum_d e_d 2^(16 d), a balanced 16-bit digit per d (Monagan and Pearce,
# CASC 2007, pack exponent vectors the same way), so maps multiply and divide
# by adding and subtracting E, and an exponent that reaches zero leaves no
# trace.  b bounds every |e_d|: a factor's b is its largest |e_d|, checked
# when the factor is packed, and a merge's b is the sum of its maps' b,
# checked after the merge.  No map's b exceeds _BOUND, so the difference of
# two maps' E, the most that a sum forms, has every digit below 2^15 in
# size, inside its slot, and unpacks to the exponents it was built from.  A
# map that would break the bound raises ConsistencyError instead.

_SLOT = 16  # bits per exponent; the byte patterns below are written for 16
_BOUND = (1 << (_SLOT - 2)) - 1


def _pack(e):
    """The packed exponent vector of the dict {d: e_d}."""
    return sum(k << (_SLOT * d) for d, k in e.items())


def _unpack(E):
    """The dict {d: e_d} of the nonzero exponents packed in E, in
    increasing d: with 2^15 added to every digit, each slot of E is one
    unsigned 16-bit int."""
    n = E.bit_length() // _SLOT + 1
    half = 1 << (_SLOT - 1)
    x = E + int.from_bytes(b"\x00\x80" * n, "little")
    return {d: v - half for d, v in enumerate(
        struct.unpack("<%dH" % n, x.to_bytes(2 * n, "little"))) if v != half}


def _split(E):
    """(P, N) with E = P - N, P packing the positive exponents of E and N
    the negated negative ones.  Each digit is offset by 2^15, into
    [1, 2^16), so that a slot's top bit is set exactly when its exponent is
    not negative; a mask of those slots selects either part, in a few
    operations on whole ints."""
    n = E.bit_length() // _SLOT + 1
    ones = int.from_bytes(b"\x01\x00" * n, "little")  # 1 in each slot
    offset = ones << (_SLOT - 1)
    x = E + offset
    pos = ((x >> (_SLOT - 1)) & ones) * ((1 << _SLOT) - 1)
    neg = ((1 << (_SLOT * n)) - 1) ^ pos
    return (x & pos) - (offset & pos), (offset & neg) - (x & neg)


_E_GAMMA = 1.7810724179901979  # e ** (Euler's constant)


@lru_cache(maxsize=None)
def _max_cyclotomic_index(deg):
    """The largest d with phi(d) <= deg, that is the largest d for which
    Phi_d, of degree phi(d), can divide a polynomial of degree deg.

    Every n >= 3 has phi(n) > n / (e^gamma ln ln n + 3 / ln ln n) (Rosser
    and Schoenfeld 1962), a bound increasing in n; the doubling stops at an
    n where it exceeds deg, and a totient sieve up to that n finds every d.
    """
    n = 8
    while n <= deg * (_E_GAMMA * math.log(math.log(n))
                      + 3 / math.log(math.log(n))):
        n *= 2
    phi = list(range(n + 1))
    for p in range(2, n + 1):
        if phi[p] == p:
            for k in range(p, n + 1, p):
                phi[k] -= phi[k] // p
    return max((d for d in range(1, n + 1) if phi[d] <= deg), default=0)


def _factor_map(f):
    """The map (c, s, E, b) with f = c q^(s/2) prod_d Phi_d(q^(1/2))^e_d, E
    the e_d packed and b their largest size, for a nonzero HalfLaurent f;
    ConsistencyError if f is no such product, or has an e_d beyond _BOUND.

    f shifted to lowest exponent 0 and divided by its constant term is peeled
    as p = prod_N (1 - x^N)^g(N).  The peel keeps a = p prod_{g<0} (1 - x^N)^-g
    and b = prod_{g>0} (1 - x^N)^g.  The lowest term where a and b differ
    sits at the next N and gives g(N).  The peel ends when a == b, which is
    the exact expansion p = prod_N (1 - x^N)^g(N).  It gives up at a g(N)
    that is not an integer, at |g(N)| > deg p, or at an N above the largest
    d with phi(d) <= deg p.  No cyclotomic product reaches these: its
    |g(N)| <= sum e_d <= deg p, and g(N) != 0 only for N dividing a d with
    e_d != 0, where phi(d) = deg Phi_d <= deg p.  Since
    1 - x^N = -prod_{d | N} Phi_d, e_d is the sum of g(N) over the multiples
    N of d.
    """
    s, p = _dense(f._t)
    c0 = p[0]
    a = [_coeff_div(c, c0) for c in p]
    deg = len(a) - 1
    top = _max_cyclotomic_index(deg)
    b = [1]
    g = {}
    while a != b:
        n, gn = next((i, y - x) for i, (x, y)
                     in enumerate(zip_longest(a, b, fillvalue=0)) if x != y)
        if type(gn) is not int or abs(gn) > deg or n > top:
            raise ConsistencyError(
                "%s is no product of cyclotomic polynomials" % f)
        g[n] = gn
        if gn < 0:
            a = _times_binomial(a, n, -gn)
        else:
            b = _times_binomial(b, n, gn)
    e = {}
    for n, gn in g.items():
        for d in range(1, n + 1):
            if n % d == 0:
                e[d] = e.get(d, 0) + gn
    unit = -c0 if sum(g.values()) % 2 else c0
    bound = max(map(abs, e.values()), default=0)
    if bound > _BOUND:
        raise ConsistencyError(
            "%s has a cyclotomic exponent beyond %d" % (f, _BOUND))
    return unit, s, _pack(e), bound


@lru_cache(maxsize=4096)
def _mobius_terms(d):
    """The pairs (N, mu(d/N)) with Phi_d = prod_{N | d} (x^N - 1)^mu(d/N),
    over the N with mu(d/N) != 0."""
    terms = [(d, 1)]
    p, rest = 2, d
    while rest > 1:
        if p * p > rest:  # rest is prime
            p = rest
        if rest % p == 0:
            terms += [(n // p, -m) for n, m in terms]
            while rest % p == 0:
                rest //= p
        p += 1
    return tuple(terms)


@lru_cache(maxsize=1024)
def _cyclotomic_poly(P):
    """prod_d Phi_d(x)^e_d as a coefficient tuple, for a packed vector P of
    exponents e_d >= 0.

    By the Moebius products of the Phi_d the product is, up to sign,
    p = prod_N (1 - x^N)^h(N), a polynomial with L = sum_N N h(N) + 1 terms.
    Each 1 - x^N is antipalindromic, so p[L - 1 - i] = s p[i] for
    s = (-1)^(sum_N h(N)), and only its first H = ceil(L/2) terms are
    computed: as a power series cut off at H terms, in place, each factor
    1 - x^N from the top down, each quotient 1/(1 - x^N) = sum_j x^(jN)
    from the bottom up, and a binomial with N >= H, which is 1 below x^H,
    not at all.  The rest is the mirror image.  The product is monic, so
    it is s p.
    """
    h = {}
    for d, k in _unpack(P).items():
        for n, m in _mobius_terms(d):
            h[n] = h.get(n, 0) + m * k
    size = sum(n * k for n, k in h.items()) + 1
    half = (size + 1) // 2
    p = [1] + [0] * (half - 1)
    for n, k in h.items():
        if n >= half:
            continue
        for _ in range(k):
            for i in range(half - 1, n - 1, -1):
                p[i] -= p[i - n]
        for _ in range(-k):
            for i in range(n, half):
                p[i] += p[i - n]
    mirror = p[:size - half][::-1]
    if sum(h.values()) % 2:
        return tuple([-c for c in p] + mirror)
    return tuple(p + mirror)


@lru_cache(maxsize=1024)
def _cyclotomic_den(N):
    """(sign, den) with den = sign prod_d Phi_d(x)^e_d as a HalfLaurent in
    QFraction's normal form, den(0) = 1, for a packed vector N as
    _cyclotomic_poly takes it; built once per vector.  Phi_1(0) = -1 and
    Phi_d(0) = 1 for d > 1, so sign is -1 when Phi_1 has an odd exponent."""
    p = _cyclotomic_poly(N)
    if p[0] > 0:
        return 1, _sparse(0, p)
    return -1, _sparse(0, [-c for c in p])


def _merged_map(nums, dens):
    """The map (c, s, E, b) of prod(nums)/prod(dens), for sequences of maps
    (c, s, E, b): factor maps as _factor_map gives them, monomials
    (c, s, 0, 0), or merged maps.  Each merge is one int addition or
    subtraction per map; ConsistencyError if the sum b of the maps' bounds
    exceeds _BOUND, so that no exponent can leave its slot."""
    unit, shift, E, bound = 1, 0, 0, 0
    for c, s, fe, b in nums:
        if c != 1:
            unit *= c
        shift += s
        E += fe
        bound += b
    for c, s, fe, b in dens:
        if c != 1:
            unit = _coeff_div(unit, c)
        shift -= s
        E -= fe
        bound += b
    if bound > _BOUND:
        raise ConsistencyError(
            "merged cyclotomic exponents may exceed %d" % _BOUND)
    return unit, shift, E, bound


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
        HalfLaurent({k - low: _coeff_div(c, lc) for k, c in num.items()}),
        HalfLaurent({k - low: _coeff_div(c, lc) for k, c in den.items()}),
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
    def from_maps(cls, nums, dens):
        """The quotient of the products of two sequences of maps, each
        c q^(s/2) prod_d Phi_d(q^(1/2))^e_d: the maps merged by _merged_map,
        then from_merged."""
        return cls.from_merged(_merged_map(nums, dens))

    @staticmethod
    def from_merged(m):
        """The value of the merged map m = (unit, shift, E, b), as
        _merged_map gives it, kept factored (_Factored).

        Its key (unit, shift, E) is canonical, since the Phi_d are monic,
        irreducible and pairwise coprime: two factored values are equal
        exactly when their keys are, and compare with no polynomial built.
        num and den are built on first read, the Phi_d with a positive
        exponent multiplied out into the numerator and those with a negative
        one into the denominator, so the two are coprime with no gcd.
        """
        out = _Factored.__new__(_Factored)
        out._key = m[:3]
        out._hash = None
        return out

    @classmethod
    def sum_of_quotients(cls, merged):
        """sum(from_merged(m) for m in merged), in normal form, over one
        common denominator and with no gcd.

        Each term is a merged map c q^(s/2) prod_d Phi_d^e_d.  The common
        denominator is prod_d Phi_d^-C_d with C_d the least of 0 and every
        term's e_d, taken slot by slot on the packed vectors as
        min(C, E) = C - P(C - E) (_split); each term's numerator over it is
        the cached product keyed by E - C, expanded and added into one
        coefficient map.  A zero sum, the residuals' usual result, stops
        there.  Otherwise each Phi_d of the denominator is divided out of
        the sum while it divides it exactly; the Phi_d are irreducible and
        pairwise coprime, so what is left is in lowest terms.  Every key and
        difference is of two maps within _BOUND, so it stays in its slots.
        """
        maps = list(merged)
        least = 0
        for m in maps:
            least -= _split(least - m[2])[0]
        t = {}
        for unit, shift, E, _ in maps:
            for i, c in enumerate(_cyclotomic_poly(E - least), shift):
                if c:
                    c0 = t.get(i)
                    t[i] = unit * c if c0 is None else c0 + unit * c
        t = {i: _as_fraction(c) for i, c in t.items() if c}
        if not t:
            return ZERO
        low, p = _dense(t)
        common = _unpack(-least)
        for d in common:
            phi = _cyclotomic_poly(1 << (_SLOT * d))
            while common[d]:
                quotient = _divide(p, phi)
                if quotient is None:
                    break
                p = quotient
                common[d] -= 1
        sign, den = _cyclotomic_den(_pack(common))
        if sign < 0:
            p = [-c for c in p]
        return cls._raw(_sparse(low, p), den)

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
        poly = cls._raw(HalfLaurent({k: c for k, c in t.items() if c}),
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
        g, b, d = _poly_gcd(b, d)
        if g.is_monomial():
            return QFraction._raw(a * d + c * b, b * d)
        t, g = _cancel(a * d + c * b, g)
        return QFraction._raw(t, b * d * g)

    __radd__ = __add__

    def __sub__(self, other):
        other = QFraction._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

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

    def inverse(self):
        if not self.num:
            raise ZeroDivisionError("inverse of zero")
        return QFraction._raw(*_strip_unit(self.den, self.num))

    # -- evaluation -------------------------------------------------------

    def limit_q1(self):
        """Exact classical limit q -> 1, as a Fraction."""
        d = self.den.at_one()
        if not d:
            raise PoleAtOne("no finite limit at q=1 for %s" % self)
        return Fraction(self.num.at_one(), d)

    # -- serialization ----------------------------------------------------

    def json_entry(self):
        """{"value": self.to_json(), "str": str(self)}, from one formatting
        pass over num and one over den (_format)."""
        num, text = _format(self.num._t)
        if _is_one(self.den):
            return {"value": {"num": num, "den": [[0, "1"]]}, "str": text}
        den, den_text = _format(self.den._t)
        if len(num) > 1:
            text = "(%s)" % text
        return {"value": {"num": num, "den": den},
                "str": "%s/(%s)" % (text, den_text)}

    def to_json(self):
        return self.json_entry()["value"]

    def __str__(self):
        return self.json_entry()["str"]

    def __repr__(self):
        return "QFraction(%s)" % self


class _Factored(QFraction):
    """A QFraction kept as the key (unit, shift, E) of its merged map, as
    QFraction.from_merged makes it, with num and den built on first read.

    Reading num or den (str, to_json, limit_q1, arithmetic, hash, or ==
    against an unfactored value) builds both from the cached cyclotomic
    products of E's positive and negative parts (_split) and keeps them in
    the slots, so later reads cost what a plain QFraction's do.  Two
    factored values compare by key alone.  A factored value is never 0.
    """

    __slots__ = ("_key",)

    def __getattr__(self, name):
        # reached only while the num and den slots are unset
        if name != "num" and name != "den":
            raise AttributeError(name)
        unit, shift, E = self._key
        pos, neg = _split(E)
        num = _cyclotomic_poly(pos)
        sign, den = _cyclotomic_den(neg)
        if sign < 0:
            unit = -unit
        if unit != 1:
            if type(unit) is int:
                num = [unit * c for c in num]
            else:
                num = [_as_fraction(unit * c) for c in num]
        self.num = num = _sparse(shift, num)
        self.den = den
        return num if name == "num" else den

    def __eq__(self, other):
        if type(other) is _Factored:
            return self._key == other._key
        return QFraction.__eq__(self, other)

    __hash__ = QFraction.__hash__


ZERO = QFraction(0)
ONE = QFraction(1)
Q_MINUS_QINV = QFraction(qpow(1) - qpow(-1))


# -- reading the printed form ---------------------------------------------

# a printed term: c, c*q^e or q^e, with c = a or a/b and e = k or k/2; 1 is
# never written before *, and [0-9], unlike \d, takes ASCII digits only
_TERM = re.compile(r"(?!1\*)({0})(?:/({0}))?(?:\*q\^(-?{0})(/2)?)?"
                   r"|q\^(-?{0})(/2)?".format("[1-9][0-9]*"))


def _read_terms(text):
    """The coefficient map t with _format(t)[1] == text, or None.

    That text is "0", or terms of strictly increasing exponent joined by
    " + " or " - ", the first led by "-" if negative.  A term is c, c*q^e
    or q^e: c a positive int or a reduced a/b with b > 1, and e a nonzero
    int or an odd k over 2."""
    if text == "0":
        return {}
    words = ("- " + text[1:] if text[:1] == "-" else "+ " + text).split(" ")
    t, last = {}, None
    for sign, term in zip(words[::2], words[1::2]):
        m = _TERM.fullmatch(term)
        if m is None or sign not in ("+", "-"):
            return None
        a, b, e, half, bare, bare_half = m.groups()
        if a is None:
            c, e, half = 1, bare, bare_half
        elif b is None:
            c = int(a)
        else:
            c = Fraction(int(a), int(b))
            if b == "1" or c.denominator != int(b):
                return None
        k = 0 if e is None else int(e) if half else 2 * int(e)
        if (half and not k & 1) or (last is not None and k <= last):
            return None
        t[k] = -c if sign == "-" else c
        last = k
    return None if len(words) & 1 else t


def parse_qfraction(s):
    """The QFraction x with str(x) == s.strip(); InvalidArgument on any
    other text.

    A quotient prints as num/(den): num in parentheses exactly when it has
    more than one term, and den of two or more terms, led by the constant 1
    and coprime to num, which normalising checks at the cost of a gcd."""
    text = s.strip()
    head, slash, tail = text.partition("/(")
    wrapped = slash != "" and head[:1] == "(" and head[-1:] == ")"
    try:
        num = _read_terms(head[1:-1] if wrapped else head)
        den = _read_terms(tail[:-1]) if tail[-1:] == ")" else None
    except ValueError:  # int() refuses a number of over 4300 digits
        num = None
    if num is not None and not slash:
        return QFraction._raw(HalfLaurent(num), _POLY_ONE)
    if (num is not None and den is not None and len(den) > 1
            and wrapped == (len(num) > 1)):
        x = QFraction(HalfLaurent(num), HalfLaurent(den))
        if x.num._t == num and x.den._t == den:
            return x
    raise InvalidArgument("not a printed value: %r" % s)
