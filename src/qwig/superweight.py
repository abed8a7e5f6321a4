"""Weights, gradings and characteristic roots for gl(m|n).

Basis indices run 1..m+n; indices 1..m are even and m+1..m+n are odd.
The invariant bilinear form is graded: (eps_i, eps_j) = sign(i) delta_ij
with sign +1 on the even block and -1 on the odd block.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .errors import (
    IndexOutOfRange,
    InvalidArgument,
    NonIntegralWeight,
    SignatureMismatch,
)
from .exactq import QFraction, qpow, qnum

__all__ = [
    "Signature",
    "Weight",
    "rho",
    "char_roots",
    "subalgebra_roots",
    "deformed_root",
    "is_typical",
]


class _Value:
    """Base of the frozen value classes.

    A subclass names its fields in _fields, and its __init__ sets each once
    through object.__setattr__.  Two values are equal when they have the
    same class and equal fields, and a value hashes as the tuple of its
    fields unless its class defines __hash__.  repr reads
    Signature(m=2, n=1), and a value pickles as its class called on its
    fields.
    """

    def __init_subclass__(cls):
        # __eq__ and __hash__ are compiled over the named fields: equality of
        # weights and signatures runs in the sweep's inner loops, where an
        # operator.attrgetter of the fields costs about twice as much on
        # Python 3.11
        mine = "".join("self.%s, " % f for f in cls._fields)
        ns = {}
        exec("def __eq__(self, other):\n"
             "    if other.__class__ is self.__class__:\n"
             "        return (%s) == (%s)\n"
             "    return NotImplemented\n"
             "def __hash__(self):\n"
             "    return hash((%s))\n"
             % (mine, mine.replace("self.", "other."), mine), ns)
        cls.__eq__ = ns["__eq__"]
        if "__hash__" not in cls.__dict__:
            cls.__hash__ = ns["__hash__"]

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % name)

    def __repr__(self):
        return "%s(%s)" % (self.__class__.__qualname__, ", ".join(
            "%s=%r" % (f, getattr(self, f)) for f in self._fields))

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, f) for f in self._fields)


class _memo:
    """A functools.cached_property without the lock that Python 3.11's
    takes on every first read, which costs more than computing a small
    value.  The first read stores the value in the instance's __dict__,
    where later reads find it before this descriptor.  Two threads reading
    at once may both compute it, and store equal values.  The stored value
    is no field, so equality, hashing and pickling ignore it."""

    def __init__(self, fn):
        self.fn = fn
        self.name = fn.__name__
        self.__doc__ = fn.__doc__

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


class Signature(_Value):
    """The pair (m, n) of even and odd basis dimensions, both >= 1."""

    _fields = ("m", "n")

    def __init__(self, m, n):
        if type(m) is not int or type(n) is not int:
            raise InvalidArgument("signature needs integers m and n")
        if m < 1 or n < 1:
            raise InvalidArgument("signature needs m >= 1 and n >= 1")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)

    @property
    def d(self):
        return self.m + self.n

    def parity(self, i):
        """0 for even indices 1..m, 1 for odd indices m+1..m+n."""
        if not 1 <= i <= self.d:
            raise IndexOutOfRange("index %d outside 1..%d" % (i, self.d))
        return 0 if i <= self.m else 1

    def sign(self, i):
        """(i) = (-1)^[i], the grading sign of basis index i."""
        return 1 if self.parity(i) == 0 else -1

    def __str__(self):
        return "gl(%d|%d)" % (self.m, self.n)


class Weight(_Value):
    """An integral gl(m|n) weight, components in the eps basis."""

    _fields = ("sig", "comps")

    def __init__(self, sig, comps):
        # stored as a tuple, so that a weight built from a list hashes
        comps = tuple(comps)
        if len(comps) != sig.d:
            raise InvalidArgument(
                "expected %d components, got %d" % (sig.d, len(comps))
            )
        if not all(type(c) is int for c in comps):
            raise NonIntegralWeight("weight components must be integers")
        object.__setattr__(self, "sig", sig)
        object.__setattr__(self, "comps", comps)

    def __getitem__(self, i):
        """Component at 1-based index i."""
        if not 1 <= i <= self.sig.d:
            raise IndexOutOfRange("index %d outside 1..%d" % (i, self.sig.d))
        return self.comps[i - 1]

    @property
    def even(self):
        return self.comps[: self.sig.m]

    @property
    def odd(self):
        return self.comps[self.sig.m :]

    # formatted once: a weight is printed in every message and key that
    # names it or one of its branchings
    @_memo
    def _text(self):
        return "%s|%s" % (
            ",".join(str(c) for c in self.even),
            ",".join(str(c) for c in self.odd),
        )

    def __str__(self):
        return self._text


def rho(sig):
    """Half-sum of even positive roots minus half-sum of odd positive roots.

    Returned as a tuple of Fractions in the eps basis; components are
    (m - n - 2i + 1)/2 on the even block and (m + n - 2u + 1)/2 on the odd
    block.
    """
    m, n = sig.m, sig.n
    return tuple(
        Fraction(m - n - 2 * i + 1, 2) for i in range(1, m + 1)
    ) + tuple(Fraction(m + n - 2 * u + 1, 2) for u in range(1, n + 1))


def char_roots(lam, variant):
    """Classical characteristic root exponents of the weight lam.

    variant 'adjoint': alpha_i = lam_i + 1 - i (even),
                       alpha_u = u - m - 1 - lam_u (odd, u = 1..n);
    variant 'dual':    alpha_i = lam_i + m - n - i,
                       alpha_u = u - n - lam_u.
    Returns a tuple of ints indexed by global position 1..m+n.
    """
    return _root_exponents(lam.comps, lam.sig.m, lam.sig.n, variant)


def subalgebra_roots(lam0, variant, parent_sig):
    """Characteristic roots of a gl(m|n-1) weight, in the parent's labels.

    lam0 is the tuple of the weight's m + n - 1 integer components, m of
    them when n - 1 = 0 (plain gl(m)).  The adjoint exponents do not
    depend on n, the dual ones use n - 1 in place of n.
    """
    m, n = parent_sig.m, parent_sig.n
    if len(lam0) != m + n - 1:
        raise SignatureMismatch(
            "subalgebra weight needs %d components" % (m + n - 1)
        )
    return _root_exponents(lam0, m, n - 1, variant)


def _root_exponents(comps, m, n, variant):
    """char_roots' exponents of a gl(m|n) weight's components, for any
    n >= 0 (n = 0 is plain gl(m))."""
    if variant == "adjoint":
        ev = tuple(comps[i - 1] + 1 - i for i in range(1, m + 1))
        od = tuple(u - m - 1 - comps[m + u - 1] for u in range(1, n + 1))
    elif variant == "dual":
        ev = tuple(comps[i - 1] + m - n - i for i in range(1, m + 1))
        od = tuple(u - n - comps[m + u - 1] for u in range(1, n + 1))
    else:
        raise InvalidArgument("variant must be 'adjoint' or 'dual'")
    return ev + od


@lru_cache(maxsize=None)
def deformed_root(alpha):
    """q-deformation of a classical root exponent alpha:
    (1 - q^(-2 alpha))/(q - q^-1) = q^-alpha [alpha]_q.

    Adjoint and dual roots share this formula; the variants differ only
    through which exponent is fed in.
    """
    return QFraction(qpow(-alpha) * qnum(alpha))


def is_typical(lam):
    """Whether (lam + rho, eps_i - eps_u) != 0 for every even i, odd u.

    Atypical weights label modules whose irreducible character degenerates.
    No closed form is gated on typicality; `qwig invariants` reports it.
    """
    sig = lam.sig
    r = rho(sig)
    nu = [lam[i] + r[i - 1] for i in range(1, sig.d + 1)]
    # graded form: (nu, eps_i - eps_u) = nu_i + nu_u for even i, odd u
    return all(
        nu[i - 1] + nu[u - 1] != 0
        for i in range(1, sig.m + 1)
        for u in range(sig.m + 1, sig.d + 1)
    )
