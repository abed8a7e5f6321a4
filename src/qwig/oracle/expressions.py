"""Symbolic algebra elements built from simple generators and Cartan
exponentials, with antipode rewriting.

An expression is a sum of terms, each a field coefficient times an ordered
product of atoms.  Atoms are either a simple generator e_a/f_a or a diagonal
exponential q^(sum_j c_j E_jj + shift).  The antipode and its inverse act by
reversing products with Koszul signs and conjugating generators by
q^(-+ h_a/2); they never touch matrices directly, so an expression can be
rewritten first and evaluated on any module afterwards.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from ..errors import IndexOutOfRange, InvalidArgument, NotHomogeneous
from ..exactq import ONE, QFraction, Q_MINUS_QINV, qpow
from .linalg import Matrix, _add_entry, matmul, scale_columns, scale_rows

__all__ = ["GenAtom", "CartanAtom", "Expr", "eij_expr", "etilde_expr"]


class GenAtom:
    """A simple raising or lowering generator."""

    __slots__ = ("kind", "a", "parity")

    def __init__(self, kind, a, parity):
        self.kind = kind  # 'e' or 'f'
        self.a = a
        self.parity = parity


def _doubled(x):
    """2x as an int, for x an int or Fraction multiple of 1/2."""
    x2 = 2 * Fraction(x)
    if x2.denominator != 1:
        raise InvalidArgument(
            "Cartan exponent %s is not a multiple of 1/2" % (x,)
        )
    return x2.numerator


class CartanAtom:
    """The diagonal element q^(sum_j coeffs_j E_jj + shift).

    dcoeffs and dshift hold the coefficients and the shift doubled, as
    ints, the convention exactq uses for exponents.
    """

    __slots__ = ("dcoeffs", "dshift", "parity")

    def __init__(self, coeffs, shift=0):
        self.dcoeffs = tuple(_doubled(c) for c in coeffs)
        self.dshift = _doubled(shift)
        self.parity = 0

    @classmethod
    def _raw(cls, dcoeffs, dshift):
        # internal: the doubled ints are already known
        atom = cls.__new__(cls)
        atom.dcoeffs = dcoeffs
        atom.dshift = dshift
        atom.parity = 0
        return atom


def _h_coeffs(sig, a):
    """Coefficient vector of h_a = (a) E_aa - (a+1) E_{a+1,a+1}."""
    c = [Fraction(0)] * sig.d
    c[a - 1] = Fraction(sig.sign(a))
    c[a] = -Fraction(sig.sign(a + 1))
    return tuple(c)


class Expr:
    """A sum of coefficient-weighted ordered products of atoms."""

    def __init__(self, terms):
        self.terms = tuple(terms)

    @classmethod
    def gen(cls, sig, kind, a):
        parity = 1 if a == sig.m else 0
        return cls([(ONE, (GenAtom(kind, a, parity),))])

    @classmethod
    def cartan(cls, coeffs, shift=Fraction(0)):
        return cls([(ONE, (CartanAtom(coeffs, shift),))])

    def scale(self, c):
        return Expr([(coeff * c, atoms) for coeff, atoms in self.terms])

    def __add__(self, other):
        return Expr(self.terms + other.terms)

    def __sub__(self, other):
        return self + other.scale(QFraction(-1))

    def __mul__(self, other):
        out = []
        for c1, a1 in self.terms:
            for c2, a2 in other.terms:
                out.append((c1 * c2, a1 + a2))
        return Expr(out)

    def parity(self):
        """Grading of a homogeneous expression."""
        ps = {sum(a.parity for a in atoms) % 2 for _, atoms in self.terms}
        if len(ps) > 1:
            raise NotHomogeneous("expression mixes even and odd terms")
        return ps.pop() if ps else 0

    def antipode(self, sig, power=1):
        """Apply S (power=+1) or S^-1 (power=-1) by term rewriting."""
        if power not in (1, -1):
            raise InvalidArgument(
                "antipode power must be 1 or -1, not %r" % (power,)
            )
        out = []
        for coeff, atoms in self.terms:
            # Koszul sign for reversing the ordered product
            pars = [a.parity for a in atoms]
            swaps = sum(
                pars[i] * pars[j]
                for i in range(len(pars))
                for j in range(i + 1, len(pars))
            )
            c = coeff if swaps % 2 == 0 else -coeff
            new_atoms = []
            for atom in reversed(atoms):
                if isinstance(atom, CartanAtom):
                    # the scalar part q^shift is central and fixed by S
                    new_atoms.append(CartanAtom._raw(
                        tuple(-x for x in atom.dcoeffs), atom.dshift
                    ))
                else:
                    h = _h_coeffs(sig, atom.a)
                    half = tuple(x / 2 for x in h)
                    neg = tuple(-x for x in half)
                    first, last = (neg, half) if power == 1 else (half, neg)
                    c = -c
                    new_atoms.extend(
                        [CartanAtom(first), atom, CartanAtom(last)]
                    )
            out.append((c, tuple(new_atoms)))
        return Expr(out)

    def evaluate(self, W):
        """The matrix of the expression on a module.

        A Cartan atom acts through its cached diagonal: it scales the rows
        of the generator that follows it, or the columns of the product
        before it, and is never multiplied out as a matrix.
        """
        total = [{} for _ in range(W.dim)]
        for coeff, atoms in self.terms:
            if not coeff:
                continue
            lead = None  # diagonal of the Cartan atoms before any generator
            acc = None  # the product from the first generator on
            for atom in atoms:
                if isinstance(atom, CartanAtom):
                    diag = W.cartan_diagonal(atom.dcoeffs, atom.dshift)
                    if acc is not None:
                        acc = scale_columns(acc, diag)
                    elif lead is None:
                        lead = diag
                    else:
                        lead = [x * y for x, y in zip(lead, diag)]
                    continue
                m = (W.e if atom.kind == "e" else W.f)[atom.a]
                if acc is not None:
                    acc = matmul(acc, m)
                else:
                    acc = m if lead is None else scale_rows(lead, m)
            if acc is None:
                for i, row in enumerate(total):
                    _add_entry(row, i, coeff if lead is None else coeff * lead[i])
                continue
            for row, acc_row in zip(total, acc.rows):
                for j, x in acc_row.items():
                    _add_entry(row, j, coeff * x)
        return Matrix(total, W.dim)


@lru_cache(maxsize=None)
def _eij_cached(m, n, i, j):
    from ..superweight import Signature

    sig = Signature(m, n)
    if abs(i - j) == 1:
        kind = "e" if i < j else "f"
        return Expr.gen(sig, kind, min(i, j))
    # peel off the generator adjacent to j
    k = j - 1 if i < j else j + 1
    Eik = _eij_cached(m, n, i, k)
    Ekj = _eij_cached(m, n, k, j)
    return Eik * Ekj - (Ekj * Eik).scale(QFraction(qpow(-sig.sign(k))))


def eij_expr(sig, i, j):
    """The non-simple generator E_ij = E_ik E_kj - q^(-(k)) E_kj E_ik."""
    if i == j:
        raise IndexOutOfRange("E_%d%d is not a root element" % (i, j))
    return _eij_cached(sig.m, sig.n, i, j)


@lru_cache(maxsize=None)
def _etilde_cached(m, n, i, j, spower):
    """etilde_expr, with the antipode (spower=1) or its inverse
    (spower=-1) applied: rewritten once per signature and shared by every
    module that evaluates it."""
    from ..superweight import Signature

    sig = Signature(m, n)
    if spower:
        return _etilde_cached(m, n, i, j, 0).antipode(sig, spower)
    d = sig.d
    coeffs = [Fraction(0)] * d
    if i == j:
        coeffs[i - 1] = Fraction(sig.sign(i))
        return Expr.cartan(coeffs)
    coeffs[i - 1] = Fraction(sig.sign(i), 2)
    coeffs[j - 1] = Fraction(sig.sign(j), 2)
    # the parity label and half-shift both come from the row index
    shift = -Fraction(sig.sign(i), 2)
    sgn = 1 if sig.parity(i) == 0 else -1
    head = Expr.cartan(coeffs, shift)
    return (head * _eij_cached(m, n, i, j)).scale(Q_MINUS_QINV * sgn)


def etilde_expr(sig, i, j):
    """The L-operator entry generator: for i < j (raising)
    (q - q^-1)(-1)^[i] q^((1/2)((i)E_ii + (j)E_jj - (i))) E_ij,
    for i > j (lowering) the same with (j) <-> (i) labels swapped, and
    q^((i)E_ii) on the diagonal.
    """
    return _etilde_cached(sig.m, sig.n, i, j, 0)
