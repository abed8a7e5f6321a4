"""L-operators and characteristic matrices on vector x module spaces.

Each L-operator acts on V (x) W or V* (x) W, where V is the defining
module and W an arbitrary module; it is assembled as sum over elementary
matrices in the first slot tensored with algebra elements represented on W.
The four characteristic matrices are affine functions of products of two
such operators.  Their eigenvalues are simple affine-exponential functions
of the highest weight, and the Lagrange interpolation polynomials in them
project onto the irreducible summands of V (x) W or V* (x) W.
"""

from __future__ import annotations

from ..errors import DegenerateRoots
from ..exactq import ONE, QFraction, Q_MINUS_QINV, qnum, qpow
from ..superweight import char_roots, rho
from .expressions import _etilde_cached
from .linalg import (
    Matrix,
    gkron,
    matmul,
    mat_scale,
    shift_diagonal,
    shifted_product,
)

__all__ = [
    "eij_matrix",
    "etilde_matrix",
    "l_operator",
    "char_matrix",
    "char_eigenvalue",
    "char_eigenvalues",
    "projector",
    "big_entry",
    "vector_slot_parities",
    "L_KINDS",
    "CHAR_KINDS",
]

# which L-operator: (first-slot elementary matrix order, antipode power,
# dual sign rule); i <= j throughout
L_KINDS = ("R", "RT", "Rtilde", "RtildeT", "dualR", "dualRT")
CHAR_KINDS = ("ahat", "atilde", "adual", "abar")


def etilde_matrix(W, i, j, spower=0):
    """Matrix on W of the L-operator entry generator, optionally with the
    antipode (spower=1) or its inverse (spower=-1) applied first."""
    sig = W.sig
    return W.cached(
        ("Et", i, j, spower),
        lambda: _etilde_cached(sig.m, sig.n, i, j, spower).evaluate(W),
    )


def eij_matrix(W, i, j):
    """Matrix on W of the non-simple root element E_ij (i != j), built by
    the recursion E_ij = E_ik E_kj - q^(-(k)) E_kj E_ik."""
    from .expressions import eij_expr

    return W.cached(("Eij", i, j), lambda: eij_expr(W.sig, i, j).evaluate(W))


def vector_slot_parities(sig):
    return [sig.parity(i + 1) for i in range(sig.d)]


def _elementary(d, i, j):
    """The d x d matrix unit e_ij (1-based)."""
    return Matrix([{j - 1: ONE} if r == i - 1 else {} for r in range(d)], d)


def l_operator(W, which, top=None):
    """The big matrix of an L-operator on V' (x) W.

    V' is the defining module of the full algebra (top=None) or of the
    subalgebra spanned by the first `top` basis directions, in which case
    only generators with both indices <= top enter.  Kinds:

      R:       sum_{i<=j} e_ji (x) Et_ij
      RT:      sum_{i<=j} e_ij (x) Et_ji
      Rtilde:  sum_{i<=j} e_ij (x) S(Et_ji)
      RtildeT: sum_{i<=j} e_ji (x) S^-1(Et_ij)
      dualR:   sum_{i<=j} (-1)^([j]([i]+[j])) e_ij (x) S^-1(Et_ij)
      dualRT:  sum_{i<=j} (-1)^([i]([i]+[j])) e_ji (x) S^-1(Et_ji)
    """
    sig = W.sig
    d = sig.d if top is None else top
    slot_pars = [vector_slot_parities(sig)[:d], W.parities]
    total = [{} for _ in range(d * W.dim)]
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            pi, pj = sig.parity(i), sig.parity(j)
            p = (pi + pj) % 2
            sgn = 1
            if which == "R":
                first, mat = _elementary(d, j, i), etilde_matrix(W, i, j)
            elif which == "RT":
                first, mat = _elementary(d, i, j), etilde_matrix(W, j, i)
            elif which == "Rtilde":
                first, mat = _elementary(d, i, j), etilde_matrix(W, j, i, 1)
            elif which == "RtildeT":
                first, mat = _elementary(d, j, i), etilde_matrix(W, i, j, -1)
            elif which == "dualR":
                first, mat = _elementary(d, i, j), etilde_matrix(W, i, j, -1)
                sgn = -1 if (pj * p) % 2 else 1
            elif which == "dualRT":
                first, mat = _elementary(d, j, i), etilde_matrix(W, j, i, -1)
                sgn = -1 if (pi * p) % 2 else 1
            else:
                raise ValueError("unknown L-operator kind %r" % (which,))
            if sgn < 0:
                first = -first
            gkron([(first, p), (mat, p)], slot_pars, rows=total)
    return Matrix(total, d * W.dim)


def char_matrix(W, kind, top=None):
    """A characteristic matrix on V' (x) W (or V'* (x) W for the duals).

      ahat:   (q - q^-1)^-1 (I - RT R)          adjoint, roots -q^abar [abar]
      atilde: (q - q^-1)^-1 (I - RtildeT Rtilde) adjoint, roots q^-abar [abar]
      adual:  (q - q^-1)^-1 (I - dualRT dualR)   dual, roots q^-a [a]
      abar:   D adual D^-1, D = q^-(rho, eps_i) on the first slot (same roots)

    Built once per module and kind, and shared read-only.
    """
    d = W.sig.d if top is None else top
    return W.cached(("char", kind, d), lambda: _build_char_matrix(W, kind, d))


_L_PAIRS = {
    "ahat": ("RT", "R"),
    "atilde": ("RtildeT", "Rtilde"),
    "adual": ("dualRT", "dualR"),
}


def _build_char_matrix(W, kind, d):
    sig = W.sig
    if kind == "abar":
        A = char_matrix(W, "adual", d)
        r = rho(sig)
        # (rho, eps_i) carries the grading sign of the bilinear form
        rp = [sig.sign(i + 1) * r[i] for i in range(d)]
        scales = [[QFraction(qpow(y - x)) for y in rp] for x in rp]
        dw = W.dim
        return Matrix(
            [{c: v * scales[i // dw][c // dw] for c, v in row.items()}
             for i, row in enumerate(A.rows)],
            A.ncols,
        )
    if kind not in _L_PAIRS:
        raise ValueError("unknown characteristic matrix kind %r" % (kind,))
    left, right = _L_PAIRS[kind]
    prod = matmul(l_operator(W, left, d), l_operator(W, right, d))
    # (I - prod) inv = -inv (prod - I): the diagonal shift adds polynomials,
    # and one scaling touches only the nonzeros of prod and the diagonal
    return mat_scale(shift_diagonal(prod, ONE), -Q_MINUS_QINV.inverse())


def _char_variant(kind):
    """The root variant whose exponents give a characteristic matrix's
    eigenvalues."""
    return "adjoint" if kind in ("ahat", "atilde") else "dual"


def char_eigenvalue(alpha, kind):
    """Deformed eigenvalue of a characteristic matrix from its classical
    root exponent."""
    if kind == "ahat":
        return -QFraction(qpow(alpha) * qnum(alpha))
    if kind in ("atilde", "adual", "abar"):
        return QFraction(qpow(-alpha) * qnum(alpha))
    raise ValueError("unknown characteristic matrix kind %r" % (kind,))


def char_eigenvalues(lam, kind):
    """All deformed eigenvalues for V(' ) (x) V(lam), indexed 1..d."""
    return tuple(
        char_eigenvalue(a, kind) for a in char_roots(lam, _char_variant(kind))
    )


def projector(A, eigenvalues, r):
    """Lagrange interpolation projector onto the r-th eigenspace (1-based).

    A is a characteristic matrix, eigenvalues its full deformed spectrum.
    """
    vals = list(eigenvalues)
    target = vals[r - 1]
    others = [v for k, v in enumerate(vals, start=1) if k != r]
    for k, v in enumerate(vals, start=1):
        if k != r and v == target:
            raise DegenerateRoots(
                "eigenvalues %d and %d coincide (%s)" % (r, k, v)
            )
    # multiply the unscaled factors A - v and divide by the product of the
    # node differences once: per-factor scaling costs a pass over every
    # entry and leaves denominators for each product to reduce
    scale = ONE
    for v in others:
        scale = scale * (target - v)
    return mat_scale(shifted_product(A, others), scale.inverse())


def big_entry(M, dW, i, j):
    """The (i, j) operator-valued entry of a big matrix on V' (x) W, as a
    dW x dW block (1-based first-slot indices)."""
    return M[(i - 1) * dW : i * dW, (j - 1) * dW : j * dW]
