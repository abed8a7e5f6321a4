"""L-operators and characteristic matrices on vector x module spaces.

Each L-operator acts on V (x) W or V* (x) W, where V is the defining
module and W an arbitrary module; it is assembled as sum over elementary
matrices in the first slot tensored with algebra elements represented on W.
The two characteristic matrices are affine functions of products of two
such operators.  Their eigenvalues are simple affine-exponential functions
of the highest weight, and the Lagrange interpolation polynomials in them
project onto the irreducible summands of V (x) W or V* (x) W.
"""

from __future__ import annotations

from ..errors import (
    ConsistencyError,
    DegenerateRoots,
    IndexOutOfRange,
    InvalidArgument,
)
from ..exactq import (
    ONE,
    QFraction,
    Q_MINUS_QINV,
    _dense,
    _divide,
    _sparse,
    qpow,
)
from ..superweight import char_roots, deformed_root
from .linalg import (
    Matrix,
    diagonal,
    gkron,
    map_entries,
    matmul,
    mat_scale,
    scale_columns,
    scale_rows,
    shift_diagonal,
    shifted_product,
)
from .modules import _h_coeffs

__all__ = [
    "eij_matrix",
    "etilde_matrix",
    "l_operator",
    "char_matrix",
    "char_eigenvalues",
    "projector",
    "projector_parts",
    "big_entry",
    "vector_slot_parities",
]

# kind -> (root variant of its eigenvalues, sign s, L-operator pair): the
# summand of the r-th projector is lam + s eps_r, and the supertrace pairs
# the matrix with q^(2s(rho, eps_i)).  atilde's +1 is its only central
# pairing: with -1 its supertrace is not a scalar on gl(2|1) 2,1|0
# (test_atilde_pairs_only_with_plus_two_rho).
_KINDS = {
    "atilde": ("adjoint", 1, ("RtildeT", "Rtilde")),
    "adual": ("dual", -1, ("dualRT", "dualR")),
}


def _char_kind(kind):
    """(variant, sign, L-operator pair) of a characteristic matrix kind
    (_KINDS); InvalidArgument on an unknown kind."""
    if kind not in _KINDS:
        raise InvalidArgument("unknown characteristic matrix kind %r" % (kind,))
    return _KINDS[kind]


def _check_spower(spower):
    if spower not in (-1, 0, 1):
        raise InvalidArgument(
            "antipode power must be -1, 0 or 1, not %r" % (spower,)
        )


def eij_matrix(W, i, j, spower=0):
    """Matrix on W of the root element E_ij (i != j), optionally with the
    antipode (spower=1) or its inverse (spower=-1) applied.

    E_ij is e_i or f_j when |i - j| = 1, else E_ik E_kj - q^(-(k)) E_kj E_ik
    with k next to j.  The antipode reverses each product and takes a
    simple generator x_a to -q^(-+h_a/2) x_a q^(+-h_a/2).  No reversal
    needs a Koszul sign: each term of E_ij holds every simple generator at
    most once, and only e_m and f_m are odd.
    """
    if i == j or not (1 <= i <= W.sig.d and 1 <= j <= W.sig.d):
        raise IndexOutOfRange("E_%d%d is not a root element" % (i, j))
    _check_spower(spower)
    return W.cached(("Eij", i, j, spower), lambda: _eij(W, i, j, spower))


def _eij(W, i, j, spower):
    if abs(i - j) == 1:
        a = min(i, j)
        x = W.e[a] if i < j else W.f[a]
        if not spower:
            return x
        dh = tuple(spower * c for c in _h_coeffs(W.sig, a))
        left = W.cartan_diagonal(tuple(-c for c in dh), 0)
        return scale_columns(
            scale_rows([-y for y in left], x), W.cartan_diagonal(dh, 0)
        )
    k = j - 1 if i < j else j + 1
    first, second = eij_matrix(W, i, k, spower), eij_matrix(W, k, j, spower)
    if spower:
        first, second = second, first
    return matmul(first, second) + mat_scale(
        matmul(second, first), -QFraction(qpow(-W.sig.sign(k)))
    )


def etilde_matrix(W, i, j, spower=0):
    """Matrix on W of the L-operator entry generator, optionally with the
    antipode (spower=1) or its inverse (spower=-1) applied.

    Off the diagonal it is kappa_i q^(((i)E_ii + (j)E_jj - (i))/2) E_ij,
    kappa_i = (-1)^[i] (q - q^-1); its image is
    kappa_i S^+-1(E_ij) q^(-((i)E_ii + (j)E_jj)/2 - (i)/2).  On the
    diagonal it is q^((i)E_ii), and q^(-(i)E_ii) under either antipode.
    """
    _check_spower(spower)
    return W.cached(("Et", i, j, spower), lambda: _etilde(W, i, j, spower))


def _etilde(W, i, j, spower):
    sig = W.sig
    flip = -1 if spower else 1
    dcoeffs = [0] * sig.d
    if i == j:
        dcoeffs[i - 1] = 2 * flip * sig.sign(i)
        return diagonal(W.cartan_diagonal(tuple(dcoeffs), 0))
    dcoeffs[i - 1] = flip * sig.sign(i)
    dcoeffs[j - 1] = flip * sig.sign(j)
    kappa = Q_MINUS_QINV if sig.parity(i) == 0 else -Q_MINUS_QINV
    diag = [kappa * x
            for x in W.cartan_diagonal(tuple(dcoeffs), -sig.sign(i))]
    E = eij_matrix(W, i, j, spower)
    return scale_columns(E, diag) if spower else scale_rows(diag, E)


def vector_slot_parities(sig):
    return [sig.parity(i + 1) for i in range(sig.d)]


def _elementary(d, i, j):
    """The d x d matrix unit e_ij (1-based)."""
    return Matrix([{j - 1: ONE} if r == i - 1 else {} for r in range(d)], d)


# kind -> (first-slot matrix unit, Et entry, antipode power, dual sign):
# "ij" is e_ij or Et_ij, "ji" the transpose, i <= j throughout; a dual
# sign label x gives the sign (-1)^([x]([i]+[j])), "" none
_L_KINDS = {
    "R": ("ji", "ij", 0, ""),
    "Rtilde": ("ij", "ji", 1, ""),
    "RtildeT": ("ji", "ij", -1, ""),
    "dualR": ("ij", "ij", -1, "j"),
    "dualRT": ("ji", "ji", -1, "i"),
}


def l_operator(W, which):
    """The big matrix of an L-operator on V (x) W, V the defining module.
    Kinds:

      R:       sum_{i<=j} e_ji (x) Et_ij
      Rtilde:  sum_{i<=j} e_ij (x) S(Et_ji)
      RtildeT: sum_{i<=j} e_ji (x) S^-1(Et_ij)
      dualR:   sum_{i<=j} (-1)^([j]([i]+[j])) e_ij (x) S^-1(Et_ij)
      dualRT:  sum_{i<=j} (-1)^([i]([i]+[j])) e_ji (x) S^-1(Et_ji)
    """
    if which not in _L_KINDS:
        raise InvalidArgument("unknown L-operator kind %r" % (which,))
    first_order, et_order, spower, sign_label = _L_KINDS[which]
    sig = W.sig
    d = sig.d
    slot_pars = [vector_slot_parities(sig), W.parities]
    total = [{} for _ in range(d * W.dim)]
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            index = {"i": i, "j": j}
            p = (sig.parity(i) + sig.parity(j)) % 2
            first = _elementary(d, *(index[c] for c in first_order))
            if sign_label and sig.parity(index[sign_label]) * p:
                first = -first
            mat = etilde_matrix(W, *(index[c] for c in et_order), spower)
            gkron([(first, p), (mat, p)], slot_pars, rows=total)
    return Matrix(total, d * W.dim)


def char_matrix(W, kind):
    """A characteristic matrix on V (x) W (or V* (x) W for adual).

      atilde: (q - q^-1)^-1 (I - RtildeT Rtilde), adjoint roots
      adual:  (q - q^-1)^-1 (I - dualRT dualR),   dual roots

    Its eigenvalues are q^-a [a] over the root exponents a of its variant
    (char_eigenvalues).  Built once per module and kind, and shared read-only.
    """
    return W.cached(("char", kind), lambda: _build_char_matrix(W, kind))


def _build_char_matrix(W, kind):
    """char_matrix's matrix, built from its definition: the kind's two
    L-operators are multiplied, and the numerator of each distinct entry
    of the product minus I is divided exactly by -(q - q^-1)
    (_minus_over_kappa), so no entry goes through a gcd.
    """
    left, right = _char_kind(kind)[2]
    prod = matmul(l_operator(W, left), l_operator(W, right))
    return map_entries(shift_diagonal(prod, ONE), _minus_over_kappa)


_X4_MINUS_1 = [-1, 0, 0, 0, 1]


def _minus_over_kappa(x):
    """-x/(q - q^-1) for an entry x of an L-operator product minus I, whose
    numerator q - q^-1 divides exactly.

    In t = q^(1/2), q - q^-1 is t^-2 (t^4 - 1): the numerator is divided by
    t^4 - 1 on its dense coefficient list, shifted up two half-steps and
    negated, with no gcd.  The denominator is kept: it is coprime to the
    numerator, so to the quotient too, and the value stays in normal form.
    A remainder raises ConsistencyError: the L-operator products are
    congruent to the identity modulo q - q^-1.
    """
    low, p = _dense(x.num._t)
    quotient = _divide(p, _X4_MINUS_1)
    if quotient is None:
        raise ConsistencyError(
            "q - q^-1 does not divide the numerator of %s" % (x,))
    return QFraction._raw(_sparse(low + 2, [-c for c in quotient]), x.den)


def char_eigenvalues(lam, kind):
    """All deformed eigenvalues for V(' ) (x) V(lam), indexed 1..d: the
    deformed roots of the kind's variant."""
    variant = _char_kind(kind)[0]
    return tuple(deformed_root(a) for a in char_roots(lam, variant))


def projector_parts(A, eigenvalues, r):
    """(N, s) with N = prod_v (A - v) and s = prod_v (target - v) over the
    eigenvalues v other than the r-th (1-based), the target: the Lagrange
    projector onto the r-th eigenspace is N/s.

    A is a characteristic matrix, eigenvalues its full deformed spectrum.
    N is built with no division, and s is left for the caller to divide
    out of what it extracts (Bareiss, Math. Comp. 22 (1968), divides once
    in the same way).  This is the matrix reference: the oracle forms no
    N, and applies it to vectors from its polynomial's coefficients.
    """
    others, scale = _lagrange_nodes(eigenvalues, r)
    return shifted_product(A, others), scale


def _lagrange_nodes(eigenvalues, r):
    """(others, s): the eigenvalues other than the r-th (1-based), in
    order, and s = prod_v (target - v) over them, the target the r-th.
    Raises DegenerateRoots when another eigenvalue equals the target."""
    vals = list(eigenvalues)
    if not 1 <= r <= len(vals):
        raise IndexOutOfRange("no eigenvalue %d of %d" % (r, len(vals)))
    target = vals[r - 1]
    others = [v for k, v in enumerate(vals, start=1) if k != r]
    for k, v in enumerate(vals, start=1):
        if k != r and v == target:
            raise DegenerateRoots(
                "eigenvalues %d and %d coincide (%s)" % (r, k, v)
            )
    scale = ONE
    for v in others:
        scale = scale * (target - v)
    return others, scale


def projector(A, eigenvalues, r):
    """Lagrange interpolation projector onto the r-th eigenspace (1-based).

    A is a characteristic matrix, eigenvalues its full deformed spectrum.
    The unscaled factors A - v are multiplied and the product divided by
    the node differences once: per-factor scaling costs a pass over every
    entry and leaves denominators for each product to reduce.
    """
    N, scale = projector_parts(A, eigenvalues, r)
    return mat_scale(N, scale.inverse())


def big_entry(M, dW, i, j):
    """The (i, j) operator-valued entry of a big matrix on V' (x) W, as a
    dW x dW block (1-based first-slot indices 1..d, d = M's size / dW)."""
    d = len(M.rows) // dW
    if not (1 <= i <= d and 1 <= j <= d):
        raise IndexOutOfRange("entry (%d, %d) outside 1..%d" % (i, j, d))
    return M[(i - 1) * dW : i * dW, (j - 1) * dW : j * dW]
