"""End-to-end oracle computations: Yang-Baxter and coproduct consistency,
supertrace invariants, and extraction of squared reduced Wigner coefficients
and reduced matrix elements from projector matrix elements.

These routines never consult the closed forms; they work entirely with
explicit matrices so the two routes stay independent.
"""

from __future__ import annotations

from ..branching import BranchingData
from ..errors import NotRealized, NotScalar
from ..exactq import ONE, ZERO, QFraction, qpow
from ..superweight import char_roots, check_generic, rho, subalgebra_roots
from .linalg import (
    Matrix,
    _add_entry,
    diagonal,
    gkron,
    identity,
    is_zero_matrix,
    mat_scale,
    matmul,
    matvec,
    reduce_row,
    shift_diagonal,
    zeros,
)
from .loperators import (
    _char_variant,
    _elementary,
    big_entry,
    char_eigenvalue,
    char_eigenvalues,
    char_matrix,
    etilde_matrix,
    l_operator,
    projector_parts,
    vector_slot_parities,
)
from .modules import (
    _h_coeffs,
    subalgebra_components,
    subalgebra_highest_vector,
    tensor_module,
    vector_rep,
)

__all__ = [
    "qybe_check",
    "intertwining_check",
    "coproduct_check",
    "char_identity_check",
    "projector_algebra_check",
    "supertrace_invariant",
    "wigner_oracle",
    "coupled_oracle",
    "mu_oracle",
]


def _three_slot(sig, V, a, b):
    """R acting on slots (a, b) of V (x) V (x) V (1-based slots)."""
    d = sig.d
    pars = vector_slot_parities(sig)
    slot_pars = [pars, pars, pars]
    total = [{} for _ in range(d ** 3)]
    for i in range(1, d + 1):
        for j in range(i, d + 1):
            p = (sig.parity(i) + sig.parity(j)) % 2
            eji = _elementary(d, j, i)
            et = etilde_matrix(V, i, j)
            ops = []
            for slot in (1, 2, 3):
                if slot == a:
                    ops.append((eji, p))
                elif slot == b:
                    ops.append((et, p))
                else:
                    ops.append((identity(d), 0))
            gkron(ops, slot_pars, rows=total)
    return Matrix(total, d ** 3)


def qybe_check(sig):
    """R12 R13 R23 = R23 R13 R12 in the triple vector representation."""
    V = vector_rep(sig)
    R12 = _three_slot(sig, V, 1, 2)
    R13 = _three_slot(sig, V, 1, 3)
    R23 = _three_slot(sig, V, 2, 3)
    lhs = matmul(matmul(R12, R13), R23)
    rhs = matmul(matmul(R23, R13), R12)
    return lhs == rhs


def intertwining_check(sig):
    """R intertwines the coproduct and the opposite coproduct on V (x) V."""
    V = vector_rep(sig)
    T = tensor_module(V, V)
    pars = vector_slot_parities(sig)
    slot_pars = [pars, pars]
    R = l_operator(V, "R")
    for a in range(1, sig.d):
        # q^(h_a/2) and q^(-h_a/2) on V
        dh = _h_coeffs(sig, a)
        half = diagonal(V.cartan_diagonal(dh, 0))
        neg = diagonal(V.cartan_diagonal(tuple(-c for c in dh), 0))
        p = 1 if a == sig.m else 0
        for x, cop in ((V.e[a], T.e[a]), (V.f[a], T.f[a])):
            # the coproduct on V (x) V is tensor_module's; opp is its opposite
            opp = gkron([(x, p), (half, 0)], slot_pars) + gkron(
                [(neg, 0), (x, p)], slot_pars
            )
            if matmul(R, cop) != matmul(opp, R):
                return False
    return True


def coproduct_check(sig):
    """Two consistency checks on the L-operator entry generators.

    (1) entrywise: on V (x) V the generator Et_ij acts as
        q^((i)E_ii) (x) Et_ij + Et_ij (x) q^((j)E_jj)
          + sum_{i<k<j} Et_ik (x) Et_kj     (i < j),
        and Et_ii (x) Et_ii on the diagonal;
    (2) globally: R with the coproduct in its second leg equals R13 R12
        in the triple vector representation.
    """
    V = vector_rep(sig)
    T = tensor_module(V, V)
    pars = vector_slot_parities(sig)
    slot_pars = [pars, pars]
    d = sig.d

    def cart(label):
        # q^((label) E_ll), from its doubled exponent
        dcoeffs = [0] * d
        dcoeffs[label - 1] = 2 * sig.sign(label)
        return diagonal(V.cartan_diagonal(tuple(dcoeffs), 0))

    for i in range(1, d + 1):
        for j in range(i, d + 1):
            lhs = etilde_matrix(T, i, j)
            if i == j:
                rhs = gkron([(cart(i), 0), (cart(i), 0)], slot_pars)
            else:
                p = (sig.parity(i) + sig.parity(j)) % 2
                rhs = gkron(
                    [(cart(i), 0), (etilde_matrix(V, i, j), p)], slot_pars
                ) + gkron(
                    [(etilde_matrix(V, i, j), p), (cart(j), 0)], slot_pars
                )
                for k in range(i + 1, j):
                    p1 = (sig.parity(i) + sig.parity(k)) % 2
                    p2 = (sig.parity(k) + sig.parity(j)) % 2
                    rhs = rhs + gkron(
                        [
                            (etilde_matrix(V, i, k), p1),
                            (etilde_matrix(V, k, j), p2),
                        ],
                        slot_pars,
                    )
            if lhs != rhs:
                return False

    # global form: both sides act on V (x) (V (x) V)
    R13 = _three_slot(sig, V, 1, 3)
    R12 = _three_slot(sig, V, 1, 2)
    return l_operator(T, "R") == matmul(R13, R12)


def char_identity_check(W, lam, kind):
    """Whether the exact polynomial identity prod_r (M - a_r) = 0 holds on
    V' (x) W for the characteristic matrix of the given kind, with the
    deformed root spectrum of lam.

    The product is N_d (M - a_d), with N_d = prod_{r<d} (M - a_r) the
    unscaled last projector that the module already keeps for the
    projectors, wigner and coupled checks: one product beyond it.

    Raises DegenerateRoots when two classical roots coincide: the identity
    itself survives root collisions, but every downstream projector
    manipulation does not, so degenerate cases are excluded from sweeps.
    """
    variant = _char_variant(kind)
    check_generic(char_roots(lam, variant), "%s roots of %s" % (variant, lam))
    d = W.sig.d
    N, _ = _projector_parts(W, lam, d, kind)
    last = char_eigenvalues(lam, kind)[d - 1]
    return is_zero_matrix(matmul(N, shift_diagonal(char_matrix(W, kind), last)))


def projector_algebra_check(W, lam, kind):
    """Whether the d eigenspace projectors P_r = N_r/s_r of the
    characteristic matrix on V' (x) W, with nodes at the deformed roots of
    lam, are idempotent: N_r N_r = s_r N_r for each r.  Raises
    DegenerateRoots when two nodes coincide.

    That decides the whole projector algebra.  The P_r are the Lagrange
    polynomials of distinct nodes, so sum_r P_r = I holds identically.
    Idempotents that sum to I over a field of characteristic 0 are
    pairwise orthogonal: tr P_r = rank P_r, so the ranks add up to the
    dimension and the images form a direct sum, and P_i P_j v = 0 for
    i != j follows from the uniqueness of the decomposition of P_j v.
    """
    parts = [_projector_parts(W, lam, r, kind) for r in range(1, W.sig.d + 1)]
    return all(matmul(n, n) == mat_scale(n, s) for n, s in parts)


def _projector_parts(W, lam, k, ckind):
    """The unscaled product N and scale s of the k-th eigenspace projector
    N/s of the characteristic matrix on V' (x) W, with nodes at the
    deformed roots of lam; built once per module and shared read-only.
    No caller forms N/s: each divides by s only the scalar it extracts."""
    return W.cached(
        ("N", ckind, tuple(lam.comps), k),
        lambda: projector_parts(
            char_matrix(W, ckind), char_eigenvalues(lam, ckind), k
        ),
    )


# atilde's +1 is its only central pairing: with -1 its supertrace is not a
# scalar on gl(2|1) 2,1|0 (test_atilde_pairs_only_with_plus_two_rho).
_RHO_SIGN = {"ahat": 1, "atilde": 1, "adual": -1, "abar": -1}


def supertrace_invariant(W, kind):
    """Supertrace invariant str(q^(+-2 h_rho) M) over the vector slot.

    The adjoint-type matrices pair with q^(+2(rho, eps_i)), the dual-type
    with q^(-2(rho, eps_i)).  The partial supertrace is a central operator
    on an irreducible W; its scalar, the one ratio of its rows to those of
    the identity, is returned (NotScalar otherwise).
    """
    sig = W.sig
    M = char_matrix(W, kind)
    r = rho(sig)
    sgn = _RHO_SIGN[kind]
    total = zeros(W.dim)
    for i in range(1, sig.d + 1):
        blk = big_entry(M, W.dim, i, i)
        # (rho, eps_i) carries the grading sign of the bilinear form
        factor = QFraction(qpow(sgn * 2 * sig.sign(i) * r[i - 1]))
        if sig.parity(i):
            factor = -factor
        total = total + mat_scale(blk, factor)
    return _ratio(total.rows, [{i: ONE} for i in range(W.dim)])


_KIND_TO_CHAR = {"raise": "atilde", "lower": "adual"}


def _branch_vector(W, lam, lam0):
    b = BranchingData(lam, tuple(lam0))
    return b, subalgebra_highest_vector(W, b.lam0, b.e_last)


def _ratio(numer_vecs, denom_vecs):
    """The consistent exact scalar c with numer = c * denom across paired
    vectors; ZERO when both vanish everywhere, NotScalar on mismatch."""
    c = None
    for u, v in zip(numer_vecs, denom_vecs):
        for j in sorted(u.keys() | v.keys()):
            y = v.get(j)
            if y is None:
                raise NotScalar("no consistent proportionality factor")
            t = u.get(j, ZERO) / y
            if c is None:
                c = t
            elif c != t:
                raise NotScalar("inconsistent proportionality factors")
    return ZERO if c is None else c


def wigner_oracle(W, lam, lam0, k, kind):
    """Squared reduced Wigner coefficient from the projector diagonal entry.

    The (d, d) entry operator of the k-th projector N/s is a subalgebra
    scalar; its value on the lam0 subalgebra highest weight vector is
    returned.  It is read off the polynomial N's entry and divided by s
    once.  kind 'raise' uses the adjoint-type matrix on V (x) W, 'lower'
    the dual-type on V* (x) W.
    """
    d = W.sig.d
    _, w0 = _branch_vector(W, lam, lam0)
    N, scale = _projector_parts(W, lam, k, _KIND_TO_CHAR[kind])
    u = matvec(big_entry(N, W.dim, d, d), w0)
    return _ratio([u], [w0]) / scale


def _sub_projector(W, lam0, r, ckind):
    """The parts (N0, s0) of the Lagrange polynomial N0/s0 of the
    subalgebra characteristic matrix on V' (x) W with nodes at the lam0
    deformed roots, kept once per module (projector_parts).  N0/s0 is P0_r
    on the part of V' (x) W whose module slot lies in a component of
    subalgebra highest weight lam0, and nothing elsewhere: the oracles
    apply it only through _shift_project.

    The subalgebra matrix is the leading (d-1)-block of the module's own,
    sliced once per kind: the twisted L-operators are triangular in the
    vector slot (RtildeT and dualRT lower, Rtilde and dualR upper), so
    entry (a, b) of their product sums over k <= min(a, b) alone, and only
    subalgebra generators enter for a, b < d.  That holds for atilde, adual
    and abar, not for ahat, whose RT R sums over k >= max(a, b); the oracle
    never passes ahat here."""
    sig = W.sig

    def build():
        n0 = (sig.d - 1) * W.dim
        A0 = W.cached(("char0", ckind),
                      lambda: char_matrix(W, ckind)[:n0, :n0])
        alphas = subalgebra_roots(
            tuple(int(c) for c in lam0), _char_variant(ckind), sig
        )
        nodes = tuple(char_eigenvalue(a, ckind) for a in alphas)
        return projector_parts(A0, nodes, r)

    return W.cached(("subP", ckind, tuple(lam0), r), build)


def _shift_project(W, vec, r, ckind):
    """P0_r applied to the vector vec on V (x) W: the projector onto the
    r-th shift eigenspace of the subalgebra characteristic matrix on
    V' (x) W, zero on the last vector slot.

    The eigenvalue of a shift depends on the subalgebra component of W
    that the matrix acts on.  So the module slot of each V' block of vec is
    split into its components, by one reduce_row against the tagged
    echelon of subalgebra_components, and each part is mapped by the
    _sub_projector with its own component's nodes: N0 is applied, and only
    the nonzeros of its image are multiplied by that component's s0^-1.
    The images are summed.  Only the components that vec meets are used,
    so a component it never reaches cannot raise DegenerateRoots.
    """
    dw = W.dim
    n0 = (W.sig.d - 1) * dw
    lam0s, echelon = subalgebra_components(W)
    blocks = {}  # V' block -> its module vector
    for i, x in vec.items():
        if i < n0:
            blocks.setdefault(i // dw, {})[i % dw] = x
    parts = {}  # lam0 -> the part of vec in its components
    for j, w in blocks.items():
        for i, x in reduce_row(echelon, w)[1].items():
            c, s = divmod(i, dw)
            _add_entry(parts.setdefault(lam0s[c - 1], {}), j * dw + s, -x)
    out = {}
    for lam0, part in parts.items():
        N0, s0 = _sub_projector(W, lam0, r, ckind)
        inverse = s0.inverse()
        for i, x in matvec(N0, part).items():
            _add_entry(out, i, x * inverse)
    return out


def _shifted_family(W, lam, lam0, r, ckind):
    """(w0, us): w0 the lam0 subalgebra highest weight vector and us the
    test family P0_r (e_j (x) w0), j = 1..d-1, that coupled_oracle and
    mu_oracle share; it does not depend on k, so it is kept once per
    module."""

    def build():
        _, w0 = _branch_vector(W, lam, lam0)
        us = tuple(
            _shift_project(W, {j * W.dim + s: c for s, c in w0.items()},
                           r, ckind)
            for j in range(W.sig.d - 1)
        )
        return w0, us

    return W.cached(("P0w0", ckind, tuple(lam.comps), tuple(lam0), r), build)


def coupled_oracle(W, lam, lam0, k, r, kind):
    """Coupled squared reduced Wigner coefficient from the sandwiched
    projector identity P0_r P_k P0_r = c P0_r on the lam0 component.
    P_k = N/s is applied as N, and the ratio divided by s once.

    Raises NotRealized when P0_r annihilates the whole lam0 test family
    (the shifted lower component is absent, e.g. non-dominant), in which
    case the identity degenerates to 0 = 0 and defines no scalar.
    """
    ckind = _KIND_TO_CHAR[kind]
    _, us = _shifted_family(W, lam, lam0, r, ckind)
    N, scale = _projector_parts(W, lam, k, ckind)
    if not any(us):
        raise NotRealized(
            "shift projector %d annihilates the %s component" % (r, (lam0,))
        )
    return _ratio([_shift_project(W, matvec(N, u), r, ckind) for u in us],
                  us) / scale


def mu_oracle(W, lam, lam0, r, kind):
    """Squared reduced matrix element from the rank-one factorization of
    the r-th projector by the shift components of the characteristic
    matrix's last row and column.

    For i, j < d it returns the consistent scalar mu_r with
      (sum_k (P0_r)_{ik} A_{k,d}) (sum_l A_{d,l} (P0_r)_{lj}) w0
        = mu_r (P_r)_{ij} w0,
    w0 the lam0 subalgebra highest weight vector and A the dual-type
    matrix for 'lower', the adjoint-type one for 'raise'.  P_r = N/s
    enters as N, and the ratio is multiplied by s once.  Both kinds use
    this one recipe: no q^(2 rho_i) factor and no grading sign (-1)^[i] is
    applied.  Whether either belongs here is open (ROADMAP item 1).
    Raises NotRealized when every tested entry of P_r vanishes on the
    branching vector (vacuous identity).
    """
    d = W.sig.d
    ckind = _KIND_TO_CHAR[kind]
    w0, us = _shifted_family(W, lam, lam0, r, ckind)
    N, scale = _projector_parts(W, lam, r, ckind)
    dw = W.dim
    rhs_vecs = [matvec(big_entry(N, dw, i, j), w0)
                for i in range(1, d) for j in range(1, d)]
    if not any(rhs_vecs):
        raise NotRealized(
            "projector %d has no support on the %s component" % (r, (lam0,))
        )
    A = char_matrix(W, ckind)
    n0 = (d - 1) * dw
    col_d = A[:n0, n0:]  # the blocks A_{k,d}, k < d
    row_d = A[n0:, :n0]  # the blocks A_{d,l}, l < d
    lefts = []  # lefts[j - 1][i - 1]: sum_k (P0)_{ik} A_{k,d} phi_j
    for u in us:
        # phi_j = sum_l A_{d,l} (P0)_{lj} w0
        phi = matvec(row_d, u)
        blocks = [{} for _ in range(d - 1)]
        for idx, c in _shift_project(W, matvec(col_d, phi), r, ckind).items():
            i, s = divmod(idx, dw)
            blocks[i][s] = c
        lefts.append(blocks)
    lhs_vecs = [lefts[j][i] for i in range(d - 1) for j in range(d - 1)]
    return _ratio(lhs_vecs, rhs_vecs) * scale
