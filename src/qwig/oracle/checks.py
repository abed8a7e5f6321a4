"""End-to-end oracle computations: Yang-Baxter and coproduct consistency,
supertrace invariants, projector ranks, and extraction of squared reduced
Wigner coefficients and reduced matrix elements from projectors applied to
vectors.

These routines never consult the closed forms; they work entirely with
explicit matrices and vectors so the two routes stay independent.
"""

from __future__ import annotations

from itertools import combinations

from ..branching import BranchingData, _even_block_dominant
from ..errors import NotRealized, NotScalar
from ..exactq import ONE, ZERO, QFraction, qpow
from ..superweight import (
    Weight,
    deformed_root,
    is_typical,
    rho,
    subalgebra_roots,
)
from .linalg import (
    Matrix,
    _add_entry,
    gkron,
    identity,
    is_zero_matrix,
    mat_scale,
    matmul,
    matvec,
    reduce_row,
    shifted_product,
    zeros,
)
from .loperators import (
    _char_kind,
    _elementary,
    _lagrange_nodes,
    big_entry,
    char_eigenvalues,
    char_matrix,
    etilde_matrix,
    l_operator,
    vector_slot_parities,
)
from .modules import (
    subalgebra_components,
    subalgebra_highest_vector,
    tensor_module,
    vector_rep,
)

__all__ = [
    "qybe_check",
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


def coproduct_check(sig):
    """R with the coproduct in its second leg equals R13 R12 in the triple
    vector representation, both sides acting on V (x) (V (x) V).  R there
    is sum_{i<=j} e_ji (x) Et_ij on V (x) V, and the e_ji are linearly
    independent, so the one identity decides the coproduct of every entry
    generator Et_ij, block by block."""
    V = vector_rep(sig)
    T = tensor_module(V, V)
    R13 = _three_slot(sig, V, 1, 3)
    R12 = _three_slot(sig, V, 1, 2)
    return l_operator(T, "R") == matmul(R13, R12)


def char_identity_check(W, lam, kind):
    """Whether the exact polynomial identity prod_r (M - a_r) = 0 holds on
    V' (x) W for the characteristic matrix of the given kind, with the
    deformed root spectrum of lam.  The product is formed once, by
    shifted_product: no other check multiplies matrices of the module's
    size.

    Repeated roots are kept, one factor each: the identity holds with
    them (Green, J. Math. Phys. 12 (1971) 2106), and where A - a is not
    diagonalisable the repeated factor is what makes the product vanish.
    """
    return is_zero_matrix(
        shifted_product(char_matrix(W, kind), char_eigenvalues(lam, kind)))


def projector_algebra_check(W, lam, kind):
    """The ranks of the d eigenspace projectors P_r = N_r/s_r of the
    characteristic matrix A on V' (x) W, with nodes at the deformed roots
    of lam, against the summands they project onto: (ok, detail), the
    detail listing the d ranks.  Raises DegenerateRoots when two nodes
    coincide.

    rank P_r = tr(N_r)/s_r = sum_j c_j tr(A^j)/s_r, c_j the coefficients
    of N_r's polynomial (_coefficients), so no N_r is formed.  P_r
    projects onto the summand of weight mu = lam + s eps_r, s the sign of
    the kind's _KINDS entry: +1 for atilde on V (x) W, -1 for adual on
    V* (x) W.  Each rank must be a nonnegative integer; 0 where mu is not
    dominant; and, where mu is dominant and typical, 0 (the summand is
    absent) or Kac's dimension 2^(mn) dim L0(mu) (Kac, Comm. Algebra 5
    (1977)).  An atypical summand is checked for integrality alone.  A
    rank counts a generalised eigenspace, so a nilpotent part of A - v_r
    passes the rank check, and char_identity_check decides it.

    Idempotence and orthogonality of the P_r need no check here:
    L_i L_j - delta_ij L_i is divisible by prod_l (x - v_l) for the
    Lagrange polynomials L_r of distinct nodes, so char_identity_check
    decides them.
    """
    sig = W.sig
    traces = _power_traces(W, kind)
    ranks = []
    for r in range(1, sig.d + 1):
        coeffs, scale = _coefficients(W, kind, lam, r)
        ranks.append(QFraction.sum_of_products(zip(coeffs, traces)) / scale)
    step = _char_kind(kind)[1]
    ok = True
    for r, rank in enumerate(ranks, start=1):
        count = _count(rank)
        comps = list(lam.comps)
        comps[r - 1] += step
        mu = Weight(sig, comps)
        if count is None:
            ok = False
        elif not (_even_block_dominant(mu.even, sig.m)
                  and _even_block_dominant(mu.odd, sig.n)):
            ok = ok and count == 0
        elif is_typical(mu):
            ok = ok and count in (0, _kac_dimension(mu))
    return ok, "ranks " + ",".join(str(x) for x in ranks)


def _count(x):
    """x as a nonnegative int, or None when it is not one: its constant
    term c, an int or a Fraction, when x == QFraction(c)."""
    c = dict(x.num.items()).get(0, 0)
    return int(c) if c >= 0 and int(c) == c and x == QFraction(c) else None


def _kac_dimension(mu):
    """Kac's dimension 2^(mn) dim L0(mu) of the typical gl(m|n) module of
    highest weight mu, L0 the gl(m) (+) gl(n) module, whose dimension is
    Weyl's prod_{i<j} (mu_i - mu_j + j - i)/(j - i) over each block."""
    num = den = 1
    for block in (mu.even, mu.odd):
        for i, j in combinations(range(len(block)), 2):
            num *= block[i] - block[j] + j - i
            den *= j - i
    return 2 ** (mu.sig.m * mu.sig.n) * num // den


def _power_traces(W, kind):
    """tr(A^j), j = 0..d-1, of A = char_matrix(W, kind), kept once per
    module and kind.  tr(A^(a+b)) = sum_ik (A^a)_ik (A^b)_ki, so the powers
    up to A^h, h = ceil((d-1)/2), serve: for d <= 5 the one product A A."""

    def build():
        A = char_matrix(W, kind)
        powers = [identity(A.shape[0]), A]
        while len(powers) <= W.sig.d // 2:
            powers.append(matmul(powers[-1], A))
        traces = []
        for j in range(W.sig.d):
            X, Y = powers[(j + 1) // 2].rows, powers[j // 2].rows
            traces.append(QFraction.sum_of_products(
                (x, Y[k][i]) for i, row in enumerate(X)
                for k, x in row.items() if i in Y[k]))
        return tuple(traces)

    return W.cached(("traces", kind), build)


def _lagrange(nodes, r):
    """(c, s): c_0..c_(d-1), constant first, the coefficients of the
    Lagrange numerator prod_{l != r} (x - v_l) over the d nodes, and
    s = prod_{l != r} (v_r - v_l).  Raises DegenerateRoots where
    projector_parts does."""
    others, scale = _lagrange_nodes(nodes, r)
    coeffs = [ONE]
    for v in others:
        coeffs = [a - v * b for a, b in zip([ZERO] + coeffs, coeffs + [ZERO])]
    return tuple(coeffs), scale


def _coefficients(W, ckind, lam, r):
    """_lagrange's (c, s) of the r-th eigenspace projector N_r/s_r of the
    characteristic matrix on V' (x) W, nodes at the deformed roots of lam,
    kept once per module: N_r x = sum_j c_j A^j x (_apply), and s_r
    divides only the scalar extracted."""
    return W.cached(("L", ckind, tuple(lam.comps), r),
                    lambda: _lagrange(char_eigenvalues(lam, ckind), r))


def _sub_coefficients(W, ckind, lam0, r):
    """_lagrange's (c0, s0) of the r-th projector of the subalgebra
    characteristic matrix, nodes at the lam0 deformed roots, kept once per
    module.  N0/s0 is P0_r on the components of subalgebra highest weight
    lam0 only: the oracles apply it through _shift_project."""

    def build():
        alphas = subalgebra_roots(
            tuple(int(c) for c in lam0), _char_kind(ckind)[0], W.sig
        )
        return _lagrange(tuple(deformed_root(a) for a in alphas), r)

    return W.cached(("L0", ckind, tuple(lam0), r), build)


def _powers(A, x, count):
    """(x, A x, ..., A^(count-1) x)."""
    out = [x]
    for _ in range(count - 1):
        out.append(matvec(A, out[-1]))
    return tuple(out)


def _start_powers(W, ckind, key, x):
    """_powers of the start vector x that key names under the
    characteristic matrix, up to A^(d-1) x; kept once per module, so one
    set of d - 1 matvecs serves every projector of the module."""
    return W.cached(("Ax", ckind) + key,
                    lambda: _powers(char_matrix(W, ckind), x, W.sig.d))


def _apply(coeffs, powers, rows=None):
    """sum_j c_j A^j x from the powers A^j x, on the indices in rows only
    when rows is given, with its entries in increasing order."""
    pairs = {}
    for c, v in zip(coeffs, powers):
        if c:
            for i, x in v.items():
                if rows is None or i in rows:
                    pairs.setdefault(i, []).append((c, x))
    out = {}
    for i in sorted(pairs):
        x = QFraction.sum_of_products(pairs[i])
        if x:
            out[i] = x
    return out


def _cleared(vecs):
    """(the vectors times f, f): f the product of the distinct
    denominators of their entries, one polynomial that clears them all.
    _ratio reads the same scalar off vectors with a common nonzero factor,
    and sums of products of polynomials take no gcd."""
    f = ONE
    for den in {x.den for v in vecs for x in v.values()}:
        f = f * QFraction(den)
    if f == ONE:
        return list(vecs), f
    return [{i: x * f for i, x in v.items()} for v in vecs], f


def supertrace_invariant(W, kind):
    """Supertrace invariant str(q^(+-2 h_rho) M) over the vector slot.

    atilde pairs with q^(+2(rho, eps_i)), adual with q^(-2(rho, eps_i)):
    the sign of the kind's _KINDS entry.  The partial supertrace is a
    central operator on an irreducible W; its scalar, the one ratio of its
    rows to those of the identity, is returned (NotScalar otherwise).
    """
    sig = W.sig
    M = char_matrix(W, kind)
    r = rho(sig)
    sgn = _char_kind(kind)[1]
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


def _branch_start(W, lam, lam0):
    """The lam0 subalgebra highest weight vector w0, cleared of its
    denominators (_cleared); kept once per module."""
    return W.cached(("w0", tuple(lam.comps), tuple(lam0)),
                    lambda: _cleared([_branch_vector(W, lam, lam0)[1]])[0][0])


def _slot(W, j, w):
    """e_j (x) w on V' (x) W, j = 1..d."""
    offset = (j - 1) * W.dim
    return {offset + s: c for s, c in w.items()}


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
    scalar; its value on the lam0 subalgebra highest weight vector w0 is
    returned.  N is applied to x = e_d (x) w0 from the powers A^j x, which
    every k shares, the last slot of N x is compared with x, and the ratio
    is divided by s once.  kind 'raise' uses the adjoint-type matrix on
    V (x) W, 'lower' the dual-type on V* (x) W.
    """
    d = W.sig.d
    ckind = _KIND_TO_CHAR[kind]
    w0 = _branch_start(W, lam, lam0)
    coeffs, scale = _coefficients(W, ckind, lam, k)
    x = _slot(W, d, w0)
    powers = _start_powers(W, ckind, ("e", tuple(lam.comps), tuple(lam0), d),
                           x)
    u = _apply(coeffs, powers, range((d - 1) * W.dim, d * W.dim))
    return _ratio([u], [x]) / scale


def _component_powers(W, vec, ckind):
    """{lam0: powers}: the part of vec on V (x) W in each subalgebra
    component of weight lam0 that it meets, with its _powers under the
    subalgebra characteristic matrix A0 up to A0^(d-2).

    The module slot of each V' block of vec is split into its components
    by one reduce_row against the tagged echelon of subalgebra_components;
    the last vector slot is dropped.  A0 is the leading (d-1)-block of the
    module's own matrix, sliced once per kind: the twisted L-operators are
    triangular in the vector slot (RtildeT and dualRT lower, Rtilde and
    dualR upper), so entry (a, b) of their product sums over k <= min(a, b)
    alone, and only subalgebra generators enter for a, b < d.  So for
    every kind the leading block is the subalgebra's matrix of that kind.
    """
    d, dw = W.sig.d, W.dim
    n0 = (d - 1) * dw
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
    A0 = W.cached(("char0", ckind), lambda: char_matrix(W, ckind)[:n0, :n0])
    return {lam0: _powers(A0, part, d - 1) for lam0, part in parts.items()}


def _shift_apply(W, powers, r, ckind):
    """P0_r applied to the vector whose _component_powers are powers: each
    component's part is mapped by its own N0 (_sub_coefficients), only the
    nonzeros of the image are multiplied by that component's s0^-1, and
    the images are summed.  Only the components the vector meets are used,
    so a component it never reaches cannot raise DegenerateRoots."""
    out = {}
    for lam0, vecs in powers.items():
        coeffs, s0 = _sub_coefficients(W, ckind, lam0, r)
        inverse = s0.inverse()
        for i, x in _apply(coeffs, vecs).items():
            _add_entry(out, i, x * inverse)
    return out


def _shift_project(W, vec, r, ckind):
    """P0_r applied to the vector vec on V (x) W: the projector onto the
    r-th shift eigenspace of the subalgebra characteristic matrix on
    V' (x) W, zero on the last vector slot.  The eigenvalue of a shift
    depends on the subalgebra component of W that the matrix acts on, so
    each component's part of vec takes its own nodes."""
    return _shift_apply(W, _component_powers(W, vec, ckind), r, ckind)


def _shifted_family(W, lam, lam0, r, ckind):
    """(w0, us, f): w0 as _branch_start gives it, and us the test family
    P0_r (e_j (x) w0), j = 1..d-1, times the polynomial f that clears its
    denominators (_cleared).  coupled_oracle and mu_oracle share it; it
    does not depend on k, so it is kept once per module, and the
    component powers of the e_j (x) w0 serve every r."""
    key = (tuple(lam.comps), tuple(lam0))

    def build():
        w0 = _branch_start(W, lam, lam0)
        parts = W.cached(("P0x", ckind) + key, lambda: tuple(
            _component_powers(W, _slot(W, j, w0), ckind)
            for j in range(1, W.sig.d)))
        us, f = _cleared([_shift_apply(W, p, r, ckind) for p in parts])
        return w0, tuple(us), f

    return W.cached(("P0w0", ckind) + key + (r,), build)


def coupled_oracle(W, lam, lam0, k, r, kind):
    """Coupled squared reduced Wigner coefficient from the sandwiched
    projector identity P0_r P_k P0_r = c P0_r on the lam0 component.
    P_k = N/s is applied as N, from the powers of the test family that
    every k shares, and the ratio divided by s once.

    Raises NotRealized when P0_r annihilates the whole lam0 test family
    (the shifted lower component is absent, e.g. non-dominant), in which
    case the identity degenerates to 0 = 0 and defines no scalar.
    """
    ckind = _KIND_TO_CHAR[kind]
    _, us, _ = _shifted_family(W, lam, lam0, r, ckind)
    coeffs, scale = _coefficients(W, ckind, lam, k)
    if not any(us):
        raise NotRealized(
            "shift projector %d annihilates the %s component" % (r, (lam0,))
        )
    key = ("P0", tuple(lam.comps), tuple(lam0), r)
    images = []
    for j, u in enumerate(us):
        powers = _start_powers(W, ckind, key + (j,), u)
        images.append(_shift_project(W, _apply(coeffs, powers), r, ckind))
    return _ratio(images, us) / scale


def mu_oracle(W, lam, lam0, r, kind):
    """Squared reduced matrix element from the rank-one factorization of
    the r-th projector by the shift components of the characteristic
    matrix's last row and column.

    For i, j < d it returns the consistent scalar mu_r with
      (sum_k (P0_r)_{ik} A_{k,d}) (sum_l A_{d,l} (P0_r)_{lj}) w0
        = mu_r (P_r)_{ij} w0,
    w0 the lam0 subalgebra highest weight vector and A the dual-type
    matrix for 'lower', the adjoint-type one for 'raise'.  P_r = N/s
    enters as N, applied to e_j (x) w0 from its powers, and the ratio is
    multiplied by s, and divided by the factor f of the test family, once.
    Both kinds use this one recipe: no q^(2 rho_i) factor and no grading
    sign (-1)^[i] is applied.  Whether either belongs here is open.
    Raises NotRealized when every tested entry of P_r vanishes on the
    branching vector (vacuous identity).
    """
    d = W.sig.d
    n0 = (d - 1) * W.dim
    ckind = _KIND_TO_CHAR[kind]
    w0, us, f = _shifted_family(W, lam, lam0, r, ckind)
    coeffs, scale = _coefficients(W, ckind, lam, r)
    key = ("e", tuple(lam.comps), tuple(lam0))
    # rhs[j - 1]: the blocks (P_r)_{ij} w0 over i < d, as N_r (e_j (x) w0)
    rhs = [_apply(coeffs, _start_powers(W, ckind, key + (j,), _slot(W, j, w0)),
                  range(n0))
           for j in range(1, d)]
    if not any(rhs):
        raise NotRealized(
            "projector %d has no support on the %s component" % (r, (lam0,))
        )
    A = char_matrix(W, ckind)
    col_d = A[:n0, n0:]  # the blocks A_{k,d}, k < d
    row_d = A[n0:, :n0]  # the blocks A_{d,l}, l < d
    # lhs[j - 1]: sum_k (P0)_{ik} A_{k,d} phi_j over i < d, with
    # phi_j = sum_l A_{d,l} (P0)_{lj} w0
    lhs = [_shift_project(W, matvec(col_d, matvec(row_d, u)), r, ckind)
           for u in us]
    return _ratio(lhs, rhs) * scale / f
