"""Brute-force oracle: representations, L-operators, characteristic
matrices, projectors, and the closed-form validations that fix conventions."""

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import qwig

from qwig import (
    AdmissibilityError,
    ConsistencyError,
    DegenerateRoots,
    HalfLaurent,
    IndexOutOfRange,
    InvalidArgument,
    MultiplicityAmbiguous,
    NonIntegralWeight,
    NotRealized,
    NotScalar,
    ONE,
    QFraction,
    QwigError,
    Signature,
    SignatureMismatch,
    Weight,
    ZERO,
    branch_candidates,
    chi_C1,
    index_sets,
    mu,
    omega,
    omega_coupled,
    qnum,
    qpow,
)
from qwig.cli import _parse_weight
from qwig.oracle import (
    RepModule,
    big_entry,
    char_eigenvalues,
    char_identity_check,
    char_matrix,
    coproduct_check,
    coupled_oracle,
    eij_matrix,
    etilde_matrix,
    highest_weight_vectors,
    l_operator,
    mu_oracle,
    projector,
    projector_algebra_check,
    qybe_check,
    realized_modules,
    submodule,
    supertrace_invariant,
    tensor_module,
    vector_rep,
    vector_slot_parities,
    wigner_oracle,
)
from qwig.oracle import checks
from qwig.oracle.checks import (
    _KIND_TO_CHAR,
    _apply,
    _branch_start,
    _branch_vector,
    _coefficients,
    _component_powers,
    _kac_dimension,
    _power_traces,
    _powers,
    _ratio,
    _shift_project,
    _shifted_family,
    _slot,
    _start_powers,
    _sub_coefficients,
)
from qwig.oracle.linalg import (
    Matrix,
    _add_entry,
    diagonal,
    gkron,
    identity,
    is_zero_matrix,
    insert_row,
    mat_scale,
    matmul,
    matvec,
    reduce_row,
    scale_columns,
    scale_rows,
    shifted_product,
    zeros,
)
from qwig.oracle.loperators import (
    _KINDS,
    _minus_over_kappa,
    projector_parts,
)
from qwig.oracle.modules import (
    _h_coeffs,
    _lowering_span,
    _subalgebra_highest_vectors,
)
from qwig.superweight import deformed_root, is_typical, subalgebra_roots
from qwig.wigner import _Side
from conftest import first_module, laurent

S11 = Signature(1, 1)
S21 = Signature(2, 1)
S12 = Signature(1, 2)
# the characteristic matrix kinds and the root variants of their
# eigenvalues, stated here apart from the oracle's own table
VARIANTS = {"atilde": "adjoint", "adual": "dual"}

SKIPS = (DegenerateRoots, NotRealized, NotScalar, MultiplicityAmbiguous,
         AdmissibilityError)


def trivial_module(sig):
    d = sig.d
    e = {a: zeros(1) for a in range(1, d)}
    f = {a: zeros(1) for a in range(1, d)}
    return RepModule(sig, [(0,) * d], e, f)


def test_vector_rep_gl11():
    V = vector_rep(S11)
    assert V.dim == 2 and V.parities == [0, 1]
    assert V.e[1][0, 1] == ONE and V.e[1][0, 0] == ZERO
    assert V.f[1][1, 0] == ONE
    # odd generator: e1 f1 + f1 e1 = E11 + E22 on the vector module
    anti = matmul(V.e[1], V.f[1]) + matmul(V.f[1], V.e[1])
    assert is_zero_matrix(anti + (-identity(2)))


@pytest.mark.parametrize("sig", [S21, S12])
def test_module_parities_are_the_koszul_sums_of_the_factors(sig):
    # RepModule reads each basis vector's grading off its weight; the
    # Koszul signs of tensor_module need the sum of the factors' parities,
    # on V^(x)k and on every realised module, whose basis vectors are
    # weight vectors of V^(x)k
    pars = vector_slot_parities(sig)
    V = vector_rep(sig)
    assert V.parities == pars
    powers = [V]
    for k in (2, 3):
        powers.append(tensor_module(powers[-1], V))
        assert powers[-1].parities == [
            sum(slots) % 2 for slots in itertools.product(pars, repeat=k)]
    realised = 0
    for W in powers[1:]:
        for _, vecs in highest_weight_vectors(W):
            if len(vecs) != 1:
                continue
            M = submodule(W, vecs)
            basis = [v for _, echelon in _lowering_span(W, vecs, range(1, sig.d))
                     for _, v in echelon]
            assert len(basis) == M.dim
            for v, parity in zip(basis, M.parities):
                assert {W.parities[i] for i in v} == {parity}
            realised += 1
    assert realised >= 4


def test_vector_rep_cartan():
    # q^(3 E_33), from its doubled exponent
    V = vector_rep(S21)
    c = diagonal(V.cartan_diagonal((0, 0, 6), 0))
    assert c[0, 0] == ONE and c[1, 1] == ONE
    assert c[2, 2] == QFraction(qpow(3))


def test_cartan_diagonal_matches_fraction_reference():
    # the diagonal comes from doubled int exponents; the reference here
    # sums Fraction exponents and normalises q^x through QFraction
    V21 = vector_rep(S21)
    for W in (vector_rep(Signature(2, 2)), tensor_module(V21, V21),
              _gl21_module_200()):
        sig, d = W.sig, W.sig.d
        assert all(type(c) is int for w in W.weights for c in w)
        coeff_sets = [tuple(Fraction(j % 3 - 1) for j in range(d))]
        for a in range(1, d):  # h_a / 2
            c = [Fraction(0)] * d
            c[a - 1] = Fraction(sig.sign(a), 2)
            c[a] = Fraction(-sig.sign(a + 1), 2)
            coeff_sets.append(tuple(c))
        for coeffs in coeff_sets:
            for shift in (Fraction(0), Fraction(1, 2), Fraction(-1, 2)):
                want = tuple(
                    QFraction(qpow(sum((c * Fraction(x)
                                        for c, x in zip(coeffs, w)),
                                       Fraction(0)) + shift))
                    for w in W.weights
                )
                dcoeffs = tuple(int(2 * c) for c in coeffs)
                assert W.cartan_diagonal(dcoeffs, int(2 * shift)) == want


def test_module_weights_must_be_integral():
    with pytest.raises(NonIntegralWeight):
        RepModule(S11, [(Fraction(1, 2), 0)], {1: zeros(1)}, {1: zeros(1)})


def test_eij_recursion_and_pivots():
    V = vector_rep(S21)
    # base case: simple generators
    assert is_zero_matrix(eij_matrix(V, 1, 2) + (-V.e[1]))
    assert is_zero_matrix(eij_matrix(V, 3, 2) + (-V.f[2]))
    # E13 via the explicit recursion on matrices
    e13 = matmul(V.e[1], V.e[2]) + (-mat_scale(
        matmul(V.e[2], V.e[1]), QFraction(qpow(-1))
    ))
    assert is_zero_matrix(eij_matrix(V, 1, 3) + (-e13))


def test_eij_pivot_independence():
    # gl(2|2) has genuinely distinct pivots for |i - j| = 3
    sig = Signature(2, 2)
    V = vector_rep(sig)
    for i, j in [(1, 4), (4, 1)]:
        base = eij_matrix(V, i, j)
        for k in range(min(i, j) + 1, max(i, j)):
            eik, ekj = eij_matrix(V, i, k), eij_matrix(V, k, j)
            alt = matmul(eik, ekj) + (-mat_scale(
                matmul(ekj, eik), QFraction(qpow(-sig.sign(k)))
            ))
            assert is_zero_matrix(alt + (-base))


def test_etilde_diagonal_entries():
    V = vector_rep(S21)
    for i in range(1, 4):
        et = etilde_matrix(V, i, i)
        for j in range(3):
            want = QFraction(qpow(S21.sign(i))) if j == i - 1 else ONE
            assert et[j, j] == want


def test_etilde_matches_explicit_diagonal_product():
    # Et_ij = kappa_i q^(((i)E_ii + (j)E_jj - (i))/2) E_ij with the
    # diagonal built here from qpow and multiplied out as a matrix
    V21 = vector_rep(S21)
    for W in (vector_rep(Signature(2, 2)), tensor_module(V21, V21),
              _gl21_module_200()):
        sig = W.sig
        for i, j in itertools.permutations(range(1, sig.d + 1), 2):
            si, sj = sig.sign(i), sig.sign(j)
            D = Matrix([
                {r: QFraction(qpow(Fraction(si * w[i - 1] + sj * w[j - 1] - si,
                                            2)))}
                for r, w in enumerate(W.weights)
            ], W.dim)
            kappa = QFraction(qpow(1) - qpow(-1))
            if sig.parity(i):
                kappa = -kappa
            want = mat_scale(matmul(D, eij_matrix(W, i, j)), kappa)
            assert etilde_matrix(W, i, j) == want


def test_etilde_satisfies_antipode_axiom():
    # the antipode axiom on the L-operator entries: for i <= j, summed over
    # k = i..j with a = Et_ik and b = Et_kj,
    #   S(a) b = a S(b) = S^-1(b) a = b S^-1(a) = delta_ij I,
    # and for i > j the same sums over k = j..i with a = Et_kj, b = Et_ik
    # vanish
    checked = spread = 0
    for sig in (S21, S12, Signature(2, 2)):
        V = vector_rep(sig)
        for W in (V, tensor_module(V, V)):
            for i, j in itertools.product(range(1, sig.d + 1), repeat=2):
                sums = [zeros(W.dim)] * 4
                nonzero = [0] * 4
                for k in range(min(i, j), max(i, j) + 1):
                    a, b = ((i, k), (k, j)) if i <= j else ((k, j), (i, k))
                    terms = (((a, 1), (b, 0)), ((a, 0), (b, 1)),
                             ((b, -1), (a, 0)), ((b, 0), (a, -1)))
                    for n, ((x, sx), (y, sy)) in enumerate(terms):
                        term = matmul(etilde_matrix(W, *x, sx),
                                      etilde_matrix(W, *y, sy))
                        sums[n] = sums[n] + term
                        nonzero[n] += not is_zero_matrix(term)
                want = identity(W.dim) if i == j else zeros(W.dim)
                for total in sums:
                    assert total == want, (sig, W.dim, i, j)
                checked += 4
                spread += sum(c >= 2 for c in nonzero)
    assert checked == 272 and spread == 192


def test_l_operator_on_trivial_module():
    for sig in (S11, S21):
        C = trivial_module(sig)
        assert is_zero_matrix(l_operator(C, "R") + (-identity(sig.d)))
        for kind in ("atilde", "adual"):
            assert is_zero_matrix(char_matrix(C, kind))


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


def test_intertwining():
    assert intertwining_check(S11)
    assert intertwining_check(S21)


def test_qybe_exact_small():
    assert qybe_check(S11)
    assert qybe_check(S21)


def test_coproduct_exact_small():
    assert coproduct_check(S11)
    assert coproduct_check(S21)


@pytest.mark.parametrize("sig", [S11, S21], ids=str)
def test_coproduct_check_fails_on_every_single_entry_mutant(sig, monkeypatch):
    # one nonzero entry of one Et_ij on V (x) V scaled by q or by -1: the
    # global identity alone fails each mutant, so it needs no entrywise
    # twin.  Scaled by 1, the patched entry passes
    from qwig.oracle import loperators

    d = sig.d
    exact = loperators.etilde_matrix
    T = tensor_module(vector_rep(sig), vector_rep(sig))
    mutants = [
        (i, j, row, col, factor)
        for i in range(1, d + 1) for j in range(i, d + 1)
        for row, entries in enumerate(etilde_matrix(T, i, j).rows)
        for col in entries
        for factor in (ONE, QFraction(qpow(1)), -ONE)
    ]
    for i, j, row, col, factor in mutants:
        def mutated(W, a, b, spower=0):
            M = exact(W, a, b, spower)
            if W.dim != d * d or (a, b, spower) != (i, j, 0):
                return M
            rows = [dict(r) for r in M.rows]
            rows[row][col] = rows[row][col] * factor
            return Matrix(rows, M.ncols)

        monkeypatch.setattr(loperators, "etilde_matrix", mutated)
        assert coproduct_check(sig) is (factor == ONE), (i, j, row, col)
    assert len(mutants) == 3 * {S11: 12, S21: 46}[sig]


def test_char_identity_examples():
    V = vector_rep(S11)
    assert char_identity_check(V, Weight(S11, (1, 0)), "atilde")
    # the dual roots of 1|0 coincide, and the identity holds with both
    assert char_identity_check(V, Weight(S11, (1, 0)), "adual")
    V3 = vector_rep(S21)
    lam = Weight(S21, (1, 0, 0))
    assert char_identity_check(V3, lam, "atilde")
    assert char_identity_check(V3, lam, "adual")


@pytest.mark.parametrize("m, n, module", [
    (1, 1, "1|0"), (2, 1, "1,1|0"), (1, 2, "2|0,0"), (2, 2, "1,0|0,0"),
])
def test_char_identity_keeps_repeated_roots(m, n, module):
    # the adual matrix has a Jordan block at a repeated root: the product
    # over the distinct roots alone is nonzero, so the identity holds only
    # with each root kept as often as it occurs
    sig = Signature(m, n)
    lam = _parse_weight(module)
    W = dict(realized_modules(sig, 2, 30))[lam]
    roots = char_eigenvalues(lam, "adual")
    distinct = list(dict.fromkeys(roots))
    assert len(distinct) < len(roots)
    assert char_identity_check(W, lam, "adual")
    assert not is_zero_matrix(shifted_product(char_matrix(W, "adual"),
                                              distinct))


def test_leading_block_is_the_subalgebra_matrix():
    # for every kind the leading (d-1)-block of the module's matrix is the
    # subalgebra matrix, the one that _component_powers slices
    cases = 0
    for sig in (S11, S21, S12, Signature(2, 2), Signature(3, 1),
                Signature(1, 3)):
        for _, W in realized_modules(sig, 2, 30):
            n0 = (sig.d - 1) * W.dim
            for kind in VARIANTS:
                lead = char_matrix(W, kind)[:n0, :n0]
                sub = _dense_char_matrix(W, kind, sig.d - 1)
                assert lead == sub, (str(sig), kind)
                cases += 1
    assert cases == 36  # 18 modules, 2 kinds


def test_projector_algebra_gl11():
    V = vector_rep(S11)
    A = char_matrix(V, "atilde")
    from qwig.oracle import char_eigenvalues

    vals = char_eigenvalues(Weight(S11, (1, 0)), "atilde")
    ps = [projector(A, vals, r) for r in (1, 2)]
    for p in ps:
        assert is_zero_matrix(matmul(p, p) + (-p))
    assert is_zero_matrix(matmul(ps[0], ps[1]))
    assert is_zero_matrix(ps[0] + ps[1] + (-identity(4)))
    # the same algebra on the unscaled products N = s P
    parts = [projector_parts(A, vals, r) for r in (1, 2)]
    for p, (n, s) in zip(ps, parts):
        assert mat_scale(n, s.inverse()) == p
        assert matmul(n, n) == mat_scale(n, s)
    assert is_zero_matrix(matmul(parts[0][0], parts[1][0]))


def _ranks(detail):
    """The ranks a projector_algebra_check detail lists, as text."""
    return detail.partition(" ")[2].split(",")


def test_projector_algebra_check_can_fail():
    # True with the nodes of the module's own highest weight; False with
    # the nodes of another weight, whose Lagrange polynomials are not the
    # module's eigenspace projectors
    V = vector_rep(S11)
    assert projector_algebra_check(V, Weight(S11, (1, 0)), "atilde") == (
        True, "ranks 2,2")
    with pytest.raises(DegenerateRoots):
        projector_algebra_check(V, Weight(S11, (1, 0)), "adual")
    for kind in ("atilde", "adual"):
        assert not projector_algebra_check(V, Weight(S11, (2, 0)), kind)[0]
    modules = dict(realized_modules(S21, 2, 30))
    lam, other = Weight(S21, (2, 0, 0)), Weight(S21, (1, 0, 0))
    for kind in ("atilde", "adual"):
        assert projector_algebra_check(modules[lam], lam, kind)[0]
        assert not projector_algebra_check(modules[lam], other, kind)[0]


def test_projector_algebra_check_tests_every_r():
    # gl(2|1) V(1,1|0) with the nodes of 1,0|0: every rank is an integer
    # and they sum to the dimension 12 of V (x) W.  r = 1 passes, since
    # 2,0|0 is atypical, and r = 2 too, a typical summand absent; only
    # r = 3 fails, since 1,0|1 is typical and dominant with Kac dimension
    # 8, not 4
    W = dict(realized_modules(S21, 2, 30))[Weight(S21, (1, 1, 0))]
    other = Weight(S21, (1, 0, 0))
    assert projector_algebra_check(W, other, "atilde") == (
        False, "ranks 8,0,4")
    typical = [is_typical(Weight(S21, c))
               for c in ((2, 0, 0), (1, 1, 0), (1, 0, 1))]
    assert typical == [False, True, True]
    assert _kac_dimension(Weight(S21, (1, 0, 1))) == 8


def _rank_rule(lam, kind, ranks):
    """The rank check's verdict on ranks, as a reference: nonnegative
    integers, 0 off the dominant weights lam +- eps_r, and 0 or Kac's
    dimension on the typical dominant ones."""
    sig = lam.sig
    step = 1 if kind == "atilde" else -1
    for r, rank in enumerate(ranks, start=1):
        if not str(rank).isdigit():
            return False
        n = int(str(rank))
        comps = list(lam.comps)
        comps[r - 1] += step
        mu = Weight(sig, comps)
        even, odd = mu.even, mu.odd
        dominant = (all(a >= b for a, b in zip(even, even[1:]))
                    and all(a >= b for a, b in zip(odd, odd[1:])))
        if not dominant and n:
            return False
        if dominant and is_typical(mu) and n not in (0, _kac_dimension(mu)):
            return False
    return True


def _matrix_ranks(W, lam, kind):
    """tr(N_r)/s_r read off the built N_r of projector_parts."""
    A, nodes = char_matrix(W, kind), char_eigenvalues(lam, kind)
    ranks = []
    for r in range(1, W.sig.d + 1):
        N, s = projector_parts(A, nodes, r)
        ranks.append(sum((N[i, i] for i in range(N.shape[0])), ZERO) / s)
    return ranks


def test_rank_check_reads_the_built_projectors():
    # with every module weight's nodes, right or wrong: the ranks the
    # check lists are tr(N_r)/s_r of the built N_r, its verdict is the
    # rank rule's on those, and it raises where projector_parts does
    outcomes = set()
    for sig in (S11, S21, S12, Signature(2, 2), Signature(3, 1),
                Signature(1, 3)):
        modules = realized_modules(sig, 2, 30)
        for _, W in modules:
            for lam, _ in modules:
                for kind in ("atilde", "adual"):
                    try:
                        want = _matrix_ranks(W, lam, kind)
                    except DegenerateRoots:
                        with pytest.raises(DegenerateRoots):
                            projector_algebra_check(W, lam, kind)
                        outcomes.add(DegenerateRoots)
                        continue
                    ok, detail = projector_algebra_check(W, lam, kind)
                    assert _ranks(detail) == [str(x) for x in want]
                    assert ok == _rank_rule(lam, kind, want), (
                        str(sig), str(lam), kind)
                    outcomes.add(ok)
    assert outcomes == {True, False, DegenerateRoots}


def test_wrong_nodes_fail_the_rank_check():
    # each module's check with the nodes of every other module weight of
    # its signature: integrality alone (a rank that is not a nonnegative
    # integer) fails 29 of the 44 non-degenerate cases, and the whole
    # check 41.  A check that tested r = 1 alone would let 8 more through.
    cases = failed = not_integral = 0
    for sig in (S11, S21, S12, Signature(2, 2), Signature(3, 1),
                Signature(1, 3)):
        modules = realized_modules(sig, 2, 30)
        for lam, W in modules:
            for other, _ in modules:
                for kind in ("atilde", "adual"):
                    if other == lam:
                        continue
                    try:
                        ok, detail = projector_algebra_check(W, other, kind)
                    except DegenerateRoots:
                        continue
                    cases += 1
                    failed += not ok
                    not_integral += any(
                        not x.isdigit() for x in _ranks(detail))
    assert (cases, failed, not_integral) == (44, 41, 29)


@pytest.mark.parametrize("m, n, module, nodes, ranks", [
    (2, 1, "1,1|0", "2,0|0", "0,0,12"),
    (1, 2, "2|0,0", "1|1,0", "0,0,12"),
    (2, 2, "1,0|0,0", "2,0|0,0", "0,0,0,16"),
])
def test_wrong_nodes_that_only_char_identity_catches(m, n, module, nodes,
                                                     ranks):
    # with another module's adual nodes every rank is a nonnegative integer
    # and the rank rule holds, yet A - v_r has a nilpotent part on the
    # eigenspace of the last rank: only char_identity_check sees it
    sig = Signature(m, n)
    W = dict(realized_modules(sig, 2, 30))[_parse_weight(module)]
    other = _parse_weight(nodes)
    assert projector_algebra_check(W, other, "adual") == (
        True, "ranks " + ranks)
    assert char_identity_check(W, other, "adual") is False


def test_kac_dimension_of_typical_modules():
    # every typical module built has Kac's dimension 2^(mn) dim L0(lam)
    typical = 0
    for sig in (S11, S21, S12, Signature(2, 2), Signature(3, 1),
                Signature(1, 3)):
        for lam, W in realized_modules(sig, 3, 40):
            if is_typical(lam):
                assert W.dim == _kac_dimension(lam), str(lam)
                typical += 1
    assert typical == 11
    # Weyl's formula on the even part: gl(3) (2,1,0) has dimension 8
    assert _kac_dimension(Weight(Signature(3, 1), (2, 1, 0, 5))) == 2 ** 3 * 8


def test_char_identity_decides_the_projector_algebra():
    # the rank check tests no idempotence: where char_identity_check
    # passes, the whole algebra holds, N_i N_i = s_i N_i, N_i N_j = 0 and
    # sum_r P_r = I; with wrong nodes both fail together here.  Coinciding
    # nodes have no Lagrange projectors, and there char_identity_check
    # decides alone
    outcomes, alone = set(), set()
    for sig in (S11, S21, S12):
        modules = realized_modules(sig, 2, 30)
        for _, W in modules:
            for lam, _ in modules:
                for kind in ("atilde", "adual"):
                    got = char_identity_check(W, lam, kind)
                    want = _outcome_of(_projector_algebra_reference, W, lam,
                                       kind)
                    if want is DegenerateRoots:
                        alone.add(got)
                    else:
                        assert got == want, (str(sig), str(lam), kind)
                    outcomes.add(want)
    assert outcomes == {True, False, DegenerateRoots}
    assert alone == {True, False}


def _projector_algebra_reference(W, lam, kind):
    """The whole projector algebra on the unscaled parts: N_i N_i = s_i N_i,
    N_i N_j = 0 for i != j and sum_r (prod_{j != r} s_j) N_r =
    (prod_j s_j) I; DegenerateRoots when two nodes coincide."""
    A, nodes = char_matrix(W, kind), char_eigenvalues(lam, kind)
    parts = [projector_parts(A, nodes, r) for r in range(1, W.sig.d + 1)]
    every = ONE
    for _, s in parts:
        every = every * s
    total = zeros(W.sig.d * W.dim)
    for i, (n, s) in enumerate(parts):
        if matmul(n, n) != mat_scale(n, s) or not all(
                is_zero_matrix(matmul(n, m)) for m, _ in parts[i + 1:]):
            return False
        total = total + mat_scale(n, every / s)
    return total == diagonal((every,) * total.shape[0])


def _outcome_of(fn, *args):
    try:
        return fn(*args)
    except DegenerateRoots:
        return DegenerateRoots


def test_projector_degenerate():
    V = vector_rep(S11)
    A = char_matrix(V, "adual")
    with pytest.raises(DegenerateRoots):
        projector(A, (ZERO, ZERO), 1)


def test_tensor_decomposition_gl11():
    V = vector_rep(S11)
    T = tensor_module(V, V)
    hws = {tuple(int(c) for c in wt): vecs for wt, vecs in highest_weight_vectors(T)}
    assert set(hws) == {(2, 0), (1, 1)}
    for wt, vecs in hws.items():
        assert len(vecs) == 1
        M = submodule(T, vecs)
        assert M.dim == 2
        assert char_identity_check(M, Weight(S11, wt), "atilde")


def test_wigner_oracle_examples():
    V = vector_rep(S11)
    lam = Weight(S11, (1, 0))
    assert wigner_oracle(V, lam, (1,), 1, "raise") == QFraction(qpow(-1), qnum(2))
    with pytest.raises(DegenerateRoots):
        wigner_oracle(V, lam, (1,), 1, "lower")

    V3 = vector_rep(S21)
    lam3 = Weight(S21, (1, 0, 0))
    b = index_sets(lam3, (0, 0))
    for k in (2, 3):
        assert wigner_oracle(V3, lam3, (0, 0), k, "raise") == omega(b, k, "raise")


def test_coupled_oracle_example():
    V3 = vector_rep(S21)
    lam3 = Weight(S21, (1, 0, 0))
    assert coupled_oracle(V3, lam3, (1, 0), 1, 1, "raise") == ONE


def test_mu_shift_convention_resolution():
    # the defining factorization identity fixes the evaluation point of the
    # subalgebra root: the unshifted reading matches the oracle, the shifted
    # reading does not; a silent flip would be caught here
    V = vector_rep(S11)
    lam = Weight(S11, (1, 0))
    b = index_sets(lam, (1,))
    oracle = mu_oracle(V, lam, (1,), 1, "raise")
    assert oracle == ZERO
    assert mu(b, 1, "raise", convention="unshifted") == oracle
    assert mu(b, 1, "raise", convention="shifted") != oracle


# (signature, lambda, lambda0, kind, r) of the realised modules below where
# mu's unshifted closed form and mu_oracle disagree, every r an odd index,
# mapped to mu_oracle's value: on the first, the closed form gives q^4 and
# the oracle 0.  Which side is wrong is open; the cases and the oracle's
# values are pinned so that no change moves either unnoticed.  gl(2|2) and
# gl(3|1) have none.
MU_ODD_R_DISAGREEMENTS = {
    ("gl(1|2)", "1|1,0", (0, 0), "raise", 2): "0",
    ("gl(1|2)", "1|1,0", (1, 0), "raise", 2): "q^2 + q^4 + q^6",
    ("gl(1|2)", "1|1,0", (1, 1), "lower", 2): "q^4 + q^6",
    ("gl(1|3)", "1|1,0,0", (0, 0, 0), "raise", 2): "0",
    ("gl(1|3)", "1|1,0,0", (1, 0, 0), "raise", 2): "q^2 + q^4 + q^6",
    ("gl(1|3)", "1|1,0,0", (1, 1, 0), "lower", 2): "q^6 + q^8 + q^10",
}


def test_mu_unshifted_matches_oracle_broadly():
    # every agreement is counted by whether it is 0 = 0: none is nonzero,
    # so no nonzero value of mu has passed this check yet
    agree = {"zero": 0, "nonzero": 0}
    mismatches_shifted = 0
    disagree = {}
    for sig in (S11, S21, S12, Signature(2, 2), Signature(3, 1),
                Signature(1, 3)):
        for lam, M in realized_modules(sig, 2, sig.d ** 2):
            for b in branch_candidates(lam):
                for kind in ("lower", "raise"):
                    for r in _Side(b, kind).L:
                        try:
                            oracle = mu_oracle(M, lam, b.lam0, r, kind)
                        except SKIPS:
                            continue
                        try:
                            closed = mu(b, r, kind, convention="unshifted")
                        except SKIPS:
                            continue
                        if closed != oracle:
                            assert sig.parity(r), (str(lam), b.lam0, kind, r)
                            disagree[str(sig), str(lam), b.lam0, kind, r] = (
                                str(oracle))
                            continue
                        agree["nonzero" if oracle else "zero"] += 1
                        try:
                            if mu(b, r, kind, convention="shifted") != oracle:
                                mismatches_shifted += 1
                        except SKIPS:
                            pass
    assert disagree == MU_ODD_R_DISAGREEMENTS
    assert agree == {"zero": 50, "nonzero": 0}
    # the rejected convention genuinely disagrees somewhere
    assert mismatches_shifted >= 1


# (signature, lambda, lambda0, kind, r) of coupled cases where P_k moves the
# test family e_j (x) w0 into subalgebra components other than lambda0's;
# with lambda0's nodes on the outer P0_r the ratio was not a scalar
_CROSSING_CASES = [
    (S12, (2, 1, 0), (2, 0), "raise", 2),
    (S12, (2, 2, 0), (2, 0), "raise", 2),
    (S12, (2, 2, 0), (2, 1), "raise", 2),
    (S12, (3, 1, 0), (2, 1), "lower", 2),
    (S12, (3, 1, 0), (3, 0), "raise", 2),
    (Signature(1, 3), (2, 1, 0, 0), (2, 0, 0), "raise", 2),
    (Signature(2, 2), (2, 1, 1, 0), (2, 1, 0), "raise", 3),
]


def test_coupled_oracle_uses_each_components_nodes():
    for sig, comps, lam0, kind, r in _CROSSING_CASES:
        lam, W = first_module(sig, comps)
        b = index_sets(lam, lam0)
        for k in (1, 2, 3):
            got = coupled_oracle(W, lam, lam0, k, r, kind)
            assert got == omega_coupled(b, k, r, kind), (str(lam), lam0, k)
    # a component that P_k reaches has coincident nodes: the case is a
    # DegenerateRoots skip, where the fixed nodes gave no scalar
    lam, W = first_module(Signature(2, 2), (2, 1, 1, 0))
    for k in (1, 3, 4):
        with pytest.raises(DegenerateRoots):
            coupled_oracle(W, lam, (1, 1, 1), k, 3, "lower")


def test_outer_shift_projector_is_component_aware():
    # on the first crossing case the fixed-node polynomial and P0_r agree on
    # the test family, which lies in the lambda0 component, and differ on
    # its image under P_k; _shift_project matches the matrix reference
    sig, comps, lam0, kind, r = _CROSSING_CASES[0]
    lam, W = first_module(sig, comps)
    ckind = _KIND_TO_CHAR[kind]
    n0 = (sig.d - 1) * W.dim
    A = char_matrix(W, ckind)
    fixed = _scaled(projector_parts(A[:n0, :n0], _sub_nodes(lam0, ckind, sig),
                                    r))
    _, w0 = _branch_vector(W, lam, lam0)
    differ = 0
    for j in range(sig.d - 1):
        vec = {j * W.dim + s: c for s, c in w0.items()}
        u = _shift_project(W, vec, r, ckind)
        assert u == matvec(fixed, vec)
        for k in (1, 2, 3):
            v = matvec(_scaled(projector_parts(
                A, char_eigenvalues(lam, ckind), k)), u)
            aware = _shift_project(W, v, r, ckind)
            want = _component_shift_projector(W, r, ckind, [v])
            assert aware == matvec(want, v)
            differ += aware != matvec(fixed, {i: x for i, x in v.items()
                                              if i < n0})
    assert differ


def test_e_last_matches_oracle_weight():
    # every subalgebra highest weight vector in V corresponds to a branching
    # candidate whose e_last equals the oracle's last weight coordinate
    for sig in (S21, S12):
        V = vector_rep(sig)
        lam = Weight(sig, tuple(int(c) for c in V.weights[0]))
        cands = {b.lam0: b.e_last for b in branch_candidates(lam)}
        found = 0
        for wt, vecs in highest_weight_vectors(V, gens=range(1, sig.d - 1)):
            lam0 = tuple(int(c) for c in wt[:-1])
            if lam0 in cands:
                assert cands[lam0] == wt[-1]
                found += 1
        assert found >= 1


def test_supertrace_examples():
    V = vector_rep(S11)
    lam = Weight(S11, (1, 0))
    assert supertrace_invariant(V, "adual") == ONE
    assert chi_C1(lam) == ONE
    for kind in ("adual", "atilde"):
        assert supertrace_invariant(trivial_module(S11), kind) == ZERO


def test_atilde_pairs_only_with_plus_two_rho(monkeypatch):
    # gl(2|1) 2,1|0 is typical and its graded block is not constant; the
    # Atilde supertrace is central there with q^(+2 rho) only
    lam, W = first_module(S21, (2, 1, 0))
    assert supertrace_invariant(W, "atilde") == chi_C1(lam)
    variant, _, pair = _KINDS["atilde"]
    monkeypatch.setitem(_KINDS, "atilde", (variant, -1, pair))
    with pytest.raises(NotScalar):
        supertrace_invariant(W, "atilde")


# -- per-module caches ---------------------------------------------------------


def _gl21_module_200():
    """A fresh realization of V(2,0|0) inside V (x) V for gl(2|1)."""
    V = vector_rep(S21)
    T = tensor_module(V, V)
    vecs = dict(highest_weight_vectors(T))[(2, 0, 0)]
    return submodule(T, vecs)


def _dense_char_matrix(W, kind, dirs):
    """The defining formula of char_matrix, (I - L' L)(q - q^-1)^-1 over
    the kind's pair of L-operators, evaluated with whole-matrix operations
    on the first dirs vector directions: L' and L are cut to their leading
    blocks before they are multiplied, so for dirs < d it is the matrix of
    the subalgebra on those directions."""
    left, right = ("RtildeT", "Rtilde") if kind == "atilde" else (
        "dualRT", "dualR")
    N = dirs * W.dim
    prod = matmul(l_operator(W, left)[:N, :N], l_operator(W, right)[:N, :N])
    return mat_scale(identity(N) + (-prod),
                     QFraction(qpow(1) - qpow(-1)).inverse())


def _scaled(parts):
    """The projector N s^-1 of its parts (N, s), which the oracle never
    forms."""
    N, s = parts
    return mat_scale(N, s.inverse())


def _sub_nodes(lam0, ckind, sig):
    """The subalgebra projector nodes: the deformed lam0 roots."""
    alphas = subalgebra_roots(tuple(lam0), VARIANTS[ckind], sig)
    return tuple(deformed_root(a) for a in alphas)


def _columns_of(coeffs, A, n):
    """The n x n matrix sum_j c_j A^j, built column by column from _powers
    of the unit vectors, as the oracle applies it."""
    rows = [{} for _ in range(n)]
    for col in range(n):
        powers = _powers(A, {col: ONE}, len(coeffs))
        for i, x in _apply(coeffs, powers).items():
            rows[i][col] = x
    return Matrix(rows, n)


def _dense_projector(A, nodes, r):
    """Lagrange interpolation with every factor scaled on its own."""
    out = identity(A.shape[0])
    for k, v in enumerate(nodes, start=1):
        if k != r:
            shifted = A + (-mat_scale(identity(A.shape[0]), v))
            out = matmul(out, mat_scale(shifted, (nodes[r - 1] - v).inverse()))
    return out


def test_cached_matrices_equal_fresh_builds():
    W, fresh = _gl21_module_200(), _gl21_module_200()
    lam = Weight(S21, (2, 0, 0))
    d = S21.d
    n0 = (d - 1) * W.dim
    for kind in VARIANTS:
        A = char_matrix(W, kind)
        assert char_matrix(W, kind) is A
        dense = _dense_char_matrix(fresh, kind, d)
        assert A == dense
        assert A[:n0, :n0] == _dense_char_matrix(fresh, kind, d - 1)
        nodes = char_eigenvalues(lam, kind)
        for k in range(1, d + 1):
            coeffs, s = _coefficients(W, kind, lam, k)
            assert _coefficients(W, kind, lam, k)[0] is coeffs
            assert _scaled((_columns_of(coeffs, A, d * W.dim), s)) == (
                _dense_projector(dense, nodes, k))
    checked = 0
    for ckind in ("atilde", "adual"):
        dense = _dense_char_matrix(fresh, ckind, d - 1)
        for b in branch_candidates(lam):
            nodes = _sub_nodes(b.lam0, ckind, S21)
            for r in range(1, d):
                try:
                    c0, s0 = _sub_coefficients(W, ckind, b.lam0, r)
                except DegenerateRoots:
                    continue
                assert _sub_coefficients(W, ckind, b.lam0, r)[0] is c0
                N0 = _columns_of(c0, char_matrix(W, ckind)[:n0, :n0], n0)
                assert _scaled((N0, s0)) == _dense_projector(dense, nodes, r)
                checked += 1
    assert checked >= 4
    # one characteristic matrix per kind: the subalgebra's is a slice
    assert sorted(key for key in W._cache if key[0] == "char") == sorted(
        ("char", kind) for kind in VARIANTS)


def test_char_entry_division_is_exact_or_raises():
    # -x/(q - q^-1) on the numerator alone, the denominator kept: the
    # gl(1|2) module 2|1,0 cut from V^(x)3 by its first highest weight
    # vector has entries with one
    kappa = QFraction(qpow(1) - qpow(-1))
    poly = kappa * QFraction(qpow(3) - HalfLaurent.const(2) * qpow(Fraction(1, 2)))
    over = poly / QFraction(qpow(2) + HalfLaurent.const(1))
    for x in (kappa, -kappa, poly, over):
        assert _minus_over_kappa(x) == -x / kappa
    assert _minus_over_kappa(over).den == over.den != ONE.den
    for x in (QFraction(qpow(1)), poly + ONE,
              QFraction(1, qpow(1) + HalfLaurent.const(1)), over + ONE):
        with pytest.raises(ConsistencyError):
            _minus_over_kappa(x)
    _, W = first_module(S12, (2, 1, 0))
    A = char_matrix(W, "adual")
    assert any(x.den != ONE.den for x in A.flat)
    assert A == _dense_char_matrix(W, "adual", S12.d)


def _oracle_results(W, lam):
    """Every wigner_oracle, coupled_oracle and mu_oracle outcome on the
    module, keyed by its inputs: the value, or the class of the QwigError
    raised."""
    out = {}
    for b in branch_candidates(lam):
        for kind in ("lower", "raise"):
            side = _Side(b, kind)
            calls = [(wigner_oracle, (k, kind)) for k in range(1, W.sig.d + 1)]
            calls += [(coupled_oracle, (k, r, kind))
                      for k in side.K for r in side.L]
            calls += [(mu_oracle, (r, kind)) for r in side.L]
            for fn, args in calls:
                try:
                    got = fn(W, lam, b.lam0, *args)
                except QwigError as exc:
                    got = type(exc)
                out[fn.__name__, b.lam0, args] = got
    return out


def test_unscaled_extraction_equals_scaled_projectors(monkeypatch):
    # the reference applies every projector with its coefficients divided
    # by s, and its scale as 1, to vectors whose denominators are kept, on
    # modules of its own, so that it shares no cached value
    sigs = (S21, S12, Signature(2, 2))
    got = {(sig, str(lam)): _oracle_results(W, lam)
           for sig in sigs for lam, W in realized_modules(sig, 2, 30)}

    def scaled(parts):
        def build(*args):
            coeffs, s = parts(*args)
            return tuple(c / s for c in coeffs), ONE
        return build

    for name in ("_coefficients", "_sub_coefficients"):
        monkeypatch.setattr(checks, name, scaled(getattr(checks, name)))
    monkeypatch.setattr(checks, "_cleared", lambda vecs: (list(vecs), ONE))
    want = {(sig, str(lam)): _oracle_results(W, lam)
            for sig in sigs for lam, W in realized_modules(sig, 2, 30)}
    assert got == want
    outcomes = [x for results in got.values() for x in results.values()]
    assert sum(isinstance(x, QFraction) for x in outcomes) >= 100
    assert {DegenerateRoots, NotRealized} <= set(outcomes)


def _same_outcome(got, want):
    """Asserts got() == want(), or that both raise DegenerateRoots; returns
    "value" or DegenerateRoots."""
    try:
        expected = want()
    except DegenerateRoots:
        with pytest.raises(DegenerateRoots):
            got()
        return DegenerateRoots
    assert got() == expected
    return "value"


def test_vector_path_equals_matrix_reference():
    # every projector the oracle applies, applied from its coefficients
    # and the cached powers, equals the built N_r (projector_parts) times
    # the vector: on e_d (x) w0 and each P0_r family vector for the
    # module's matrix, and on each component part for the subalgebra's
    # leading block; the raising cases are the same on both paths
    compared = []
    for sig in (S11, S21, S12, Signature(2, 2), Signature(3, 1),
                Signature(1, 3)):
        d = sig.d
        for lam, W in realized_modules(sig, 2, 30):
            n0 = (d - 1) * W.dim
            for ckind in ("atilde", "adual"):
                A = char_matrix(W, ckind)
                nodes = char_eigenvalues(lam, ckind)
                for b in branch_candidates(lam):
                    try:
                        w0 = _branch_start(W, lam, b.lam0)
                    except (NotRealized, MultiplicityAmbiguous):
                        continue
                    starts = [(("e", lam.comps, b.lam0, d), _slot(W, d, w0))]
                    for r in range(1, d):
                        try:
                            _, us, _ = _shifted_family(W, lam, b.lam0, r,
                                                       ckind)
                        except DegenerateRoots:
                            continue
                        starts += [(("P0", lam.comps, b.lam0, r, j), u)
                                   for j, u in enumerate(us)]
                        for j in range(1, d):
                            parts = _component_powers(W, _slot(W, j, w0),
                                                      ckind)
                            for lam0, powers in parts.items():
                                compared.append(_same_outcome(
                                    lambda: _apply(_sub_coefficients(
                                        W, ckind, lam0, r)[0], powers),
                                    lambda: matvec(projector_parts(
                                        A[:n0, :n0],
                                        _sub_nodes(lam0, ckind, sig), r)[0],
                                        powers[0])))
                    for key, x in starts:
                        powers = _start_powers(W, ckind, key, x)
                        for k in range(1, d + 1):
                            compared.append(_same_outcome(
                                lambda: _apply(_coefficients(
                                    W, ckind, lam, k)[0], powers),
                                lambda: matvec(projector_parts(
                                    A, nodes, k)[0], x)))
    assert (compared.count("value"), compared.count(DegenerateRoots)) == (
        1890, 442)


def _component_projections(W):
    """(lam0, Q) per subalgebra component of W, Q the projection of W onto
    the component along the others, as a matrix: Q = B S B^-1 with B the
    matrix whose columns are all the components' vectors and S the selector
    of this component's columns.  The columns of B^-1 are the solutions x
    of B x = e_s, read off the nullspace of [B | -I]."""
    d, dw = W.sig.d, W.dim
    comps = [
        (wt[: d - 1],
         [u for _, rows in _lowering_span(W, [dict(v)], range(1, d - 1))
          for _, u in rows])
        for wt, vecs in _subalgebra_highest_vectors(W) for v in vecs
    ]
    rows = [{} for _ in range(dw)]
    for t, u in enumerate(u for _, basis in comps for u in basis):
        for i, x in u.items():
            rows[i][t] = x
    B = Matrix(rows, dw)
    inverse = [{} for _ in range(dw)]
    for v in nullspace(Matrix([{**row, dw + i: -ONE}
                               for i, row in enumerate(rows)], 2 * dw)):
        (s,) = [j - dw for j in v if j >= dw]
        for t, x in v.items():
            if t < dw:
                inverse[t][s] = x
    inverse = Matrix(inverse, dw)
    out, t0 = [], 0
    for lam0, basis in comps:
        t1 = t0 + len(basis)
        select = Matrix([{t: ONE} if t0 <= t < t1 else {}
                         for t in range(dw)], dw)
        out.append((lam0, matmul(matmul(B, select), inverse)))
        t0 = t1
    return out


def _component_shift_projector(W, r, ckind, vecs):
    """P0_r on V (x) W, zero on the last vector slot, built component by
    component as the sum of L_c (1 (x) Q_c): L_c the Lagrange projector of
    the subalgebra characteristic matrix with component c's nodes, Q_c its
    projection.  Components whose 1 (x) Q_c kills every vector of vecs are
    left out."""
    sig, dw = W.sig, W.dim
    d = sig.d
    N = d * dw
    A0 = _dense_char_matrix(W, ckind, d - 1)
    total = zeros(N)
    for lam0, Q in _component_projections(W):
        EQ = Matrix([{b * dw + j: x for j, x in row.items()}
                     for b in range(d - 1) for row in Q.rows]
                    + [{} for _ in range(dw)], N)
        if not any(matvec(EQ, v) for v in vecs):
            continue
        nodes = _sub_nodes(lam0, ckind, sig)
        L = projector(A0, nodes, r)
        total = total + matmul(Matrix(list(L.rows) + [{} for _ in range(dw)],
                                      N), EQ)
    return total


def _sandwich_coupled(W, lam, lam0, k, r, kind):
    """coupled_oracle's ratio from the sandwich X = E0' P E0, multiplied
    out as matrices: E0 the component-aware P0_r over the components of the
    test family, E0' the one over the components of its image P E0."""
    d = W.sig.d
    _, w0 = _branch_vector(W, lam, lam0)
    ckind = _KIND_TO_CHAR[kind]
    P = projector(char_matrix(W, ckind), char_eigenvalues(lam, ckind), k)
    vecs = [{j * W.dim + s: c for s, c in w0.items()} for j in range(d - 1)]
    E0 = _component_shift_projector(W, r, ckind, vecs)
    rhs = [matvec(E0, vec) for vec in vecs]
    if not any(rhs):
        raise NotRealized("the shift projector annihilates the component")
    PE0 = matmul(P, E0)
    outer = _component_shift_projector(W, r, ckind,
                                       [matvec(PE0, v) for v in vecs])
    X = matmul(outer, PE0)
    return _ratio([matvec(X, vec) for vec in vecs], rhs)


def test_coupled_oracle_equals_sandwich_ratio(oracle_modules):
    outcomes = {"value": 0, "NotRealized": 0}
    for lam, M in oracle_modules[(2, 1)] + oracle_modules[(1, 2)]:
        for b in branch_candidates(lam):
            for kind in ("lower", "raise"):
                side = _Side(b, kind)
                for k in side.K:
                    for r in side.L:
                        args = (M, lam, b.lam0, k, r, kind)
                        try:
                            got = coupled_oracle(*args)
                        except SKIPS as exc:
                            with pytest.raises(type(exc)):
                                _sandwich_coupled(*args)
                            name = type(exc).__name__
                            outcomes[name] = outcomes.get(name, 0) + 1
                            continue
                        assert got == _sandwich_coupled(*args)
                        outcomes["value"] += 1
    assert outcomes["value"] >= 20 and outcomes["NotRealized"] >= 1, outcomes


def test_subalgebra_highest_vectors_found_once_per_module():
    W = _gl21_module_200()
    kept = _subalgebra_highest_vectors(W)
    assert _subalgebra_highest_vectors(W) is kept
    assert isinstance(kept, tuple) and all(
        isinstance(v, tuple) for _, vecs in kept for v in vecs
    )
    fresh = highest_weight_vectors(_gl21_module_200(), gens=range(1, S21.d - 1))
    assert [(wt, [dict(v) for v in vecs]) for wt, vecs in kept] == fresh


def test_cached_matrices_are_read_only():
    W = _gl21_module_200()
    lam = Weight(S21, (2, 0, 0))
    _component_powers(W, {0: ONE}, "atilde")
    for M in (
        char_matrix(W, "adual"),
        W._cache[("char0", "atilde")],
        etilde_matrix(W, 1, 2),
    ):
        with pytest.raises(TypeError):
            M[0, 0] = ONE
    # the kept coefficients and traces are tuples of values
    coeffs, _ = _coefficients(W, "atilde", lam, 1)
    for kept in (coeffs, _power_traces(W, "atilde")):
        assert type(kept) is tuple and len(kept) == S21.d


# -- typed errors in place of assertions ----------------------------------------


def test_matmul_shape_mismatch():
    with pytest.raises(InvalidArgument):
        matmul(zeros(2, 3), zeros(2, 3))


def test_tensor_module_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        tensor_module(vector_rep(S11), vector_rep(S21))


def test_submodule_rejects_non_weight_vector():
    V = vector_rep(S21)
    with pytest.raises(InvalidArgument, match="not a weight vector"):
        submodule(V, [{0: ONE, 1: ONE}])


def test_submodule_of_a_span_not_closed():
    # v1 (x) v1 and v3 (x) v3 in V (x) V of gl(2|1): e_2 maps v3 (x) v3 to
    # weight (0,1,1), off the one vector that the lowering span holds there
    V = vector_rep(S21)
    with pytest.raises(NotRealized, match="not closed"):
        submodule(tensor_module(V, V), [{0: ONE}, {8: ONE}])


def test_antipode_power_must_be_plus_or_minus_one():
    with pytest.raises(InvalidArgument):
        etilde_matrix(vector_rep(S21), 1, 2, 2)


def test_eij_of_a_diagonal_index_pair():
    with pytest.raises(IndexOutOfRange):
        eij_matrix(vector_rep(S21), 2, 2)
    for i, j in ((0, 1), (3, 4)):
        with pytest.raises(IndexOutOfRange):
            eij_matrix(vector_rep(S21), i, j)
    # a first-slot index outside 1..3 of the 9 x 9 matrix, with dW = 3
    A = char_matrix(vector_rep(S21), "atilde")
    assert big_entry(A, 3, 3, 1).shape == (3, 3)
    for i, j in ((0, 1), (4, 1), (1, 4), (1, 0)):
        with pytest.raises(IndexOutOfRange):
            big_entry(A, 3, i, j)


def test_projector_index_out_of_range():
    V = vector_rep(S21)
    A = char_matrix(V, "atilde")
    vals = char_eigenvalues(Weight(S21, (1, 0, 0)), "atilde")
    for r in (0, S21.d + 1):
        with pytest.raises(IndexOutOfRange):
            projector_parts(A, vals, r)
        with pytest.raises(IndexOutOfRange):
            projector(A, vals, r)


_TYPED_ERRORS_SCRIPT = """
import json
from fractions import Fraction

import qwig.superweight as sw
from qwig import (
    ONE, QFraction, QwigError, Signature, Weight, chi_v, index_sets, mu,
    omega, parse_qfraction, qnum, qpow,
)
from qwig.exactq import _BOUND, _factor_map, _merged_map
from qwig.oracle.linalg import matmul, zeros
from qwig.oracle.loperators import (
    _minus_over_kappa, big_entry, char_eigenvalues, char_matrix, eij_matrix,
    etilde_matrix, l_operator, projector, projector_parts,
)
from qwig.oracle.modules import (
    RepModule, submodule, tensor_module, vector_rep,
)

S11, S21 = Signature(1, 1), Signature(2, 1)
LAM = Weight(S21, (1, 0, 0))
B = index_sets(LAM, (0, 0))
cases = {
    "antipode": lambda: etilde_matrix(vector_rep(S21), 1, 2, 2),
    "eij": lambda: eij_matrix(vector_rep(S21), 2, 2),
    "eij_below": lambda: eij_matrix(vector_rep(S21), 0, 1),
    "eij_above": lambda: eij_matrix(vector_rep(S21), 3, 4),
    "big_entry": lambda: big_entry(
        char_matrix(vector_rep(S21), "atilde"), 3, 4, 1),
    "projector_below": lambda: projector_parts(
        char_matrix(vector_rep(S11), "atilde"), (ONE, -ONE), 0),
    "projector_above": lambda: projector(
        char_matrix(vector_rep(S11), "atilde"), (ONE, -ONE), 3),
    "signature": lambda: Signature(0, 1),
    "tensor_module": lambda: tensor_module(vector_rep(S11), vector_rep(S21)),
    "matmul": lambda: matmul(zeros(2, 3), zeros(2, 3)),
    "module_weight": lambda: RepModule(
        S11, [(Fraction(1, 2), 0)], {1: zeros(1)}, {1: zeros(1)}
    ),
    "span_not_closed": lambda: submodule(
        tensor_module(vector_rep(S21), vector_rep(S21)), [{0: ONE}, {8: ONE}]
    ),
    "l_operator_kind": lambda: l_operator(vector_rep(S11), "nope"),
    "char_matrix_kind": lambda: char_matrix(vector_rep(S11), "nope"),
    "char_eigenvalue_kind": lambda: char_eigenvalues(LAM, "nope"),
    "char_entry_remainder": lambda: _minus_over_kappa(QFraction(qpow(1))),
    "char_entry_denominator": lambda: _minus_over_kappa(
        QFraction(1, qpow(1) + qpow(0))),
    "wigner_variant": lambda: omega(B, 1, "nope"),
    "wigner_form": lambda: omega(B, 1, "lower", "nope"),
    "mu_convention": lambda: mu(B, 1, "lower", "root_product", "nope"),
    "weight_length": lambda: Weight(S21, (1, 0)),
    "char_roots_variant": lambda: sw.char_roots(LAM, "nope"),
    "subalgebra_roots_variant": lambda: sw.subalgebra_roots((1, 0), "nope", S21),
    "chi_v_kind": lambda: chi_v(LAM, "nope"),
    "qpow": lambda: qpow(Fraction(1, 3)),
    "qpow_float": lambda: qpow(0.5),
    "deformed_root_float": lambda: sw.deformed_root(0.5),
    "qnum": lambda: qnum(Fraction(1, 2)),
    "parse_exponent": lambda: parse_qfraction("q^1/3"),
    "parse_exponent_text": lambda: parse_qfraction("q^x"),
    "parse_missing_exponent": lambda: parse_qfraction("2*q^"),
    "parse_two_slashes": lambda: parse_qfraction("q^1/2/3"),
    "parse_zero_denominator": lambda: parse_qfraction("1/(0)"),
    "lower_weight": lambda: index_sets(LAM, (Fraction(1, 2), 0)),
    "signature_dimension": lambda: Signature(Fraction(3, 2), 1),
    "packed_exponent_bound": lambda: _merged_map(
        [_factor_map(qnum(2))] * (_BOUND + 1), []),
}
missed = {}
for name, call in cases.items():
    try:
        call()
        missed[name] = "no error"
    except QwigError:
        pass
    except Exception as exc:
        missed[name] = type(exc).__name__
print(json.dumps({"debug": __debug__, "missed": missed}))
"""


def test_typed_errors_hold_under_python_O():
    """Each runtime invariant raises its QwigError with assertions off."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(qwig.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-O", "-c", _TYPED_ERRORS_SCRIPT],
                          capture_output=True, text=True, env=env, check=True)
    assert json.loads(done.stdout) == {"debug": False, "missed": {}}


# -- the echelon routine, and a Gauss-Jordan kernel as its reference -----


def nullspace(A):
    """Basis of the right nullspace of A, as a list of vectors, by
    Gauss-Jordan elimination: every pivot column is cleared outside its own
    row, and each column without a pivot gives one vector."""
    basis = []
    for row in A.rows:
        if row:
            insert_row(basis, row)
    pivots = [p for p, _ in basis]
    rows = [dict(r) for _, r in basis]
    for i in range(len(rows) - 1, -1, -1):
        for k in range(i):
            c = rows[k].get(pivots[i])
            if c is not None:
                for j, y in rows[i].items():
                    _add_entry(rows[k], j, -(c * y))
    out = []
    for fj in (j for j in range(A.ncols) if j not in pivots):
        v = {fj: ONE}
        for p, row in zip(pivots, rows):
            x = row.get(fj)
            if x is not None:
                v[p] = -x
        out.append(v)
    return out


def _reference_highest_weight_vectors(W, gens):
    """highest_weight_vectors by nullspace, one weight space at a time: the
    raising images of the weight space's basis vectors are the columns of
    one matrix."""
    by_weight = {}
    for i, wt in enumerate(W.weights):
        by_weight.setdefault(wt, []).append(i)
    out = []
    for wt in sorted(by_weight):
        idxs = by_weight[wt]
        rows = [{c: row[i] for c, i in enumerate(idxs) if i in row}
                for a in gens for row in W.e[a].rows]
        vecs = [{idxs[c]: x for c, x in v.items()}
                for v in nullspace(Matrix(rows, len(idxs)))]
        if vecs:
            out.append((wt, vecs))
    return out


def _tensor_powers(sig, k_max):
    V = W = vector_rep(sig)
    yield W
    for _ in range(k_max - 1):
        W = tensor_module(W, V)
        yield W


def test_highest_weight_vectors_match_gauss_jordan():
    cases = [(Signature(m, n), 3) for m, n in
             ((1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3))]
    cases.append((Signature(3, 2), 4))
    for sig, k_max in cases:
        for W in _tensor_powers(sig, k_max):
            for gens in (range(1, sig.d), range(1, sig.d - 1)):
                found = highest_weight_vectors(W, gens)
                ref = _reference_highest_weight_vectors(W, gens)
                assert [wt for wt, _ in found] == [wt for wt, _ in ref]
                for (wt, vecs), (_, ref_vecs) in zip(found, ref):
                    assert len(vecs) == len(ref_vecs)
                    basis = []
                    for v in vecs:
                        assert {W.weights[i] for i in v} == {wt}
                        assert all(matvec(W.e[a], v) == {} for a in gens)
                        assert insert_row(basis, v)
                    for v in ref_vecs:
                        assert reduce_row(basis, v)[1] == {}


def _q(k):
    return QFraction(qpow(k))


def _from_dense(rows):
    """The Matrix of a list of equally long lists of QFraction."""
    rows = list(rows)
    return Matrix([{j: x for j, x in enumerate(r) if x} for r in rows],
                  len(rows[0]) if rows else 0)


def test_folded_linear_algebra():
    q, one = _q(1), ONE
    # the first row leads in column 1, the second in column 0, and the third
    # is their sum: pivots out of order, rank 2
    rows = [[ZERO, one, q, ZERO], [one, ZERO, one, _q(-1)]]
    rows.append([x + y for x, y in zip(*rows)])
    B = _from_dense(rows)
    null = nullspace(B)
    assert len(null) == 4 - 2
    for v in null:
        assert v and matvec(B, v) == {}

    # each column is zero at the pivots before it, so the multipliers that
    # reduce a target are its coordinates
    cols = [{0: one, 1: q}, {1: one, 2: QFraction(qnum(3))}]
    basis = []
    assert all(insert_row(basis, c) for c in cols)
    assert basis == [(0, cols[0]), (1, cols[1])]
    coeffs = {0: _q(-1), 1: one + q}
    target = matvec(_from_dense([[one, ZERO], [q, one],
                                 [ZERO, QFraction(qnum(3))]]), coeffs)
    assert reduce_row(basis, target) == (coeffs, {})
    assert not insert_row(basis, target) and len(basis) == 2
    assert reduce_row(basis, {2: one}) == ({}, {2: one})
    assert reduce_row(basis, {0: one, 2: one}) == (
        {0: one, 1: -q}, {2: one + q * QFraction(qnum(3))})


def test_ratio_on_sparse_vectors():
    c, y = _q(1), QFraction(qnum(2))
    # one factor across paired vectors, an empty pair taking no part
    assert _ratio([{0: c * y, 3: c}, {}], [{0: y, 3: ONE}, {}]) == c
    assert _ratio([{}], [{2: y}]) == ZERO
    assert _ratio([{}, {}], [{}, {}]) == ZERO
    with pytest.raises(NotScalar, match="no consistent"):
        _ratio([{1: ONE}], [{0: ONE}])
    with pytest.raises(NotScalar, match="inconsistent"):
        _ratio([{0: ONE, 1: c}], [{0: ONE, 1: ONE}])
    # a missing numerator entry is a zero, not a hole
    with pytest.raises(NotScalar, match="inconsistent"):
        _ratio([{0: c}], [{0: ONE, 1: ONE}])


# sha256 of every e[a] and f[a] entry, zeros included and rows in order, of
# every module of the oracle_modules fixture: it fixes the echelon bases
# that submodule builds, not only the results of verify
MODULE_MATRICES_SHA256 = (
    "af5c548640beeed8f7ab9e678cf196b332f4187551717967922aa5a2a2f37f24"
)


def test_module_matrices_are_pinned(oracle_modules):
    h = hashlib.sha256()
    for key, modules in sorted(oracle_modules.items()):
        for lam, M in modules:
            h.update(("%s %s %d\n" % (key, lam, M.dim)).encode())
            for a in sorted(M.e):
                for A in (M.e[a], M.f[a]):
                    for i in range(M.dim):
                        for j in range(M.dim):
                            h.update(("%s\n" % (A[i, j],)).encode())
    assert h.hexdigest() == MODULE_MATRICES_SHA256


# -- the sparse Matrix against a dense list-of-lists reference -------------------

# entries that cancel in sums and products: x and -x, and x times its inverse
_POOL = [ONE, -ONE, _q(1), -_q(1), _q(-1), QFraction(qnum(2)),
         QFraction(qpow(1), qnum(2)), -QFraction(qpow(1), qnum(2))]


def _random_dense(rng, r, c, density=0.4):
    return [[rng.choice(_POOL) if rng.random() < density else ZERO
             for _ in range(c)] for _ in range(r)]


def _dense(A):
    r, c = A.shape
    return [[A[i, j] for j in range(c)] for i in range(r)]


def _ref_matmul(X, Y):
    return [[sum((x * Y[k][j] for k, x in enumerate(row)), ZERO)
             for j in range(len(Y[0]))] for row in X]


def _ref_gkron(dense_ops, slot_parities):
    """Entry (rows, cols) of the graded Kronecker product: the product of
    the factors' entries, with sign (-1)^(p_j * sum_{i<j} par_i(col_i))."""
    def index(ks, dims):
        out = 0
        for k, d in zip(ks, dims):
            out = out * d + k
        return out

    dims = [len(m) for m, _ in dense_ops]
    n = 1
    for d in dims:
        n *= d
    out = [[ZERO] * n for _ in range(n)]
    for rs in itertools.product(*map(range, dims)):
        for cs in itertools.product(*map(range, dims)):
            x, carried = ONE, 0
            for (m, p), r, c, pars in zip(dense_ops, rs, cs, slot_parities):
                x = x * m[r][c]
                if p and carried % 2:
                    x = -x
                carried += pars[c]
            out[index(rs, dims)][index(cs, dims)] = x
    return out


def _assert_no_stored_zero(A):
    assert all(x for row in A.rows for x in row.values())
    assert all(0 <= j < A.ncols for row in A.rows for j in row)


@pytest.mark.parametrize("seed", range(12))
def test_matrix_operations_match_dense_reference(seed):
    rng = random.Random(seed)
    n, m, p = rng.randint(1, 5), rng.randint(1, 5), rng.randint(1, 5)
    X, Y, Z = (_random_dense(rng, n, m), _random_dense(rng, m, p),
               _random_dense(rng, n, m))
    A, B, C = _from_dense(X), _from_dense(Y), _from_dense(Z)
    c = rng.choice(_POOL)
    rdiag = [rng.choice(_POOL + [ZERO]) for _ in range(n)]
    cdiag = [rng.choice(_POOL + [ZERO]) for _ in range(m)]
    r0, r1 = sorted(rng.sample(range(n + 1), 2))
    c0, c1 = sorted(rng.sample(range(m + 1), 2))
    cases = [
        (matmul(A, B), _ref_matmul(X, Y)),
        (A + C, [[x + z for x, z in zip(u, w)] for u, w in zip(X, Z)]),
        (A + (-C), [[x - z for x, z in zip(u, w)] for u, w in zip(X, Z)]),
        (-A, [[-x for x in u] for u in X]),
        (mat_scale(A, c), [[x * c for x in u] for u in X]),
        (mat_scale(A, ZERO), [[ZERO] * m for _ in X]),
        (scale_rows(rdiag, A), [[d * x for x in u] for d, u in zip(rdiag, X)]),
        (scale_columns(A, cdiag), [[x * d for x, d in zip(u, cdiag)] for u in X]),
        (A[r0:r1, c0:c1], [u[c0:c1] for u in X[r0:r1]]),
    ]
    for got, want in cases:
        _assert_no_stored_zero(got)
        assert _dense(got) == want
    # matvec walks A's column index and keeps the rows in increasing order
    v = {j: x for j, x in enumerate(_random_dense(rng, 1, m)[0]) if x}
    got = matvec(A, v)
    assert list(got) == sorted(got) and all(got.values())
    assert [got.get(i, ZERO) for i in range(n)] == [
        sum((x * v.get(j, ZERO) for j, x in enumerate(u)), ZERO) for u in X]
    assert A[n - 1, m - 1] == X[n - 1][m - 1]
    assert is_zero_matrix(A + (-A)) and not any((A + (-A)).rows)


@pytest.mark.parametrize("seed", range(6))
def test_gkron_matches_dense_reference(seed):
    rng = random.Random(seed)
    dims = [rng.randint(1, 3) for _ in range(rng.choice((2, 3)))]
    pars = [[rng.randint(0, 1) for _ in range(d)] for d in dims]
    dense_ops = [(_random_dense(rng, d, d, 0.6), rng.randint(0, 1)) for d in dims]
    ops = [(_from_dense(m), p) for m, p in dense_ops]
    got = gkron(ops, pars)
    _assert_no_stored_zero(got)
    want = _ref_gkron(dense_ops, pars)
    assert _dense(got) == want
    # summing into row dicts in place: a product plus its negative is zero
    rows = [{} for _ in range(got.shape[0])]
    gkron(ops, pars, rows=rows)
    gkron([(-ops[0][0], ops[0][1])] + ops[1:], pars, rows=rows)
    assert not any(rows)


# -- the summed product kernel against the dense reference ----------------------

# polynomials, one with Fraction coefficients, and two denominators other
# than 1
_KPOLY = QFraction(laurent({-1: Fraction(1, 2), 2: 3}))
_KERNEL_POOL = [ONE, -_q(1), _KPOLY, -_KPOLY, QFraction(qnum(3)),
                QFraction(qpow(1), qnum(2)),
                QFraction(laurent({0: Fraction(2, 3), 1: 1}), qnum(3))]


@pytest.mark.parametrize("seed", range(10))
def test_summed_products_match_dense_reference(seed):
    rng = random.Random(seed)
    n, m, p = rng.randint(1, 4), rng.randint(2, 5), rng.randint(1, 4)
    X = [[rng.choice(_KERNEL_POOL) if rng.random() < 0.6 else ZERO
          for _ in range(m)] for _ in range(n)]
    Y = [[rng.choice(_KERNEL_POOL) if rng.random() < 0.6 else ZERO
          for _ in range(p)] for _ in range(m)]
    # row 0 times column 0 is x y - x y, both products of polynomials
    x, y = rng.choice(_KERNEL_POOL[:5]), rng.choice(_KERNEL_POOL[:5])
    X[0] = [x, x] + [ZERO] * (m - 2)
    Y[0][0], Y[1][0] = y, -y
    got = matmul(_from_dense(X), _from_dense(Y))
    _assert_no_stored_zero(got)
    assert 0 not in got.rows[0]
    assert _dense(got) == _ref_matmul(X, Y)
    for row in X:
        pairs = [(a, Y[k][0]) for k, a in enumerate(row)]
        want = sum((a * b for a, b in pairs), ZERO)
        s = QFraction.sum_of_products(pairs)
        assert (s.num, s.den) == (want.num, want.den)


def test_sum_of_products_cancels_across_both_paths():
    # a product of two non-unit denominators that is a polynomial, cancelled
    # by the fused products of polynomials
    p = _KPOLY + QFraction(qnum(3))
    a = QFraction(qnum(3), qnum(2))
    b = p * QFraction(qnum(2), qnum(3))
    for pairs in ([(a, b), (-p, ONE)], [(a, b), (p, -ONE), (p, ONE), (ONE, -p)],
                  []):
        s = QFraction.sum_of_products(pairs)
        assert (s.num, s.den) == (ZERO.num, ZERO.den)


def test_mat_scale_with_repeated_entries():
    rng = random.Random(5)
    X = [[rng.choice(_KERNEL_POOL[2:5] + [ZERO]) for _ in range(6)]
         for _ in range(5)]
    A = _from_dense(X)
    assert len(set(A.flat)) < sum(1 for _ in A.flat)
    for c in _KERNEL_POOL:
        got = mat_scale(A, c)
        _assert_no_stored_zero(got)
        assert _dense(got) == [[x * c for x in row] for row in X]


_NO_NUMPY_SCRIPT = """
import sys
import qwig.oracle
import qwig.cli
print("numpy" in sys.modules)
"""


def test_package_imports_without_numpy():
    env = dict(os.environ,
               PYTHONPATH=str(Path(qwig.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", _NO_NUMPY_SCRIPT],
                          capture_output=True, text=True, env=env, check=True)
    assert done.stdout.strip() == "False"
