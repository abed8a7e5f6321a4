"""Closed forms: omega tables, gamma/mu matrix elements, coupled values."""

import json
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import laurent, quotient_of_factors, seeded_weights
from qwig import (
    AdmissibilityError,
    CoefficientTable,
    ConsistencyError,
    DegenerateRoots,
    HalfLaurent,
    IndexOutOfRange,
    InvalidArgument,
    ONE,
    QFraction,
    Signature,
    Weight,
    ZERO,
    coupled_table,
    branch_candidates,
    deformed_root,
    gamma,
    index_sets,
    linear_system_residuals,
    mu,
    omega,
    omega_classical,
    omega_coupled,
    omega_table,
    qnum,
    qpow,
    sum_rule_residual,
)
from qwig import wigner
from qwig.cli import main
from qwig.exactq import _factor_map
from qwig.superweight import char_roots, subalgebra_roots
from qwig.wigner import (
    FORMS,
    MU_SHIFT_DEFAULT,
    _qnum_map,
    _root_map,
    _side,
    _Side,
)

# the factor-list references below take thousands of root differences of
# the same few exponents; the library keeps only their maps (_root_map)
_root_diff = lru_cache(maxsize=None)(wigner._root_diff)

S11 = Signature(1, 1)
S21 = Signature(2, 1)
S12 = Signature(1, 2)
S32 = Signature(3, 2)

HALF_LOW = QFraction(qpow(-1), qnum(2))  # q^-1/[2]_q
HALF_HIGH = QFraction(qpow(1), qnum(2))  # q/[2]_q


def _F(side, x_alpha, ell):
    """F_ell at the deformed root of the exponent x_alpha:
    deformed(x_alpha) - deformed(beta_ell)."""
    return _root_diff(x_alpha, side.beta(ell))


def test_omega_lower_gl21_example():
    b = index_sets(Weight(S21, (1, 0, 0)), (0, 0))
    assert omega(b, 1, "lower") == QFraction(-qpow(-2))
    assert omega(b, 2, "lower") == ZERO  # 2 in I0bar
    assert omega(b, 3, "lower") == ONE + QFraction(qpow(-2))


def test_omega_lower_empty_products():
    b = index_sets(Weight(S11, (1, 0)), (1,))
    assert omega(b, 2, "lower") == ONE
    assert omega(b, 1, "lower") == ZERO


def test_form_is_checked_where_there_are_no_relations():
    # the lowering side of this branching has L = (): no residual and no
    # coupled entry, yet a bad form is still an error
    b = index_sets(Weight(S11, (1, 0)), (1,))
    assert _side(b, "lower").L == ()
    assert linear_system_residuals(b, "lower") == {}
    assert coupled_table(b, "lower").entries == {}
    t, u = (CoefficientTable("omega_lower", b, "root_product") for _ in "tu")
    assert t.entries == {} and t.entries is not u.entries
    for fn in (linear_system_residuals, coupled_table):
        with pytest.raises(InvalidArgument):
            fn(b, "lower", "bogus")


def test_omega_lower_degenerate():
    b = index_sets(Weight(S11, (1, 0)), (0,))
    with pytest.raises(DegenerateRoots):
        omega(b, 1, "lower")


def test_omega_raise_gl11_example():
    b = index_sets(Weight(S11, (1, 0)), (1,))
    assert omega(b, 1, "raise") == HALF_LOW
    assert omega(b, 2, "raise") == HALF_HIGH


def test_omega_raise_gl21_example():
    b = index_sets(Weight(S21, (1, 0, 0)), (1, 0))
    assert omega(b, 1, "raise") == HALF_LOW
    assert omega(b, 2, "raise") == HALF_HIGH
    assert omega(b, 3, "raise") == ZERO  # accidental zero on an admissible index


def test_omega_raise_trivial_weight():
    b = index_sets(Weight(S11, (0, 0)), (0,))
    assert omega(b, 1, "raise") == ONE
    assert omega(b, 2, "raise") == ZERO


def test_omega_index_range():
    b = index_sets(Weight(S11, (1, 0)), (1,))
    with pytest.raises(IndexOutOfRange):
        omega(b, 3, "raise")
    with pytest.raises(ValueError):
        omega(b, 1, "middle")
    with pytest.raises(ValueError):
        omega(b, 1, "raise", form="other")


def test_sum_rules_spot():
    for lam, low in [((1, 0, 0), (0, 0)), ((2, 1, 0), (1, 1)), ((1, 0, 0), (1, 0))]:
        b = index_sets(Weight(S21, lam), low)
        for variant in ("lower", "raise"):
            for form in FORMS:
                assert sum_rule_residual(b, variant, form) == ZERO


def test_linear_system_spot():
    b = index_sets(Weight(S21, (2, 1, 0)), (1, 1))
    for variant in ("lower", "raise"):
        res = linear_system_residuals(b, variant)
        assert res and all(v == ZERO for v in res.values())


def _sum_rule_by_addition(b, variant, form):
    total = ZERO
    for k in range(1, b.sig.d + 1):
        total = total + omega(b, k, variant, form)
    return total - ONE


def _linear_residuals_by_addition(b, variant, form):
    side = _Side(b, variant)
    if not side.L:
        return {}
    omegas = {k: omega(b, k, variant, form) for k in side.K}
    out = {}
    for r in side.L:
        acc = ZERO
        for k in side.K:
            ak = side.alpha[k]
            f = _F(side, ak, r)
            if f:
                acc = acc + omegas[k] / f
            else:
                acc = acc + quotient_of_factors(
                    [_F(side, ak, l) for l in side.L if l != r],
                    [_root_diff(ak, side.alpha[l]) for l in side.K if l != k])
        out[r] = acc
    return out


def _outcome(fn, *args):
    try:
        return fn(*args)
    except DegenerateRoots:
        return DegenerateRoots


def test_residuals_match_sums_of_omega(sweep_branchings):
    # the one-denominator sums give what omega values added by + give, in
    # structure and in hash, and raise DegenerateRoots on the same cases
    def same(x, y):
        return x is y or (x.num == y.num and x.den == y.den and hash(x) == hash(y))

    degenerate = zero_f = 0
    for b in sweep_branchings[::20]:
        for variant in ("lower", "raise"):
            side = _Side(b, variant)
            zero_f += any(not _F(side, side.alpha[k], r)
                          for k in side.K for r in side.L)
            for form in FORMS:
                got = _outcome(sum_rule_residual, b, variant, form)
                want = _outcome(_sum_rule_by_addition, b, variant, form)
                assert same(got, want), (str(b), variant, form)
                degenerate += got is DegenerateRoots
                got = _outcome(linear_system_residuals, b, variant, form)
                want = _outcome(_linear_residuals_by_addition, b, variant, form)
                if got is DegenerateRoots or want is DegenerateRoots:
                    assert got is want, (str(b), variant, form)
                    continue
                assert got.keys() == want.keys()
                assert all(same(got[r], want[r]) for r in got), (str(b), variant)
    assert degenerate and zero_f


def test_gamma_gl21_example():
    b = index_sets(Weight(S21, (2, 0, 0)), (1, 0))
    a = [deformed_root(x) for x in (2, -1, 0)]
    a01 = deformed_root(2)
    factor = lambda x: x - QFraction(qpow(-2)) * a01 - QFraction(qpow(-1))
    assert gamma(b, 1, "lower") == -(factor(a[0]) * factor(a[2]))


def test_gamma_admissibility():
    b = index_sets(Weight(S21, (1, 0, 0)), (1, 0))
    with pytest.raises(AdmissibilityError):
        gamma(b, 1, "lower")  # 1 in I0bar
    with pytest.raises(AdmissibilityError):
        mu(b, 1, "lower")


def test_mu_shifted_example():
    b = index_sets(Weight(S21, (2, 0, 0)), (1, 0))
    assert mu(b, 1, "lower", convention="shifted") == QFraction(qpow(-4))
    assert mu(b, 1, "lower", convention="unshifted") == ZERO


def test_mu_raise_vanishing_example():
    # the k = r numerator factor vanishes when the subalgebra root is
    # evaluated at the lower weight itself
    b = index_sets(Weight(S11, (1, 0)), (1,))
    assert mu(b, 1, "raise", convention="unshifted") == ZERO
    assert mu(b, 1, "raise", convention="shifted") != ZERO


def test_mu_default_convention():
    # the oracle-validated default (see test_oracle.py)
    assert MU_SHIFT_DEFAULT == "unshifted"
    b = index_sets(Weight(S11, (1, 0)), (1,))
    assert mu(b, 1, "raise") == mu(b, 1, "raise", convention="unshifted")
    with pytest.raises(ValueError):
        mu(b, 1, "raise", convention="sideways")


def test_mu_equals_gamma_at_shifted_lower_weight():
    # mu_r(lam, lam0) = gamma_r(lam, lam0 -+ eps_r): the shift is carried
    # by the subalgebra root override while mu reads the unshifted root
    cases = [
        (S12, (2, 1, 0), (1, 1)),
        (S12, (2, 1, 0), (2, 0)),
        (S21, (2, 0, 0), (1, 0)),
        (Signature(2, 2), (2, 1, 1, 0), (1, 1, 0)),
    ]
    checked = 0
    for sig, lam, low in cases:
        b = index_sets(Weight(sig, lam), low)
        for variant, tau, kind in (("lower", -1, "dual"), ("raise", 1, "adjoint")):
            for r in _Side(b, variant).L:
                shifted = list(b.lam0)
                shifted[r - 1] += tau
                ov = subalgebra_roots(shifted, kind, b.sig)[r - 1]
                try:
                    g = gamma(b, r, variant, alpha0_override=ov)
                    m = mu(b, r, variant, convention="unshifted")
                except DegenerateRoots:
                    continue
                assert m == g
                checked += 1
    assert checked >= 10


def test_coupled_example():
    b = index_sets(Weight(S21, (1, 0, 0)), (1, 0))
    assert omega_coupled(b, 1, 1, "raise") == ONE


def omega_coupled_composite(b, k, r, variant):
    """Cross-check route: omega_k mu_r / (F_r(a_k) (a_k - a0_r)), built
    from the library's omega and unshifted mu by plain field arithmetic.

    Undefined (0/0) whenever a correction factor vanishes, which happens
    exactly when r sits in the even admissible block; the direct forms
    remain finite there.  Callers treat a ZeroDivisionError as 'not
    applicable'.
    """
    side = _side(b, variant)
    side.require_in_range(k)
    side.require_admissible(r)
    if k not in side.K:
        return ZERO
    ak = side.alpha[k]
    corr = _root_diff(ak, side.beta(r)) * _root_diff(ak, side.alpha0[r])
    return omega(b, k, variant) * mu(b, r, variant) / QFraction(corr)


def test_coupled_errors_and_zero():
    b = index_sets(Weight(S21, (1, 0, 0)), (0, 0))
    with pytest.raises(AdmissibilityError):
        omega_coupled(b, 1, 2, "lower")  # r = 2 in I0bar
    assert omega_coupled(b, 2, 1, "lower") == ZERO  # k = 2 not admissible
    with pytest.raises(IndexOutOfRange):
        omega_coupled(b, 4, 1, "lower")
    b = index_sets(Weight(S12, (2, 1, 0)), (1, 1))
    for k in (0, 4):
        with pytest.raises(IndexOutOfRange):
            omega_coupled(b, k, 2, "raise")
        with pytest.raises(IndexOutOfRange):
            omega_coupled_composite(b, k, 2, "raise")


def test_coupled_forms_agree_spot():
    for lam, low in [((1, 0, 0), (0, 0)), ((2, 1, 0), (1, 0)), ((3, 1, 0), (2, 1))]:
        b = index_sets(Weight(S21, lam), low)
        for variant in ("lower", "raise"):
            side = _Side(b, variant)
            for k in side.K:
                for r in side.L:
                    try:
                        v1 = omega_coupled(b, k, r, variant, "qnumber_phase")
                        v2 = omega_coupled(b, k, r, variant, "root_product")
                    except DegenerateRoots:
                        continue
                    assert v1 == v2


def test_coupled_composite_cross_check():
    # the composite route omega_k mu_r / corrections agrees wherever its
    # correction factors do not vanish (a 0/0 there is 'not applicable')
    checked = 0
    for lam, low in [((2, 1, 0), (1, 0)), ((3, 1, 0), (2, 1)), ((2, 0, 0), (1, 0))]:
        b = index_sets(Weight(S21, lam), low)
        for variant in ("lower", "raise"):
            side = _Side(b, variant)
            for k in side.K:
                for r in side.L:
                    try:
                        direct = omega_coupled(b, k, r, variant)
                        comp = omega_coupled_composite(b, k, r, variant)
                    except (DegenerateRoots, ZeroDivisionError):
                        continue
                    assert comp == direct
                    checked += 1
    assert checked >= 3


def test_rwc():
    b = index_sets(Weight(S11, (1, 0)), (1,))
    assert omega(b, 1, "raise") == HALF_LOW
    assert omega(b, 2, "raise", "qnumber_phase") == HALF_HIGH


def test_omega_classical_matches_limit():
    for lam, low in [((1, 0, 0), (0, 0)), ((2, 1, 0), (1, 1)), ((2, 1, 0), (2, 0))]:
        b = index_sets(Weight(S21, lam), low)
        for variant in ("lower", "raise"):
            for k in range(1, 4):
                try:
                    v = omega(b, k, variant)
                except DegenerateRoots:
                    continue
                classical = omega_classical(b, k, variant)
                assert type(classical) is Fraction
                assert v.limit_q1() == classical
    b = index_sets(Weight(S21, (1, 0, 0)), (0, 0))
    assert omega_classical(b, 2, "lower") == Fraction(0)
    assert type(omega_classical(b, 2, "lower")) is Fraction  # off K


def test_tables():
    b = index_sets(Weight(S21, (1, 0, 0)), (0, 0))
    t = omega_table(b, "lower")
    assert set(t.entries) == {1, 2, 3}
    assert sum(t.entries.values(), ZERO) == ONE
    obj = t.to_json()
    assert obj["kind"] == "omega_lower"
    assert obj["entries"]["1"]["str"] == "-q^-2"
    ct = coupled_table(b, "lower")
    assert all(isinstance(k, tuple) for k in ct.entries)


def _shifted_factor(x, y, t):
    """deformed(x) - q^(2t) deformed(y) + t q^t, built afresh."""
    return (deformed_root(x) - QFraction(qpow(2 * t)) * deformed_root(y)
            + t * QFraction(qpow(t)))


def _reference_side_fields(b, variant):
    """Every field of a side, built through char_roots, subalgebra_roots, the
    index-set methods and a fresh sign dict: the reference for the one-pass
    construction."""
    lower = variant == "lower"
    kind = "dual" if lower else "adjoint"
    sig = b.sig
    K = b.lower_indices() if lower else b.raise_indices()
    alpha = dict(zip(range(1, sig.d + 1), char_roots(b.lam, kind)))
    vals = [alpha[k] for k in K]
    return {
        "tau": -1 if lower else 1,
        "root_kind": kind,
        "K": K,
        "L": (b.I0 if lower else b.I0bar) + b.I1,
        "even_count": len(b.I0 if lower else b.I0bar),
        "b": b,
        "variant": variant,
        "alpha": alpha,
        "alpha0": dict(zip(range(1, sig.d),
                           subalgebra_roots(b.lam0, kind, sig))),
        "sign": {i: 1 if i <= sig.m else -1 for i in range(1, sig.d + 1)},
        "n": sig.n,
        "I0_size": len(b.I0),
        "K_generic": len(set(vals)) == len(vals),
        "omega_memo": {},  # filled on first use of omega_k
    }


def test_side_fields_equal_reference_construction(sweep_branchings):
    seeded = [b for lam in seeded_weights(40) for b in branch_candidates(lam)]
    for b in sweep_branchings + seeded:
        for variant in ("lower", "raise"):
            side = _Side(b, variant)
            want = _reference_side_fields(b, variant)
            assert vars(side) == want
            assert type(side.K) is type(side.L) is tuple
            assert type(side.alpha) is type(side.alpha0) is dict
            # what the benchmark reads of a side, by 1-based position
            for r in side.L:
                t = side.tau * want["sign"][r]
                assert side.beta(r) == want["alpha0"][r] - t
                assert side.F_arg(7, r) == 7 - want["alpha0"][r] + t
    assert _Side(b, "lower").sign is _Side(b, "raise").sign


def test_cached_factors_equal_fresh_ones():
    span = range(-6, 7)
    for x in span:
        for y in span:
            assert _root_diff(x, y) == deformed_root(x) - deformed_root(y)
            # the shifted factor is one root difference
            for t in (-1, 1):
                assert _root_diff(x, y - t) == _shifted_factor(x, y, t)
    checked = 0
    for lam in ((2, 1, 0), (3, 1, -1)):
        for b in branch_candidates(Weight(S21, lam)):
            for variant in ("lower", "raise"):
                side = _side(b, variant)
                assert _side(b, variant) is side
                fresh = _Side(b, variant)
                assert (side.K, side.L) == (fresh.K, fresh.L)
                assert (side.alpha, side.alpha0) == (fresh.alpha, fresh.alpha0)
                for l in side.L:
                    t = side.tau * side.sign[l]
                    for x in span:
                        assert _F(side, x, l) == _shifted_factor(
                            x, side.alpha0[l], t)
                        checked += 1
    assert checked


# The closed forms as factor lists of HalfLaurent polynomials, each factor
# peeled on its own (quotient_of_factors): the construction that the
# integer-keyed maps and zero tests replace, kept as the reference they
# must reproduce.


def _factor_omega(b, k, variant, form):
    side = _side(b, variant)
    side.require_in_range(k)
    if k not in side.K:
        return ZERO
    side.require_K_generic()
    ak = side.alpha[k]
    others = [side.alpha[l] for l in side.K if l != k]
    if form == "root_product":
        nums = [_F(side, ak, r) for r in side.L]
        dens = [_root_diff(ak, al) for al in others]
    else:
        xi = -(side.I0_size + ak + b.eta)
        nums = [qpow(xi)] + [qnum(side.F_arg(ak, r)) for r in side.L]
        dens = [qnum(ak - al) for al in others]
    return quotient_of_factors(nums, dens)


def _factor_mu(b, r, variant, form, convention):
    side = _side(b, variant)
    side.require_admissible(r)
    t = side.tau * side.sign[r]
    shifted = convention == "shifted"
    point = side.alpha0[r] + (t if shifted else 0)
    phase = b.eta + side.I0_size - 3 * point + t * (2 if shifted else 1)
    side.require_clear(point, r)
    others = [side.beta(l) for l in side.L if l != r]
    if form == "root_product":
        phase = 0
        nums = [_root_diff(side.alpha[k], point) for k in side.K]
        dens = [_root_diff(point, bl) for bl in others]
    else:
        nums = [qnum(side.alpha[k] - point) for k in side.K]
        dens = [qnum(point - bl) for bl in others]
    return quotient_of_factors(
        [HalfLaurent.const(side.sigma()) * qpow(phase)] + nums, dens)


def _factor_coupled(b, k, r, variant, form):
    side = _side(b, variant)
    side.require_in_range(k)
    side.require_admissible(r)
    if k not in side.K:
        return ZERO
    side.require_K_generic()
    ak = side.alpha[k]
    a0r = side.alpha0[r]
    side.require_clear(a0r, r)
    ls = [l for l in side.L if l != r]
    aps = [side.alpha[p] for p in side.K if p != k]
    if form == "qnumber_phase":
        nums = [qpow(ak - a0r)] + [qnum(side.F_arg(ak, l)) for l in ls]
        nums += [qnum(ap - a0r) for ap in aps]
        dens = [qnum(side.F_arg(a0r, l)) for l in ls]
        dens += [qnum(ap - ak) for ap in aps]
    else:
        nums = [_F(side, ak, l) for l in ls]
        nums += [_root_diff(ap, a0r) for ap in aps]
        dens = [_F(side, a0r, l) for l in ls]
        dens += [_root_diff(ap, ak) for ap in aps]
    return quotient_of_factors(nums, dens)


def _result(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type is compared, whatever it is
        return type(exc)


def test_maps_equal_factor_lists(sweep_branchings):
    # every value equal in structure, and every exception of the same type,
    # on every 4th sweep branching, in both forms and variants
    counts = {"zero": 0, "value": 0, "error": 0}

    def check(got, want, *where):
        if isinstance(want, type):
            assert got is want, where
            counts["error"] += 1
        else:
            assert (got.num, got.den) == (want.num, want.den), where
            counts["zero" if not want else "value"] += 1

    for b in sweep_branchings[::4]:
        d = b.sig.d
        for variant in ("lower", "raise"):
            side = _side(b, variant)
            for form in FORMS:
                for k in range(1, d + 1):
                    check(_result(omega, b, k, variant, form),
                          _result(_factor_omega, b, k, variant, form),
                          str(b), variant, form, k)
                for r in range(1, d):
                    for conv in ("unshifted", "shifted"):
                        check(_result(mu, b, r, variant, form, conv),
                              _result(_factor_mu, b, r, variant, form, conv),
                              str(b), variant, form, r, conv)
                for k in range(1, d + 1):
                    for r in side.L:
                        check(_result(omega_coupled, b, k, r, variant, form),
                              _result(_factor_coupled, b, k, r, variant, form),
                              str(b), variant, form, k, r)
    assert all(counts.values()), counts


@settings(max_examples=200, deadline=None)
@given(st.integers(-40, 40), st.integers(-40, 40))
def test_zero_tests_and_integer_keyed_maps(x, y):
    # each form's zero test on integers is its factor's zero, and the maps
    # kept by integer are those peeled from the factor's polynomial
    assert (not _root_diff(x, y)) == (x == y)
    assert (not qnum(x)) == (x == 0)
    if x != y:
        assert _root_map(x, y) == _factor_map(_root_diff(x, y))
    if x:
        assert _qnum_map(x) == _factor_map(qnum(x))


def test_a_factor_with_no_map_is_a_typed_error():
    with pytest.raises(ConsistencyError):
        _factor_map(laurent({0: 1, 2: 2}))  # 1 + 2q


def _shape(x):
    """A value's (num, den), a residual dict's per r, or an exception type
    as it is: what structural equality compares."""
    if isinstance(x, type):
        return x
    if isinstance(x, dict):
        return {r: (v.num, v.den) for r, v in x.items()}
    return (x.num, x.den)


def test_omega_memo_order_and_sharing(sweep_branchings):
    # on every 4th sweep branching, omega for every k, the sum rule and the
    # residuals give the same values whichever fills the memo first; the
    # residuals leave every memo entry the same tuple of the same packed
    # int exponents, which nothing can change, and a repeat omega call
    # returns the kept object
    checked = 0
    for b in sweep_branchings[::4]:
        ks = range(1, b.sig.d + 1)
        for variant in ("lower", "raise"):
            for form in FORMS:
                def omegas():
                    return [_shape(_result(omega, b, k, variant, form)) for k in ks]

                def residuals():
                    return [_shape(_result(fn, b, variant, form))
                            for fn in (sum_rule_residual, linear_system_residuals)]

                _side.cache_clear()
                omega_first = {"omega": omegas()}
                memo = _side(b, variant).omega_memo.get(form)
                kept = [] if memo is None else [
                    (k, m) for k, m in memo[0].items() if m]
                omega_first["residuals"] = residuals()
                for k, m in kept:
                    assert memo[0][k] is m and type(m[2]) is int, (
                        str(b), variant, form)
                for k in memo[0] if memo else ():
                    assert omega(b, k, variant, form) is omega(b, k, variant, form)
                _side.cache_clear()
                residuals_first = {"residuals": residuals()}
                residuals_first["omega"] = omegas()
                assert omega_first == residuals_first, (str(b), variant, form)
                checked += len(kept)
    assert checked >= 1000


def test_qnumber_route_uses_no_root_factor(sweep_branchings, monkeypatch):
    # the two forms stay independent: with every root-product factor map
    # made to raise, the q-number sum rules and residuals are still ZERO
    def no_root_map(x, y):
        raise AssertionError("root factor (%d, %d) in the q-number route" % (x, y))

    monkeypatch.setattr(wigner, "_root_map", no_root_map)
    _side.cache_clear()
    checked = 0
    for b in sweep_branchings[::4]:
        for variant in ("lower", "raise"):
            try:
                residual = sum_rule_residual(b, variant, "qnumber_phase")
                residuals = linear_system_residuals(b, variant, "qnumber_phase")
            except DegenerateRoots:
                continue
            assert residual == ZERO, (str(b), variant)
            for r, value in residuals.items():
                assert value == ZERO, (str(b), variant, r)
                checked += 1
    _side.cache_clear()
    assert checked >= 1000


def test_linear_system_computes_each_omega_once(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return omega(*args, **kwargs)

    monkeypatch.setattr(wigner, "omega", counting)
    b = index_sets(Weight(S32, (3, 1, 0, 2, 0)), (2, 1, -1, 0))
    for variant in ("lower", "raise"):
        side = _Side(b, variant)
        assert len(side.L) >= 2
        for form in FORMS:
            calls.clear()
            res = linear_system_residuals(b, variant, form)
            assert len(calls) <= len(side.K)
            assert set(res) == set(side.L)
            assert all(v == ZERO for v in res.values())


# Printed entries of four large gl(3|2) and gl(4|3) tables (components in
# [-8, 8]): the sweeps reach only small polynomials.
LARGE_TABLES = [
    (
        ("7,4,-1|-1,-5", "6,3,-1,-3", "lower", False),
        {
            "1": (
                "(-q^-2 - 2 - 3*q^2 - 3*q^4 - 3*q^6 - 2*q^8 - q^10)/(1 + 3*q^2 + "
                "5*q^4 + 7*q^6 + 8*q^8 + 8*q^10 + 8*q^12 + 7*q^14 + 5*q^16 + "
                "3*q^18 + q^20)"
            ),
            "2": (
                "(1 + q^2 + q^4 + q^6 + q^8)/(1 + 3*q^2 + 5*q^4 + 6*q^6 + 5*q^8 + "
                "3*q^10 + q^12)"
            ),
            "3": "0",
            "4": (
                "(q^2 + 3*q^4 + 5*q^6 + 7*q^8 + 8*q^10 + 8*q^12 + 8*q^14 + 8*q^16 "
                "+ 7*q^18 + 5*q^20 + 3*q^22 + q^24)/(1 + 3*q^2 + 6*q^4 + 9*q^6 + "
                "12*q^8 + 14*q^10 + 15*q^12 + 14*q^14 + 12*q^16 + 9*q^18 + 6*q^20 "
                "+ 3*q^22 + q^24)"
            ),
            "5": (
                "(q^-2 + 2 + 3*q^2 + 2*q^4 + q^6)/(1 + 3*q^2 + 4*q^4 + 4*q^6 + "
                "4*q^8 + 3*q^10 + q^12)"
            ),
        },
    ),
    (
        ("4,-6,-8|-2,-8", "3,-7,-8,-5", "raise", True),
        {
            "3,3": "1",
            "3,4": (
                "-q^18/(1 + q^2 + q^4 + 2*q^6 + 3*q^8 + 3*q^10 + 4*q^12 + 5*q^14 "
                "+ 6*q^16 + 6*q^18 + 7*q^20 + 8*q^22 + 9*q^24 + 8*q^26 + 9*q^28 + "
                "10*q^30 + 9*q^32 + 8*q^34 + 9*q^36 + 8*q^38 + 7*q^40 + 6*q^42 + "
                "6*q^44 + 5*q^46 + 4*q^48 + 3*q^50 + 3*q^52 + 2*q^54 + q^56 + "
                "q^58 + q^60)"
            ),
            "4,3": "0",
            "4,4": (
                "(1 + 2*q^2 + 3*q^4 + 5*q^6 + 6*q^8 + 7*q^10 + 9*q^12 + 10*q^14 + "
                "11*q^16 + 13*q^18 + 13*q^20 + 13*q^22 + 13*q^24 + 11*q^26 + "
                "10*q^28 + 9*q^30 + 7*q^32 + 6*q^34 + 5*q^36 + 3*q^38 + 2*q^40 + "
                "q^42)/(1 + 2*q^2 + 3*q^4 + 5*q^6 + 7*q^8 + 9*q^10 + 12*q^12 + "
                "14*q^14 + 16*q^16 + 18*q^18 + 19*q^20 + 20*q^22 + 21*q^24 + "
                "20*q^26 + 19*q^28 + 18*q^30 + 16*q^32 + 14*q^34 + 12*q^36 + "
                "9*q^38 + 7*q^40 + 5*q^42 + 3*q^44 + 2*q^46 + q^48)"
            ),
            "5,3": "0",
            "5,4": (
                "(q^8 + 2*q^10 + 3*q^12 + 3*q^14 + 4*q^16 + 5*q^18 + 6*q^20 + "
                "6*q^22 + 7*q^24 + 8*q^26 + 9*q^28 + 9*q^30 + 9*q^32 + 9*q^34 + "
                "9*q^36 + 9*q^38 + 9*q^40 + 8*q^42 + 7*q^44 + 6*q^46 + 6*q^48 + "
                "5*q^50 + 4*q^52 + 3*q^54 + 3*q^56 + 2*q^58 + q^60)/(1 + 2*q^2 + "
                "3*q^4 + 4*q^6 + 6*q^8 + 8*q^10 + 10*q^12 + 11*q^14 + 13*q^16 + "
                "15*q^18 + 17*q^20 + 18*q^22 + 20*q^24 + 21*q^26 + 22*q^28 + "
                "22*q^30 + 22*q^32 + 21*q^34 + 20*q^36 + 18*q^38 + 17*q^40 + "
                "15*q^42 + 13*q^44 + 11*q^46 + 10*q^48 + 8*q^50 + 6*q^52 + 4*q^54 "
                "+ 3*q^56 + 2*q^58 + q^60)"
            ),
        },
    ),
    (
        ("7,-1,-3,-7|-4,-5,-7", "7,-2,-3,-8,-5,-6", "raise", False),
        {
            "1": (
                "(1 + q^2 + q^4 + q^6 + q^8 + q^10 + q^12 + q^14 + q^16 + q^18 + "
                "q^20 + q^22 + q^24)/(1 + 2*q^2 + 2*q^4 + 3*q^6 + 4*q^8 + 4*q^10 "
                "+ 5*q^12 + 5*q^14 + 4*q^16 + 5*q^18 + 5*q^20 + 4*q^22 + 4*q^24 + "
                "3*q^26 + 2*q^28 + 2*q^30 + q^32)"
            ),
            "2": "0",
            "3": (
                "(-q^14 - q^16 - q^18 - 2*q^20 - 2*q^22 - 2*q^24 - 3*q^26 - "
                "3*q^28 - 3*q^30 - 3*q^32 - 3*q^34 - 2*q^36 - 2*q^38 - 2*q^40 - "
                "q^42 - q^44 - q^46)/(1 + 2*q^2 + 3*q^4 + 5*q^6 + 7*q^8 + 8*q^10 "
                "+ 10*q^12 + 12*q^14 + 13*q^16 + 15*q^18 + 16*q^20 + 16*q^22 + "
                "16*q^24 + 15*q^26 + 13*q^28 + 12*q^30 + 10*q^32 + 8*q^34 + "
                "7*q^36 + 5*q^38 + 3*q^40 + 2*q^42 + q^44)"
            ),
            "4": "0",
            "5": (
                "(q^4 + 3*q^6 + 6*q^8 + 10*q^10 + 14*q^12 + 18*q^14 + 20*q^16 + "
                "20*q^18 + 18*q^20 + 14*q^22 + 10*q^24 + 6*q^26 + 3*q^28 + "
                "q^30)/(1 + 3*q^2 + 6*q^4 + 10*q^6 + 15*q^8 + 19*q^10 + 22*q^12 + "
                "23*q^14 + 22*q^16 + 19*q^18 + 15*q^20 + 10*q^22 + 6*q^24 + "
                "3*q^26 + q^28)"
            ),
            "6": "0",
            "7": (
                "(q^2 + q^4 + q^6 + q^8 + q^10 + q^12 + q^14 + q^16 + q^18 + q^20 "
                "+ q^22)/(1 + 3*q^2 + 5*q^4 + 7*q^6 + 9*q^8 + 10*q^10 + 10*q^12 + "
                "10*q^14 + 10*q^16 + 10*q^18 + 9*q^20 + 7*q^22 + 5*q^24 + 3*q^26 "
                "+ q^28)"
            ),
        },
    ),
    (
        ("8,4,-3,-8|2,1,-8", "8,4,-3,-8,1,0", "lower", True),
        {
            "5,5": "0",
            "5,6": (
                "(q^2 + q^10)/(1 + q^2 + q^4 + q^8 + q^10 + q^12 + q^16 + q^18 + "
                "q^20)"
            ),
            "6,5": "1",
            "6,6": (
                "(1 + 2*q^4 + 2*q^8 + 2*q^12 + q^16)/(1 + q^2 + 2*q^4 + q^6 + "
                "2*q^8 + q^10 + 2*q^12 + q^14 + 2*q^16 + q^18 + q^20)"
            ),
            "7,5": "0",
            "7,6": (
                "(q^16 + q^18 + q^20 + q^22 + q^24 + q^26 + q^28 + q^30 + q^32 + "
                "q^34 + q^36)/(1 + q^2 + 2*q^4 + q^6 + 3*q^8 + 2*q^10 + 4*q^12 + "
                "2*q^14 + 5*q^16 + 3*q^18 + 5*q^20 + 2*q^22 + 4*q^24 + 2*q^26 + "
                "3*q^28 + q^30 + 2*q^32 + q^34 + q^36)"
            ),
        },
    ),
]


@pytest.mark.parametrize("case, entries", LARGE_TABLES)
def test_large_tables_print_pinned_entries(capsys, case, entries):
    weight, lower, kind, coupled = case
    argv = ["wigner", "--weight", weight, "--lower", lower, "--kind", kind]
    argv += ["--coupled"] if coupled else ["--form", "both"]
    assert main(argv) == 0
    obj = json.loads(capsys.readouterr().out)
    assert {k: e["str"] for k, e in obj["entries"].items()} == entries
    if not coupled:
        assert obj["forms_agree"] is True
        assert obj["sum"] == "1"
