"""Weights, the graded form, rho, characteristic roots and typicality."""

from fractions import Fraction

import pytest

from qwig import (
    IndexOutOfRange,
    InvalidArgument,
    NonIntegralWeight,
    QFraction,
    RootSet,
    Signature,
    SignatureMismatch,
    Weight,
    char_roots,
    deformed_root,
    is_typical,
    qnum,
    qpow,
    rho,
    subalgebra_roots,
)
from conftest import check_value

S11 = Signature(1, 1)
S21 = Signature(2, 1)
S12 = Signature(1, 2)


def test_parity_and_sign():
    assert S21.parity(1) == 0 and S21.sign(1) == 1
    assert S21.parity(3) == 1 and S21.sign(3) == -1
    assert S11.sign(2) == -1
    with pytest.raises(IndexOutOfRange):
        S11.parity(3)


def test_rho_examples():
    assert rho(S11) == (Fraction(-1, 2), Fraction(1, 2))
    assert rho(S21) == (Fraction(0), Fraction(-1), Fraction(1))


def _rho_even_odd(sig):
    """(rho_even, rho_odd): half-sums over the even and the odd positive
    roots, enumerated.  Positive roots are eps_a - eps_b for a < b; the
    root is odd exactly when a, b straddle the grading boundary."""
    d = sig.d
    r0 = [Fraction(0)] * d
    r1 = [Fraction(0)] * d
    for a in range(1, d + 1):
        for b in range(a + 1, d + 1):
            target = r1 if sig.parity(a) != sig.parity(b) else r0
            target[a - 1] += Fraction(1, 2)
            target[b - 1] -= Fraction(1, 2)
    return tuple(r0), tuple(r1)


def test_rho_even_odd_orthogonal():
    # the even and odd half-sums are orthogonal under the graded form
    for sig in (S11, S21, S12, Signature(2, 2), Signature(3, 2)):
        r0, r1 = _rho_even_odd(sig)
        dot = sum(
            Fraction(sig.sign(i)) * r0[i - 1] * r1[i - 1]
            for i in range(1, sig.d + 1)
        )
        assert dot == 0


def test_rho_closed_form_small_signatures():
    # rho's closed form against the enumeration of the positive roots
    for m in range(1, 5):
        for n in range(1, 5):
            sig = Signature(m, n)
            r0, r1 = _rho_even_odd(sig)
            assert rho(sig) == tuple(a - b for a, b in zip(r0, r1)), (m, n)


def test_char_roots_examples():
    lam = Weight(S21, (1, 0, 0))
    assert char_roots(lam, "adjoint") == (1, -1, -2)
    assert char_roots(lam, "dual") == (1, -1, 0)
    lam0 = Weight(S11, (0, 0))
    assert char_roots(lam0, "adjoint") == (0, -1)
    assert deformed_root(0) == QFraction(0)
    assert deformed_root(-1) == QFraction(-qpow(1))
    with pytest.raises(ValueError):
        char_roots(lam, "other")


def test_subalgebra_roots_examples():
    assert subalgebra_roots((1, 0), "adjoint", S21) == (1, -1)
    assert subalgebra_roots((0, 0), "dual", S21) == (1, 0)
    assert subalgebra_roots((1,), "adjoint", S11) == (1,)
    with pytest.raises(SignatureMismatch):
        subalgebra_roots((1, 0, 0), "adjoint", S21)


def test_subalgebra_roots_are_char_roots_of_the_lower_weight(sweep_branchings):
    # with n >= 2 the lower weight is a gl(m|n-1) weight, whose own roots
    # the subalgebra roots are
    checked = 0
    for b in sweep_branchings:
        m, n = b.sig.m, b.sig.n
        if n < 2:
            continue
        lam0 = Weight(Signature(m, n - 1), b.lam0)
        for variant in ("adjoint", "dual"):
            assert subalgebra_roots(b.lam0, variant, b.sig) == char_roots(
                lam0, variant), (str(b), variant)
            checked += 1
    assert checked


def test_deformed_root_identity():
    for a in range(-8, 9):
        assert deformed_root(a) == QFraction(qpow(-a) * qnum(a))


def test_rootset_json():
    rs = RootSet.of(Weight(S21, (1, 0, 0)), "adjoint")
    obj = rs.to_json()
    assert obj["classical"] == [1, -1, -2]
    assert obj["generic"] is True
    assert obj["variant"] == "adjoint"
    assert len(obj["deformed"]) == 3
    assert not RootSet.of(Weight(S11, (1, 0)), "dual").is_generic()


def test_is_typical():
    assert not is_typical(Weight(S21, (1, 0, 0)))
    assert not is_typical(Weight(S11, (0, 0)))
    assert is_typical(Weight(S11, (1, 0)))
    assert is_typical(Weight(S21, (2, 1, 0)))


def test_weight_basics():
    lam = Weight(S21, (1, 0, 0))
    assert lam.comps == (1, 0, 0)
    assert lam[1] == 1 and lam[3] == 0
    assert lam.even == (1, 0) and lam.odd == (0,)
    assert str(lam) == "1,0|0"
    with pytest.raises(NonIntegralWeight):
        Weight(S21, (1, "x", 0))
    with pytest.raises(ValueError):
        Signature(0, 1)


@pytest.mark.parametrize("m, n", [
    (Fraction(3, 2), 1), (1.5, 1), (2, 1.0), (True, 1), (1, True),
])
def test_signature_dimensions_must_be_ints(m, n):
    with pytest.raises(InvalidArgument):
        Signature(m, n)


@pytest.mark.parametrize("comps", [
    (True, 0, 0), (1, False, 0), (1.0, 0, 0), (Fraction(1), 0, 0),
])
def test_weight_components_must_be_ints(comps):
    with pytest.raises(NonIntegralWeight):
        Weight(S21, comps)


def test_weight_built_from_a_list_hashes():
    lam = Weight(S21, [1, 0, 0])
    assert lam.comps == (1, 0, 0)
    assert lam == Weight(S21, (1, 0, 0))
    assert hash(lam) == hash(Weight(S21, (1, 0, 0)))


@pytest.mark.parametrize("cls, fields, text", [
    (Signature, {"m": 2, "n": 1}, "Signature(m=2, n=1)"),
    (Weight, {"sig": S21, "comps": (1, 0, -1)},
     "Weight(sig=Signature(m=2, n=1), comps=(1, 0, -1))"),
    (RootSet, {"weight": Weight(S11, (1, 0)), "variant": "adjoint",
               "alphas": (1, -1), "deformed": (QFraction(qpow(-1)), QFraction(-qpow(1)))},
     "RootSet(weight=Weight(sig=Signature(m=1, n=1), comps=(1, 0)), "
     "variant='adjoint', alphas=(1, -1), "
     "deformed=(QFraction(q^-1), QFraction(-q^1)))"),
])
def test_value_semantics(cls, fields, text):
    check_value(cls, fields, text)
    if cls is RootSet:
        assert RootSet.of(fields["weight"], "adjoint") == cls(**fields)


def test_dual_subroot_matches_parent_on_I0(sweep_branchings):
    # for r in I0 the dual subalgebra root at r equals the parent root
    for b in sweep_branchings[:4000]:
        if not b.I0:
            continue
        parent = char_roots(b.lam, "dual")
        sub = subalgebra_roots(b.lam0, "dual", b.sig)
        for r in b.I0:
            assert sub[r - 1] == parent[r - 1]
