"""Closed-form central element eigenvalues."""

import pytest

from qwig import (
    ONE,
    QFraction,
    Signature,
    Weight,
    ZERO,
    casimir_exponent,
    chi_C1,
    chi_v,
    qpow,
)

S11 = Signature(1, 1)
S21 = Signature(2, 1)


def test_casimir_exponent_examples():
    assert casimir_exponent(Weight(S11, (0, 0))) == 0
    # (lam, lam + 2 rho) = 1 + 2*(-1/2) = 0
    assert casimir_exponent(Weight(S11, (1, 0))) == 0
    assert casimir_exponent(Weight(S21, (1, 0, 0))) == 1


def test_chi_v_examples():
    assert chi_v(Weight(S11, (0, 0)), "v") == ONE
    assert chi_v(Weight(S11, (1, 0)), "v") == ONE
    assert chi_v(Weight(S21, (1, 0, 0)), "vtilde") == QFraction(qpow(1))
    with pytest.raises(ValueError):
        chi_v(Weight(S11, (0, 0)), "w")


def test_chi_v_reciprocity(sweep_weights):
    for lam in sweep_weights[:300]:
        assert chi_v(lam, "v") * chi_v(lam, "vtilde") == ONE


def test_chi_C1_examples():
    assert chi_C1(Weight(S11, (1, 0)), "dual") == ONE
    assert chi_C1(Weight(S11, (0, 0)), "dual") == ZERO
    # nontrivial cancellation between the two graded terms
    assert chi_C1(Weight(S11, (0, 0)), "adjoint") == ZERO
    with pytest.raises(ValueError):
        chi_C1(Weight(S11, (0, 0)), "other")


def test_chi_C1_trivial_weight_all_signatures():
    for m in range(1, 5):
        for n in range(1, 5):
            zero = Weight(Signature(m, n), (0,) * (m + n))
            assert chi_C1(zero, "dual") == ZERO
            assert chi_C1(zero, "adjoint") == ZERO
