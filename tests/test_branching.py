"""Branching candidate enumeration and index-set combinatorics."""

import pytest

from qwig import (
    NotABranching,
    Signature,
    SignatureMismatch,
    Weight,
    branch_candidates,
    index_sets,
)
from conftest import dominant_weights

S11 = Signature(1, 1)
S21 = Signature(2, 1)
S12 = Signature(1, 2)


def lowers(lam):
    return [b.lam0 for b in branch_candidates(lam)]


def test_candidates_gl11():
    assert lowers(Weight(S11, (1, 0))) == [(0,), (1,)]


def test_candidates_gl21():
    assert lowers(Weight(S21, (1, 0, 0))) == [(0, -1), (0, 0), (1, -1), (1, 0)]


def test_candidates_gl12():
    assert lowers(Weight(S12, (0, 1, 0))) == [
        (-1, 0), (-1, 1), (0, 0), (0, 1),
    ]


def test_index_sets_examples():
    b = index_sets(Weight(S21, (1, 0, 0)), (0, 0))
    assert b.I0 == (1,) and b.I0bar == (2,)
    assert b.I1 == () and b.I1t == (3,)
    assert b.eta == 0 and b.e_last == 1
    assert b.lower_indices() == (1, 3)
    assert b.raise_indices() == (2, 3)

    b = index_sets(Weight(S21, (1, 0, 0)), (1, 0))
    assert b.I0 == () and b.I0bar == (1, 2)
    assert b.eta == 0 and b.e_last == 0

    b = index_sets(Weight(S11, (1, 0)), (1,))
    assert b.I0 == () and b.I0bar == (1,)
    assert b.eta == 0 and b.e_last == 0


def test_not_a_branching():
    with pytest.raises(NotABranching):
        index_sets(Weight(S21, (1, 0, 0)), (1, 1))
    with pytest.raises(NotABranching):
        index_sets(Weight(S21, (2, 0, 0)), (0, 0))
    with pytest.raises(NotABranching):
        # non-dominant lower weight
        index_sets(Weight(S21, (1, 1, 0)), (0, 1))
    with pytest.raises(SignatureMismatch):
        index_sets(Weight(S21, (1, 0, 0)), (1, 0, 0))


def test_eta_and_shift():
    b = index_sets(Weight(S12, (0, 2, 1)), (0, 1))
    assert b.eta == 2
    assert b.e_last == 2


def test_index_set_partition_and_counting_sums():
    # |I0| + |I0bar| = m, and the signed shift-index sums
    #   sum_{r in I0 u I1} (r) = |I0| - n + 1
    #   sum_{r in I0bar u I1} (r) = m - n + 1 - |I0|
    # for every enumerated branching with m, n <= 4
    for m in range(1, 5):
        for n in range(1, 5):
            sig = Signature(m, n)
            for lam in dominant_weights(m, n, lo=0, hi=2):
                for b in branch_candidates(lam):
                    assert len(b.I0) + len(b.I0bar) == m
                    assert set(b.I0).isdisjoint(b.I0bar)
                    s_low = sum(sig.sign(r) for r in b.I0 + b.I1)
                    assert s_low == len(b.I0) - n + 1
                    s_up = sum(sig.sign(r) for r in b.I0bar + b.I1)
                    assert s_up == m - n + 1 - len(b.I0)


def test_candidates_sorted_and_valid(sweep_branchings):
    for b in sweep_branchings[:2000]:
        assert b.lower_indices() == tuple(sorted(b.I0 + b.I1t))
        assert b.raise_indices() == tuple(sorted(b.I0bar + b.I1t))
        assert b.e_last == len(b.I0) + b.eta
