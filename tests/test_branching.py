"""Branching candidate enumeration and index-set combinatorics."""

import itertools
import pickle
import sys
from fractions import Fraction

import pytest

from qwig import (
    NonIntegralWeight,
    NotABranching,
    Signature,
    SignatureMismatch,
    Weight,
    branch_candidates,
    index_sets,
)
from qwig.branching import BranchingData, _check_pair
from conftest import all_weights, check_value, dominant_weights, seeded_weights

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


@pytest.mark.parametrize("lam0", [
    (0.5, 0), (Fraction(1, 2), 0), (Fraction(1), 0), (1.0, 0), (True, 0),
])
def test_lower_weight_components_must_be_ints(lam0):
    # each component lies between the labels of lam
    with pytest.raises(NonIntegralWeight):
        index_sets(Weight(S21, (1, 0, 0)), lam0)


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


def _reference_candidates(lam):
    """The lower weights under lam as first enumerated: every candidate in
    the betweenness ranges, kept when BranchingData accepts it, then sorted,
    with the index sets read through Weight.__getitem__."""
    m, n = lam.sig.m, lam.sig.n
    ranges = [range(lam[i] - 1, lam[i] + 1) for i in range(1, m + 1)]
    ranges += [range(lam[m + u + 1], lam[m + u] + 1) for u in range(1, n)]
    out = []
    for cand in itertools.product(*ranges):
        try:
            index_sets(lam, cand)
        except NotABranching:
            continue
        I0 = tuple(i for i in range(1, m + 1) if cand[i - 1] == lam[i] - 1)
        I0bar = tuple(i for i in range(1, m + 1) if cand[i - 1] == lam[i])
        I1t = tuple(range(m + 1, m + n + 1))
        eta = sum(lam[m + u] for u in range(1, n + 1)) - sum(cand[m:])
        out.append((cand, I0, I0bar, tuple(sorted(I0 + I1t)),
                    tuple(sorted(I0bar + I1t)), eta))
    return sorted(out)


def test_candidates_match_reference_construction(sweep_weights):
    # the tuples are read directly and the product is not re-sorted; the
    # candidates and their index sets stay those of the sorted construction
    for lam in sweep_weights + seeded_weights(200):
        got = [(b.lam0, b.I0, b.I0bar, b.lower_indices(), b.raise_indices(),
                b.eta) for b in branch_candidates(lam)]
        assert got == _reference_candidates(lam)


SMALL_SIGS = [(m, n) for m in (1, 2, 3) for n in (1, 2, 3)]


def _dominant_both_blocks(lam0, m):
    return all(lam0[i] >= lam0[i + 1] for i in range(m - 1)) and all(
        lam0[i] >= lam0[i + 1] for i in range(m, len(lam0) - 1)
    )


def _check_pair_both_blocks(lam, lam0):
    """_check_pair with a dominance test on both blocks of lam0 and of lam:
    the reference that the even-block tests must agree with."""
    sig = lam.sig
    m, n = sig.m, sig.n
    if len(lam0) != m + n - 1:
        raise SignatureMismatch(
            "lower weight needs %d components for %s" % (m + n - 1, sig)
        )
    if not all(type(x) is int for x in lam0):
        raise NonIntegralWeight("lower weight components must be integers")
    c = lam.comps
    for i in range(m):
        if not c[i] >= lam0[i] >= c[i] - 1:
            raise NotABranching(
                "even label %d: need %d >= %d >= %d"
                % (i + 1, c[i], lam0[i], c[i] - 1)
            )
    for u in range(m, m + n - 1):
        if not c[u] >= lam0[u] >= c[u + 1]:
            raise NotABranching(
                "odd label %d: need %d >= %d >= %d"
                % (u - m + 1, c[u], lam0[u], c[u + 1])
            )
    if not _dominant_both_blocks(lam0, m):
        raise NotABranching("lower weight %r is not dominant" % (lam0,))
    if not _dominant_both_blocks(lam.comps, m):
        raise NotABranching("upper weight %s is not dominant" % (lam,))


def _verdict(check, lam, lam0):
    try:
        check(lam, lam0)
    except Exception as e:  # the verdict is the exception's type and text
        return type(e), str(e)
    return None


def _betweenness_ranges(lam):
    m, n = lam.sig.m, lam.sig.n
    c = lam.comps
    ranges = [range(x - 1, x + 1) for x in c[:m]]
    return ranges + [range(c[u + 1], c[u] + 1) for u in range(m, m + n - 1)]


def test_dropped_dominance_check_changes_no_verdict():
    # every pair with lam and lam0 in [-2, 2] while m + n <= 4; above that,
    # every pair within the betweenness ranges, the only pairs that reach
    # the dominance test
    checked = 0
    for m, n in SMALL_SIGS:
        for lam in all_weights(m, n):
            if m + n <= 4:
                lowers = itertools.product(range(-2, 3), repeat=m + n - 1)
            else:
                lowers = itertools.product(*_betweenness_ranges(lam))
            for lam0 in lowers:
                assert _verdict(_check_pair, lam, lam0) == _verdict(
                    _check_pair_both_blocks, lam, lam0), (lam, lam0)
                checked += 1
    assert checked > 400000


def _product_and_filter(lam):
    """The reference enumeration: nothing under a non-dominant lam, else the
    whole betweenness product, filtered by dominance of both blocks, each
    candidate built through the check."""
    if not _dominant_both_blocks(lam.comps, lam.sig.m):
        return []
    return [BranchingData(lam, cand)
            for cand in itertools.product(*_betweenness_ranges(lam))
            if _dominant_both_blocks(cand, lam.sig.m)]


def test_candidates_equal_product_and_filter():
    weights = [w for m, n in SMALL_SIGS for w in all_weights(m, n)]
    total = 0
    for lam in weights + seeded_weights(200):
        got, want = branch_candidates(lam), _product_and_filter(lam)
        assert [b.lam0 for b in got] == [w.lam0 for w in want]
        for b in got:
            _check_pair(lam, b.lam0)
            assert type(b.lam0) is tuple and b.lam is lam
        # pickled before hash and str are first computed and cached
        back = pickle.loads(pickle.dumps(got))
        for bs in (got, back):
            assert bs == want
            assert list(map(hash, bs)) == list(map(hash, want))
            assert list(map(str, bs)) == list(map(str, want))
        total += len(got)
    assert total > 10000


def test_non_dominant_upper_weight_has_no_branching():
    # an even block of lam that steps up by exactly 1 passes every
    # betweenness rule with some lam0; the upper-weight test rejects it
    reached = 0
    for m, n in SMALL_SIGS:
        for lam in all_weights(m, n):
            if _dominant_both_blocks(lam.comps, m):
                continue
            assert branch_candidates(lam) == []
            for lam0 in itertools.product(*_betweenness_ranges(lam)):
                with pytest.raises(NotABranching) as exc:
                    index_sets(lam, lam0)
                reached += str(exc.value).startswith("upper weight")
    assert reached == 8632
    with pytest.raises(NotABranching, match=r"^upper weight -2,-1\|-2 is not"):
        index_sets(Weight(S21, (-2, -1, -2)), (-2, -2))


def test_candidates_keep_shared_key_dicts(sweep_weights):
    # an enumerated candidate's instance dict is no larger than that of one
    # built through __init__, before and after its lazy attributes are set
    for lam in sweep_weights[::13]:
        for b in branch_candidates(lam):
            ref = BranchingData(lam, b.lam0)
            assert sys.getsizeof(b.__dict__) <= sys.getsizeof(ref.__dict__)
            for x in (b, ref):
                x.I0, x.eta, str(x), hash(x)
            assert sys.getsizeof(b.__dict__) <= sys.getsizeof(ref.__dict__)


def _fresh_str(b):
    lam, m = b.lam, b.sig.m
    return "%s|%s >= %s|%s" % tuple(
        ",".join(map(str, part)) for part in
        (lam.comps[:m], lam.comps[m:], b.lam0[:m], b.lam0[m:]))


def test_branching_str_is_formatted_once(sweep_branchings):
    for b in sweep_branchings[::7]:
        assert str(b) == _fresh_str(b) == str(b)
        assert str(b.lam) == _fresh_str(b).partition(" >= ")[0]
    lam = Weight(Signature(3, 2), (4, 1, -2, 3, -1))
    b, c = index_sets(lam, (3, 1, -2, 0)), index_sets(lam, (3, 1, -2, 0))
    assert str(b) == "4,1,-2|3,-1 >= 3,1,-2|0" and str(b) is str(b)
    # one formatted and its eta read, one not: still equal, equally hashed
    # and picklable
    assert b.eta == b.__dict__["eta"] == 2 and "eta" not in c.__dict__
    assert b == c and hash(b) == hash(c)
    for x in (b, c, lam):
        y = pickle.loads(pickle.dumps(x))
        assert y == x and hash(y) == hash(x) and str(y) == str(x)
    assert str(c) == str(b)


def test_branching_hash_is_computed_once():
    # separately built equal branchings, one hashed before it is pickled and
    # one after: equal, equally hashed, and interchangeable as keys
    b = index_sets(Weight(Signature(3, 2), (4, 1, -2, 3, -1)), (3, 1, -2, 0))
    c = index_sets(Weight(Signature(3, 2), (4, 1, -2, 3, -1)), [3, 1, -2, 0])
    assert b is not c and b.lam is not c.lam
    assert hash(b) == hash(c) == hash((b.lam, b.lam0))
    assert b == c and {b: 1}[c] == 1
    assert b.__dict__["_hash"] == hash(b)
    for x in (b, index_sets(c.lam, c.lam0)):
        y = pickle.loads(pickle.dumps(x))
        assert y == x and hash(y) == hash(x) and {x: 1}[y] == 1
    check_value(BranchingData, {"lam": b.lam, "lam0": b.lam0},
                "BranchingData(lam=Weight(sig=Signature(m=3, n=2), "
                "comps=(4, 1, -2, 3, -1)), lam0=(3, 1, -2, 0))")
