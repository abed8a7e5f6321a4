"""Shared fixtures: the dominant weight sweep and oracle-realized modules."""

import functools
import itertools
import pickle
import random

import pytest

from qwig import ZERO, HalfLaurent, QFraction, Signature, Weight, branch_candidates
from qwig.exactq import _as_fraction, _factor_map
from qwig.oracle.modules import (
    highest_weight_vectors, realized_modules, submodule, tensor_module, vector_rep,
)

SWEEP_SIGS = [(m, n) for m in (1, 2, 3) for n in (1, 2)]
ORACLE_SIGS = [(1, 1), (2, 1), (1, 2)]

# the sweep references peel the same factor polynomials many times, and a
# peel depends on its polynomial alone, so each is peeled once
_peel = functools.lru_cache(maxsize=4096)(_factor_map)


def laurent(terms=()):
    """The HalfLaurent of terms, a dict or pairs (doubled exponent,
    coefficient): coefficients of a repeated exponent added, zeros dropped,
    and TypeError on a coefficient that is no int or Fraction."""
    t = {}
    for k, c in (terms.items() if isinstance(terms, dict) else terms):
        t[k] = t.get(k, 0) + _as_fraction(c)
    return HalfLaurent({k: _as_fraction(c) for k, c in t.items() if c})


def quotient_of_factors(nums, dens):
    """prod(nums)/prod(dens) for HalfLaurent factors that are products of
    cyclotomic polynomials: each is peeled by _factor_map and the maps are
    merged by QFraction.from_maps.  A zero denominator factor raises
    ZeroDivisionError; otherwise a zero numerator factor gives ZERO."""
    if not all(dens):
        raise ZeroDivisionError("zero denominator")
    if not all(nums):
        return ZERO
    return QFraction.from_maps([_peel(f) for f in nums],
                               [_peel(f) for f in dens])


def check_value(cls, fields, text):
    """The value semantics of cls(**fields), a frozen qwig value whose repr
    is text: built by keyword, equal and equally hashed when built twice,
    hashed as the tuple of its fields, unequal to that tuple, with fields
    that can be neither assigned nor deleted, and equal after a pickle round
    trip."""
    x, y = cls(**fields), cls(**fields)
    assert x is not y and x == y and not x != y
    assert [getattr(x, f) for f in fields] == list(fields.values())
    key = tuple(fields.values())
    assert hash(x) == hash(y) == hash(key)
    assert x != key and key != x and not x == key
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(x, f, fields[f])
        with pytest.raises(AttributeError):
            delattr(x, f)
    z = pickle.loads(pickle.dumps(x))
    assert type(z) is cls and z == x and hash(z) == hash(x)
    assert repr(x) == repr(z) == text


def first_module(sig, comps):
    """The highest weight module of weight comps generated in V^(x)|comps|
    by its first highest weight vector there, taken when the weight has
    multiplicity above 1 too."""
    W = vector_rep(sig)
    for _ in range(sum(comps) - 1):
        W = tensor_module(W, vector_rep(sig))
    vecs = dict(highest_weight_vectors(W))[comps]
    return Weight(sig, comps), submodule(W, vecs[:1])


def dominant_weights(m, n, lo=-2, hi=3):
    """All dominant integral weights of gl(m|n) with components in [lo, hi]."""
    sig = Signature(m, n)

    def blocks(size):
        return [
            c
            for c in itertools.product(range(hi, lo - 1, -1), repeat=size)
            if all(a >= b for a, b in zip(c, c[1:]))
        ]

    return [Weight(sig, ev + od) for ev in blocks(m) for od in blocks(n)]


def all_weights(m, n, lo=-2, hi=2):
    """Every integral weight of gl(m|n), dominant or not, with components
    in [lo, hi]."""
    sig = Signature(m, n)
    return [Weight(sig, c)
            for c in itertools.product(range(lo, hi + 1), repeat=m + n)]


def seeded_weights(count):
    """Seeded dominant gl(3|2) and gl(4|3) weights, components in [-8, 8]."""
    rng = random.Random(2024)
    out = []
    for _ in range(count):
        m, n = rng.choice(((3, 2), (4, 3)))
        ev = sorted((rng.randint(-8, 8) for _ in range(m)), reverse=True)
        od = sorted((rng.randint(-8, 8) for _ in range(n)), reverse=True)
        out.append(Weight(Signature(m, n), tuple(ev + od)))
    return out


@pytest.fixture(scope="session")
def sweep_weights():
    return [w for m, n in SWEEP_SIGS for w in dominant_weights(m, n)]


@pytest.fixture(scope="session")
def sweep_branchings(sweep_weights):
    return [b for w in sweep_weights for b in branch_candidates(w)]


@pytest.fixture(scope="session")
def oracle_modules():
    """Criterion-scope module list: m+n <= 3, unique-multiplicity highest
    weight modules of V^(x)k with k <= 3, the characteristic matrix
    dimension d*dim capped at 81."""
    return {(m, n): realized_modules(Signature(m, n), k_max=3,
                                     dim_cap=81 // (m + n))
            for m, n in ORACLE_SIGS}
