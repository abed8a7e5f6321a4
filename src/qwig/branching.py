"""Branching gl(m|n) -> gl(m|n-1): betweenness data and index sets."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .errors import NotABranching, SignatureMismatch
from .superweight import Weight, subalgebra_roots

__all__ = ["BranchingData", "branch_candidates", "index_sets"]


def _check_pair(lam, lam0):
    sig = lam.sig
    m, n = sig.m, sig.n
    if len(lam0) != m + n - 1:
        raise SignatureMismatch(
            "lower weight needs %d components for %s" % (m + n - 1, sig)
        )
    for i in range(1, m + 1):
        if not lam[i] >= lam0[i - 1] >= lam[i] - 1:
            raise NotABranching(
                "even label %d: need %d >= %d >= %d"
                % (i, lam[i], lam0[i - 1], lam[i] - 1)
            )
    for u in range(1, n):
        if not lam[m + u] >= lam0[m + u - 1] >= lam[m + u + 1]:
            raise NotABranching(
                "odd label %d: need %d >= %d >= %d"
                % (u, lam[m + u], lam0[m + u - 1], lam[m + u + 1])
            )
    ev = lam0[:m]
    od = lam0[m:]
    if any(a < b for a, b in zip(ev, ev[1:])) or any(
        a < b for a, b in zip(od, od[1:])
    ):
        raise NotABranching("lower weight %r is not dominant" % (lam0,))


@dataclass(frozen=True)
class BranchingData:
    """A dominant weight pair (lam, lam0) satisfying the betweenness rules.

    Index sets use global positions 1..m+n:
      I0    even i with lam0_i = lam_i - 1, I0bar its even complement;
      I1    the odd positions m+1..m+n-1 shared with the subalgebra;
      I1t   I1 together with the last position m+n.
    eta is the total odd label drop, e_last = |I0| + eta is the weight of
    the distinguished last basis direction.
    """

    lam: Weight
    lam0: tuple

    def __post_init__(self):
        _check_pair(self.lam, tuple(self.lam0))
        object.__setattr__(self, "lam0", tuple(self.lam0))

    @property
    def sig(self):
        return self.lam.sig

    @property
    def I0(self):
        m = self.sig.m
        return tuple(
            i for i in range(1, m + 1) if self.lam0[i - 1] == self.lam[i] - 1
        )

    @property
    def I0bar(self):
        m = self.sig.m
        return tuple(
            i for i in range(1, m + 1) if self.lam0[i - 1] == self.lam[i]
        )

    @property
    def I1(self):
        m, n = self.sig.m, self.sig.n
        return tuple(range(m + 1, m + n))

    @property
    def I1t(self):
        return self.I1 + (self.sig.d,)

    @property
    def eta(self):
        m, n = self.sig.m, self.sig.n
        return sum(self.lam[m + u] for u in range(1, n + 1)) - sum(
            self.lam0[m + u - 1] for u in range(1, n)
        )

    @property
    def e_last(self):
        return len(self.I0) + self.eta

    def lower_indices(self):
        """Admissible shifts for the lowering side: I0 u I1t, sorted."""
        return tuple(sorted(self.I0 + self.I1t))

    def raise_indices(self):
        """Admissible shifts for the raising side: I0bar u I1t, sorted."""
        return tuple(sorted(self.I0bar + self.I1t))

    def sub_roots(self, variant):
        return subalgebra_roots(self.lam0, variant, self.sig)

    def __str__(self):
        m = self.sig.m
        return "%s >= %s|%s" % (
            self.lam,
            ",".join(str(c) for c in self.lam0[:m]),
            ",".join(str(c) for c in self.lam0[m:]),
        )


def index_sets(lam, lam0):
    """BranchingData for the pair, raising NotABranching when invalid."""
    return BranchingData(lam, tuple(lam0))


def branch_candidates(lam):
    """All lower weights lam0 admissible under lam, lexicographically sorted."""
    sig = lam.sig
    m, n = sig.m, sig.n
    ranges = []
    for i in range(1, m + 1):
        ranges.append(range(lam[i] - 1, lam[i] + 1))
    for u in range(1, n):
        ranges.append(range(lam[m + u + 1], lam[m + u] + 1))
    out = []
    for cand in itertools.product(*ranges):
        try:
            out.append(BranchingData(lam, cand))
        except NotABranching:
            continue
    out.sort(key=lambda b: b.lam0)
    return out
