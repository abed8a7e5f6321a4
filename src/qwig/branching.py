"""Branching gl(m|n) -> gl(m|n-1): betweenness data and index sets."""

from __future__ import annotations

import itertools

from .errors import NonIntegralWeight, NotABranching, SignatureMismatch
from .superweight import _memo, _Value

__all__ = ["BranchingData", "branch_candidates", "index_sets"]


def _check_pair(lam, lam0):
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
    # only the even blocks can fail dominance here: the odd rules give
    # lam0_u >= lam_(u+1) >= lam0_(u+1) and lam_u >= lam0_u >= lam_(u+1), so
    # both odd blocks are nonincreasing.  An even step of lam up by exactly
    # 1 passes the even rules.
    if not _even_block_dominant(lam0, m):
        raise NotABranching("lower weight %r is not dominant" % (lam0,))
    if not _even_block_dominant(c, m):
        raise NotABranching("upper weight %s is not dominant" % (lam,))


def _even_block_dominant(c, m):
    # a plain loop, without a generator: it runs twice per checked pair and
    # once per enumerated upper weight
    for i in range(m - 1):
        if c[i] < c[i + 1]:
            return False
    return True


class BranchingData(_Value):
    """A dominant weight pair (lam, lam0) satisfying the betweenness rules.

    Index sets use global positions 1..m+n:
      I0    even i with lam0_i = lam_i - 1, I0bar its even complement;
      I1    the odd positions m+1..m+n-1 shared with the subalgebra;
      I1t   I1 together with the last position m+n.
    eta is the total odd label drop, e_last = |I0| + eta is the weight of
    the distinguished last basis direction.
    """

    _fields = ("lam", "lam0")

    def __init__(self, lam, lam0):
        lam0 = tuple(lam0)
        _check_pair(lam, lam0)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "lam0", lam0)

    @property
    def sig(self):
        return self.lam.sig

    # I0 and I0bar are computed on each read: _Side reads each of them about
    # once per branching, and a memo's first read costs more than that
    @property
    def I0(self):
        c = self.lam.comps
        return tuple(
            i + 1 for i in range(self.sig.m) if self.lam0[i] == c[i] - 1
        )

    @property
    def I0bar(self):
        c = self.lam.comps
        return tuple(i + 1 for i in range(self.sig.m) if self.lam0[i] == c[i])

    @property
    def I1(self):
        m, n = self.sig.m, self.sig.n
        return tuple(range(m + 1, m + n))

    @property
    def I1t(self):
        m, d = self.sig.m, self.sig.d
        return tuple(range(m + 1, d + 1))

    # computed once: the q-number forms read it for every omega_k and mu
    @_memo
    def eta(self):
        m = self.sig.m
        return sum(self.lam.comps[m:]) - sum(self.lam0[m:])

    @property
    def e_last(self):
        return len(self.I0) + self.eta

    def lower_indices(self):
        """Admissible shifts for the lowering side: I0 u I1t, sorted, since
        I0 lies in 1..m and I1t in m+1..m+n."""
        return self.I0 + self.I1t

    def raise_indices(self):
        """Admissible shifts for the raising side: I0bar u I1t, sorted."""
        return self.I0bar + self.I1t

    # str is formatted once per branching: callers print the same one many
    # times, in check messages and verify details
    @_memo
    def _text(self):
        m = self.sig.m
        return "%s >= %s|%s" % (
            self.lam,
            ",".join(str(c) for c in self.lam0[:m]),
            ",".join(str(c) for c in self.lam0[m:]),
        )

    def __str__(self):
        return self._text

    # hashed once: every _side lookup hashes the branching, which would
    # otherwise hash its Weight and that Weight's Signature again
    @_memo
    def _hash(self):
        return hash((self.lam, self.lam0))

    def __hash__(self):
        return self._hash


def index_sets(lam, lam0):
    """BranchingData for the pair, raising NotABranching when invalid."""
    return BranchingData(lam, tuple(lam0))


def branch_candidates(lam):
    """All lower weights lam0 admissible under lam, lexicographically sorted.

    Only dominant candidates are enumerated: the even block takes
    lam0_i in {lam_i - 1, lam_i}, extended only while it stays
    nonincreasing, and the odd block is the plain product of its betweenness
    ranges, dominant by the rules alone (see _check_pair).  A non-dominant
    lam has no candidates.  Prefixes and ranges ascend, so the candidates
    come out sorted.  Each one is valid by construction, so it is built
    without BranchingData's check.
    """
    m, n = lam.sig.m, lam.sig.n
    c = lam.comps
    if not _even_block_dominant(c, m):
        return []
    evens = [()]
    for x in c[:m]:
        evens = [p + (y,) for p in evens for y in (x - 1, x) if not p or p[-1] >= y]
    odds = list(itertools.product(
        *[range(c[u + 1], c[u] + 1) for u in range(m, m + n - 1)]))
    # fields set in the order __init__ sets them, so that each instance dict
    # still shares its keys with the class
    new, setattr_ = object.__new__, object.__setattr__
    out = []
    for ev in evens:
        for od in odds:
            b = new(BranchingData)
            setattr_(b, "lam", lam)
            setattr_(b, "lam0", ev + od)
            out.append(b)
    return out
