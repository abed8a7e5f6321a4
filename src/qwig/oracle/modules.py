"""Concrete finite-dimensional modules: vector module, tensor powers,
highest weight vectors and cyclic submodules.  Generator matrices are
sparse linalg.Matrix values, and vectors are linalg's sparse dicts
{basis index: nonzero QFraction}.

Generator conventions on the vector module: e_a -> e_{a,a+1},
f_a -> e_{a+1,a}, E_aa -> e_aa (the Cartan action stays classical).  On a
graded tensor product the generators act through the coproduct
x -> q^(h_a/2) (x) x + x (x) q^(-h_a/2) with the Koszul sign built into the
graded Kronecker product.
"""

from __future__ import annotations

from functools import lru_cache
from operator import mul

from ..errors import (
    InvalidArgument,
    MultiplicityAmbiguous,
    NonIntegralWeight,
    NotRealized,
    SignatureMismatch,
)
from ..exactq import ONE, HalfLaurent, QFraction
from ..superweight import Weight
from .linalg import (
    Matrix,
    diagonal,
    gkron,
    insert_row,
    matvec,
    reduce_row,
)

__all__ = [
    "RepModule",
    "vector_rep",
    "tensor_module",
    "highest_weight_vectors",
    "submodule",
    "realized_modules",
    "subalgebra_highest_vector",
    "subalgebra_components",
]


class RepModule:
    """A finite-dimensional weight module with explicit generator matrices.

    weights[i] is the tuple of E_jj eigenvalues of basis vector i, as ints
    (a component that is not an integer raises NonIntegralWeight), and
    parities[i] its grading, the sum of its odd-block components mod 2: in
    a tensor power of the vector module each odd basis vector of a factor
    adds 1 to both.  e[a]/f[a] are the simple generator matrices for
    a = 1..m+n-1.
    """

    def __init__(self, sig, weights, e, f):
        self.sig = sig
        self.weights = [_int_weight(w) for w in weights]
        self.parities = [sum(w[sig.m:]) % 2 for w in self.weights]
        self.e = e
        self.f = f
        self.dim = len(self.weights)
        self._cache = {}

    def cached(self, key, build):
        """The value build() made once per module and kept under key.

        Every later caller shares the kept value, so no caller may change
        it or any part of it.  A Matrix has no setter; the dicts, lists and
        tuples kept, such as the vectors of _branch_start, _start_powers,
        _component_powers and _shifted_family, are only read.
        """
        if key not in self._cache:
            self._cache[key] = build()
        return self._cache[key]

    def cartan_diagonal(self, dcoeffs, dshift):
        """The diagonal of q^((sum_j dcoeffs_j E_jj + dshift)/2), one
        QFraction per basis vector, for an int tuple dcoeffs and an int
        dshift (the doubled coefficients and shift of the exponent); made
        once per module and kept."""

        def build():
            return tuple(
                _qmonomial(sum(map(mul, dcoeffs, w)) + dshift)
                for w in self.weights
            )

        return self.cached(("cartan", dcoeffs, dshift), build)


def _h_coeffs(sig, a):
    """Coefficient vector of h_a = (a) E_aa - (a+1) E_{a+1,a+1}, as ints:
    the doubled coefficients of the exponent of q^(h_a/2)."""
    c = [0] * sig.d
    c[a - 1] = sig.sign(a)
    c[a] = -sig.sign(a + 1)
    return tuple(c)


def _int_weight(w):
    """The weight w as a tuple of ints."""
    out = tuple(int(c) for c in w)
    if out != tuple(w):
        raise NonIntegralWeight("weight %s is not integral" % (w,))
    return out


@lru_cache(maxsize=None)
def _qmonomial(dexp):
    """q^(dexp/2) as a QFraction, normalised once per exponent; modules
    share the value, so the cache holds one entry per exponent met."""
    return QFraction(HalfLaurent({dexp: 1}))


def vector_rep(sig):
    """The defining (m+n)-dimensional module."""
    d = sig.d
    weights = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    e = {}
    f = {}
    for a in range(1, d):
        e[a] = Matrix([{a: ONE} if r == a - 1 else {} for r in range(d)], d)
        f[a] = Matrix([{a - 1: ONE} if r == a else {} for r in range(d)], d)
    return RepModule(sig, weights, e, f)


def tensor_module(W1, W2):
    """Graded tensor product with the coproduct action of the generators."""
    if W1.sig != W2.sig:
        raise SignatureMismatch(
            "cannot tensor %s with %s modules" % (W1.sig, W2.sig)
        )
    sig = W1.sig
    weights = [tuple(a + b for a, b in zip(w1, w2))
               for w1 in W1.weights for w2 in W2.weights]
    slot_pars = [W1.parities, W2.parities]
    e = {}
    f = {}
    for a in range(1, sig.d):
        # q^(h_a/2) on W1 and q^(-h_a/2) on W2
        dh = _h_coeffs(sig, a)
        left = diagonal(W1.cartan_diagonal(dh, 0))
        right = diagonal(W2.cartan_diagonal(tuple(-c for c in dh), 0))
        p = 1 if a == sig.m else 0
        e[a] = gkron([(left, 0), (W2.e[a], p)], slot_pars) + gkron(
            [(W1.e[a], p), (right, 0)], slot_pars)
        f[a] = gkron([(left, 0), (W2.f[a], p)], slot_pars) + gkron(
            [(W1.f[a], p), (right, 0)], slot_pars)
    return RepModule(sig, weights, e, f)


def _weight_of(W, vec):
    """The weight of a nonzero weight vector in W coordinates."""
    wts = {W.weights[i] for i in vec}
    if len(wts) != 1:
        raise InvalidArgument(
            "not a weight vector: it spans %d weights" % len(wts))
    return next(iter(wts))


def highest_weight_vectors(W, gens=None):
    """Vectors killed by all raising generators, grouped by weight.

    gens restricts the raising set (used for subalgebra highest weight
    vectors).  Returns a sorted list of (weight, [vectors]).

    Basis vector j's raising images form one row, row i of the g-th
    generator at g*dim + i, tagged with 1 at tag + j.  In its weight's
    echelon, a row whose image part reduces to zero leads in its tag, a
    kernel vector; those rows span the kernel.
    """
    gens = list(range(1, W.sig.d) if gens is None else gens)
    dim = W.dim
    rows = [{} for _ in range(dim)]
    for g, a in enumerate(gens):
        for i, row in enumerate(W.e[a].rows):
            for j, x in row.items():
                rows[j][g * dim + i] = x
    tag = len(gens) * dim
    echelons = {}  # weight -> echelon basis of (pivot, tagged row) pairs
    for j, (wt, row) in enumerate(zip(W.weights, rows)):
        row[tag + j] = ONE
        insert_row(echelons.setdefault(wt, []), row)
    kernels = {wt: [{k - tag: x for k, x in row.items()}
                    for lead, row in basis if lead >= tag]
               for wt, basis in echelons.items()}
    return [(wt, kernels[wt]) for wt in sorted(kernels) if kernels[wt]]


def submodule(W, start_vectors):
    """The span generated from start_vectors under all lowering generators.

    start_vectors must be weight vectors.  Returns the RepModule on the
    span's echelon basis.  Raises NotRealized when the span is not closed
    under the action.
    """
    sig = W.sig
    weights = []
    basis = []
    spaces = {}  # weight -> (index of its first basis vector, echelon basis)
    for wt, echelon in _lowering_span(W, start_vectors, range(1, sig.d)):
        spaces[wt] = (len(basis), echelon)
        weights += [wt] * len(echelon)
        basis += [v for _, v in echelon]
    # the coordinates of each generator image are the multipliers that
    # reduce it against its weight space's echelon basis
    dim = len(basis)
    e = {a: [{} for _ in range(dim)] for a in range(1, sig.d)}
    f = {a: [{} for _ in range(dim)] for a in range(1, sig.d)}
    for j, v in enumerate(basis):
        for a in range(1, sig.d):
            for gens, target in ((W.e[a], e[a]), (W.f[a], f[a])):
                img = matvec(gens, v)
                if not img:
                    continue
                first, echelon = spaces.get(_weight_of(W, img), (0, []))
                coeffs, rest = reduce_row(echelon, img)
                if rest:
                    raise NotRealized("span not closed under the action")
                for k, c in coeffs.items():
                    target[first + k][j] = c
    e = {a: Matrix(rows, dim) for a, rows in e.items()}
    f = {a: Matrix(rows, dim) for a, rows in f.items()}
    return RepModule(sig, weights, e, f)


def _lowering_span(W, starts, gens):
    """Per-weight echelon bases of the span of the weight vectors starts
    under the lowering generators gens, as (weight, [(pivot, vector)])
    pairs sorted by weight."""
    spaces = {}  # weight -> echelon basis of (pivot, vector) pairs
    queue = []

    def push(vec):
        basis = spaces.setdefault(_weight_of(W, vec), [])
        if insert_row(basis, vec):
            queue.append(basis[-1][1])

    for v in starts:
        push(v)
    while queue:
        v = queue.pop()
        for a in gens:
            img = matvec(W.f[a], v)
            if img:
                push(img)
    return [(wt, spaces[wt]) for wt in sorted(spaces)]


def realized_modules(sig, k_max, dim_cap):
    """The highest weight modules of multiplicity one inside the tensor
    powers V^(x)k, k <= k_max, smallest power first, as (Weight, module)
    pairs.  Every weight of V^(x)k has component sum k, so none recurs
    across powers.  Modules of dimension above dim_cap are left out, and no
    tensor power of dimension above 2 * dim_cap is decomposed."""
    out = []
    W = None
    for _ in range(k_max):
        W = vector_rep(sig) if W is None else tensor_module(W, vector_rep(sig))
        if W.dim > 2 * dim_cap:
            break
        for wt, vecs in highest_weight_vectors(W):
            if len(vecs) != 1:
                continue
            M = submodule(W, [vecs[0]])
            if M.dim <= dim_cap:
                out.append((Weight(sig, wt), M))
    return out


def subalgebra_components(W):
    """Decomposition of W into its subalgebra components, found once per
    module.

    Each component is the cyclic span of a subalgebra highest weight
    vector under the subalgebra lowering generators.  Returns (lam0s,
    echelon): lam0s[c] is the first d-1 weight coordinates of component
    c's highest weight, and echelon is a reduce_row basis of the component
    vectors, each vector u of component c entered with a tagged copy of
    itself at offset (c+1)*dim.  reduce_row(echelon, w) of a vector w on W
    then leaves -w_c at offset (c+1)*dim for each component c, w_c the part
    of w in c, and nothing below dim.  Raises NotRealized when the spans
    fail to exhaust W (restriction not semisimple, or a span not closed).
    """
    return W.cached(("subcomps",), lambda: _subalgebra_components(W))


def _subalgebra_components(W):
    sig = W.sig
    gens = list(range(1, sig.d - 1))
    lam0s = []
    joint = {}  # weight -> echelon basis of (pivot, tagged vector) pairs
    for wt, vecs in _subalgebra_highest_vectors(W):
        for v in vecs:
            lam0s.append(wt[: sig.d - 1])
            offset = len(lam0s) * W.dim
            for _, rows in _lowering_span(W, [dict(v)], gens):
                for _, u in rows:
                    basis = joint.setdefault(_weight_of(W, u), [])
                    tagged = dict(u)
                    tagged.update((offset + i, x) for i, x in u.items())
                    # a pivot in a tag means u depends on the vectors before
                    if not insert_row(basis, tagged) or basis[-1][0] >= W.dim:
                        raise NotRealized(
                            "subalgebra components are not independent"
                        )
    echelon = tuple(row for basis in joint.values() for row in basis)
    if len(echelon) != W.dim:
        raise NotRealized("subalgebra restriction is not semisimple")
    # rows of different weights share no index, so one list is an echelon
    return tuple(lam0s), echelon


def _subalgebra_highest_vectors(W):
    """highest_weight_vectors of W under the gl(m|n-1) raising generators,
    found once per module and kept as (weight, vectors) tuples."""
    return W.cached(
        ("subhw",),
        lambda: tuple(
            (wt, tuple(tuple(v.items()) for v in vecs))
            for wt, vecs in highest_weight_vectors(W, gens=range(1, W.sig.d - 1))
        ),
    )


def subalgebra_highest_vector(W, lam0, e_last):
    """The gl(m|n-1) highest weight vector of weight (lam0, e_last) in W.

    Returns it as a fresh vector, raising NotRealized or
    MultiplicityAmbiguous as appropriate.
    """
    target = tuple(lam0) + (e_last,)
    vecs = dict(_subalgebra_highest_vectors(W)).get(target)
    if vecs is None:
        raise NotRealized("no subalgebra highest weight vector for %s" % (lam0,))
    if len(vecs) > 1:
        raise MultiplicityAmbiguous(
            "subalgebra weight %s has multiplicity %d" % (lam0, len(vecs))
        )
    return dict(vecs[0])
