"""Dense exact linear algebra over the q^(1/2) function field.

Matrices are numpy object arrays of QFraction.  Products skip zero entries,
which matters: the big operators built here are weight-sparse.
"""

from __future__ import annotations

import numpy as np

from ..errors import NotScalar, QwigError
from ..exactq import ONE, ZERO

__all__ = [
    "zeros",
    "identity",
    "matmul",
    "mat_scale",
    "scale_rows",
    "scale_columns",
    "is_zero_matrix",
    "mat_pow",
    "gkron",
    "nullspace",
    "mat_inverse",
    "solve_coords",
    "insert_row",
    "shifted_product",
    "scalar_of",
]


def zeros(r, c=None):
    c = r if c is None else c
    out = np.empty((r, c), dtype=object)
    out[:] = ZERO
    return out


def identity(n):
    out = zeros(n, n)
    for i in range(n):
        out[i, i] = ONE
    return out


def matmul(A, B):
    n, m = A.shape
    m2, p = B.shape
    if m != m2:
        raise QwigError("cannot multiply %dx%d by %dx%d" % (n, m, m2, p))
    rows_b = [[(j, bv) for j, bv in enumerate(row) if bv] for row in B.tolist()]
    C = zeros(n, p)
    for i, Ai in enumerate(A.tolist()):
        Ci = C[i]
        for a, row in zip(Ai, rows_b):
            if not a:
                continue
            for j, bv in row:
                Ci[j] = Ci[j] + a * bv
    return C


def mat_scale(A, c):
    n, m = A.shape
    C = zeros(n, m)
    for i in range(n):
        for j in range(m):
            if A[i, j]:
                C[i, j] = A[i, j] * c
    return C


def scale_rows(diag, A):
    """The product diag(diag) A: row i of A times diag[i]."""
    C = zeros(*A.shape)
    for i, (x, row) in enumerate(zip(diag, A.tolist())):
        for j, v in enumerate(row):
            if v:
                C[i, j] = x * v
    return C


def scale_columns(A, diag):
    """The product A diag(diag): column j of A times diag[j]."""
    C = zeros(*A.shape)
    for i, row in enumerate(A.tolist()):
        for j, (v, x) in enumerate(zip(row, diag)):
            if v:
                C[i, j] = v * x
    return C


def mat_pow(A, p):
    out = identity(A.shape[0])
    for _ in range(p):
        out = matmul(out, A)
    return out


def is_zero_matrix(A):
    return all(not x for x in A.flat)


def gkron(ops, slot_parities, out=None):
    """Graded Kronecker product of operators acting on consecutive slots.

    ops: list of (matrix, operator parity 0/1); slot_parities: per slot,
    the list of basis parities.  The Koszul sign for moving the j-th
    operator past the first j-1 basis factors is
    (-1)^(p_j * (par(a_1) + ... + par(a_{j-1}))).

    With out given, the product's nonzero entries are added into out in
    place, which sums many sparse products without touching the zeros.
    """
    dims = [m.shape[0] for m, _ in ops]
    if out is None:
        total = 1
        for d in dims:
            total *= d
        out = zeros(total, total)
    k = len(ops)

    # operator j picks up the basis parities of slots 0..j-1, so process
    # left to right carrying the accumulated column parity
    def rec2(slot, row, col, acc, carried):
        if slot == k:
            out[row, col] = out[row, col] + acc
            return
        mat, p = ops[slot]
        d = dims[slot]
        pars = slot_parities[slot]
        for a in range(d):
            sgn = -1 if (p and carried % 2) else 1
            for b in range(d):
                v = mat[b, a]
                if not v:
                    continue
                nacc = acc * v
                if sgn == -1:
                    nacc = -nacc
                rec2(slot + 1, row * d + b, col * d + a, nacc, carried + pars[a])
        return

    rec2(0, 0, 0, ONE, 0)
    return out


def insert_row(basis, vec):
    """Reduce vec against basis, a list of (pivot, row) pairs with unit
    pivots, and append it when it is independent of them.

    Returns whether vec enlarged the span.
    """
    vec = list(vec)
    for p, base in basis:
        c = vec[p]
        if c:
            for j, b in enumerate(base):
                if b:
                    vec[j] = vec[j] - c * b
    lead = next((j for j, x in enumerate(vec) if x), None)
    if lead is None:
        return False
    inv = vec[lead].inverse()
    basis.append((lead, [x * inv for x in vec]))
    return True


def _rref(rows):
    """Reduced row echelon form of a list of row vectors (lists of
    QFraction): (pivots, rows), each row with a unit pivot and every pivot
    column zero outside its own row."""
    basis = []
    for r in rows:
        insert_row(basis, r)
    pivots = [p for p, _ in basis]
    out = [r for _, r in basis]
    for i in range(len(out) - 1, -1, -1):
        p = pivots[i]
        for k in range(i):
            c = out[k][p]
            if c:
                out[k] = [x - c * y for x, y in zip(out[k], out[i])]
    return pivots, out


def mat_inverse(A):
    """Inverse of a square exact matrix; ValueError when singular."""
    n = A.shape[0]
    aug = []
    for i in range(n):
        row = list(A[i])
        row.extend(ONE if j == i else ZERO for j in range(n))
        aug.append(row)
    pivots, rows = _rref(aug)
    if sorted(pivots) != list(range(n)):
        raise ValueError("matrix is singular")
    out = zeros(n)
    for p, row in zip(pivots, rows):
        for j in range(n):
            out[p, j] = row[n + j]
    return out


def nullspace(A):
    """Basis of the right nullspace of A, as a list of length-n vectors."""
    n = A.shape[1]
    pivots, rows = _rref(A.tolist())
    basis = []
    for fj in (j for j in range(n) if j not in pivots):
        v = [ZERO] * n
        v[fj] = ONE
        for p, row in zip(pivots, rows):
            v[p] = -row[fj]
        basis.append(v)
    return basis


def solve_coords(basis_cols, target):
    """Coordinates of target in the span of basis_cols (lists of QFraction).

    Raises ValueError when the target lies outside the span.
    """
    ncols = len(basis_cols)
    aug = [[col[i] for col in basis_cols] + [t] for i, t in enumerate(target)]
    pivots, rows = _rref(aug)
    if ncols in pivots:
        raise ValueError("target not in span")
    coords = [ZERO] * ncols
    for p, row in zip(pivots, rows):
        coords[p] = row[ncols]
    return coords


def shifted_product(A, values):
    """The product of the factors A - v over values, in order.  Each
    factor shifts only the diagonal of A."""
    out = None
    for v in values:
        factor = A.copy()
        for i in range(A.shape[0]):
            factor[i, i] = factor[i, i] - v
        out = factor if out is None else matmul(out, factor)
    return identity(A.shape[0]) if out is None else out


def scalar_of(A, label="operator"):
    """The scalar c with A = c * I, or NotScalar."""
    n = A.shape[0]
    c = A[0, 0]
    for i in range(n):
        for j in range(n):
            want = c if i == j else ZERO
            if A[i, j] != want:
                raise NotScalar("%s is not scalar at entry (%d,%d)" % (label, i, j))
    return c
