"""Sparse exact linear algebra over the q^(1/2) function field.

A Matrix is a tuple of row dicts {column: nonzero QFraction}, and a vector
is one such dict {index: nonzero QFraction}.  The big operators built here
are weight-sparse, so every operation visits the stored entries only.  A
Matrix never stores a zero and is never changed after it is built:
builders fill plain dicts and wrap them once.
"""

from __future__ import annotations

from ..errors import InvalidArgument
from ..exactq import ONE, ZERO, QFraction

__all__ = [
    "Matrix",
    "zeros",
    "identity",
    "diagonal",
    "matmul",
    "matvec",
    "map_entries",
    "mat_scale",
    "scale_rows",
    "scale_columns",
    "is_zero_matrix",
    "gkron",
    "reduce_row",
    "insert_row",
    "shift_diagonal",
    "shifted_product",
]


class Matrix:
    """An exact sparse matrix: rows[i] maps column j to the nonzero entry
    (i, j).  The rows must hold no zero.  They are taken as they are, not
    copied, and may be shared between matrices, since no one changes them."""

    __slots__ = ("rows", "ncols", "_columns")

    def __init__(self, rows, ncols):
        self.rows = tuple(rows)
        self.ncols = ncols
        self._columns = None

    @property
    def columns(self):
        """The column index j -> [(i, nonzero entry (i, j))], rows in
        increasing order, built once on first use."""
        if self._columns is None:
            cols = {}
            for i, row in enumerate(self.rows):
                for j, x in row.items():
                    cols.setdefault(j, []).append((i, x))
            self._columns = cols
        return self._columns

    @property
    def shape(self):
        return len(self.rows), self.ncols

    @property
    def flat(self):
        """The stored (nonzero) entries, row by row."""
        return (x for row in self.rows for x in row.values())

    def __getitem__(self, key):
        i, j = key
        if isinstance(i, slice):
            r0, r1, rstep = i.indices(len(self.rows))
            c0, c1, cstep = j.indices(self.ncols)
            if rstep != 1 or cstep != 1:
                raise InvalidArgument("matrix blocks take unit-step slices")
            return Matrix(
                [{c - c0: x for c, x in row.items() if c0 <= c < c1}
                 for row in self.rows[r0:r1]],
                max(c1 - c0, 0),
            )
        return self.rows[i].get(j, ZERO)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.ncols == other.ncols and self.rows == other.rows

    __hash__ = None

    def __neg__(self):
        return Matrix([{j: -x for j, x in row.items()} for row in self.rows],
                      self.ncols)

    def __add__(self, other):
        if self.shape != other.shape:
            raise InvalidArgument(
                "cannot add %dx%d and %dx%d" % (self.shape + other.shape))
        rows = []
        for a, b in zip(self.rows, other.rows):
            row = dict(a)
            for j, x in b.items():
                _add_entry(row, j, x)
            rows.append(row)
        return Matrix(rows, self.ncols)


def _add_entry(row, j, x):
    """Add the nonzero x to row[j], dropping the entry when it cancels."""
    s = row.get(j)
    if s is None:
        row[j] = x
        return
    s = s + x
    if s:
        row[j] = s
    else:
        del row[j]


def zeros(r, c=None):
    return Matrix([{} for _ in range(r)], r if c is None else c)


def identity(n):
    return diagonal((ONE,) * n)


def diagonal(values):
    """The square Matrix with the nonzero values on its diagonal."""
    return Matrix([{i: x} for i, x in enumerate(values)], len(values))


def matmul(A, B):
    n, m = A.shape
    m2, p = B.shape
    if m != m2:
        raise InvalidArgument("cannot multiply %dx%d by %dx%d" % (n, m, m2, p))
    rows_b = B.rows
    out = []
    for row_a in A.rows:
        pairs = {}
        for k, a in row_a.items():
            for j, b in rows_b[k].items():
                pairs.setdefault(j, []).append((a, b))
        row = {}
        for j, ps in pairs.items():
            x = QFraction.sum_of_products(ps)
            if x:
                row[j] = x
        out.append(row)
    return Matrix(out, p)


def matvec(A, v):
    """The product of a Matrix and a vector, as a vector with its entries
    in increasing row order.  Only the columns of A that v meets are
    walked, through A's column index."""
    cols = A.columns
    pairs = {}
    for j, c in v.items():
        for i, x in cols.get(j, ()):
            pairs.setdefault(i, []).append((x, c))
    out = {}
    for i in sorted(pairs):
        x = QFraction.sum_of_products(pairs[i])
        if x:
            out[i] = x
    return out


def map_entries(A, fn):
    """The matrix of fn(x) over the entries x of A, for an fn that takes
    nonzero values to nonzero values.  fn runs once per distinct entry
    value: equal values hash equally and give equal images."""
    images = {}
    rows = []
    for row in A.rows:
        out = {}
        for j, x in row.items():
            y = images.get(x)
            if y is None:
                y = images[x] = fn(x)
            out[j] = y
        rows.append(out)
    return Matrix(rows, A.ncols)


def mat_scale(A, c):
    """The matrix c A, each distinct entry value multiplied once."""
    if not c:
        return zeros(*A.shape)
    return map_entries(A, lambda x: x * c)


def scale_rows(diag, A):
    """The product diag(diag) A: row i of A times diag[i]."""
    return Matrix(
        [{j: x * v for j, v in row.items()} if x else {}
         for x, row in zip(diag, A.rows)],
        A.ncols,
    )


def scale_columns(A, diag):
    """The product A diag(diag): column j of A times diag[j]."""
    zero = {j for j, x in enumerate(diag) if not x}
    return Matrix(
        [{j: v * diag[j] for j, v in row.items() if j not in zero}
         for row in A.rows],
        A.ncols,
    )


def is_zero_matrix(A):
    return not any(A.rows)


def gkron(ops, slot_parities, rows=None):
    """Graded Kronecker product of operators acting on consecutive slots.

    ops: list of (matrix, operator parity 0/1); slot_parities: per slot,
    the list of basis parities.  The Koszul sign for moving the j-th
    operator past the first j-1 basis factors is
    (-1)^(p_j * (par(a_1) + ... + par(a_{j-1}))).

    With rows given, a list of row dicts as long as the product, the
    product's entries are added into them in place and None is returned:
    that sums many sparse products, wrapped once as a Matrix afterwards.

    A factor that is the ONE object, the start value or an entry of an
    identity or matrix-unit slot, is skipped rather than multiplied.
    """
    dims = [m.shape[0] for m, _ in ops]
    total = 1
    for d in dims:
        total *= d
    out = [{} for _ in range(total)] if rows is None else rows
    k = len(ops)

    # operator j picks up the basis parities of slots 0..j-1, so process
    # left to right carrying the accumulated column parity
    def rec(slot, row, col, acc, carried):
        if slot == k:
            _add_entry(out[row], col, acc)
            return
        mat, p = ops[slot]
        d = dims[slot]
        pars = slot_parities[slot]
        flip = p and carried % 2
        for b, mrow in enumerate(mat.rows):
            for a, v in mrow.items():
                nacc = v if acc is ONE else acc if v is ONE else acc * v
                if flip:
                    nacc = -nacc
                rec(slot + 1, row * d + b, col * d + a, nacc, carried + pars[a])

    rec(0, 0, 0, ONE, 0)
    return Matrix(out, total) if rows is None else None


def reduce_row(basis, vec):
    """Reduce the vector vec against basis, a list of (pivot, row) pairs in
    echelon form: unit pivots, and each row zero at the pivots of the rows
    before it.

    Returns (coeffs, rest) with vec = sum_k coeffs[k] * row_k + rest, coeffs
    a dict {k: nonzero multiplier}.  rest is zero at every pivot, so it is
    empty exactly when vec lies in the span, and coeffs are then the
    coordinates of vec in the basis.
    """
    rest = dict(vec)
    coeffs = {}
    for k, (p, base) in enumerate(basis):
        c = rest.get(p)
        if c is not None:
            coeffs[k] = c
            for j, b in base.items():
                _add_entry(rest, j, -(c * b))
    return coeffs, rest


def insert_row(basis, vec):
    """Reduce vec against the echelon basis of reduce_row and append the
    rest, scaled to a unit pivot at its first index, when it is nonzero.

    Returns whether vec enlarged the span.
    """
    _, rest = reduce_row(basis, vec)
    if not rest:
        return False
    lead = min(rest)
    inv = rest[lead].inverse()
    basis.append((lead, {j: x * inv for j, x in rest.items()}))
    return True


def shift_diagonal(A, v):
    """The matrix A - v I of a square A; only the diagonal is computed."""
    neg = -v
    rows = []
    for i, row in enumerate(A.rows):
        row = dict(row)
        s = row.pop(i, None)
        s = neg if s is None else s + neg
        if s:
            row[i] = s
        rows.append(row)
    return Matrix(rows, A.ncols)


def shifted_product(A, values):
    """The product of the factors A - v over values, in order."""
    out = None
    for v in values:
        factor = shift_diagonal(A, v)
        out = factor if out is None else matmul(out, factor)
    return identity(A.shape[0]) if out is None else out

