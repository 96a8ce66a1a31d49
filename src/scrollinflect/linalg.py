"""Dense exact linear algebra: rank, reduced echelon form, kernels.

Pivoting is deterministic (leftmost nonzero column, first nonzero row) so
kernels and echelon forms are reproducible across runs.
"""

from __future__ import annotations

from .errors import InputError


class ExactMatrix:
    """Dense matrix over one exact field; rows stored as lists of raw values."""

    def __init__(self, field, rows, cols, entries=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if entries is None:
            self.data = [[field.zero] * cols for _ in range(rows)]
        else:
            entries = list(entries)
            if len(entries) == rows and rows and isinstance(entries[0], (list, tuple)):
                self.data = [list(r) for r in entries]
                if any(len(r) != cols for r in self.data):
                    raise InputError("ragged row in matrix entries")
            else:
                if len(entries) != rows * cols:
                    raise InputError("entry count does not match rows*cols")
                self.data = [list(entries[i * cols:(i + 1) * cols]) for i in range(rows)]

    @classmethod
    def from_rows(cls, field, rows):
        rows = [list(r) for r in rows]
        cols = len(rows[0]) if rows else 0
        return cls(field, len(rows), cols, rows)

    def transpose(self):
        return ExactMatrix(self.field, self.cols, self.rows,
                           [[self.data[i][j] for i in range(self.rows)] for j in range(self.cols)])

    def is_zero(self):
        z = self.field.zero
        return all(v == z for row in self.data for v in row)

    def __eq__(self, other):
        return (isinstance(other, ExactMatrix) and other.field == self.field
                and other.data == self.data)

    def __repr__(self):
        return f"ExactMatrix({self.rows}x{self.cols} over {self.field!r})"


def rref(matrix):
    """Reduced row echelon form; returns (echelon rows, pivot column list)."""
    K = matrix.field
    rows = [r[:] for r in matrix.data]
    nrows, ncols = matrix.rows, matrix.cols
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != K.zero:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = K.inv(rows[r][c])
        rows[r] = [K.mul(inv, v) for v in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != K.zero:
                f = rows[i][c]
                rows[i] = [K.sub(rows[i][j], K.mul(f, rows[r][j])) for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def mat_rank_kernel(matrix):
    """Rank and a reduced-echelon-normalized basis of the right kernel."""
    K = matrix.field
    rows, pivots = rref(matrix)
    rank = len(pivots)
    free = [c for c in range(matrix.cols) if c not in pivots]
    kernel = []
    for fc in free:
        v = [K.zero] * matrix.cols
        v[fc] = K.one
        for i, pc in enumerate(pivots):
            v[pc] = K.neg(rows[i][fc])
        kernel.append(v)
    return rank, kernel


class EchelonAccumulator:
    """Incremental row-space tracker used by the fibre scans.

    Rows are reduced against the current echelon basis as they arrive;
    `residue` reports the reduction of a row without inserting it.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []      # echelon rows, pivot normalized to 1
        self.pivot_cols = []

    @property
    def rank(self):
        return len(self.rows)

    def residue(self, row, rank=None):
        """The row reduced against the first `rank` echelon rows (all by
        default); each row is zero at the pivots of the rows before it, so
        every prefix is itself an echelon basis."""
        K = self.field
        row = list(row)
        for erow, pc in zip(self.rows[:rank], self.pivot_cols[:rank]):
            f = row[pc]
            if f != K.zero:
                row = [K.sub(a, K.mul(f, b)) for a, b in zip(row, erow)]
        return row

    def insert(self, row):
        """Reduce and insert; returns True if the row enlarged the space."""
        K = self.field
        row = self.residue(row)
        for c, v in enumerate(row):
            if v != K.zero:
                inv = K.inv(v)
                row = [K.mul(inv, a) for a in row]
                self.rows.append(row)
                self.pivot_cols.append(c)
                return True
        return False
