"""Dense exact linear algebra on lists of rows: rank, reduced echelon form,
kernels, inverses.  A matrix is its list of rows of raw field values, with
the field and the column count passed beside it (no rows is the zero map,
whose kernel is all of K^ncols); input rows are never modified.  Pivoting
is deterministic (leftmost nonzero column, first nonzero row) so kernels
and echelon forms are reproducible across runs.
"""

from __future__ import annotations

from .errors import InputError


def rref(K, rows, ncols):
    """Reduced row echelon form of the rows (each ncols long) over K;
    returns (echelon rows, pivot column list)."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
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
                nf = K.neg(rows[i][c])
                rows[i] = [K.add(a, K.mul(nf, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def mat_rank_kernel(K, rows, ncols):
    """Rank and a reduced-echelon-normalized basis of the right kernel."""
    rows, pivots = rref(K, rows, ncols)
    rank = len(pivots)
    free = [c for c in range(ncols) if c not in pivots]
    kernel = []
    for fc in free:
        v = [K.zero] * ncols
        v[fc] = K.one
        for i, pc in enumerate(pivots):
            v[pc] = K.neg(rows[i][fc])
        kernel.append(v)
    return rank, kernel


def mat_inverse(K, rows):
    """The rows of the inverse of a square matrix; InputError if singular."""
    n = len(rows)
    aug = [list(row) + [K.one if j == i else K.zero for j in range(n)]
           for i, row in enumerate(rows)]
    echelon, pivots = rref(K, aug, 2 * n)
    if pivots != list(range(n)):
        raise InputError("matrix is singular")
    return [r[n:] for r in echelon]


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
                nf = K.neg(f)
                row = [K.add(a, K.mul(nf, b)) for a, b in zip(row, erow)]
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
