import random
from fractions import Fraction

import pytest
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from scrollinflect.errors import InputError
from scrollinflect.fields import PrimeField, RationalField
from scrollinflect.linalg import EchelonAccumulator, mat_inverse, mat_rank_kernel, rref


def test_identity_has_trivial_kernel():
    F = PrimeField(7)
    rank, kernel = mat_rank_kernel(F, [[1, 0], [0, 1]], 2)
    assert rank == 2 and kernel == []


def test_zero_matrix_kernel_is_standard_basis():
    F = PrimeField(7)
    # three zero rows, and no rows at all: both are the zero map on F_7^4
    for rows in ([[0] * 4 for _ in range(3)], []):
        rank, kernel = mat_rank_kernel(F, rows, 4)
        assert rank == 0
        assert len(kernel) == 4
        for i, v in enumerate(kernel):
            assert v[i] == 1 and sum(1 for c in v if c != 0) == 1


def test_rank_one_kernel_hand_reduced():
    # [[1,2],[2,4]] over F_7 row-reduces to [[1,2],[0,0]]: kernel (-2,1) = (5,1)
    F = PrimeField(7)
    rank, kernel = mat_rank_kernel(F, [[1, 2], [2, 4]], 2)
    assert rank == 1
    assert kernel == [[5, 1]]


def test_kernel_vectors_annihilate():
    F = PrimeField(11)
    rng = random.Random(5)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = [[rng.randrange(11) for _ in range(cols)] for _ in range(rows)]
        rank, kernel = mat_rank_kernel(F, m, cols)
        assert rank + len(kernel) == cols
        for v in kernel:
            assert [F.dot(row, v) for row in m] == [0] * rows


def test_rank_equals_transpose_rank():
    for field in (PrimeField(7), RationalField()):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 5)
            m = [[field.from_int(rng.randint(-4, 4)) for _ in range(n)] for _ in range(n)]
            assert mat_rank_kernel(field, m, n)[0] == mat_rank_kernel(field, zip(*m), n)[0]


def test_rationals_exact_rref():
    Q = RationalField()
    m = [[Q.from_int(v) for v in row] for row in [[2, 4, 6], [1, 3, 5]]]
    rows, pivots = rref(Q, m, 3)
    assert pivots == [0, 1]
    assert rows[0][0] == Q.one and rows[1][1] == Q.one


def test_echelon_accumulator_matches_batch():
    F = PrimeField(7)
    rng = random.Random(3)
    for _ in range(20):
        rows = [[rng.randrange(7) for _ in range(4)] for _ in range(5)]
        acc = EchelonAccumulator(F, 4)
        for row in rows:
            acc.insert(row)
        batch_rank, batch_kernel = mat_rank_kernel(F, rows, 4)
        assert acc.rank == batch_rank
        acc_kernel = mat_rank_kernel(F, acc.rows, 4)[1]
        assert sorted(acc_kernel) == sorted(batch_kernel)


def test_residue_against_a_prefix_equals_a_fresh_accumulator():
    # the first `rank` echelon rows are an echelon basis on their own
    F = PrimeField(7)
    rng = random.Random(5)
    for _ in range(20):
        acc = EchelonAccumulator(F, 5)
        for _ in range(4):
            acc.insert([rng.randrange(7) for _ in range(5)])
        for rank in range(acc.rank + 1):
            fresh = EchelonAccumulator(F, 5)
            for row in acc.rows[:rank]:
                fresh.insert(row)
            assert fresh.rank == rank
            for _ in range(5):
                row = [rng.randrange(7) for _ in range(5)]
                assert acc.residue(row, rank) == fresh.residue(row)
        assert acc.residue(row, None) == acc.residue(row, acc.rank)


def test_inverse_times_matrix_is_the_identity():
    F = PrimeField(7)
    rng = random.Random(4)
    for n in range(1, 5):
        m = [[rng.randrange(7) for _ in range(n)] for _ in range(n)]
        if mat_rank_kernel(F, m, n)[0] < n:
            with pytest.raises(InputError):
                mat_inverse(F, m)
            continue
        inv = mat_inverse(F, m)
        product = [[F.dot(row, col) for col in zip(*inv)] for row in m]
        assert product == [[int(i == j) for j in range(n)] for i in range(n)]


# --------------------------------------------------------------------------
# rref and kernels against sympy's DomainMatrix


def _random_matrix(rng, nrows, ncols, deficient):
    """Random integer rows; deficient ones are combinations of fewer than
    min(nrows, ncols) random rows (the zero matrix when that is none)."""
    if not deficient:
        return [[rng.randint(-9, 9) for _ in range(ncols)] for _ in range(nrows)]
    base = [[rng.randint(-9, 9) for _ in range(ncols)]
            for _ in range(rng.randint(0, max(min(nrows, ncols) - 1, 0)))]
    return [[sum(rng.randint(-3, 3) * b[j] for b in base) for j in range(ncols)]
            for _ in range(nrows)]


def _engine_value(domain, v):
    """A sympy value as the engine holds it: a GF symmetric representative
    mapped into [0, p), a rational as a Fraction."""
    if domain == QQ:
        return Fraction(int(v.numerator), int(v.denominator))
    return int(v) % domain.mod


@pytest.mark.parametrize("field,domain", [(PrimeField(7), GF(7)), (PrimeField(11), GF(11)),
                                          (RationalField(), QQ)],
                         ids=["GF7", "GF11", "QQ"])
def test_rref_and_kernel_agree_with_sympy(field, domain):
    rng = random.Random(13)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (2, 5), (5, 2)]
    shapes += [(rng.randint(0, 6), rng.randint(0, 6)) for _ in range(40)]
    for i, (nrows, ncols) in enumerate(shapes):
        entries = _random_matrix(rng, nrows, ncols, deficient=i % 2 == 1)
        dm = DomainMatrix([[domain(v) for v in row] for row in entries], (nrows, ncols),
                          domain)
        rows = [[_engine_value(domain, v) for v in row] for row in dm.to_list()]
        ref, ref_pivots = dm.rref()
        echelon, pivots = rref(field, rows, ncols)
        assert pivots == list(ref_pivots)
        assert echelon == [[_engine_value(domain, v) for v in row] for row in ref.to_list()]
        rank, kernel = mat_rank_kernel(field, rows, ncols)
        assert rank == len(ref_pivots)
        # the same kernel: equal span (equal sympy rref of both bases), and
        # each of ours is 1 at its own free column and 0 at the others
        null = dm.nullspace()
        assert len(kernel) == null.shape[0] == ncols - rank
        ours = DomainMatrix([[domain(v) for v in vec] for vec in kernel],
                            (len(kernel), ncols), domain)
        assert ours.rref()[0] == null.rref()[0]
        free = [c for c in range(ncols) if c not in pivots]
        assert [[vec[c] for c in free] for vec in kernel] == \
            [[int(c == fc) for c in free] for fc in free]
