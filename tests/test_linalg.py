import random

from scrollinflect.fields import PrimeField, RationalField
from scrollinflect.linalg import EchelonAccumulator, ExactMatrix, mat_rank_kernel, rref


def test_identity_has_trivial_kernel():
    F = PrimeField(7)
    rank, kernel = mat_rank_kernel(ExactMatrix(F, 2, 2, [1, 0, 0, 1]))
    assert rank == 2 and kernel == []


def test_zero_matrix_kernel_is_standard_basis():
    F = PrimeField(7)
    rank, kernel = mat_rank_kernel(ExactMatrix(F, 3, 4))
    assert rank == 0
    assert len(kernel) == 4
    for i, v in enumerate(kernel):
        assert v[i] == 1 and sum(1 for c in v if c != 0) == 1


def test_rank_one_kernel_hand_reduced():
    # [[1,2],[2,4]] over F_7 row-reduces to [[1,2],[0,0]]: kernel (-2,1) = (5,1)
    F = PrimeField(7)
    m = ExactMatrix(F, 2, 2, [1, 2, 2, 4])
    rank, kernel = mat_rank_kernel(m)
    assert rank == 1
    assert kernel == [[5, 1]]


def test_kernel_vectors_annihilate():
    F = PrimeField(11)
    rng = random.Random(5)
    for _ in range(25):
        rows, cols = rng.randint(1, 5), rng.randint(1, 5)
        m = ExactMatrix(F, rows, cols,
                        [rng.randrange(11) for _ in range(rows * cols)])
        rank, kernel = mat_rank_kernel(m)
        assert rank + len(kernel) == cols
        for v in kernel:
            assert m.mul_vec(v) == [0] * rows


def test_rank_equals_transpose_rank():
    for field in (PrimeField(7), RationalField()):
        rng = random.Random(9)
        for _ in range(25):
            n = rng.randint(1, 5)
            ent = [field.from_int(rng.randint(-4, 4)) for _ in range(n * n)]
            m = ExactMatrix(field, n, n, ent)
            assert mat_rank_kernel(m)[0] == mat_rank_kernel(m.transpose())[0]


def test_rationals_exact_rref():
    Q = RationalField()
    m = ExactMatrix(Q, 2, 3, [Q.from_int(v) for v in [2, 4, 6, 1, 3, 5]])
    rows, pivots = rref(m)
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
        batch_rank, batch_kernel = mat_rank_kernel(ExactMatrix.from_rows(F, rows))
        assert acc.rank == batch_rank
        acc_kernel = mat_rank_kernel(ExactMatrix.from_rows(F, acc.rows))[1]
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
