import random
from fractions import Fraction as Q

import pytest

from oracles import bareiss_kernel_basis, bareiss_rank, bareiss_solve, fractions_of, vec

from gradedlie.linalg import RationalMatrix, independent_subset, kernel_basis, rank, solve


def identity(n, scale=1):
    return RationalMatrix([scale * int(i == j) for j in range(n)] for i in range(n))


def zeros(rows, cols):
    return RationalMatrix([0] * cols for _ in range(rows))


def apply(m, v):
    """Mv, in ints for an int vector and in Fractions for a Fraction one."""
    return tuple(sum(x * y for x, y in zip(row, v)) for row in m)


def test_rank_identity():
    assert rank(identity(2)) == 2


def test_rank_zero_matrix():
    assert rank(zeros(3, 3)) == 0


def test_rank_proportional_rows():
    m = RationalMatrix([[1, 2], [2, 4]])
    assert rank(m) == 1


def test_kernel_identity_trivial():
    assert kernel_basis(identity(2)) == []


def test_kernel_one_vector():
    m = RationalMatrix([[1, -1]])
    (v,) = map(fractions_of, kernel_basis(m))
    assert v[0] == v[1] and v[0] != 0


def test_kernel_full():
    assert len(kernel_basis(zeros(2, 3))) == 3


def test_solve_scalar():
    assert fractions_of(solve(RationalMatrix([[2]]), [4])) == (Q(2),)


def test_solve_inconsistent():
    m = RationalMatrix([[1, 0], [0, 0]])
    assert solve(m, [0, 1]) is None


def test_solve_identity():
    b = [3, 1, -7]
    assert fractions_of(solve(identity(3), b)) == vec(b)
    assert fractions_of(solve(identity(3, 2), b)) == (Q(3, 2), Q(1, 2), Q(-7, 2))


def test_solve_dimension_mismatch():
    with pytest.raises(ValueError):
        solve(identity(2), [1, 2, 3])


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RationalMatrix([[1, 2]], 3)


def _random_matrix(rng, rows, cols):
    return RationalMatrix([rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows))


def test_kernel_vectors_annihilate():
    rng = random.Random(11)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        for v in map(fractions_of, kernel_basis(m)):
            assert all(x == 0 for x in apply(m, v))


def test_rank_nullity():
    rng = random.Random(12)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 5), rng.randint(1, 5))
        assert rank(m) + len(kernel_basis(m)) == m.cols


def test_solve_exactness_and_inconsistency_witness():
    rng = random.Random(13)
    for _ in range(25):
        m = _random_matrix(rng, rng.randint(1, 4), rng.randint(1, 4))
        b = [rng.randint(-3, 3) for _ in range(m.rows)]
        x = fractions_of(solve(m, b))
        if x is not None:
            assert apply(m, x) == tuple(b)
        else:
            aug = RationalMatrix([list(m[i]) + [b[i]] for i in range(m.rows)])
            assert rank(aug) > rank(m)


def test_independent_subset():
    vs = [[1, 0], [2, 0], [0, 1], [1, 1]]
    assert independent_subset(vs) == [0, 2]


def test_matmul():
    a = RationalMatrix([[1, 2], [3, 4]])
    b = RationalMatrix([[0, 1], [1, 0]])
    assert a.matmul(b) == RationalMatrix([[2, 1], [4, 3]])


def test_elimination_with_non_unit_pivots_and_zero_rows():
    # pivots 2 and 3; row 2 has a zero in the first pivot column, row 3 is zero,
    # row 4 is row 1 + 2 row 2
    m = RationalMatrix(
        [
            [2, 4, 0, 6, 1],
            [0, 3, 0, 1, 0],
            [0, 0, 0, 0, 0],
            [2, 10, 0, 8, 1],
            [8, 4, 0, 6, 1],
        ]
    )
    rows = [list(row) for row in m]
    assert rank(m) == bareiss_rank(m) == 3
    basis = [fractions_of(v) for v in kernel_basis(m)]
    assert basis == bareiss_kernel_basis(m) and len(basis) == 2
    assert all(apply(m, v) == (0,) * 5 for v in basis)
    b = [3, 0, 0, 3, 9]  # M (1, 0, 0, 0, 1)
    assert fractions_of(solve(m, b)) == bareiss_solve(m, b) is not None
    assert apply(m, fractions_of(solve(m, b))) == tuple(b)
    assert solve(m, [1, 2, 1, 0, 0]) is bareiss_solve(m, [1, 2, 1, 0, 0]) is None
    assert m == rows  # elimination works on copies
