from fractions import Fraction as Q

import pytest

from gradedlie.chevalley import build_algebra
from gradedlie.grading import z_grading_from_labels
from gradedlie.quiver import QuiverDims, dims_for_labels, labels_for_dims
from gradedlie.rootsystem import LieType


def chain_root(i: int, j: int, rank: int):
    """Root alpha_i + ... + alpha_{j-1} of the rank-r chain diagram, 1-indexed."""
    return tuple(int(i <= k + 1 < j) for k in range(rank))


# every dimension vector with total n <= 5 and at least two blocks
SMALL_DIMS = [
    dims_for_labels([cuts >> k & 1 for k in range(n - 1)]).dims
    for n in range(2, 6)
    for cuts in range(1, 1 << (n - 1))
]


def quiver_grading(dims: QuiverDims):
    """The block grading of sl_n matching a quiver dimension vector."""
    alg = build_algebra(LieType("A", dims.n - 1))
    return z_grading_from_labels(alg, list(labels_for_dims(dims)))


def embed_quiver_element(zg, dims: QuiverDims, elem):
    """Degree-1 element of the block grading with the same rank data.

    The entry f_b[a][c] (vertex-b basis c to vertex-(b+1) basis a) goes onto
    the root vector joining position c of block b to position a of block b+1.
    """
    alg = zg.algebra
    coords = {}
    for b, f in enumerate(elem):
        for a in range(f.rows):
            for c in range(f.cols):
                if f[a, c]:
                    i = dims.block_start(b) + c + 1
                    j = dims.block_start(b + 1) + a + 1
                    root = chain_root(i, j, alg.rank)
                    coords[alg.root_index[root]] = Q(f[a, c])
    return alg.from_sparse(coords)


@pytest.fixture(scope="session")
def sl2():
    return build_algebra(LieType.parse("A1"))


@pytest.fixture(scope="session")
def sl3():
    return build_algebra(LieType.parse("A2"))
