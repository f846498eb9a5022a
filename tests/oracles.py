"""Test-only helpers and oracles that no command of the package calls."""

from typing import Sequence

from gradedlie.linalg import RationalMatrix
from gradedlie.quiver import QuiverDims, maximal_rank_tuple, quiver_jm_regular, rank_tuple


def pointwise_maximality(dims: QuiverDims, elem: Sequence[RationalMatrix]) -> bool:
    """Open-orbit membership test; only meaningful in the JM-regular case."""
    if not quiver_jm_regular(dims):
        raise ValueError("dimension vector is not JM-regular")
    return rank_tuple(dims, elem) == maximal_rank_tuple(dims)


def dims_for_labels(labels: Sequence[int]) -> QuiverDims:
    """Block sizes cut out by 0/1 simple-root labels of sl_n."""
    if any(x not in (0, 1) for x in labels) or not any(labels):
        raise ValueError("labels must be 0/1 and not all zero")
    blocks = []
    size = 1
    for x in labels:
        if x:
            blocks.append(size)
            size = 1
        else:
            size += 1
    blocks.append(size)
    return QuiverDims(tuple(blocks))
