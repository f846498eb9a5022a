"""Linear-quiver model of the type-A gradings.

A dimension vector (d_0, ..., d_{m-1}) with n = sum d_j splits C^n into
blocks V_j; a degree-1 element of the corresponding sl_n grading is a chain of
maps f_j : V_j -> V_{j+1}.  Orbits are classified by the ranks of the
consecutive compositions and enumerated from the multiplicities of the
interval modules, the sl2-completion h is read off the Jordan strings, and
the Toledo data reduces to trace arithmetic against
zeta|_{V_j} = (j - alpha) Id with alpha = (sum j d_j)/n.  Rank tuples,
Toledo ranks of orbits and JM-regularity are closed forms in the strings'
intervals, so no orbit representative is built.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from fractions import Fraction as Q
from typing import Dict, Iterator, List, Sequence, Tuple

from .linalg import RationalMatrix, rank


@dataclass(frozen=True)
class QuiverDims:
    dims: Tuple[int, ...]

    def __post_init__(self):
        if len(self.dims) < 1 or any(d < 1 for d in self.dims):
            raise ValueError("dimensions must be positive")
        if self.n < 2:
            raise ValueError("total dimension must be at least 2")

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return sum(self.dims)

    @property
    def alpha(self) -> Q:
        return Q(sum(j * d for j, d in enumerate(self.dims)), self.n)

    def block_start(self, j: int) -> int:
        return sum(self.dims[:j])


QuiverElement = Tuple[RationalMatrix, ...]  # maps f_j : V_j -> V_{j+1}

RankTuple = Tuple[Tuple[Tuple[int, int], int], ...]  # sorted ((i,j) -> r_ij)

Multiplicities = Dict[Tuple[int, int], int]  # (a, b) -> copies of the interval module [a, b]


def _check_shapes(dims: QuiverDims, elem: Sequence[RationalMatrix]):
    if len(elem) != dims.m - 1:
        raise ValueError("expected one map per quiver arrow")
    for j, f in enumerate(elem):
        if f.rows != dims.dims[j + 1] or f.cols != dims.dims[j]:
            raise ValueError(f"map {j} has shape {f.rows}x{f.cols}")


def rank_tuple(dims: QuiverDims, elem: Sequence[RationalMatrix]) -> RankTuple:
    """r_ij = rank of f_{j-1} ... f_i for all 0 <= i < j <= m-1."""
    _check_shapes(dims, elem)
    out: Dict[Tuple[int, int], int] = {}
    for i in range(dims.m - 1):
        comp = elem[i]
        out[(i, i + 1)] = rank(comp)
        for j in range(i + 2, dims.m):
            comp = elem[j - 1].matmul(comp)
            out[(i, j)] = rank(comp)
    return tuple(sorted(out.items()))


def maximal_rank_tuple(dims: QuiverDims) -> RankTuple:
    out = {}
    for i in range(dims.m - 1):
        for j in range(i + 1, dims.m):
            out[(i, j)] = min(dims.dims[i : j + 1])
    return tuple(sorted(out.items()))


def _interval_multiplicities(dims: QuiverDims) -> Iterator[Multiplicities]:
    """Every m_ij >= 0 with sum_{i <= k <= j} m_ij = d_k for each vertex k.

    Intervals starting at i are chosen longest first; the length-one interval
    [i, i] then takes whatever is left at vertex i, so every branch succeeds.
    """
    m = dims.m
    left = list(dims.dims)
    chosen: Multiplicities = {}

    def extend(i: int, j: int) -> Iterator[Multiplicities]:
        if i == m:
            yield dict(chosen)
            return
        if j == i:
            chosen[(i, i)] = left[i]
            yield from extend(i + 1, m - 1)
            return
        for c in range(min(left[i : j + 1]) + 1):
            chosen[(i, j)] = c
            for k in range(i, j + 1):
                left[k] -= c
            yield from extend(i, j - 1)
            for k in range(i, j + 1):
                left[k] += c

    return extend(0, m - 1)


def interval_rank_tuple(dims: QuiverDims, mult: Multiplicities) -> RankTuple:
    """r_ij = sum_{a <= i, b >= j} m_ab: the strings that pass from V_i to V_j.

    Row by row, r_ij = r_{i-1,j} + sum_{b >= j} m_ib, so one suffix sum per
    vertex gives every rank.
    """
    m = dims.m
    above = [0] * m  # above[j] = r_{i-1,j} while row i is filled
    out = []
    for i in range(m - 1):
        tail = 0
        row = []
        for j in range(m - 1, i, -1):
            tail += mult.get((i, j), 0)
            above[j] += tail
            row.append(((i, j), above[j]))
        out.extend(reversed(row))
    return tuple(out)


def enumerate_orbits(dims: QuiverDims) -> List[Tuple[RankTuple, Multiplicities]]:
    """All orbits, sorted by rank tuple, each with its interval multiplicities.

    By Gabriel's theorem the orbits of the linear A_m quiver are the
    multiplicity vectors (m_ij) of the interval modules [i, j].  Each rank
    tuple is read off the multiplicities (``interval_rank_tuple``), and no
    two multiplicity vectors may share one.
    """
    seen: Dict[RankTuple, Multiplicities] = {}
    for mult in _interval_multiplicities(dims):
        rt = interval_rank_tuple(dims, mult)
        if rt in seen:
            raise AssertionError("two interval multiplicity vectors share a rank tuple")
        seen[rt] = mult
    return sorted(seen.items())


def quiver_jm_regular(dims: QuiverDims) -> bool:
    """True when the open orbit's h equals 2*zeta.

    The identity-block maps span the open orbit; their strings are the maximal
    runs [a, b] of {k : d_k > t}, one set for each t < max d.  On a string h =
    2k - a - b at vertex k, and 2 zeta = 2k - 2 sum_j j d_j / n, so the two
    agree iff n (a + b) = 2 sum_j j d_j on every run.
    """
    n, twice = dims.n, 2 * sum(j * d for j, d in enumerate(dims.dims))
    for t in range(max(dims.dims)):
        start = None
        for k, d in enumerate(dims.dims + (0,)):
            if d > t and start is None:
                start = k
            elif d <= t and start is not None:
                if n * (start + k - 1) != twice:
                    return False
                start = None
    return True


@lru_cache(maxsize=None)
def _toledo_weights(dims: QuiverDims) -> Dict[Tuple[int, int], int]:
    """n * tr(zeta h) on one string [a, b], for every interval.

    On the string, zeta = (n k - sum_j j d_j)/n and h = 2k - a - b at vertex k.
    """
    n, shift = dims.n, sum(j * d for j, d in enumerate(dims.dims))
    return {
        (a, b): sum((n * k - shift) * (2 * k - a - b) for k in range(a, b + 1))
        for a in range(dims.m)
        for b in range(a, dims.m)
    }


def interval_toledo_rank(dims: QuiverDims, mult: Multiplicities) -> Q:
    """rank_T of an orbit: tr(zeta h) summed over its strings."""
    weights = _toledo_weights(dims)
    return Q(sum(c * weights[ab] for ab, c in mult.items()), dims.n)


@dataclass(frozen=True)
class QuiverHiggsTopology:
    ranks: Tuple[int, ...]
    degrees: Tuple[int, ...]
    genus: int

    def __post_init__(self):
        if len(self.ranks) != len(self.degrees):
            raise ValueError("ranks and degrees must have equal length")
        if any(r < 1 for r in self.ranks):
            raise ValueError("ranks must be positive")
        if sum(self.ranks) < 2:
            raise ValueError("total rank must be at least 2")
        if sum(self.degrees) != 0:
            raise ValueError("degrees must sum to zero")
        if self.genus < 2:
            raise ValueError("genus must be at least 2")


def toledo_invariant(top: QuiverHiggsTopology) -> Q:
    """tau = 2 sum (j - alpha) deg E_j."""
    dims = QuiverDims(top.ranks)
    alpha = dims.alpha
    return 2 * sum(((Q(j) - alpha) * d for j, d in enumerate(top.degrees)), Q(0))


# -- bridge to the Chevalley-side grading of sl_n -------------------------


def labels_for_dims(dims: QuiverDims) -> Tuple[int, ...]:
    """0/1 simple-root labels of the A_{n-1} grading with these block sizes."""
    boundaries = {dims.block_start(j) for j in range(1, dims.m)}
    return tuple(int(k in boundaries) for k in range(1, dims.n))
