"""Linear-quiver model of the type-A gradings.

A dimension vector (d_0, ..., d_{m-1}) with n = sum d_j splits C^n into
blocks V_j; a degree-1 element of the corresponding sl_n grading is a chain of
maps f_j : V_j -> V_{j+1}.  Orbits are classified by the ranks of the
consecutive compositions and enumerated from the multiplicities of the
interval modules, the sl2-completion h can be read off the Jordan strings,
and the Toledo data reduces to trace arithmetic against
zeta|_{V_j} = (j - alpha) Id with alpha = (sum j d_j)/n.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def canonical_open_element(dims: QuiverDims) -> QuiverElement:
    """Identity-block maps; realizes the maximal rank tuple."""
    maps = []
    for j in range(dims.m - 1):
        rows_, cols_ = dims.dims[j + 1], dims.dims[j]
        maps.append(
            RationalMatrix(
                rows_, cols_, [Q(int(a == b)) for a in range(rows_) for b in range(cols_)]
            )
        )
    return tuple(maps)


def maximal_rank_tuple(dims: QuiverDims) -> RankTuple:
    out = {}
    for i in range(dims.m - 1):
        for j in range(i + 1, dims.m):
            out[(i, j)] = min(dims.dims[i : j + 1])
    return tuple(sorted(out.items()))


def _interval_multiplicities(dims: QuiverDims) -> Iterator[Dict[Tuple[int, int], int]]:
    """Every m_ij >= 0 with sum_{i <= k <= j} m_ij = d_k for each vertex k.

    Intervals starting at i are chosen longest first; the length-one interval
    [i, i] then takes whatever is left at vertex i, so every branch succeeds.
    """
    m = dims.m
    left = list(dims.dims)
    chosen: Dict[Tuple[int, int], int] = {}

    def extend(i: int, j: int) -> Iterator[Dict[Tuple[int, int], int]]:
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


def _string_representative(dims: QuiverDims, mult: Dict[Tuple[int, int], int]) -> QuiverElement:
    """Direct sum of strings: m_ij chains of 1-entries from V_i to V_j."""
    entries = [[Q(0)] * (dims.dims[k + 1] * dims.dims[k]) for k in range(dims.m - 1)]
    used = [0] * dims.m
    for (i, j), c in sorted(mult.items()):
        for _ in range(c):
            for k in range(i, j):
                entries[k][used[k + 1] * dims.dims[k] + used[k]] = Q(1)
                used[k] += 1
            used[j] += 1
    return tuple(
        RationalMatrix(dims.dims[k + 1], dims.dims[k], entries[k]) for k in range(dims.m - 1)
    )


def enumerate_orbits(dims: QuiverDims) -> List[Tuple[RankTuple, QuiverElement]]:
    """All orbits, sorted by rank tuple, each with a string representative.

    By Gabriel's theorem the orbits of the linear A_m quiver are the
    multiplicity vectors (m_ij) of the interval modules [i, j].  Each
    representative is the direct sum of its strings, so its maps are partial
    permutations; its rank tuple is computed from the maps, and no two
    multiplicity vectors may share one.
    """
    seen: Dict[RankTuple, QuiverElement] = {}
    for mult in _interval_multiplicities(dims):
        rep = _string_representative(dims, mult)
        rt = rank_tuple(dims, rep)
        if rt in seen:
            raise AssertionError("two interval multiplicity vectors share a rank tuple")
        seen[rt] = rep
    return sorted(seen.items())


def _total_matrix(dims: QuiverDims, elem: Sequence[RationalMatrix]) -> List[List[Q]]:
    n = dims.n
    total = [[Q(0)] * n for _ in range(n)]
    for j, f in enumerate(elem):
        r0 = dims.block_start(j + 1)
        c0 = dims.block_start(j)
        for a in range(f.rows):
            for b in range(f.cols):
                total[r0 + a][c0 + b] = f[a, b]
    return total


def jordan_strings(dims: QuiverDims, elem: Sequence[RationalMatrix]) -> List[List[int]]:
    """Jordan strings of a basis-adapted element, as index chains.

    Requires every map entry in {0,1} with at most one 1 per row and column
    of the total matrix (the canonical representatives have this form).
    """
    _check_shapes(dims, elem)
    total = _total_matrix(dims, elem)
    n = dims.n
    succ = [None] * n
    hit_rows = set()
    for b in range(n):
        targets = [a for a in range(n) if total[a][b] != 0]
        if len(targets) > 1 or any(total[a][b] != 1 for a in targets):
            raise ValueError("element is not basis-adapted")
        if targets:
            a = targets[0]
            if a in hit_rows:
                raise ValueError("element is not basis-adapted")
            hit_rows.add(a)
            succ[b] = a
    starts = [b for b in range(n) if b not in hit_rows]
    strings = []
    for b in starts:
        chain = [b]
        while succ[chain[-1]] is not None:
            chain.append(succ[chain[-1]])
        strings.append(chain)
    return strings


def jordan_h(dims: QuiverDims, elem: Sequence[RationalMatrix]) -> RationalMatrix:
    """Diagonal h with [h, e] = 2e: on a length-s string, h(u_t) = -(s-1-2t) u_t."""
    n = dims.n
    diag = [Q(0)] * n
    for chain in jordan_strings(dims, elem):
        s = len(chain)
        for t, idx in enumerate(chain):
            diag[idx] = Q(-(s - 1 - 2 * t))
    return RationalMatrix(n, n, [diag[i] if i == j else Q(0) for i in range(n) for j in range(n)])


def zeta_matrix(dims: QuiverDims) -> RationalMatrix:
    n = dims.n
    diag = []
    for j, d in enumerate(dims.dims):
        diag.extend([Q(j) - dims.alpha] * d)
    return RationalMatrix(n, n, [diag[i] if i == j else Q(0) for i in range(n) for j in range(n)])


def quiver_jm_regular(dims: QuiverDims) -> bool:
    """True when the canonical element's h equals 2*zeta."""
    h = jordan_h(dims, canonical_open_element(dims))
    z = zeta_matrix(dims)
    return all(h[i, i] == 2 * z[i, i] for i in range(dims.n))


def orbit_toledo_rank(dims: QuiverDims, rt: RankTuple) -> Q:
    """rank_T of an orbit from its rank tuple alone.

    The string multiplicities are m_ij = r_ij - r_{i-1,j} - r_{i,j+1} +
    r_{i-1,j+1} (with r_ii = d_i and out-of-range ranks 0); the rank is
    tr(zeta h) summed over strings.
    """
    r = dict(rt)
    alpha = dims.alpha

    def rr(i: int, j: int) -> int:
        if i < 0 or j >= dims.m:
            return 0
        if i == j:
            return dims.dims[i]
        return r[(i, j)]

    total = Q(0)
    for i in range(dims.m):
        for j in range(i, dims.m):
            mult = rr(i, j) - rr(i - 1, j) - rr(i, j + 1) + rr(i - 1, j + 1)
            if mult:
                total += mult * sum(
                    ((Q(k) - alpha) * (2 * k - i - j) for k in range(i, j + 1)), Q(0)
                )
    return total


def pointwise_maximality(dims: QuiverDims, elem: Sequence[RationalMatrix]) -> bool:
    """Open-orbit membership test; only meaningful in the JM-regular case."""
    if not quiver_jm_regular(dims):
        raise ValueError("dimension vector is not JM-regular")
    return rank_tuple(dims, elem) == maximal_rank_tuple(dims)


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
