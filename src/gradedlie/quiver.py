"""Linear-quiver model of the type-A gradings.

A dimension vector (d_0, ..., d_{m-1}) with n = sum d_j splits C^n into
blocks V_j; a degree-1 element of the corresponding sl_n grading is a chain of
maps f_j : V_j -> V_{j+1}.  Orbits are classified by the ranks of the
consecutive compositions and enumerated from the multiplicities of the
interval modules, and the sl2-completion h is read off the Jordan strings.
Rank tuples and Toledo ranks of orbits are closed forms in the strings' intervals,
and JM-regularity is a palindrome test on d, so no orbit representative is built.
``QuiverDims`` is the one check of a vector.  A rank tuple is a flat tuple of ints,
r_ij in (i, j) order (``rank_pairs``).

An orbit's Toledo rank is tr(zeta h) summed over its strings, with
zeta|_{V_j} = (j - alpha) Id and alpha = (sum j d_j)/n.  On a string [a, b],
h = 2k - a - b at vertex k sums to zero, so the shift alpha drops out and the
string contributes sum_k k (2k - a - b) = C(L + 1, 3) for its L = b - a + 1
vertices: an int, whatever the vector (``toledo_rank``).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import mul
from typing import Dict, Iterator, List, Sequence, Tuple

from .linalg import RationalMatrix, rank


class QuiverDims:
    """A dimension vector: positive entries with total at least 2."""

    __slots__ = ("dims",)

    def __init__(self, dims: Tuple[int, ...]):
        if len(dims) < 1 or any(d < 1 for d in dims):
            raise ValueError("dimensions must be positive")
        self.dims = dims
        if self.n < 2:
            raise ValueError("total dimension must be at least 2")

    def __repr__(self):
        return f"QuiverDims(dims={self.dims!r})"

    @property
    def m(self) -> int:
        return len(self.dims)

    @property
    def n(self) -> int:
        return sum(self.dims)

    @property
    def moment(self) -> int:  # sum_j j d_j, so alpha = moment / n
        return sum(j * d for j, d in enumerate(self.dims))

    def block_start(self, j: int) -> int:
        return sum(self.dims[:j])


QuiverElement = Tuple[RationalMatrix, ...]  # maps f_j : V_j -> V_{j+1}

RankTuple = Tuple[int, ...]  # r_ij for the (i, j) of ``rank_pairs``, in their order

Multiplicities = Dict[Tuple[int, int], int]  # (a, b) -> copies of the interval module [a, b]


def _check_shapes(dims: QuiverDims, elem: Sequence[RationalMatrix]):
    if len(elem) != dims.m - 1:
        raise ValueError("expected one map per quiver arrow")
    for j, f in enumerate(elem):
        if f.rows != dims.dims[j + 1] or f.cols != dims.dims[j]:
            raise ValueError(f"map {j} has shape {f.rows}x{f.cols}")


def rank_pairs(dims: QuiverDims) -> List[Tuple[int, int]]:
    """Every (i, j) with 0 <= i < j <= m-1, in order: the index of each entry of a rank tuple."""
    return [(i, j) for i in range(dims.m - 1) for j in range(i + 1, dims.m)]


def rank_tuple(dims: QuiverDims, elem: Sequence[RationalMatrix]) -> RankTuple:
    """r_ij = rank of f_{j-1} ... f_i for all 0 <= i < j <= m-1, in (i, j) order."""
    _check_shapes(dims, elem)
    chains = (accumulate(elem[i + 1 :], lambda comp, f: f.matmul(comp), initial=elem[i]) for i in range(dims.m - 1))
    return tuple(rank(comp) for chain in chains for comp in chain)


def maximal_rank_tuple(dims: QuiverDims) -> RankTuple:
    return tuple(min(dims.dims[i : j + 1]) for i, j in rank_pairs(dims))


def _interval_multiplicities(dims: QuiverDims) -> List[Multiplicities]:
    """Every m_ij >= 0 with sum_{i <= k <= j} m_ij = d_k for each vertex k.

    Intervals starting at i are chosen longest first; the length-one interval
    [i, i] then takes whatever is left at vertex i, so every branch succeeds.
    """
    m = dims.m
    left = list(dims.dims)
    chosen: Multiplicities = {}
    found: List[Multiplicities] = []

    def extend(i: int, j: int) -> None:
        if i == m:
            found.append(dict(chosen))
        elif j == i:
            chosen[(i, i)] = left[i]
            extend(i + 1, m - 1)
        else:
            for c in range(min(left[i : j + 1]) + 1):
                chosen[(i, j)] = c
                for k in range(i, j + 1):
                    left[k] -= c
                extend(i, j - 1)
                for k in range(i, j + 1):
                    left[k] += c

    extend(0, m - 1)
    return found


# The most orbits one quiver report lists; ``cli.cmd_quiver`` refuses a vector past it.
ORBIT_BOUND = 50_000


def orbit_count(dims: QuiverDims) -> int:
    """The number of orbits, len(enumerate_orbits(dims)), by dynamic programming over
    the vertices; no orbit is built.  The count is exact up to ``ORBIT_BOUND``; past
    it, counting stops and returns the part counted so far, a lower bound above
    ``ORBIT_BOUND``, so no vector costs more than ``ORBIT_BOUND`` choices at each of at
    most 16 vertices (below).

    After vertex k the state is the multiset of the c_a > 0, the numbers of strings
    that start at a <= k and go on to vertex k+1, with the number of choices of the
    m_ab (b <= k) that lead to it.  At vertex k+1, d_{k+1} - sum c strings start, and
    each start keeps 0..c_a of its strings going, at most d_{k+2} in all and none past
    the last vertex.  Keeping none is always allowed, so every choice extends to at
    least one orbit, and each adds at least 1 to the part counted at its vertex: that
    part bounds the count from below.  Later vertices cannot tell two starts apart, so
    the multiset is the whole state.

    Keeping no string or one at each vertex gives 2^(k+1) choices through vertex k when
    a vertex follows, so counting passes ``ORBIT_BOUND`` < 2^16 by vertex 15 of any
    vector with 17 or more vertices.  The count also grows with d: d + e_k adds a
    string [k, k] to every orbit of d, so count(d + e_k) >= count(d), and m vertices
    carry at least the 2^(m-1) orbits of m ones.  A vector within ``ORBIT_BOUND`` thus
    has at most 16 vertices, and ``_interval_multiplicities`` recurses at most
    16 * 17 / 2 + 1 = 137 calls deep, far inside the interpreter's default recursion
    limit of 1000.
    """
    sizes = dims.dims + (0,)
    states: Dict[Tuple[int, ...], int] = {(): 1}
    for k in range(dims.m):
        after: Dict[Tuple[int, ...], int] = {}
        counted = 0
        for going, count in states.items():
            for kept in _kept(going + (sizes[k] - sum(going),), sizes[k + 1]):
                after[kept] = after.get(kept, 0) + count
                counted += count
                if counted > ORBIT_BOUND:
                    return counted
        states = after
    return states[()]


def _kept(counts: Tuple[int, ...], cap: int, kept: Tuple[int, ...] = ()) -> Iterator[Tuple[int, ...]]:
    """Every choice of 0 <= x_i <= counts[i] with sum x_i <= cap, as the sorted positive x_i."""
    if not counts:
        yield tuple(sorted(kept))
        return
    for x in range(min(counts[0], cap) + 1):
        yield from _kept(counts[1:], cap - x, kept + (x,) if x else kept)


def interval_rank_tuple(dims: QuiverDims, mult: Multiplicities) -> RankTuple:
    """r_ij = sum_{a <= i, b >= j} m_ab: the strings that pass from V_i to V_j.

    Row by row, r_ij = r_{i-1,j} + sum_{b >= j} m_ib, so one suffix sum per
    vertex gives every rank.
    """
    m = dims.m
    above = [0] * m  # above[j] = r_{i-1,j} while row i is filled, r_ij after
    out = []
    for i in range(m - 1):
        tail = 0
        for j in range(m - 1, i, -1):
            tail += mult.get((i, j), 0)
            above[j] += tail
        out += above[i + 1 :]
    return tuple(out)


def enumerate_orbits(dims: QuiverDims) -> List[Tuple[RankTuple, Multiplicities]]:
    """All orbits, sorted by rank tuple, each with its interval multiplicities.

    By Gabriel's theorem the orbits of the linear A_m quiver are the
    multiplicity vectors (m_ij) of the interval modules [i, j].  Each rank
    tuple is read off the multiplicities (``interval_rank_tuple``), and no
    two multiplicity vectors may share one.
    """
    mults = _interval_multiplicities(dims)
    orbits = {interval_rank_tuple(dims, mult): mult for mult in mults}
    if len(orbits) != len(mults):
        raise AssertionError("two interval multiplicity vectors share a rank tuple")
    return sorted(orbits.items())


def quiver_jm_regular(dims: QuiverDims) -> bool:
    """True when the open orbit's h equals 2*zeta: d is a palindrome, non-decreasing up to its middle.

    The identity-block maps span the open orbit; their strings are the maximal runs [a, b] of
    {k : d_k > t}, t < max d.  On a string h = 2k - a - b at vertex k and 2 zeta = 2k - 2 alpha, so
    h = 2 zeta exactly when every run is centred at alpha.  The run at t = 0 is every vertex, so
    alpha = (m - 1)/2; two runs cannot share a centre, so each level set is one interval centred at
    the middle.  Conversely such a d has alpha = (m - 1)/2, the centre of every run.
    """
    d = dims.dims
    half = d[: (len(d) + 1) // 2]
    return d == d[::-1] and half == tuple(sorted(half))


@lru_cache(maxsize=None)
def _string_weight(ab: Tuple[int, int]) -> int:
    """tr(zeta h) on one string [a, b]: C(b - a + 2, 3), whatever the vector."""
    a, b = ab
    return comb(b - a + 2, 3)


def toledo_rank(mult: Multiplicities) -> int:
    """rank_T of an orbit: sum m_ab C(b - a + 2, 3) over its strings [a, b]."""
    return sum(map(mul, map(_string_weight, mult), mult.values()))


def toledo_invariant(dims: QuiverDims, degrees: Tuple[int, ...], genus: int) -> int:
    """tau = 2 sum (j - alpha) deg E_j = 2 sum j deg E_j for ranks ``dims``: the alpha
    term is 2 alpha sum deg E_j, and the degrees sum to zero (checked here), so tau
    does not depend on the ranks."""
    if len(degrees) != dims.m:
        raise ValueError("one degree per dimension required")
    if sum(degrees) != 0:
        raise ValueError("degrees must sum to zero")
    if genus < 2:
        raise ValueError("genus must be at least 2")
    return 2 * sum(j * d for j, d in enumerate(degrees))


# -- bridge to the Chevalley-side grading of sl_n -------------------------


def labels_for_dims(dims: QuiverDims) -> Tuple[int, ...]:
    """0/1 simple-root labels of the A_{n-1} grading with these block sizes."""
    boundaries = {dims.block_start(j) for j in range(1, dims.m)}
    return tuple(int(k in boundaries) for k in range(1, dims.n))
