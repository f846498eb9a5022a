"""Test-only helpers and oracles that no command of the package calls."""

from fractions import Fraction as Q
from typing import Dict, Sequence, Tuple

from gradedlie.linalg import RationalMatrix
from gradedlie.quiver import (
    QuiverDims,
    RankTuple,
    interval_toledo_rank,
    maximal_rank_tuple,
    quiver_jm_regular,
    rank_tuple,
)
from gradedlie.rootsystem import Root, RootSystem


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


def orbit_toledo_rank(dims: QuiverDims, rt: RankTuple) -> Q:
    """rank_T of an orbit from its rank tuple alone.

    The string multiplicities are m_ij = r_ij - r_{i-1,j} - r_{i,j+1} +
    r_{i-1,j+1} (with r_ii = d_i and out-of-range ranks 0).
    """
    r = dict(rt)

    def rr(i: int, j: int) -> int:
        if i < 0 or j >= dims.m:
            return 0
        if i == j:
            return dims.dims[i]
        return r[(i, j)]

    mult = {
        (i, j): rr(i, j) - rr(i - 1, j) - rr(i, j + 1) + rr(i - 1, j + 1)
        for i in range(dims.m)
        for j in range(i, dims.m)
    }
    return interval_toledo_rank(dims, mult)


# -- Fraction oracle for the Chevalley structure constants -------------------


def _add(a: Root, b: Root) -> Root:
    return tuple(x + y for x, y in zip(a, b))


def _sub(a: Root, b: Root) -> Root:
    return tuple(x - y for x, y in zip(a, b))


def _neg(a: Root) -> Root:
    return tuple(-x for x in a)


def _is_positive(a: Root) -> bool:
    return sum(a) > 0


class FractionConstants:
    """N_{alpha,beta} in Fraction arithmetic with Fraction root norms.

    The pairs of each positive root gamma are found by a scan over every
    positive root a with gamma - a a later positive root; the extraspecial
    pair is the one with the smallest first member, with constant +(p+1).
    The other constants follow from the Jacobi identity on (e_{-a1}, e_a, e_b).
    """

    def __init__(self, rs: RootSystem):
        self.rs = rs
        self._root_set = set(rs.roots)
        self._pos_order = {a: i for i, a in enumerate(rs.positive_roots)}
        self._table: Dict[Tuple[Root, Root], Q] = {}
        for gamma in rs.positive_roots:
            if sum(gamma) < 2:
                continue
            pairs = [
                (a, _sub(gamma, a))
                for a in rs.positive_roots
                if self._pos_order[a] < self._pos_order.get(_sub(gamma, a), -1)
            ]
            pairs.sort(key=lambda ab: self._pos_order[ab[0]])
            a1, b1 = pairs[0]
            self._table[(a1, b1)] = Q(self._string_down(a1, b1) + 1)
            n_neg = rs.norm(b1) / rs.norm(gamma) * self._table[(a1, b1)]
            for a, b in pairs[1:]:
                t1 = self.value(b, _neg(a1)) * self.value(a, _sub(b, a1))
                t2 = self.value(_neg(a1), a) * self.value(b, _sub(a, a1))
                self._table[(a, b)] = -(t1 + t2) / n_neg

    def _string_down(self, alpha: Root, beta: Root) -> int:
        p, cur = 0, _sub(beta, alpha)
        while cur in self._root_set:
            p, cur = p + 1, _sub(cur, alpha)
        return p

    def value(self, a: Root, b: Root) -> Q:
        s = _add(a, b)
        if a not in self._root_set or b not in self._root_set or s not in self._root_set:
            return Q(0)
        if _is_positive(a) and _is_positive(b):
            if (a, b) in self._table:
                return self._table[(a, b)]
            return -self._table[(b, a)]
        if not _is_positive(a) and not _is_positive(b):
            return -self.value(_neg(a), _neg(b))
        if not _is_positive(a):
            return -self.value(b, a)
        if _is_positive(s):
            return self.rs.norm(s) / self.rs.norm(a) * (-self.value(_neg(b), s))
        return self.value(_neg(b), _neg(a))


def fraction_coroot(rs: RootSystem, alpha: Root) -> Tuple[Q, ...]:
    """alpha^vee = sum_i a_i |alpha_i|^2 / |alpha|^2 alpha_i^vee, in Fractions."""
    return tuple(Q(a) * rs.form_star[i][i] / rs.norm(alpha) for i, a in enumerate(alpha))
