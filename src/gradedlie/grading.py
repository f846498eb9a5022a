"""Gradings read off the root system.

A Z-grading is encoded by non-negative degree labels on the simple roots: the
root space for alpha = sum a_k alpha_k sits in degree sum a_k p_k and the
Cartan in degree 0.  Its grading element zeta lies in the Cartan, with
alpha_k(zeta) = p_k.  A Z/mZ-grading comes from labels p_0..p_r on the affine
diagram (node 0 carries the lowest root), with m = sum n_k p_k over the marks
n_k of the highest root and n_0 = 1.

Both read only the root system, so neither needs a bracket table:
``root_grading`` gives a Z-grading's pieces, zeta and root system, and certifies
alpha(zeta) = deg alpha on every root, and ``ZmGrading`` is a Z/mZ-grading's one
record: its labels, m, pieces and order warning; the pieces, and the certificate, read
the basis's degrees off ``RootSystem.basis_values``.  The pieces hold Chevalley basis
indices, so an algebra of the root system reads the grading as it is: its build
certifies the Cartan action, so ad zeta acts on g_alpha by alpha(zeta).

The lift question — does the order-m automorphism defined by the labels come
from a Z-grading — is decided by the node-0 label, up to a symmetry of the
affine diagram.  Diagram symmetries are generated by backtracking over
permutations preserving the affine Cartan matrix, so no per-family table is
needed; the search stops at the first one that moves a positive label onto node 0.
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from .chevalley import ChevalleyAlgebra, Element
from .rootsystem import RootSystem, affine_cartan_matrix


def check_labels(labels: Sequence[int], rank: int, affine: bool = False) -> None:
    """The label rule: one label per simple root (per affine node when ``affine``),
    non-negative and not all zero.  It reads no algebra, so user labels are
    checked before any build.
    """
    if len(labels) != rank + affine:
        count = "label count must match node count" if affine else "one label per simple root required"
        raise ValueError(count)
    if any(x < 0 for x in labels):
        raise ValueError("labels must be non-negative")
    if not any(labels):
        raise ValueError("labels must not all be zero")


class RootGrading:
    """A Z-grading as root data: degree -> basis indices, its grading element and its root system."""

    __slots__ = ("pieces", "zeta", "rs")

    def __init__(self, pieces: Dict[int, Tuple[int, ...]], zeta: Element, rs: RootSystem):
        self.pieces = pieces  # degree -> basis indices
        self.zeta, self.rs = zeta, rs

    @property
    def depth(self) -> int:
        return max(abs(j) for j in self.pieces) + 1

    def piece(self, j: int) -> Tuple[int, ...]:
        return self.pieces.get(j, ())

    def dims(self) -> Dict[int, int]:
        return {j: len(idx) for j, idx in sorted(self.pieces.items())}


def _pieces(rs: RootSystem, p: Sequence[int], m: int = 0) -> Dict[int, Tuple[int, ...]]:
    """Degree (mod m when m > 0) -> basis indices, by ``RootSystem.basis_values``: the Cartan in degree 0."""
    pieces: Dict[int, List[int]] = {}
    for idx, deg in enumerate(rs.basis_values(p)):
        pieces.setdefault(deg % m if m else deg, []).append(idx)
    return {j: tuple(idx) for j, idx in pieces.items()}


def root_grading(rs: RootSystem, p: Sequence[int]) -> RootGrading:
    """Z-grading from non-negative simple-root degree labels, from the root system alone."""
    check_labels(p, rs.rank)
    num, den = rs.grading_element(p)  # zeta in the Cartan: alpha_k(zeta) = p_k
    zeta = Element(dict(enumerate(num)), den)
    g = RootGrading(pieces=_pieces(rs, p), zeta=zeta, rs=rs)
    _verify_root_grading(rs, g)
    return g


def _verify_root_grading(rs: RootSystem, g: RootGrading):
    """alpha(zeta) = j for every root alpha of every piece g_j, and the pieces hold
    each basis index once with the Cartan in degree 0.

    Checked in Python ints as alpha(D zeta) = j D, D the denominator of zeta.  It
    raises AssertionError itself, so it also runs under ``python -O``.
    """
    r = rs.rank
    num, den = g.zeta.num, g.zeta.den
    if any(i >= r for i in num):
        raise AssertionError("the grading element is not in the Cartan")
    placed = [i for idx in g.pieces.values() for i in idx]
    if len(placed) != rs.dim_algebra or not set(placed).issuperset(range(rs.dim_algebra)):
        raise AssertionError("the pieces do not hold each basis index once")
    values = rs.basis_values(rs.simple_values([num.get(i, 0) for i in range(r)]))  # alpha(D zeta) on the basis
    for j, idx in g.pieces.items():
        for i in idx:
            if values[i] != j * den:
                raise AssertionError(f"grading element eigenvalue check failed at degree {j}")


def z_grading_from_labels(alg: ChevalleyAlgebra, p: Sequence[int]) -> RootGrading:
    """``root_grading`` on the algebra's root system (the name ``bench/tracer.py`` binds)."""
    return root_grading(alg.rs, p)


class ZmGrading:
    """A Z/mZ-grading from affine-diagram labels p_0..p_r, checked by the label rule:
    m = sum n_k p_k, residue -> basis indices (those of the Chevalley basis), and the
    warning when the automorphism's order is a proper divisor of m."""

    __slots__ = ("labels", "m", "pieces", "order_warning")

    def __init__(self, rs: RootSystem, labels: Sequence[int]):
        check_labels(labels, rs.rank, affine=True)
        self.labels = tuple(labels)
        self.m = m = sum(map(mul, rs.affine_marks, labels))
        self.pieces = _pieces(rs, labels[1:], m)
        reduced = m // gcd(m, *labels)  # labels not all zero: gcd > 0
        self.order_warning = (
            None if reduced == m else f"automorphism order is {reduced}, a proper divisor of the declared m = {m}"
        )

    dims = RootGrading.dims  # degree -> piece dimension, the same rule


def _affine_automorphisms(rs: RootSystem) -> Iterator[Tuple[int, ...]]:
    """The permutations of the affine nodes preserving the affine Cartan matrix, generated
    one at a time in lexicographic order by backtracking.  A symmetry maps each node's row
    onto a row with the same entries, so node k tries only the nodes whose sorted row is its own."""
    affine = affine_cartan_matrix(rs)
    n = len(affine)
    rows = [sorted(row) for row in affine]
    candidates = [[c for c in range(n) if rows[c] == row] for row in rows]
    perm: List[int] = []
    used = [False] * n

    def compatible(candidate: int) -> bool:  # every diagonal entry is 2, so only placed pairs are compared
        k = len(perm)
        for i, pi in enumerate(perm):
            if affine[pi][candidate] != affine[i][k]:
                return False
            if affine[candidate][pi] != affine[k][i]:
                return False
        return True

    def backtrack() -> Iterator[Tuple[int, ...]]:
        if len(perm) == n:
            yield tuple(perm)
            return
        for c in candidates[len(perm)]:
            if not used[c] and compatible(c):
                used[c] = True
                perm.append(c)
                yield from backtrack()
                perm.pop()
                used[c] = False

    return backtrack()


class LiftVerdict:
    """How a Z/mZ-grading lifts ("directly", "after automorphism" or "none"), and the
    relabeled witness of a lift after automorphism."""

    __slots__ = ("mode", "witness")

    def __init__(self, mode: str, witness: Optional[Tuple[int, ...]] = None):
        self.mode = mode
        self.witness = witness  # relabeled vector with node 0 positive


def kac_lift_check(rs: RootSystem, zm: ZmGrading) -> LiftVerdict:
    """Decide whether the Z/mZ-grading lifts to a Z-grading.

    It lifts directly iff the node-0 label is positive; otherwise a symmetry of
    the affine diagram moving a positive label onto node 0 certifies a lift.
    The moved node necessarily has mark 1, since diagram symmetries preserve
    marks and node 0 has mark 1.
    """
    labels = zm.labels
    if labels[0] > 0:
        return LiftVerdict("directly")
    for sigma in _affine_automorphisms(rs):
        # sigma[i] = image node; relabeled q_{sigma[i]} = p_i
        source = sigma.index(0)
        if labels[source] > 0:
            q = [0] * len(labels)
            for i, target in enumerate(sigma):
                q[target] = labels[i]
            return LiftVerdict("after automorphism", tuple(q))
    return LiftVerdict("none")
