"""Gradings of a Chevalley algebra.

A Z-grading is encoded by non-negative degree labels on the simple roots: the
root space for alpha = sum a_k alpha_k sits in degree sum a_k p_k and the
Cartan in degree 0.  Its grading element zeta lies in the Cartan, with
alpha_k(zeta) = p_k.  A Z/mZ-grading comes from labels p_0..p_r on the affine
diagram (node 0 carries the lowest root), with m = sum n_k p_k over the marks
n_k of the highest root and n_0 = 1.

Both read only the root system, so neither needs a bracket table:
``root_grading`` gives a Z-grading's pieces and zeta and certifies
alpha(zeta) = deg alpha on every root, and ``zm_from_kac`` gives a Z/mZ-grading's
pieces; the pieces, and the certificate, each take one walk over the positive
roots.  ``z_grading_from_labels`` puts the root-level grading on an algebra and
reads nothing of its table: the algebra's build certifies the Cartan action
(``ChevalleyAlgebra._verify_cartan_action``), so ad zeta acts on g_alpha by
alpha(zeta), and this module's certificate fixes alpha(zeta).

The lift question — does the order-m automorphism defined by the labels come
from a Z-grading — is decided by the node-0 label, up to a symmetry of the
affine diagram.  Diagram symmetries are found by exhaustive backtracking over
permutations preserving the affine Cartan matrix, so no per-family table is
needed.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .chevalley import ChevalleyAlgebra, Element
from .linalg import RationalMatrix, solve
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
    """A Z-grading as root data: degree -> basis indices, and its grading element."""

    __slots__ = ("pieces", "zeta")

    def __init__(self, pieces: Dict[int, Tuple[int, ...]], zeta: Element):
        self.pieces = pieces  # degree -> basis indices
        self.zeta = zeta

    @property
    def depth(self) -> int:
        return max(abs(j) for j in self.pieces) + 1

    def piece(self, j: int) -> Tuple[int, ...]:
        return self.pieces.get(j, ())

    def dims(self) -> Dict[int, int]:
        return {j: len(idx) for j, idx in sorted(self.pieces.items())}


class ZGrading(RootGrading):
    """A Z-grading on a Chevalley algebra."""

    __slots__ = ("algebra",)

    def __init__(self, pieces: Dict[int, Tuple[int, ...]], zeta: Element, algebra: ChevalleyAlgebra):
        super().__init__(pieces, zeta)
        self.algebra = algebra


class KacLabels:
    """Affine-diagram labels with the marks of their nodes, checked by the label rule."""

    __slots__ = ("labels", "marks", "order", "reduced_order")

    def __init__(self, labels: Tuple[int, ...], marks: Tuple[int, ...]):
        check_labels(labels, len(marks) - 1, affine=True)
        self.labels = labels  # p_0 .. p_r
        self.marks = marks  # n_0 = 1, n_1 .. n_r
        self.order = sum(map(mul, marks, labels))  # m = sum n_k p_k
        self.reduced_order = self.order // gcd(self.order, *labels)  # labels not all zero: gcd > 0

    @property
    def order_warning(self) -> Optional[str]:
        if self.reduced_order != self.order:
            return (
                f"automorphism order is {self.reduced_order}, "
                f"a proper divisor of the declared m = {self.order}"
            )
        return None


class ZmGrading:
    """A Z/mZ-grading: residue -> basis indices."""

    __slots__ = ("m", "pieces")

    def __init__(self, m: int, pieces: Dict[int, Tuple[int, ...]]):
        self.m, self.pieces = m, pieces

    dims = RootGrading.dims  # degree -> piece dimension, the same rule


def _root_values(rs: RootSystem, p: Sequence[int]) -> List[int]:
    """sum a_k p_k at each root position, from one walk over the positive roots (negatives first, mirrored)."""
    positive = [sum(map(mul, alpha, p)) for alpha in rs.roots[len(rs.roots) // 2 :]]
    return [-v for v in reversed(positive)] + positive


def _pieces(rs: RootSystem, p: Sequence[int], m: int = 0) -> Dict[int, Tuple[int, ...]]:
    """Degree (mod m when m > 0) -> basis indices: the Cartan in degree 0, then
    the root at position i as basis index rank + i in degree sum a_k p_k."""
    pieces: Dict[int, List[int]] = {0: list(range(rs.rank))}
    for idx, deg in enumerate(_root_values(rs, p), rs.rank):
        pieces.setdefault(deg % m if m else deg, []).append(idx)
    return {j: tuple(idx) for j, idx in pieces.items()}


def root_grading(rs: RootSystem, p: Sequence[int]) -> RootGrading:
    """Z-grading from non-negative simple-root degree labels, from the root system alone."""
    check_labels(p, rs.rank)
    # zeta in the Cartan: alpha_k(zeta) = p_k, pairing matrix is the Cartan matrix
    coeffs = solve(RationalMatrix(rs.cartan), p)
    if coeffs is None:
        raise AssertionError("the Cartan matrix is singular")
    num, den = coeffs
    zeta = Element(dict(enumerate(num)), den)
    g = RootGrading(pieces=_pieces(rs, p), zeta=zeta)
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
    # alpha_k(D zeta) = sum_i n_i <alpha_k, alpha_i^vee> for each simple root alpha_k
    simple = [sum(n * rs.cartan[k][i] for i, n in num.items()) for k in range(r)]
    values = [0] * r + _root_values(rs, simple)  # alpha(D zeta) at each basis index
    for j, idx in g.pieces.items():
        for i in idx:
            if values[i] != j * den:
                raise AssertionError(f"grading element eigenvalue check failed at degree {j}")


def z_grading_from_labels(alg: ChevalleyAlgebra, p: Sequence[int]) -> ZGrading:
    """Z-grading from non-negative simple-root degree labels: the root-level grading, put
    on the algebra, whose build certified the Cartan action, so ad zeta needs no check."""
    g = root_grading(alg.rs, p)
    return ZGrading(pieces=g.pieces, zeta=g.zeta, algebra=alg)


def kac_labels(rs: RootSystem, labels: Sequence[int]) -> KacLabels:
    return KacLabels(tuple(labels), rs.affine_marks)


def zm_from_kac(rs: RootSystem, kac: KacLabels) -> ZmGrading:
    """Z/mZ-grading of the automorphism defined by affine-diagram labels.

    Basis indices are those of the Chevalley basis: rank + the root's position.
    """
    return ZmGrading(m=kac.order, pieces=_pieces(rs, kac.labels[1:], kac.order))


@lru_cache(maxsize=None)  # keyed by the root system, which build_root_system caches
def _affine_automorphisms(rs: RootSystem) -> Tuple[Tuple[int, ...], ...]:
    """All permutations of the affine nodes preserving the affine Cartan matrix."""
    affine = affine_cartan_matrix(rs)
    n = len(affine)
    results: List[Tuple[int, ...]] = []
    perm: List[int] = []
    used = [False] * n

    def compatible(candidate: int) -> bool:
        k = len(perm)
        if affine[candidate][candidate] != affine[k][k]:
            return False
        for i, pi in enumerate(perm):
            if affine[pi][candidate] != affine[i][k]:
                return False
            if affine[candidate][pi] != affine[k][i]:
                return False
        return True

    def backtrack():
        if len(perm) == n:
            results.append(tuple(perm))
            return
        for c in range(n):
            if not used[c] and compatible(c):
                used[c] = True
                perm.append(c)
                backtrack()
                perm.pop()
                used[c] = False

    backtrack()
    return tuple(results)


class LiftVerdict:
    """Whether a Z/mZ-grading lifts, how, and the relabeled witness of a lift after automorphism."""

    __slots__ = ("lifts", "mode", "witness")

    def __init__(self, lifts: bool, mode: str, witness: Optional[Tuple[int, ...]] = None):
        self.lifts = lifts
        self.mode = mode  # "directly", "after automorphism", "none"
        self.witness = witness  # relabeled vector with node 0 positive


def kac_lift_check(rs: RootSystem, kac: KacLabels) -> LiftVerdict:
    """Decide whether the Z/mZ-grading lifts to a Z-grading.

    It lifts directly iff the node-0 label is positive; otherwise a symmetry of
    the affine diagram moving a positive label onto node 0 certifies a lift.
    The moved node necessarily has mark 1, since diagram symmetries preserve
    marks and node 0 has mark 1.
    """
    if kac.labels[0] > 0:
        return LiftVerdict(True, "directly")
    for sigma in _affine_automorphisms(rs):
        # sigma[i] = image node; relabeled q_{sigma[i]} = p_i
        source = sigma.index(0)
        if kac.labels[source] > 0 and kac.marks[source] == 1:
            q = [0] * len(kac.labels)
            for i, target in enumerate(sigma):
                q[target] = kac.labels[i]
            return LiftVerdict(True, "after automorphism", tuple(q))
    return LiftVerdict(False, "none")
