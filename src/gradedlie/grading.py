"""Gradings of a Chevalley algebra.

A Z-grading is encoded by non-negative degree labels on the simple roots: the
root space for alpha = sum a_k alpha_k sits in degree sum a_k p_k and the
Cartan in degree 0.  A Z/mZ-grading comes from labels p_0..p_r on the affine
diagram (node 0 carries the lowest root), with m = sum n_k p_k over the marks
n_k of the highest root and n_0 = 1.

The lift question — does the order-m automorphism defined by the labels come
from a Z-grading — is decided by the node-0 label, up to a symmetry of the
affine diagram.  Diagram symmetries are found by exhaustive backtracking over
permutations preserving the affine Cartan matrix, so no per-family table is
needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from .chevalley import ChevalleyAlgebra
from .linalg import RationalMatrix, Vector, solve, vec
from .rootsystem import affine_cartan_matrix


@dataclass
class ZGrading:
    algebra: ChevalleyAlgebra
    labels: Optional[Tuple[Q, ...]]  # None for regraded/derived gradings
    pieces: Dict[int, Tuple[int, ...]]  # degree -> basis indices
    zeta: Vector

    @property
    def depth(self) -> int:
        return max(abs(j) for j in self.pieces) + 1

    def piece(self, j: int) -> Tuple[int, ...]:
        return self.pieces.get(j, ())

    def dims(self) -> Dict[int, int]:
        return {j: len(idx) for j, idx in sorted(self.pieces.items())}

    def piece_vectors(self, j: int) -> List[Vector]:
        return [self.algebra.from_sparse({i: Q(1)}) for i in self.piece(j)]

    def project(self, v: Sequence, j: int) -> Vector:
        keep = set(self.piece(j))
        return tuple(Q(x) if i in keep else Q(0) for i, x in enumerate(v))


@dataclass
class KacLabels:
    labels: Tuple[int, ...]  # p_0 .. p_r
    marks: Tuple[int, ...]  # n_0 = 1, n_1 .. n_r

    def __post_init__(self):
        if len(self.labels) != len(self.marks):
            raise ValueError("label count must match node count")
        if any(p < 0 for p in self.labels):
            raise ValueError("labels must be non-negative")
        if self.order < 1:
            raise ValueError("labels must not all be zero")

    @property
    def order(self) -> int:
        return sum(n * p for n, p in zip(self.marks, self.labels))

    @property
    def reduced_order(self) -> int:
        g = 0
        for p in self.labels:
            g = gcd(g, p)
        g = gcd(g, self.order)
        return self.order // g if g else 1

    @property
    def order_warning(self) -> Optional[str]:
        if self.reduced_order != self.order:
            return (
                f"automorphism order is {self.reduced_order}, "
                f"a proper divisor of the declared m = {self.order}"
            )
        return None


@dataclass
class ZmGrading:
    algebra: ChevalleyAlgebra
    m: int
    pieces: Dict[int, Tuple[int, ...]]  # residue -> basis indices
    source_labels: Optional[KacLabels] = None

    def dims(self) -> Dict[int, int]:
        return {j: len(idx) for j, idx in sorted(self.pieces.items())}


def z_grading_from_labels(alg: ChevalleyAlgebra, p: Sequence[int]) -> ZGrading:
    """Z-grading from non-negative simple-root degree labels."""
    r = alg.rank
    if len(p) != r:
        raise ValueError("one label per simple root required")
    if any(x < 0 for x in p):
        raise ValueError("labels must be non-negative")
    if all(x == 0 for x in p):
        raise ValueError("labels must not all be zero")
    pieces: Dict[int, List[int]] = {0: list(range(r))}
    for alpha, idx in alg.root_index.items():
        deg = sum(a * pk for a, pk in zip(alpha, p))
        pieces.setdefault(deg, []).append(idx)
    # zeta in the Cartan: alpha_k(zeta) = p_k, pairing matrix is the Cartan matrix
    m = RationalMatrix.from_rows([[Q(c) for c in row] for row in alg.rs.cartan])
    coeffs = solve(m, vec(p))
    assert coeffs is not None  # Cartan matrix is invertible
    zeta = alg.cartan_element(coeffs)
    zg = ZGrading(
        algebra=alg,
        labels=tuple(Q(x) for x in p),
        pieces={j: tuple(sorted(idx)) for j, idx in pieces.items()},
        zeta=zeta,
    )
    _verify_grading_element(zg)
    return zg


def _verify_grading_element(zg: ZGrading):
    """[zeta, e_i] = j e_i for every basis vector e_i of every piece g_j."""
    alg = zg.algebra
    support = [(k, c) for k, c in enumerate(zg.zeta) if c]
    for j, idx in zg.pieces.items():
        for i in idx:
            image: Dict[int, Q] = {}
            for k, c in support:
                for l, b in alg.basis_bracket(k, i).items():
                    image[l] = image.get(l, Q(0)) + c * b
            expected = {i: Q(j)} if j else {}
            if {l: x for l, x in image.items() if x} != expected:
                raise AssertionError(f"grading element eigenvalue check failed at degree {j}")


def kac_labels(alg: ChevalleyAlgebra, labels: Sequence[int]) -> KacLabels:
    return KacLabels(tuple(labels), alg.rs.affine_marks)


def zm_from_kac(alg: ChevalleyAlgebra, kac: KacLabels) -> ZmGrading:
    """Z/mZ-grading of the automorphism defined by affine-diagram labels."""
    m = kac.order
    p = kac.labels[1:]
    pieces: Dict[int, List[int]] = {0: list(range(alg.rank))}
    for alpha, idx in alg.root_index.items():
        res = sum(a * pk for a, pk in zip(alpha, p)) % m
        pieces.setdefault(res, []).append(idx)
    return ZmGrading(
        algebra=alg,
        m=m,
        pieces={j: tuple(sorted(idx)) for j, idx in pieces.items()},
        source_labels=kac,
    )


def bar_pieces(zg: ZGrading) -> ZmGrading:
    """Collapse a Z-grading of depth m to its Z/mZ-grading.

    The residue-j piece is g_j + g_{j-m} for 1 <= j <= m-1, and g_0 stays.
    """
    m = zg.depth
    pieces: Dict[int, List[int]] = {}
    for j, idx in zg.pieces.items():
        pieces.setdefault(j % m, []).extend(idx)
    return ZmGrading(
        algebra=zg.algebra,
        m=m,
        pieces={j: tuple(sorted(idx)) for j, idx in pieces.items()},
    )


def _affine_automorphisms(affine: List[List[int]]) -> List[Tuple[int, ...]]:
    """All permutations of the affine nodes preserving the Cartan matrix."""
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
    return results


@dataclass
class LiftVerdict:
    lifts: bool
    mode: str  # "directly", "after automorphism", "none"
    witness: Optional[Tuple[int, ...]] = None  # relabeled vector with node 0 positive
    automorphism: Optional[Tuple[int, ...]] = None


def kac_lift_check(alg: ChevalleyAlgebra, kac: KacLabels) -> LiftVerdict:
    """Decide whether the Z/mZ-grading lifts to a Z-grading.

    It lifts directly iff the node-0 label is positive; otherwise a symmetry of
    the affine diagram moving a positive label onto node 0 certifies a lift.
    The moved node necessarily has mark 1, since diagram symmetries preserve
    marks and node 0 has mark 1.
    """
    if kac.labels[0] > 0:
        return LiftVerdict(True, "directly")
    affine = affine_cartan_matrix(alg.rs)
    for sigma in _affine_automorphisms(affine):
        # sigma[i] = image node; relabeled q_{sigma[i]} = p_i
        source = sigma.index(0)
        if kac.labels[source] > 0 and kac.marks[source] == 1:
            q = [0] * len(kac.labels)
            for i, target in enumerate(sigma):
                q[target] = kac.labels[i]
            return LiftVerdict(True, "after automorphism", tuple(q), sigma)
    return LiftVerdict(False, "none")
