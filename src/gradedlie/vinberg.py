"""Analysis of the G_0-action on a graded piece.

For a Z-grading with grading element zeta, the degree-1 piece is a
prehomogeneous G_0-space.  This module finds certified open-orbit elements,
completes them to sl2-triples, and evaluates the Toledo character
chi_T(x) = B(zeta, x) B*(gamma, gamma), where gamma is a longest root whose
root space sits in degree 1.  The B*(gamma,gamma) factor makes chi_T
independent of the chosen invariant form.  The production route is
``normalized_form``, the form with B*(highest root, highest root) = 2 read off
the root data in closed form, with no trace of ad.  The trace-of-ad Killing
form (``chi_t_killing``, ``killing_dual_norm``) is kept as an independent
oracle, so tests can assert that independence exactly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from itertools import chain
from typing import Dict, Optional, Sequence

from .chevalley import ChevalleyAlgebra
from .grading import ZGrading
from .linalg import RationalMatrix, Vector, rank, solve, vec


def regrade(zg: ZGrading, j: int) -> ZGrading:
    """Grading with k-th piece the old (k*j)-th piece and element zeta/j.

    Pieces at degrees not divisible by j are dropped: the result grades the
    subalgebra spanned by the surviving pieces.
    """
    if j == 0:
        raise ValueError("regrading index must be nonzero")
    pieces = {
        deg // j: idx for deg, idx in zg.pieces.items() if deg % j == 0
    }
    zeta = tuple(x / j for x in zg.zeta)
    return ZGrading(algebra=zg.algebra, labels=None, pieces=pieces, zeta=zeta)


def killing_dual_norm(alg: ChevalleyAlgebra, gamma) -> Q:
    """B*_K(gamma, gamma): dual norm of a root under the Killing form (test oracle)."""
    r = alg.rank
    cartan_block = RationalMatrix(row[:r] for row in alg.killing_gram()[:r])
    g = vec([alg.rs.pairing(gamma, i) for i in range(r)])
    c = solve(cartan_block, g)
    assert c is not None  # Killing form is nondegenerate on the Cartan
    return sum((x * y for x, y in zip(g, c)), Q(0))


def normalized_form(alg: ChevalleyAlgebra, a: Sequence, b: Sequence) -> Q:
    """Invariant form scaled so the highest root has dual norm 2.

    On the Chevalley basis B(h_i, h_j) = 4(alpha_i, alpha_j)/(|alpha_i|^2
    |alpha_j|^2), B(e_alpha, e_{-alpha}) = 2/|alpha|^2, and every other pair of
    basis vectors is orthogonal.
    """
    rs = alg.rs
    r = alg.rank
    total = Q(0)
    for i in range(r):
        if a[i]:
            row = rs.coroot_gram[i]
            total += Q(a[i]) * sum((row[j] * b[j] for j in range(r) if b[j]), Q(0))
    for i in range(r, alg.dim):
        if a[i]:
            alpha = rs.roots[i - r]
            y = b[alg.root_index[tuple(-x for x in alpha)]]
            if y:
                total += 2 * Q(a[i]) * y / rs.norms[alpha]
    return total


@dataclass
class VinbergPair:
    grading: ZGrading
    gamma: tuple  # longest root with root space in degree 1
    gamma_norm: Q  # B*(gamma, gamma) under the highest-root normalisation
    _open: Dict[int, Vector] = field(default_factory=dict, compare=False, repr=False)

    @property
    def algebra(self) -> ChevalleyAlgebra:
        return self.grading.algebra

    def open_element(self, seed: int = 0) -> Vector:
        """``generic_element(self, seed)``, searched once per seed."""
        if seed not in self._open:
            self._open[seed] = generic_element(self, seed)
        return self._open[seed]

    @property
    def dim_piece(self) -> int:
        return len(self.grading.piece(1))

    def chi_t(self, x: Sequence) -> Q:
        return normalized_form(self.algebra, self.grading.zeta, x) * self.gamma_norm

    def chi_t_killing(self, x: Sequence) -> Q:
        """chi_T evaluated with the raw Killing form and its own dual norm."""
        alg = self.algebra
        return alg.killing_form(self.grading.zeta, x) * killing_dual_norm(alg, self.gamma)

    def zeta_pairing(self) -> Q:
        return self.chi_t(self.grading.zeta)


def vinberg_pair(zg: ZGrading) -> VinbergPair:
    alg = zg.algebra
    degree_one = zg.piece(1)
    if not degree_one:
        raise ValueError("grading has no degree-1 piece")
    roots = [alg.basis_root(i) for i in degree_one]
    best = max(alg.rs.norm(a) for a in roots)
    gamma = next(a for a in roots if alg.rs.norm(a) == best)
    return VinbergPair(grading=zg, gamma=gamma, gamma_norm=alg.rs.norm(gamma))


def orbit_dimension(pair: VinbergPair, e: Sequence) -> int:
    """Dimension of the G_0-orbit of e: rank of x -> [x, e] = -[e, x] on g_0."""
    _require_in_piece(pair, e)
    zg = pair.grading
    return rank(pair.algebra.ad_block(e, zg.piece(0), zg.piece(1)))


def _require_in_piece(pair: VinbergPair, e: Sequence):
    keep = set(pair.grading.piece(1))
    if any(x and i not in keep for i, x in enumerate(e)):
        raise ValueError("element does not lie in the degree-1 piece")


def generic_element(pair: VinbergPair, seed: int = 0) -> Vector:
    """Certified open-orbit element of the degree-1 piece.

    Deterministic per seed: the all-ones vector is tried first, then seeded
    small-integer samples, each certified by the orbit-dimension check.
    """
    alg = pair.algebra
    indices = pair.grading.piece(1)
    target = len(indices)
    rng = random.Random(seed)
    samples = (tuple(Q(rng.choice([-3, -2, -1, 1, 2, 3])) for _ in indices) for _ in range(200))
    for coeffs in chain([tuple(Q(1) for _ in indices)], samples):
        e = alg.from_sparse(dict(zip(indices, coeffs)))
        if orbit_dimension(pair, e) == target:
            return e
    raise RuntimeError("no open-orbit element found; the pair data is inconsistent")


@dataclass
class Sl2Triple:
    h: Vector
    e: Vector
    f: Vector

    def verify(self, alg: ChevalleyAlgebra):
        assert alg.bracket(self.h, self.e) == tuple(2 * x for x in self.e)
        assert alg.bracket(self.h, self.f) == tuple(-2 * x for x in self.f)
        assert alg.bracket(self.e, self.f) == self.h


def jm_triple(pair: VinbergPair, e: Sequence) -> Sl2Triple:
    """Complete a nonzero degree-1 element to an sl2-triple (h, e, f).

    h lands in degree 0 and f in degree -1; all three bracket relations are
    verified exactly before returning.
    """
    alg = pair.algebra
    zg = pair.grading
    if all(x == 0 for x in e):
        raise ValueError("cannot complete the zero element")
    _require_in_piece(pair, e)
    neg = zg.piece(-1)
    pos = zg.piece(1)
    g0 = zg.piece(0)
    # Stage 1: f0 in g_{-1} with [[e, f0], e] = 2e, so h := [e, f0] has [h,e] = 2e.
    # [[e, b], e] = -ad_e(ad_e(b)) through g_0, so solve ad_e ad_e f0 = -2e.
    ad_neg = alg.ad_block(e, neg, g0)
    c0 = solve(alg.ad_block(e, g0, pos).matmul(ad_neg), [-2 * e[k] for k in pos])
    if c0 is None:
        raise RuntimeError("sl2 completion system is inconsistent")
    f0 = alg.from_sparse({i: c for i, c in zip(neg, c0) if c})
    h = alg.bracket(e, f0)
    # Stage 2: f in g_{-1} with [e, f] = h and [h, f] = -2f simultaneously.
    ad_h = alg.ad_block(h, neg, neg)
    for j, row in enumerate(ad_h):
        row[j] += 2
    c = solve(RationalMatrix(ad_neg + ad_h, len(neg)), [h[k] for k in g0] + [Q(0)] * len(neg))
    if c is None:
        raise RuntimeError("sl2 completion system is inconsistent")
    f = alg.from_sparse({i: x for i, x in zip(neg, c) if x})
    triple = Sl2Triple(h=h, e=tuple(Q(x) for x in e), f=f)
    triple.verify(alg)
    return triple


def toledo_rank(pair: VinbergPair, e: Sequence) -> Q:
    """rank_T(e) = chi_T(h)/2 for the triple through e."""
    triple = jm_triple(pair, e)
    return pair.chi_t(triple.h) / 2


def pair_rank(pair: VinbergPair, seed: int = 0) -> Q:
    """rank_T of the pair: the Toledo rank of a certified open-orbit element."""
    return toledo_rank(pair, pair.open_element(seed))


@dataclass
class RegularityCertificate:
    regular: bool
    e: Vector
    f: Optional[Vector]  # solves [e, f] = 2*zeta when regular


def jm_regular(pair: VinbergPair, seed: int = 0) -> RegularityCertificate:
    """Whether an open-orbit e completes to a triple with h = 2*zeta."""
    alg = pair.algebra
    zg = pair.grading
    e = pair.open_element(seed)
    neg = zg.piece(-1)
    target = tuple(2 * x for x in zg.zeta)
    g0 = zg.piece(0)
    c = solve(alg.ad_block(e, neg, g0), [target[k] for k in g0]) if neg else None
    if c is None:
        return RegularityCertificate(False, e, None)
    f = alg.from_sparse({i: x for i, x in zip(neg, c) if x})
    if alg.bracket(e, f) != target:
        return RegularityCertificate(False, e, None)
    return RegularityCertificate(True, e, f)


def dual_toledo_factor(pair: VinbergPair) -> Q:
    """Ratio between the Toledo data of (G_0, g_1) and of (G_0, g_{1-m}).

    Equals 1/(1-m) * B*(gamma', gamma')/B*(gamma, gamma) with gamma' a longest
    root in the lowest piece; always negative.
    """
    zg = pair.grading
    m = zg.depth
    if m < 2:
        raise ValueError("depth must be at least 2")
    low = zg.piece(1 - m)
    if not low:
        raise ValueError("lowest piece is empty")
    alg = pair.algebra
    roots = [alg.basis_root(i) for i in low]
    gamma_prime_norm = max(alg.rs.norm(a) for a in roots)
    return Q(1, 1 - m) * gamma_prime_norm / pair.gamma_norm
