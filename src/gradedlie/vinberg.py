"""Analysis of the G_0-action on a graded piece.

For a Z-grading with grading element zeta, the degree-1 piece is a
prehomogeneous G_0-space.  This module finds certified open-orbit elements,
completes them to sl2-triples, and evaluates the Toledo character
chi_T(x) = B(zeta, x) B*(gamma, gamma), where gamma is a longest root whose
root space sits in degree 1.  The B*(gamma,gamma) factor makes chi_T
independent of the chosen invariant form.  The production route is
``normalized_form``, the form with B*(highest root, highest root) = 2 read off
the root data in closed form, with no trace of ad: an integer table
D B(b_i, b_j) (``ChevalleyAlgebra.form_table``), built once per algebra and
summed over the sparse supports.  The trace-of-ad Killing form's dual norm
(``killing_dual_norm``) is kept as an independent oracle, so tests can assert
that independence exactly.

Elements are ``chevalley.Element``s (sparse integer numerators over one
denominator): open-orbit samples are built from ints, linear systems run on
integer ``ad_block``s, and every sl2 relation is compared structurally.
A failed certificate raises AssertionError explicitly, so ``python -O`` keeps
every check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction as Q
from itertools import chain
from operator import mul
from typing import Dict, Optional

from .chevalley import ChevalleyAlgebra, Element
from .grading import ZGrading
from .linalg import RationalMatrix, rank, solve


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
    return ZGrading(algebra=zg.algebra, pieces=pieces, zeta=zg.zeta * Q(1, j))


def killing_dual_norm(alg: ChevalleyAlgebra, gamma) -> Q:
    """B*_K(gamma, gamma): dual norm of a root under the Killing form (test oracle)."""
    r = alg.rank
    cartan_block = RationalMatrix(row[:r] for row in alg.killing_gram()[:r])
    g = [alg.rs.pairing(gamma, i) for i in range(r)]
    c = solve(cartan_block, g)
    if c is None:
        raise AssertionError("the Killing form is degenerate on the Cartan")
    num, den = c
    return Q(sum(map(mul, g, num)), den)


def form_numerator(alg: ChevalleyAlgebra, a: Element, b: Element) -> int:
    """D a.den b.den B(a, b), D = ``alg.form_table[1]``: the table summed over numerators."""
    rows = alg.form_table[0]
    b_num = b.num
    total = 0
    for i, ai in a.num.items():
        for j, t in rows[i]:
            bj = b_num.get(j)
            if bj:
                total += ai * t * bj
    return total


def normalized_form(alg: ChevalleyAlgebra, a: Element, b: Element) -> Q:
    """Invariant form scaled so the highest root has dual norm 2; one Fraction per call."""
    return Q(form_numerator(alg, a, b), alg.form_table[1] * a.den * b.den)


@dataclass
class VinbergPair:
    grading: ZGrading
    gamma: tuple  # longest root with root space in degree 1
    gamma_norm: Q  # B*(gamma, gamma) under the highest-root normalisation
    _open: Dict[int, Element] = field(default_factory=dict, compare=False, repr=False)

    @property
    def algebra(self) -> ChevalleyAlgebra:
        return self.grading.algebra

    def open_element(self, seed: int = 0) -> Element:
        """``generic_element(self, seed)``, searched once per seed."""
        if seed not in self._open:
            self._open[seed] = generic_element(self, seed)
        return self._open[seed]

    @property
    def dim_piece(self) -> int:
        return len(self.grading.piece(1))

    def chi_t(self, x: Element) -> Q:
        return normalized_form(self.algebra, self.grading.zeta, x) * self.gamma_norm

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


def orbit_dimension(pair: VinbergPair, e: Element) -> int:
    """Dimension of the G_0-orbit of e: rank of x -> [x, e] = -[e, x] on g_0."""
    _require_in_piece(pair, e)
    zg = pair.grading
    return rank(pair.algebra.ad_block(e, zg.piece(0), zg.piece(1)))


def _require_in_piece(pair: VinbergPair, e: Element):
    keep = set(pair.grading.piece(1))
    if any(i not in keep for i in e.num):
        raise ValueError("element does not lie in the degree-1 piece")


def generic_element(pair: VinbergPair, seed: int = 0) -> Element:
    """Certified open-orbit element of the degree-1 piece.

    Deterministic per seed: the all-ones vector is tried first, then seeded
    small-integer samples, each certified by the orbit-dimension check.
    """
    indices = pair.grading.piece(1)
    target = len(indices)
    rng = random.Random(seed)
    samples = ([rng.choice([-3, -2, -1, 1, 2, 3]) for _ in indices] for _ in range(200))
    for coeffs in chain([[1] * target], samples):
        e = Element(dict(zip(indices, coeffs)))
        if orbit_dimension(pair, e) == target:
            return e
    raise RuntimeError("no open-orbit element found; the pair data is inconsistent")


@dataclass
class Sl2Triple:
    h: Element
    e: Element
    f: Element

    def verify(self, alg: ChevalleyAlgebra):
        """[h, e] = 2e, [h, f] = -2f and [e, f] = h, exactly; a failure raises AssertionError."""
        h, e, f = self.h, self.e, self.f
        for name, lhs, rhs in (
            ("[h, e] = 2e", alg.bracket(h, e), 2 * e),
            ("[h, f] = -2f", alg.bracket(h, f), -2 * f),
            ("[e, f] = h", alg.bracket(e, f), h),
        ):
            if lhs != rhs:
                raise AssertionError(f"sl2 relation {name} fails")


def jm_triple(pair: VinbergPair, e: Element) -> Sl2Triple:
    """Complete a nonzero degree-1 element to an sl2-triple (h, e, f).

    h lands in degree 0 and f in degree -1; all three bracket relations are
    verified exactly before returning.
    """
    alg = pair.algebra
    zg = pair.grading
    if not e:
        raise ValueError("cannot complete the zero element")
    _require_in_piece(pair, e)
    neg = zg.piece(-1)
    pos = zg.piece(1)
    g0 = zg.piece(0)
    # Stage 1: f0 in g_{-1} with [[e, f0], e] = 2e, so h := [e, f0] has [h,e] = 2e.
    # [[e, b], e] = -ad_e(ad_e(b)) through g_0, so solve ad_e ad_e f0 = -2e (for f0 / e.den).
    ad_neg = alg.ad_block(e, neg, g0)
    c0 = solve(alg.ad_block(e, g0, pos).matmul(ad_neg), [-2 * e.num.get(k, 0) for k in pos])
    if c0 is None:
        raise RuntimeError("sl2 completion system is inconsistent")
    num, den = c0
    f0 = Element({k: n * e.den for k, n in zip(neg, num)}, den)
    h = alg.bracket(e, f0)
    # Stage 2: f in g_{-1} with [e, f] = h and [h, f] = -2f; solve for f h.den / e.den.
    ad_h = alg.ad_block(h, neg, neg)
    for j, row in enumerate(ad_h):
        row[j] += 2 * h.den
    c = solve(RationalMatrix(ad_neg + ad_h, len(neg)), [h.num.get(k, 0) for k in g0] + [0] * len(neg))
    if c is None:
        raise RuntimeError("sl2 completion system is inconsistent")
    num, den = c
    triple = Sl2Triple(h=h, e=e, f=Element({k: n * e.den for k, n in zip(neg, num)}, den * h.den))
    triple.verify(alg)
    return triple


def toledo_rank(pair: VinbergPair, e: Element) -> Q:
    """rank_T(e) = chi_T(h)/2 for the triple through e."""
    triple = jm_triple(pair, e)
    return pair.chi_t(triple.h) / 2


def pair_rank(pair: VinbergPair, seed: int = 0) -> Q:
    """rank_T of the pair: the Toledo rank of a certified open-orbit element."""
    return toledo_rank(pair, pair.open_element(seed))


@dataclass
class RegularityCertificate:
    regular: bool
    e: Element
    f: Optional[Element]  # solves [e, f] = 2*zeta when regular


def jm_regular(pair: VinbergPair, seed: int = 0) -> RegularityCertificate:
    """Whether an open-orbit e completes to a triple with h = 2*zeta."""
    alg = pair.algebra
    zg = pair.grading
    e = pair.open_element(seed)
    neg = zg.piece(-1)
    target = 2 * zg.zeta
    g0 = zg.piece(0)
    # solve for f target.den / e.den in the integer block
    c = solve(alg.ad_block(e, neg, g0), [target.num.get(k, 0) for k in g0]) if neg else None
    if c is None:
        return RegularityCertificate(False, e, None)
    num, den = c
    f = Element({k: n * e.den for k, n in zip(neg, num)}, den * target.den)
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
