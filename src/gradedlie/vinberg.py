"""Analysis of the G_0-action on a graded piece.

For a Z-grading with grading element zeta, the degree-1 piece is a
prehomogeneous G_0-space.  Each pair has one verified sl2-triple through an
open-orbit e (``VinbergPair.triple``), found once: a root-set triple
(``root_set_triple``), or else the default dense e of ``generic_element``,
which ``jm_triple`` completes.  The Toledo rank and JM-regularity are
invariants of the pair, so they are read off that one triple, the only
thing a pair caches, and it witnesses both verdicts.  It evaluates the Toledo
character chi_T(x) = B(zeta, x) B*(gamma, gamma), where gamma is a longest
root in degree 1; that factor makes chi_T independent of the invariant form.
The production route is ``normalized_form``, the form with B*(highest root,
highest root) = 2 read off the root length classes in closed form, with no
trace of ad: an integer table of B(b_i, b_j) (``ChevalleyAlgebra.form_table``),
built once per algebra and summed over the sparse supports.  gamma is chosen,
and B*(gamma, gamma) and the dual factor are read, by the integer length
classes.  The trace-of-ad Killing form's dual norm (``killing_dual_norm``) is
kept as an independent oracle, so tests can assert that independence exactly.

Elements are ``chevalley.Element``s (sparse integer numerators over one
denominator): open-orbit samples are built from ints, linear systems run on
integer ``ad_block``s, and every sl2 relation is compared structurally.
A failed certificate raises AssertionError explicitly, so ``python -O`` keeps
every check.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from itertools import chain
from operator import mul
from typing import Optional

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
    """a.den b.den B(a, b): ``alg.form_table`` summed over numerators."""
    rows = alg.form_table
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
    return Q(form_numerator(alg, a, b), a.den * b.den)


class VinbergPair:
    """The pair (G_0, g_1) of a grading, with gamma, and its verified triple once found."""

    __slots__ = ("grading", "gamma", "_triple")

    def __init__(self, grading: ZGrading, gamma: tuple):
        self.grading = grading
        self.gamma = gamma  # longest root with root space in degree 1
        self._triple: Optional[Sl2Triple] = None

    @property
    def algebra(self) -> ChevalleyAlgebra:
        return self.grading.algebra

    def triple(self) -> Sl2Triple:
        """The verified triple through an open-orbit e, found once and cached in ``_triple``:
        ``root_set_triple``, else ``jm_triple`` on ``generic_element(self)``.  Which open-orbit
        e it takes changes neither the Toledo rank nor the JM verdict (see ``jm_regular``)."""
        if self._triple is None:
            self._triple = root_set_triple(self) or jm_triple(self, generic_element(self))
        return self._triple

    def chi_t(self, x: Element) -> Q:
        return normalized_form(self.algebra, self.grading.zeta, x) * self.algebra.rs.norm(self.gamma)

    def zeta_pairing(self) -> Q:
        return self.chi_t(self.grading.zeta)


def vinberg_pair(zg: ZGrading) -> VinbergPair:
    alg = zg.algebra
    degree_one = zg.piece(1)
    if not degree_one:
        raise ValueError("grading has no degree-1 piece")
    gamma = max((alg.basis_root(i) for i in degree_one), key=alg.rs.length_class)  # the first longest
    return VinbergPair(grading=zg, gamma=gamma)


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


class Sl2Triple:
    """(h, e, f); ``verify`` certifies the sl2 relations.  Equal triples have equal elements."""

    __slots__ = ("h", "e", "f")

    def __init__(self, h: Element, e: Element, f: Element):
        self.h, self.e, self.f = h, e, f

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sl2Triple):
            return NotImplemented
        return self.h == other.h and self.e == other.e and self.f == other.f

    def verify(self, alg: ChevalleyAlgebra) -> "Sl2Triple":
        """[h, e] = 2e, [h, f] = -2f and [e, f] = h, exactly, then the triple; a failure
        raises AssertionError."""
        h, e, f = self.h, self.e, self.f
        for name, lhs, rhs in (
            ("[h, e] = 2e", alg.bracket(h, e), 2 * e),
            ("[h, f] = -2f", alg.bracket(h, f), -2 * f),
            ("[e, f] = h", alg.bracket(e, f), h),
        ):
            if lhs != rhs:
                raise AssertionError(f"sl2 relation {name} fails")
        return self


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
    neg, g0, pos = zg.piece(-1), zg.piece(0), zg.piece(1)
    # Stage 1: f0 in g_{-1} with [[e, f0], e] = 2e, so h := [e, f0] has [h,e] = 2e.
    # [[e, b], e] = -ad_e(ad_e(b)) through g_0, so solve ad_e ad_e f0 = -2e (for f0 / e.den).
    c0 = solve(alg.ad_block(e, g0, pos).matmul(alg.ad_block(e, neg, g0)), [-2 * e.num.get(k, 0) for k in pos])
    if c0 is None:
        raise RuntimeError("sl2 completion system is inconsistent")
    num, den = c0
    f0 = Element({k: n * e.den for k, n in zip(neg, num)}, den)
    # Stage 2: f in g_{-1} with [e, f] = h and [h, f] = -2f.
    triple = complete_triple(pair, e, alg.bracket(e, f0))
    if triple is None:
        raise RuntimeError("sl2 completion system is inconsistent")
    return triple


def complete_triple(pair: VinbergPair, e: Element, h: Element) -> Optional[Sl2Triple]:
    """The verified sl2-triple (h, e, f) with f in degree -1, or None when there is no such f.

    Contract: h lies in degree 0 and [h, e] = 2e, as 2*zeta does by the grading
    and ``jm_triple``'s stage-1 h by construction.  Solves e.den ad_e: g_{-1} -> g_0
    stacked over the nonzero rows of h.den (ad_h + 2) on g_{-1} for f h.den / e.den.
    """
    alg = pair.algebra
    neg, g0 = pair.grading.piece(-1), pair.grading.piece(0)
    ad_h = alg.ad_block(h, neg, neg)
    for j, row in enumerate(ad_h):
        row[j] += 2 * h.den
    rows = RationalMatrix(alg.ad_block(e, neg, g0) + [row for row in ad_h if any(row)], len(neg))
    c = solve(rows, [h.num.get(k, 0) for k in g0] + [0] * (len(rows) - len(g0)))
    if c is None:
        return None
    num, den = c
    return Sl2Triple(h=h, e=e, f=Element({k: n * e.den for k, n in zip(neg, num)}, den * h.den)).verify(alg)


def root_set_triple(pair: VinbergPair) -> Optional[Sl2Triple]:
    """The verified triple of ``set_triple`` on a set S of degree-1 roots in an open orbit,
    no beta - beta' a root; None when greedy passes (highest root first, each starting one
    root later) find no S.  S is independent: its roots lie in one degree with pairwise
    products <= 0."""
    alg, rs = pair.algebra, pair.algebra.rs
    roots = sorted(map(alg.basis_root, pair.grading.piece(1)), key=lambda a: (sum(a), a), reverse=True)
    target = len(roots)
    for start in range(target):
        chosen, dim = [], 0
        for beta in roots[start:] + roots[:start]:
            if dim < target and all(rs.codes[beta] - rs.codes[b] not in rs.lengths for b in chosen):
                d = orbit_dimension(pair, Element({alg.root_index[b]: 1 for b in chosen + [beta]}))
                if d > dim:
                    chosen, dim = chosen + [beta], d
        if dim == target:
            return set_triple(alg, chosen)
    return None


def set_triple(alg: ChevalleyAlgebra, roots: list) -> Sl2Triple:
    """The verified triple (h, e, f) with e = sum of e_beta over an independent root set S:
    sum_beta c_beta <beta', beta^vee> = 2 on S is nonsingular, and its one solution gives
    h = sum c_beta h_beta and f = sum c_beta e_{-beta}."""
    rs = alg.rs
    coroots = [rs.coroots[b] for b in roots]
    pairings = [[rs.pairing(b, j) for j in range(alg.rank)] for b in roots]  # <beta', alpha_j^vee>
    num, den = solve(RationalMatrix([sum(map(mul, v, p)) for v in coroots] for p in pairings), [2] * len(roots))
    e = Element({alg.root_index[b]: 1 for b in roots})
    h = Element({k: sum(n * v[k] for n, v in zip(num, coroots)) for k in range(alg.rank)}, den)
    f = Element({alg.root_index[tuple(-x for x in b)]: n for b, n in zip(roots, num)}, den)
    return Sl2Triple(h=h, e=e, f=f).verify(alg)


def pair_rank(pair: VinbergPair) -> Q:
    """rank_T of the pair: chi_T(h)/2 on its triple, which the pair caches."""
    return pair.chi_t(pair.triple().h) / 2


def jm_regular(pair: VinbergPair) -> bool:
    """Whether the pair's triple has h = 2*zeta.  Triples through e with h in g_0 are conjugate
    under G_0^e, which fixes zeta, so that one triple decides and witnesses either verdict."""
    return pair.triple().h == 2 * pair.grading.zeta


def dual_toledo_factor(pair: VinbergPair) -> Q:
    """Ratio between the Toledo data of (G_0, g_1) and of (G_0, g_{1-m}).

    Equals 1/(1-m) * B*(gamma', gamma')/B*(gamma, gamma) = ell(gamma') / ((1-m) ell(gamma))
    with gamma' a longest root in the lowest piece and ell the length class; always negative.
    """
    zg = pair.grading
    m = zg.depth
    if m < 2:
        raise ValueError("depth must be at least 2")
    low = zg.piece(1 - m)
    if not low:
        raise ValueError("lowest piece is empty")
    alg = pair.algebra
    ell_prime = max(alg.rs.length_class(alg.basis_root(i)) for i in low)
    return Q(ell_prime, (1 - m) * alg.rs.length_class(pair.gamma))
