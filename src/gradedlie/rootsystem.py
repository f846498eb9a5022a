"""Root systems of the simple complex Lie algebras.

Roots are stored as integer coordinate vectors in the simple-root basis,
ordered by Bourbaki numbering of the simple roots, and as one code each,
sum_k a_k 64^k with signed digits.  No coefficient of a root, or of a sum or
difference of two roots, exceeds 12 in absolute value, so codes add and negate
like the roots and have their sign.  One pass raises the simple roots to every
positive root; the negative roots are their negatives, and a closure check
certifies the set.  Root lengths are integer length classes ell(alpha) =
|alpha|^2 / |shortest root|^2 in {1, 2, 3}, and L, the class of the long roots,
which holds the highest root (certified); a root has the class of the simple
root in whose Weyl orbit the pass reached it.  The invariant form, normalised
so that the highest root has squared length 2, is read off them:
(alpha_i, alpha_j) = c_ij ell_j / L, so a root's norm is 2 ell(alpha) / L, and
``form_value`` and ``norm`` build one Fraction each, and ``coroot`` one coroot.
The Chevalley basis layout (h_1..h_r, then e_alpha in root order) lives only in ``RootSystem``: in
``basis_codes``, ``basis_roots``, ``basis_index`` and ``basis_values(p)``, the one evaluation of
sum_k a_k p_k on the basis; each per-root map is built on its first read.  So do a Cartan element's
simple-root labels: ``simple_values(h)`` is alpha_k(h) = sum_i h_i c_ki for h in coroot coordinates,
and ``grading_element(p)`` solves for the h with labels p; no other module reads the Cartan matrix.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import cached_property, lru_cache
from math import gcd
from operator import mul, neg
from typing import Dict, List, Sequence, Tuple

from .linalg import RationalMatrix, Solution, solve

Root = Tuple[int, ...]

_RANK_RANGE = {
    "A": (1, None),
    "B": (2, None),
    "C": (2, None),
    "D": (3, None),
    "E": (6, 8),
    "F": (4, 4),
    "G": (2, 2),
}


class LieType:
    """A family letter and a rank in the family's range.  Equal types hash alike, so
    a type keys the per-type caches (``build_root_system``, ``build_algebra``)."""

    __slots__ = ("family", "rank")

    def __init__(self, family: str, rank: int):
        if family not in _RANK_RANGE:  # a key lookup, so "" and "AB" are no family
            raise ValueError(f"unknown family {family!r}")
        lo, hi = _RANK_RANGE[family]
        if rank < lo or (hi is not None and rank > hi):
            raise ValueError(f"invalid rank {rank} for family {family}")
        self.family, self.rank = family, rank

    def __eq__(self, other) -> bool:
        if not isinstance(other, LieType):
            return NotImplemented
        return self.family == other.family and self.rank == other.rank

    def __hash__(self) -> int:
        return hash((self.family, self.rank))

    def __repr__(self):
        return f"LieType(family={self.family!r}, rank={self.rank!r})"

    def __str__(self):
        return f"{self.family}{self.rank}"

    @property
    def root_count(self) -> int:
        """|Phi| = rank * Coxeter number, in closed form, so a size bound needs no root built."""
        n = self.rank
        coxeter = {"A": n + 1, "B": 2 * n, "C": 2 * n, "D": 2 * n - 2, "F": 12, "G": 6}.get(self.family)
        return n * (coxeter or (12, 18, 30)[n - 6])  # E6, E7, E8

    @classmethod
    def parse(cls, text: str) -> "LieType":
        """A family letter, either case, followed by ASCII digits and nothing else."""
        family, digits = text[:1].upper(), text[1:]
        if not (family in _RANK_RANGE and digits.isascii() and digits.isdigit()):
            raise ValueError(f"cannot parse Lie type {text!r}")
        return cls(family, int(digits))


def cartan_matrix(t: LieType) -> List[List[int]]:
    """Cartan matrix with entries ``c[i][j] = <alpha_i, alpha_j^vee>``."""
    r = t.rank
    c = [[2 * int(i == j) for j in range(r)] for i in range(r)]

    def bond(i, j, cij=-1, cji=-1):
        c[i][j] = cij
        c[j][i] = cji

    if t.family == "A":
        for i in range(r - 1):
            bond(i, i + 1)
    elif t.family == "B":
        # alpha_r short: <alpha_{r-1}, alpha_r^vee> = -2
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 2, r - 1, -2, -1)
    elif t.family == "C":
        # alpha_r long: <alpha_r, alpha_{r-1}^vee> = -2
        for i in range(r - 2):
            bond(i, i + 1)
        bond(r - 2, r - 1, -1, -2)
    elif t.family == "D":
        for i in range(r - 3):
            bond(i, i + 1)
        bond(r - 3, r - 2)
        bond(r - 3, r - 1)
    elif t.family == "E":
        # Bourbaki: node 2 hangs off node 4 of the chain 1-3-4-5-...
        chain = [0] + list(range(2, r))
        for a, b in zip(chain, chain[1:]):
            bond(a, b)
        bond(1, 3)
    elif t.family == "F":
        # alpha_1, alpha_2 long; alpha_3, alpha_4 short
        bond(0, 1)
        bond(1, 2, -2, -1)
        bond(2, 3)
    elif t.family == "G":
        # alpha_1 short, alpha_2 long
        bond(0, 1, -1, -3)
    return c


class RootSystem:
    """The roots of one type.  ``root_data`` holds (code, length class, (<alpha, alpha_k^vee>)_k) of each
    positive root in root order; from it come ``basis_codes`` (basis index -> root code, 0 on h_1..h_r), its
    inverse ``basis_index``, ``codes`` (root -> code), ``lengths`` (code -> class); ``basis_roots`` reads ``roots``."""

    def __init__(
        self, lie_type: LieType, cartan: Tuple[Tuple[int, ...], ...], roots: Tuple[Root, ...],
        positive_roots: Tuple[Root, ...], highest_root: Root, long_class: int,
        simple_classes: Tuple[int, ...], root_data: Tuple[Tuple[int, int, List[int]], ...],
    ):
        self.lie_type, self.cartan, self.roots, self.positive_roots = lie_type, cartan, roots, positive_roots
        self.highest_root, self.affine_marks = highest_root, (1,) + highest_root  # (n_0, n_1, ..., n_r)
        self.long_class, self.simple_classes, self.root_data = long_class, simple_classes, root_data

    @cached_property
    def basis_codes(self) -> Tuple[int, ...]:
        positive = [c for c, _, _ in self.root_data]  # root order puts the negatives first, mirrored
        return (0,) * self.rank + tuple(map(neg, reversed(positive))) + tuple(positive)

    @cached_property
    def basis_roots(self) -> Tuple[Root, ...]:
        return ((),) * self.rank + self.roots

    @cached_property
    def basis_index(self) -> Dict[int, int]:
        return {c: i for i, c in enumerate(self.basis_codes[self.rank :], self.rank)}

    @cached_property
    def codes(self) -> Dict[Root, int]:
        return dict(zip(self.roots, self.basis_codes[self.rank :]))

    @cached_property
    def lengths(self) -> Dict[int, int]:
        return {x: e for c, e, _ in self.root_data for x in (c, -c)}

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def dim_algebra(self) -> int:
        return self.rank + len(self.roots)

    def basis_values(self, p: Sequence[int]) -> List[int]:
        """sum_k a_k p_k at each basis index, 0 on the Cartan: one walk over the positive roots, mirrored."""
        positive = [sum(map(mul, alpha, p)) for alpha in self.roots[len(self.roots) // 2 :]]
        return [0] * self.rank + [-v for v in reversed(positive)] + positive

    def simple_values(self, h: Sequence[int]) -> List[int]:
        """alpha_k(h) = sum_i h_i c_ki for each simple root alpha_k, h in coroot coordinates."""
        return [sum(map(mul, row, h)) for row in self.cartan]

    def grading_element(self, p: Sequence[int]) -> Solution:
        """The h in coroot coordinates with ``simple_values(h)`` = p, as numerators over a denominator."""
        h = solve(RationalMatrix(self.cartan), p)
        if h is None:
            raise AssertionError("the Cartan matrix is singular")
        return h

    def pairing(self, alpha: Root, j: int) -> int:
        """Integer pairing <alpha, alpha_j^vee>."""
        return sum(alpha[i] * self.cartan[i][j] for i in range(self.rank))

    def length_class(self, alpha: Root) -> int:
        """ell(alpha) = |alpha|^2 / |shortest root|^2 of a root."""
        return self.lengths[self.codes[alpha]]

    def form_value(self, alpha: Root, beta: Root) -> Q:
        """B*(alpha, beta) = sum_ij alpha_i beta_j c_ij ell_j / L for lattice vectors in
        simple-root coordinates."""
        total = sum(b * self.simple_classes[j] * self.pairing(alpha, j) for j, b in enumerate(beta) if b)
        return Q(total, self.long_class)

    def norm(self, alpha: Root) -> Q:
        """B*(alpha, alpha) = 2 ell(alpha) / L of a root."""
        return Q(2 * self.length_class(alpha), self.long_class)

    def coroot(self, alpha: Root) -> Tuple[int, ...]:
        """alpha^vee = sum_i a_i ell_i / ell(alpha) alpha_i^vee, certified integral (ell = L at the highest root)."""
        c = self.long_class if alpha == self.highest_root else self.length_class(alpha)
        return tuple(exact_div(x * e, c) if x else 0 for x, e in zip(alpha, self.simple_classes))


def exact_div(n, d) -> int:
    """n / d where the quotient must be an integer; a remainder raises AssertionError."""
    q, rem = divmod(n, d)
    if rem:
        raise AssertionError(f"{n}/{d} is not an integer")
    return q


def _length_classes(cartan: List[List[int]], r: int) -> List[int]:
    """ell_j, proportional to |alpha_j|^2, in ints with gcd 1: c_ij ell_j = c_ji ell_i on
    each edge of the diagram, propagated from node 0."""
    ell, pending = [1] + [0] * (r - 1), [0]
    while pending:
        i = pending.pop()
        for j in range(r):
            if cartan[i][j] and not ell[j]:
                ell = [x * -cartan[i][j] for x in ell]  # so that ell_j = ell_i c_ji / c_ij is whole
                ell[j] = ell[i] * cartan[j][i] // cartan[i][j]
                pending.append(j)
    g = gcd(*ell)
    return [x // g for x in ell]


def _positive_pass(cartan: List[List[int]], r: int) -> List[Tuple[Root, int, int, List[int]]]:
    """The positive roots as (root, code, origin, pairings <alpha, alpha_k^vee>).

    Each simple root is raised by the simple reflections s_j with a negative pairing p
    (s_j alpha = alpha - p alpha_j has the pairings of alpha less p c[j]), which reaches
    every positive root (Humphreys, *Introduction to Lie Algebras*, 10.2) in the Weyl
    orbit of its origin simple root.
    """
    found = [(tuple(int(i == j) for i in range(r)), 1 << 6 * j, j, cartan[j]) for j in range(r)]
    seen = {code for _, code, _, _ in found}
    for alpha, code, origin, pairing in found:  # the list grows while it is read
        for j, p in enumerate(pairing):
            if p < 0 and (raised := code - (p << 6 * j)) not in seen:
                seen.add(raised)
                pairs = [x - p * c for x, c in zip(pairing, cartan[j])]
                found.append((alpha[:j] + (alpha[j] - p,) + alpha[j + 1 :], raised, origin, pairs))
    return found


@lru_cache(maxsize=None)
def build_root_system(t: LieType) -> RootSystem:
    """The positive roots in one pass, the negative ones by negation, certified."""
    r = t.rank
    cartan = cartan_matrix(t)
    ell = _length_classes(cartan, r)
    if len(set(ell)) > 2:
        raise AssertionError("more than two root lengths")
    found = _positive_pass(cartan, r)
    codes = {code for _, code, _, _ in found}
    units = [1 << 6 * k for k in range(r)]
    # Closure: each falling reflection of a positive root is a positive root or -alpha_j,
    # so the roots are Weyl-closed, and only a dominant root can be the highest one.
    candidates = []
    for alpha, code, origin, pairing in found:
        for j, p in enumerate(pairing):
            if p > 0 and code - (p << 6 * j) not in codes and code != units[j]:
                raise AssertionError("positive roots not closed under falling reflections")
        if min(pairing) >= 0 and all(code + u not in codes for u in units):
            candidates.append((alpha, ell[origin]))
    if len(candidates) != 1:
        raise AssertionError("highest root is not unique")
    (highest, highest_class), long_class = candidates[0], max(ell)
    if highest_class != long_class:
        raise AssertionError("the highest root is not long")
    found.sort()  # root order; a negative root precedes every positive one
    positive = [alpha for alpha, _, _, _ in found]
    return RootSystem(
        lie_type=t,
        cartan=tuple(tuple(row) for row in cartan),
        roots=tuple(tuple(map(neg, a)) for a in reversed(positive)) + tuple(positive),
        positive_roots=tuple(sorted(positive, key=sum)),  # by height, then root order
        highest_root=highest,
        long_class=long_class,
        simple_classes=tuple(ell),
        root_data=tuple((code, ell[j], pairing) for _, code, j, pairing in found),
    )


@lru_cache(maxsize=None)
def form_table(rs: RootSystem) -> List[Tuple[Tuple[int, int], ...]]:
    """Rows of the form B with B*(highest root, highest root) = 2 on the basis h_1..h_r, e_alpha
    (root order), in Python ints: rows[i] lists each (j, B(b_i, b_j) != 0).  B(h_i, h_j) =
    L c_ij / ell(alpha_i), B(e_alpha, e_{-alpha}) = L / ell(alpha) (-alpha at its
    ``basis_index``), every other pair is orthogonal, and each value is certified an integer."""
    L, index = rs.long_class, rs.basis_index
    rows = [
        tuple((j, exact_div(L * c, ell_i)) for j, c in enumerate(row) if c)
        for row, ell_i in zip(rs.cartan, rs.simple_classes)
    ]
    return rows + [((index[-c], exact_div(L, rs.lengths[c])),) for c in rs.basis_codes[rs.rank :]]


def affine_cartan_matrix(rs: RootSystem) -> List[List[int]]:
    """Cartan matrix on nodes 0..r with alpha_0 = -highest root, in integers.

    Row a holds <a, alpha_j^vee> = ``pairing(a, j)`` on the simple nodes, and
    <a, alpha_0^vee> = -<a, beta^vee>, with beta^vee the ``coroot`` of the highest root beta:
    -alpha_k(beta^vee) at a simple node, and <beta, beta^vee> = 2 at node 0.
    """
    beta = rs.highest_root
    labels = rs.simple_values(rs.coroot(beta))
    top = [sum(map(mul, beta, labels))] + [-rs.pairing(beta, j) for j in range(rs.rank)]
    return [top] + [[-x] + list(row) for x, row in zip(labels, rs.cartan)]
