"""Root systems of the simple complex Lie algebras.

Roots are stored as integer coordinate vectors in the simple-root basis,
ordered by Bourbaki numbering of the simple roots, and as one code each,
sum_k a_k 64^k with signed digits.  No coefficient of a root, or of a sum or
difference of two roots, exceeds 12 in absolute value, so codes add and negate
like the roots and have their sign: root-lattice steps after the reflection
closure are Python-int arithmetic.  Root lengths are integer length classes
ell(alpha) = |alpha|^2 / |shortest root|^2 in {1, 2, 3}, keyed by code, and L,
the class of the long roots; the highest root is long (certified).  They come
from the reflection closure: each root has the class of the simple root whose
Weyl orbit it was reached in, so no root needs a form evaluation.  The
invariant form, normalised so that the highest root has squared length 2, is
read off them: (alpha_i, alpha_j) = c_ij ell_j / L, so a root's norm is
2 ell(alpha) / L, and ``form_value`` and ``norm`` build one Fraction each.  The
classes and the integer coroot coefficients are computed once per root system;
``coroots`` maps each root alpha to the coefficients of alpha^vee in the simple
coroot basis.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, List, Tuple

Root = Tuple[int, ...]

FAMILIES = "ABCDEFG"

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
        if family not in _RANK_RANGE:  # one letter: "" and "AB" are substrings of FAMILIES, not keys
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

    @classmethod
    def parse(cls, text: str) -> "LieType":
        """A family letter, either case, followed by ASCII digits and nothing else."""
        family, digits = text[:1].upper(), text[1:]
        if not (family and family in FAMILIES and digits.isascii() and digits.isdigit()):
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
    """The roots of one type, with their codes, length classes and coroots."""

    __slots__ = (
        "lie_type", "cartan", "roots", "positive_roots", "highest_root", "affine_marks", "long_class",
        "codes", "lengths", "coroots",
    )

    def __init__(
        self,
        lie_type: LieType,
        cartan: Tuple[Tuple[int, ...], ...],
        roots: Tuple[Root, ...],
        positive_roots: Tuple[Root, ...],
        highest_root: Root,
        affine_marks: Tuple[int, ...],  # (n_0, n_1, ..., n_r) with n_0 = 1
        long_class: int,  # L, the length class of the long roots and of the highest root
        codes: Dict[Root, int],  # sum_k a_k 64^k, in root order
        lengths: Dict[int, int],  # root code -> norm / shortest norm
        coroots: Dict[Root, Tuple[int, ...]],
    ):
        self.lie_type, self.cartan, self.roots, self.positive_roots = lie_type, cartan, roots, positive_roots
        self.highest_root, self.affine_marks, self.long_class = highest_root, affine_marks, long_class
        self.codes, self.lengths, self.coroots = codes, lengths, coroots

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def dim_algebra(self) -> int:
        return self.rank + len(self.roots)

    def pairing(self, alpha: Root, j: int) -> int:
        """Integer pairing <alpha, alpha_j^vee>."""
        return sum(alpha[i] * self.cartan[i][j] for i in range(self.rank))

    def length_class(self, alpha: Root) -> int:
        """ell(alpha) = |alpha|^2 / |shortest root|^2 of a root."""
        return self.lengths[self.codes[alpha]]

    def form_value(self, alpha: Root, beta: Root) -> Q:
        """B*(alpha, beta) = sum_ij alpha_i beta_j c_ij ell_j / L for lattice vectors in
        simple-root coordinates (simple root j has code 64^j)."""
        total = sum(b * self.lengths[1 << 6 * j] * self.pairing(alpha, j) for j, b in enumerate(beta) if b)
        return Q(total, self.long_class)

    def norm(self, alpha: Root) -> Q:
        """B*(alpha, alpha) = 2 ell(alpha) / L of a root."""
        return Q(2 * self.length_class(alpha), self.long_class)


def exact_div(n, d) -> int:
    """n / d where the quotient must be an integer; a remainder raises AssertionError."""
    q, rem = divmod(n, d)
    if rem:
        raise AssertionError(f"{n}/{d} is not an integer")
    return q


def _reflection_closure(cartan: List[List[int]], r: int) -> Tuple[List[Root], Dict[Root, int]]:
    """All roots, sorted, and for each root the simple root its reflection chain starts from.

    Each root is reached from one simple root alpha_j by simple reflections, so
    it lies in the Weyl orbit of alpha_j and has the norm of alpha_j.
    """
    simple = [tuple(int(i == j) for i in range(r)) for j in range(r)]
    origin = {alpha: j for j, alpha in enumerate(simple)}
    seen = {1 << 6 * j for j in range(r)}  # root codes, as in build_root_system
    # each root with its code and pairings <alpha, alpha_k^vee>; s_j alpha = alpha - p alpha_j
    # has pairings <alpha, alpha_k^vee> - p c[j][k], so a tuple is built only for a new root
    frontier = [(alpha, 1 << 6 * j, cartan[j]) for j, alpha in enumerate(simple)]
    while frontier:
        new = []
        for alpha, code, pairing in frontier:
            for j, p in enumerate(pairing):
                refl_code = code - (p << 6 * j)
                if p and refl_code not in seen:
                    seen.add(refl_code)
                    refl = alpha[:j] + (alpha[j] - p,) + alpha[j + 1 :]
                    origin[refl] = origin[alpha]
                    new.append((refl, refl_code, [x - p * c for x, c in zip(pairing, cartan[j])]))
        frontier = new
    return sorted(origin), origin


def _symmetrizer(cartan: List[List[int]], r: int) -> List[Q]:
    """d_i with d_j * c[i][j] = d_i * c[j][i], connected propagation from node 0."""
    d: List[Q] = [Q(0)] * r
    d[0] = Q(1)
    pending = [0]
    seen = {0}
    while pending:
        i = pending.pop()
        for j in range(r):
            if i != j and cartan[i][j] != 0 and j not in seen:
                # d_i c[j][i] = d_j c[i][j]
                d[j] = d[i] * cartan[j][i] / cartan[i][j]
                seen.add(j)
                pending.append(j)
    return d


@lru_cache(maxsize=None)
def build_root_system(t: LieType) -> RootSystem:
    """Generate the full root system by reflection closure from the simple roots."""
    r = t.rank
    cartan = cartan_matrix(t)
    roots, origin = _reflection_closure(cartan, r)
    positive = sorted(
        (a for a in roots if sum(a) > 0), key=lambda a: (sum(a), a)
    )
    if 2 * len(positive) != len(roots):
        raise AssertionError("root system not closed under negation")

    # Highest root: the unique root beta with beta + alpha_k never a root.
    codes = {a: sum(x << 6 * k for k, x in enumerate(a)) for a in roots}
    code_set = set(codes.values())
    units = [1 << 6 * k for k in range(r)]
    candidates = [b for b in positive if all(codes[b] + u not in code_set for u in units)]
    if len(candidates) != 1:
        raise AssertionError("highest root is not unique")
    highest = candidates[0]

    # Length classes, computed once.  A root has the class of the simple root its
    # reflection chain starts from (Weyl invariance); at most two values occur, and
    # the symmetrizer d_j is proportional to |alpha_j|^2.
    # alpha^vee = sum_i a_i ell(alpha_i) / ell(alpha) alpha_i^vee.
    d = _symmetrizer(cartan, r)
    if len(set(d)) > 2:
        raise AssertionError("more than two root lengths")
    ell = [exact_div(dj, min(d)) for dj in d]
    long_class = max(ell)
    lengths = {codes[a]: ell[j] for a, j in origin.items()}
    if lengths[codes[highest]] != long_class:
        raise AssertionError("the highest root is not long")
    coroots = {
        a: tuple(exact_div(x * ell[i], ell[origin[a]]) if x else 0 for i, x in enumerate(a))
        for a in roots
    }

    return RootSystem(
        lie_type=t,
        cartan=tuple(tuple(row) for row in cartan),
        roots=tuple(roots),
        positive_roots=tuple(positive),
        highest_root=highest,
        affine_marks=(1,) + highest,
        long_class=long_class,
        codes=codes,
        lengths=lengths,
        coroots=coroots,
    )


def affine_cartan_matrix(rs: RootSystem) -> List[List[int]]:
    """Cartan matrix on nodes 0..r with alpha_0 = -highest root, in integers.

    Row a holds <a, alpha_j^vee> = ``pairing(a, j)`` on the simple nodes, and
    <a, alpha_0^vee> = -<a, beta^vee> = -sum_k beta^vee_k <a, alpha_k^vee>.
    """
    beta_vee = rs.coroots[rs.highest_root]
    alpha0 = tuple(-x for x in rs.highest_root)
    rows = [[rs.pairing(alpha0, j) for j in range(rs.rank)]] + [list(row) for row in rs.cartan]
    return [[-sum(t * p for t, p in zip(beta_vee, row))] + row for row in rows]
