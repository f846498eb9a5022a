"""Root systems of the simple complex Lie algebras.

Roots are stored as integer coordinate vectors in the simple-root basis,
ordered by Bourbaki numbering of the simple roots, and as one code each,
sum_k a_k 64^k with signed digits.  No coefficient of a root, or of a sum or
difference of two roots, exceeds 12 in absolute value, so codes add and negate
like the roots and have their sign: root-lattice steps after the reflection
closure are Python-int arithmetic.  The invariant form on the root lattice is
normalised so that the highest root has squared length 2.  Root norms
(Fractions, at most two values) and length classes (Python ints
|alpha|^2 / |shortest root|^2 in {1, 2, 3}, keyed by code) come from the
reflection closure: each root has those of the simple root whose Weyl orbit it
was reached in, so no root needs a form evaluation.  They, the integer coroot
coefficients and the Gram matrix of the simple coroots are computed once per
root system; ``norm`` and ``coroot_coefficients`` are table lookups on roots.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

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


@dataclass(frozen=True, order=True)
class LieType:
    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}")
        lo, hi = _RANK_RANGE[self.family]
        if self.rank < lo or (hi is not None and self.rank > hi):
            raise ValueError(f"invalid rank {self.rank} for family {self.family}")

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


@dataclass(frozen=True)
class RootSystem:
    lie_type: LieType
    cartan: Tuple[Tuple[int, ...], ...]
    roots: Tuple[Root, ...]
    positive_roots: Tuple[Root, ...]
    form_star: Tuple[Tuple[Q, ...], ...]  # B* on simple roots, highest root norm 2
    highest_root: Root
    affine_marks: Tuple[int, ...]  # (n_0, n_1, ..., n_r) with n_0 = 1
    norms: Dict[Root, Q] = field(compare=False, repr=False)  # B*(alpha, alpha) per root
    codes: Dict[Root, int] = field(compare=False, repr=False)  # sum_k a_k 64^k, in root order
    lengths: Dict[int, int] = field(compare=False, repr=False)  # root code -> norm / shortest norm
    coroots: Dict[Root, Tuple[int, ...]] = field(compare=False, repr=False)
    # B(h_i, h_j) = 4 (alpha_i, alpha_j) / (|alpha_i|^2 |alpha_j|^2) on simple coroots
    coroot_gram: Tuple[Tuple[Q, ...], ...] = field(compare=False, repr=False)

    @property
    def rank(self) -> int:
        return self.lie_type.rank

    @property
    def dim_algebra(self) -> int:
        return self.rank + len(self.roots)

    def pairing(self, alpha: Root, j: int) -> int:
        """Integer pairing <alpha, alpha_j^vee>."""
        return sum(alpha[i] * self.cartan[i][j] for i in range(self.rank))

    def form_value(self, alpha: Root, beta: Root) -> Q:
        """B*(alpha, beta) for lattice vectors in simple-root coordinates."""
        return _form_value(self.form_star, alpha, beta)

    def norm(self, alpha: Root) -> Q:
        """B*(alpha, alpha) of a root."""
        return self.norms[alpha]

    def coroot_coefficients(self, alpha: Root) -> Tuple[int, ...]:
        """Coefficients of the coroot alpha^vee in the simple coroot basis."""
        return self.coroots[alpha]


def exact_div(n, d) -> int:
    """n / d where the quotient must be an integer; a remainder raises AssertionError."""
    q, rem = divmod(n, d)
    if rem:
        raise AssertionError(f"{n}/{d} is not an integer")
    return q


def _form_value(form: Sequence[Sequence[Q]], alpha: Root, beta: Root) -> Q:
    r = len(form)
    return sum(
        (Q(alpha[i]) * beta[j] * form[i][j] for i in range(r) for j in range(r)),
        Q(0),
    )


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

    # Invariant form from the symmetrised Cartan matrix, rescaled so the highest
    # root has norm 2: (alpha_i, alpha_j) = d_j c[i][j], and (beta, beta) is
    # sum_j beta_j d_j <beta, alpha_j^vee>.  Zero entries share one Fraction.
    d = _symmetrizer(cartan, r)
    pairing = [sum(b * row[j] for b, row in zip(highest, cartan)) for j in range(r)]
    scale, zero = Q(2) / sum(b * dj * p for b, dj, p in zip(highest, d, pairing)), Q(0)
    form = [[d[j] * scale * c if c else zero for j, c in enumerate(row)] for row in cartan]

    # Root data, computed once.  A root has the norm and length class of the
    # simple root its reflection chain starts from (Weyl invariance); at most
    # two values occur.  alpha^vee = sum_i a_i ell(alpha_i) / ell(alpha) alpha_i^vee.
    norms = {a: form[j][j] for a, j in origin.items()}
    values = {form[j][j] for j in range(r)}
    if len(values) > 2:
        raise AssertionError("more than two root lengths")
    ell = [exact_div(form[j][j], min(values)) for j in range(r)]
    lengths = {codes[a]: ell[j] for a, j in origin.items()}
    coroots = {
        a: tuple(exact_div(x * ell[i], ell[origin[a]]) if x else 0 for i, x in enumerate(a))
        for a in roots
    }
    coroot_gram = tuple(
        tuple(2 * c / form[i][i] if c else zero for c in row)  # form[i][j] = form[j][j] c[i][j] / 2
        for i, row in enumerate(cartan)
    )

    return RootSystem(
        lie_type=t,
        cartan=tuple(tuple(row) for row in cartan),
        roots=tuple(roots),
        positive_roots=tuple(positive),
        form_star=tuple(tuple(row) for row in form),
        highest_root=highest,
        affine_marks=(1,) + highest,
        norms=norms,
        codes=codes,
        lengths=lengths,
        coroots=coroots,
        coroot_gram=coroot_gram,
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
