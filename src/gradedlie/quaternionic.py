"""The five-piece grading attached to the highest root.

The coroot T of the highest root beta grades the algebra by ad-eigenvalues
-2..2, with one-dimensional extreme pieces spanned by the root spaces of
+-beta.  The constant kappa is the squared length of a longest degree-1 root
gamma under the B*(beta,beta) = 2 normalisation, 2 ell(gamma) / L in length
classes, certified an integer: 2 for most types, 1 when every
degree-1 root is short.  That happens exactly for the symplectic algebras —
family C, plus B2 which is the same algebra in disguise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, Tuple

from .chevalley import ChevalleyAlgebra, build_algebra
from .grading import ZGrading, z_grading_from_labels
from .rootsystem import LieType, exact_div
from .vinberg import (
    RegularityCertificate,
    VinbergPair,
    jm_regular,
    pair_rank,
    regrade,
    vinberg_pair,
)


def quaternionic_labels(alg: ChevalleyAlgebra) -> Tuple[int, ...]:
    """Degree labels <alpha_k, beta^vee> = sum_j beta^vee_j c[k][j] of the highest-root grading."""
    beta_vee = alg.rs.coroot_coefficients(alg.rs.highest_root)
    return tuple(sum(t * c for t, c in zip(beta_vee, row)) for row in alg.rs.cartan)


@dataclass
class QuaternionicData:
    grading: ZGrading  # its grading element is the coroot of the highest root
    kappa: int
    pairs: Dict[int, VinbergPair] = field(default_factory=dict, compare=False, repr=False)

    @property
    def algebra(self) -> ChevalleyAlgebra:
        return self.grading.algebra

    def pair(self, degree: int = 1) -> VinbergPair:
        """The pair (G_0, g_degree), built once per degree."""
        if degree not in self.pairs:
            self.pairs[degree] = vinberg_pair(self.grading if degree == 1 else regrade(self.grading, degree))
        return self.pairs[degree]


@lru_cache(maxsize=None)
def build_quaternionic(t: LieType) -> QuaternionicData:
    alg = build_algebra(t)
    zg = z_grading_from_labels(alg, list(quaternionic_labels(alg)))
    if zg.zeta != alg.coroot(alg.rs.highest_root):
        raise AssertionError("grading element differs from the highest-root coroot")
    dims = zg.dims()
    if 1 not in dims:
        raise ValueError(f"{t} has no quaternionic grading: the highest-root grading has no degree-1 piece")
    if sorted(dims) != [-2, -1, 0, 1, 2] or dims[2] != 1 or dims[-2] != 1:
        raise AssertionError(f"unexpected piece structure {dims}")
    pair = vinberg_pair(zg)
    kappa = exact_div(2 * alg.rs.length_class(pair.gamma), alg.rs.long_class)  # B*(gamma, gamma)
    if kappa != kappa_rule(t):
        raise AssertionError(f"kappa = {kappa} contradicts the family rule for {t}")
    return QuaternionicData(grading=zg, kappa=kappa, pairs={1: pair})


def kappa_rule(t: LieType) -> int:
    """1 for the symplectic algebras (family C and B2), 2 otherwise."""
    if t.family == "C" or (t.family == "B" and t.rank == 2):
        return 1
    return 2


def quaternionic_ranks(qd: QuaternionicData, seed: int = 0) -> Tuple[Q, Q]:
    """(rank_T(G_0, g_1), rank_T(G_0, g_{-2})), via sl2-triples on open-orbit elements."""
    rank_plus = pair_rank(qd.pair(1), seed)
    rank_minus = pair_rank(qd.pair(-2), seed)
    return rank_plus, rank_minus


@dataclass
class ExtremePieceReport:
    plus: RegularityCertificate
    minus: RegularityCertificate

    @property
    def both_regular(self) -> bool:
        return self.plus.regular and self.minus.regular


def verify_extreme_pieces(qd: QuaternionicData, seed: int = 0) -> ExtremePieceReport:
    """JM-regularity certificates for the pairs (G_0, g_2) and (G_0, g_{-2})."""
    return ExtremePieceReport(
        plus=jm_regular(qd.pair(2), seed),
        minus=jm_regular(qd.pair(-2), seed),
    )
