"""The five-piece grading attached to the highest root.

The coroot T of the highest root beta grades the algebra by ad-eigenvalues
-2..2, with one-dimensional extreme pieces spanned by the root spaces of
+-beta.  The constant kappa is the squared length of a longest degree-1 root
gamma under the B*(beta,beta) = 2 normalisation, 2 ell(gamma) / L in length
classes, certified an integer: 2 for most types, 1 when every
degree-1 root is short.  That happens exactly for the symplectic algebras —
family C, plus B2 which is the same algebra in disguise.

The build also makes the pairs (G_0, g_j), j = 1, 2, -2, that the Toledo
ranks and the extreme-piece JM-regularity read; each is searched once, for a root set.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, Tuple

from .chevalley import ChevalleyAlgebra, build_algebra
from .grading import ZGrading, z_grading_from_labels
from .rootsystem import LieType, exact_div
from .vinberg import VinbergPair, jm_regular, pair_rank, regrade, vinberg_pair


def quaternionic_labels(alg: ChevalleyAlgebra) -> Tuple[int, ...]:
    """Degree labels <alpha_k, beta^vee> = sum_j beta^vee_j c[k][j] of the highest-root grading."""
    beta_vee = alg.rs.coroots[alg.rs.highest_root]
    return tuple(sum(t * c for t, c in zip(beta_vee, row)) for row in alg.rs.cartan)


class QuaternionicData:
    """The highest-root grading, kappa and the pairs of degrees 1, 2 and -2."""

    __slots__ = ("grading", "kappa", "pairs")

    def __init__(self, grading: ZGrading, kappa: int, pairs: Dict[int, VinbergPair]):
        self.grading = grading  # its grading element is the coroot of the highest root
        self.kappa = kappa
        self.pairs = pairs  # (G_0, g_j) for j = 1, 2, -2


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
    pairs = {j: vinberg_pair(zg if j == 1 else regrade(zg, j)) for j in (1, 2, -2)}
    kappa = exact_div(2 * alg.rs.length_class(pairs[1].gamma), alg.rs.long_class)  # B*(gamma, gamma)
    if kappa != kappa_rule(t):
        raise AssertionError(f"kappa = {kappa} contradicts the family rule for {t}")
    return QuaternionicData(grading=zg, kappa=kappa, pairs=pairs)


def kappa_rule(t: LieType) -> int:
    """1 for the symplectic algebras (family C and B2), 2 otherwise."""
    if t.family == "C" or (t.family == "B" and t.rank == 2):
        return 1
    return 2


def quaternionic_ranks(qd: QuaternionicData) -> Tuple[Q, Q]:
    """(rank_T(G_0, g_1), rank_T(G_0, g_{-2})), via sl2-triples on open-orbit elements."""
    return pair_rank(qd.pairs[1]), pair_rank(qd.pairs[-2])


def extremes_regular(qd: QuaternionicData) -> bool:
    """Whether the pairs (G_0, g_2) and (G_0, g_{-2}) are both JM-regular."""
    return jm_regular(qd.pairs[2]) and jm_regular(qd.pairs[-2])
