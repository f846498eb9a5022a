"""The five-piece grading attached to the highest root.

The coroot T of the highest root beta grades the algebra by ad-eigenvalues
-2..2, with one-dimensional extreme pieces spanned by the root spaces of
+-beta.  The constant kappa is the squared length of a longest degree-1 root
gamma under the B*(beta,beta) = 2 normalisation, 2 ell(gamma) / L in length
classes, certified an integer: 2 for most types, 1 when every
degree-1 root is short.  That happens exactly for the symplectic algebras —
family C, plus B2 which is the same algebra in disguise.

The build returns the pairs (G_0, g_j), j = 1, 2, -2, that kappa, the Toledo
ranks and the extreme-piece JM-regularity read; each is searched once, for a root set.
The AMW interval of the depth-3 pair (G_0, g_1 + g_{-2}) is ``amw.bounds`` on
that computed data alone: the zeta-pairing of the degree-1 pair, its two Toledo
ranks and its dual factor.
"""

from __future__ import annotations

from fractions import Fraction as Q
from functools import lru_cache
from typing import Dict, Tuple

from .amw import bounds
from .chevalley import ChevalleyAlgebra, build_algebra
from .grading import z_grading_from_labels
from .rootsystem import LieType, exact_div
from .vinberg import VinbergPair, dual_toledo_factor, jm_regular, pair_rank, regrade, vinberg_pair


def quaternionic_labels(alg: ChevalleyAlgebra) -> Tuple[int, ...]:
    """Degree labels <alpha_k, beta^vee> = sum_j beta^vee_j c[k][j] of the highest-root grading."""
    beta_vee = alg.rs.coroots[alg.rs.highest_root]
    return tuple(sum(t * c for t, c in zip(beta_vee, row)) for row in alg.rs.cartan)


@lru_cache(maxsize=None)
def build_quaternionic(t: LieType) -> Dict[int, VinbergPair]:
    """The pairs (G_0, g_j), j = 1, 2, -2, of the highest-root grading, which is
    ``pairs[1].grading``: its grading element is the coroot of the highest root."""
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
    k = kappa(pairs[1])
    if k != kappa_rule(t):
        raise AssertionError(f"kappa = {k} contradicts the family rule for {t}")
    return pairs


def kappa(pair: VinbergPair) -> int:
    """B*(gamma, gamma) = 2 ell(gamma) / L at the degree-1 pair's longest root gamma."""
    rs = pair.algebra.rs
    return exact_div(2 * rs.length_class(pair.gamma), rs.long_class)


def amw_interval(pairs: Dict[int, VinbergPair], genus: int, lam: Q = Q(0)) -> Tuple[Q, Q]:
    """``amw.bounds`` at the degree-1 pair's zeta-pairing, r_+ and -r_-/d, with d its dual Toledo factor."""
    rank_plus, rank_minus = quaternionic_ranks(pairs)
    pair = pairs[1]
    return bounds(genus, lam, pair.zeta_pairing(), rank_plus, -rank_minus / dual_toledo_factor(pair))


def kappa_rule(t: LieType) -> int:
    """1 for the symplectic algebras (family C and B2), 2 otherwise."""
    if t.family == "C" or (t.family == "B" and t.rank == 2):
        return 1
    return 2


def quaternionic_ranks(pairs: Dict[int, VinbergPair]) -> Tuple[Q, Q]:
    """(rank_T(G_0, g_1), rank_T(G_0, g_{-2})), via sl2-triples on open-orbit elements."""
    return pair_rank(pairs[1]), pair_rank(pairs[-2])


def extremes_regular(pairs: Dict[int, VinbergPair]) -> bool:
    """Whether the pairs (G_0, g_2) and (G_0, g_{-2}) are both JM-regular."""
    return jm_regular(pairs[2]) and jm_regular(pairs[-2])
