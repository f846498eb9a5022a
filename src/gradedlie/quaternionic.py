"""The five-piece grading attached to the highest root.

The coroot T of the highest root beta grades the algebra by ad-eigenvalues
-2..2, with one-dimensional extreme pieces spanned by the root spaces of
+-beta.  The constant kappa is the squared length of a longest degree-1 root
gamma under the B*(beta,beta) = 2 normalisation, 2 ell(gamma) / L in length
classes, certified an integer: 2 for most types, 1 when every
degree-1 root is short.  That happens exactly for the symplectic algebras —
family C, plus B2 which is the same algebra in disguise.

The build returns the grading's ``vinberg.GradedPair``: the pairs of g_1, g_2 and
g_{-2} that kappa, the Toledo ranks and the extreme-piece JM-regularity read, each
searched once, for a root set.  The AMW interval of the depth-3 pair
(G_0, g_1 + g_{-2}) is the record's ``interval``: ``amw.bounds`` on that computed data
alone.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .chevalley import ChevalleyAlgebra, build_algebra
from .grading import z_grading_from_labels
from .rootsystem import LieType, exact_div
from .vinberg import GradedPair, VinbergPair


def quaternionic_labels(alg: ChevalleyAlgebra) -> Tuple[int, ...]:
    """Degree labels <alpha_k, beta^vee> = sum_j beta^vee_j c[k][j] of the highest-root grading."""
    beta_vee = alg.rs.coroots[alg.rs.highest_root]
    return tuple(sum(t * c for t, c in zip(beta_vee, row)) for row in alg.rs.cartan)


@lru_cache(maxsize=None)
def build_quaternionic(t: LieType) -> GradedPair:
    """The graded pair of the highest-root grading, whose grading element is the coroot of
    the highest root: depth 3, so ``top`` is the pair of g_2 and ``low`` that of g_{-2}."""
    alg = build_algebra(t)
    zg = z_grading_from_labels(alg, list(quaternionic_labels(alg)))
    if zg.zeta != alg.coroot(alg.rs.highest_root):
        raise AssertionError("grading element differs from the highest-root coroot")
    dims = zg.dims()
    if 1 not in dims:
        raise ValueError(f"{t} has no quaternionic grading: the highest-root grading has no degree-1 piece")
    if sorted(dims) != [-2, -1, 0, 1, 2] or dims[2] != 1 or dims[-2] != 1:
        raise AssertionError(f"unexpected piece structure {dims}")
    graded = GradedPair(zg)
    k = kappa(graded.one)
    if k != kappa_rule(t):
        raise AssertionError(f"kappa = {k} contradicts the family rule for {t}")
    return graded


def kappa(pair: VinbergPair) -> int:
    """B*(gamma, gamma) = 2 ell(gamma) / L at the degree-1 pair's longest root gamma."""
    rs = pair.algebra.rs
    return exact_div(2 * rs.length_class(pair.gamma), rs.long_class)


def kappa_rule(t: LieType) -> int:
    """1 for the symplectic algebras (family C and B2), 2 otherwise."""
    if t.family == "C" or (t.family == "B" and t.rank == 2):
        return 1
    return 2
