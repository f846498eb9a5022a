"""The five-piece grading attached to the highest root.

The coroot T of the highest root beta grades the algebra by ad-eigenvalues
-2..2, with one-dimensional extreme pieces spanned by the root spaces of
+-beta.  The constant kappa is the degree-1 pair's ``norm``, B*(gamma, gamma) at a
longest degree-1 root gamma: 2 for most types, 1 when every degree-1 root is
short, exactly for the symplectic algebras (family C, and B2, the same algebra).
The build certifies kappa, and so its integrality, against ``checks.kappa_rule``.

The build reads the root system alone and returns the grading's ``vinberg.GradedPair``:
the pairs of g_1, g_2 and g_{-2} that kappa, the Toledo ranks and the extreme-piece
JM-regularity read, each searched once, at root level, for a root set.  The AMW interval
of the depth-3 pair (G_0, g_1 + g_{-2}) is the record's ``interval``, read on that data.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

from .checks import kappa_rule
from .chevalley import Element
from .grading import root_grading
from .rootsystem import LieType, RootSystem, build_root_system
from .vinberg import GradedPair


def quaternionic_labels(rs: RootSystem) -> Tuple[int, ...]:
    """Degree labels alpha_k(beta^vee) of the highest-root grading, beta^vee the highest coroot."""
    return tuple(rs.simple_values(rs.coroot(rs.highest_root)))


@lru_cache(maxsize=None)
def build_quaternionic(t: LieType) -> GradedPair:
    """The graded pair of the highest-root grading, whose grading element is the coroot of
    the highest root: depth 3, so ``top`` is the pair of g_2 and ``low`` that of g_{-2}."""
    rs = build_root_system(t)
    zg = root_grading(rs, list(quaternionic_labels(rs)))
    if zg.zeta != Element(dict(enumerate(rs.coroot(rs.highest_root)))):
        raise AssertionError("grading element differs from the highest-root coroot")
    dims = zg.dims()
    if 1 not in dims:
        raise ValueError(f"{t} has no quaternionic grading: the highest-root grading has no degree-1 piece")
    if sorted(dims) != [-2, -1, 0, 1, 2] or dims[2] != 1 or dims[-2] != 1:
        raise AssertionError(f"unexpected piece structure {dims}")
    graded = GradedPair(zg)
    if graded.one.norm != kappa_rule(t):
        raise AssertionError(f"kappa = {graded.one.norm} contradicts the family rule for {t}")
    return graded
