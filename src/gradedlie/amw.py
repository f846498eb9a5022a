"""Bound arithmetic for the Toledo invariant.

One formula, ``tau``: r (2g - 2) + lambda (zeta_pairing - r) at a Toledo
rank r.  The general bounds read -tau_L <= tau with tau_L its value at
rank_plus and, when the depth is 2 or the back component vanishes,
tau <= tau_U with tau_U its value at rank_minus.  The quaternionic interval is
that pair at pairing 2*kappa with rank_minus scaled by kappa, and the coarse
interval is the quaternionic one at lambda = 0 and the ranks of
``RANK_TABLE``.  Each default of a bound input is stated here.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction as Q
from typing import Optional, Tuple

# kappa -> (rank_T(G_0, g_1), rank_T(G_0, g_{-2})) of the highest-root grading
RANK_TABLE = {2: (Q(4), Q(1)), 1: (Q(1), Q(1))}


@dataclass(frozen=True)
class BoundInput:
    genus: int
    lam: Q = Q(0)
    rank_plus: Q = Q(0)
    rank_minus: Q = Q(0)
    zeta_pairing: Q = Q(0)  # B*(gamma,gamma) B(zeta,zeta)
    kappa: int = 2

    def __post_init__(self):
        if self.genus < 2:
            raise ValueError("genus must be at least 2")
        if self.rank_plus < 0 or self.rank_minus < 0:
            raise ValueError("ranks must be non-negative")
        if self.kappa not in RANK_TABLE:
            raise ValueError("kappa must be 1 or 2")


def tau(inp: BoundInput, rank: Q) -> Q:
    """r (2g-2) + lambda (zeta_pairing - r) at the Toledo rank r."""
    return rank * (2 * inp.genus - 2) + inp.lam * (inp.zeta_pairing - rank)


def amw_lower(inp: BoundInput) -> Q:
    """tau_L; the bound reads -tau_L <= tau."""
    return tau(inp, inp.rank_plus)


def amw_upper(inp: BoundInput, m: int = 2, phi_minus_zero: bool = False) -> Optional[Q]:
    """tau_U when the depth is 2 or the back component vanishes; else None."""
    if m < 2:
        raise ValueError("depth must be at least 2")
    if m != 2 and not phi_minus_zero:
        return None
    return tau(inp, inp.rank_minus)


def quaternionic_interval(inp: BoundInput) -> Tuple[Q, Q]:
    """(-tau_L, tau_U) for the five-piece grading: pairing 2*kappa, rank_minus scaled by kappa."""
    q = replace(inp, zeta_pairing=Q(2 * inp.kappa), rank_minus=inp.kappa * inp.rank_minus)
    return -tau(q, q.rank_plus), tau(q, q.rank_minus)


def coarse_interval(inp: BoundInput) -> Tuple[Q, Q]:
    """The quaternionic interval at lambda = 0 and the rank table's ranks."""
    rank_plus, rank_minus = RANK_TABLE[inp.kappa]
    return quaternionic_interval(replace(inp, lam=Q(0), rank_plus=rank_plus, rank_minus=rank_minus))
