"""Bound arithmetic for the Toledo invariant.

Everything here is closed-form evaluation: given a genus, a twisting
parameter lambda, and the Toledo ranks of the two Higgs-field components,
produce the lower bound -tau_L <= tau and, when valid, the upper bound
tau <= tau_U.  The quaternionic variants specialise the pairing to 2*kappa.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction as Q
from typing import Optional, Tuple


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
        if self.kappa not in (1, 2):
            raise ValueError("kappa must be 1 or 2")


def amw_lower(inp: BoundInput) -> Q:
    """tau_L; the bound reads -tau_L <= tau."""
    g2 = 2 * inp.genus - 2
    return inp.rank_plus * g2 + inp.lam * (inp.zeta_pairing - inp.rank_plus)


def amw_upper(inp: BoundInput, m: int, phi_minus_zero: bool) -> Optional[Q]:
    """tau_U when the depth is 2 or the back component vanishes; else None."""
    if m < 2:
        raise ValueError("depth must be at least 2")
    if m != 2 and not phi_minus_zero:
        return None
    g2 = 2 * inp.genus - 2
    return inp.rank_minus * g2 + inp.lam * (inp.zeta_pairing - inp.rank_minus)


def coarse_bound(genus: int, pair_rank: Q) -> Q:
    """The crude lower bound -(2g-2) rank_T(G_0, g_1) <= tau."""
    if genus < 2:
        raise ValueError("genus must be at least 2")
    return -(2 * genus - 2) * Q(pair_rank)


def quaternionic_bounds(inp: BoundInput) -> Tuple[Q, Q]:
    """(-tau_L, tau_U) for the five-piece grading, with pairing 2*kappa."""
    g2 = 2 * inp.genus - 2
    tau_l = inp.rank_plus * g2 + inp.lam * (2 * inp.kappa - inp.rank_plus)
    tau_u = inp.kappa * inp.rank_minus * g2 + inp.lam * (
        2 * inp.kappa - inp.kappa * inp.rank_minus
    )
    return -tau_l, tau_u


def quaternionic_coarse(genus: int, kappa: int) -> Tuple[Q, Q]:
    """Coarse interval: [-4(2g-2), 2(2g-2)] for kappa 2, [-(2g-2), 2g-2] for kappa 1."""
    rank_plus_max = Q(4) if kappa == 2 else Q(1)
    rank_minus_max = Q(1)
    return quaternionic_bounds(
        BoundInput(
            genus=genus,
            lam=Q(0),
            rank_plus=rank_plus_max,
            rank_minus=rank_minus_max,
            kappa=kappa,
        )
    )
