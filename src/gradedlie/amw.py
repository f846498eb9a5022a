"""Bound arithmetic for the Toledo invariant.

One formula, ``tau``: r (2g - 2) + lambda (zeta_pairing - r) at a Toledo
rank r.  The general bounds read -tau_L <= tau with tau_L its value at
rank_plus and, when the depth is 2 or the back component vanishes,
tau <= tau_U with tau_U its value at rank_minus.  Each default of a bound
input is stated here.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Optional


class BoundInput:
    """The inputs of ``tau``, each validated."""

    __slots__ = ("genus", "lam", "rank_plus", "rank_minus", "zeta_pairing")

    def __init__(
        self, genus: int, lam: Q = Q(0), rank_plus: Q = Q(0), rank_minus: Q = Q(0),
        zeta_pairing: Q = Q(0),  # B*(gamma,gamma) B(zeta,zeta)
    ):
        if genus < 2:
            raise ValueError("genus must be at least 2")
        if rank_plus < 0 or rank_minus < 0:
            raise ValueError("ranks must be non-negative")
        self.genus, self.lam, self.rank_plus, self.rank_minus = genus, lam, rank_plus, rank_minus
        self.zeta_pairing = zeta_pairing


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
