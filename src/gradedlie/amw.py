"""Bound arithmetic for the Toledo invariant.

One formula, ``tau``: r (2g - 2) + lambda (zeta_pairing - r) at a Toledo
rank r, with zeta_pairing = B*(gamma,gamma) B(zeta,zeta).  One function,
``bounds``, reads -tau_L <= tau <= tau_U off it: tau_L is its value at
rank_plus, tau_U its value at rank_minus.
"""

from __future__ import annotations

from fractions import Fraction as Q
from typing import Tuple


def tau(genus: int, lam: Q, zeta_pairing: Q, rank: Q) -> Q:
    """r (2g-2) + lambda (zeta_pairing - r) at the Toledo rank r."""
    return rank * (2 * genus - 2) + lam * (zeta_pairing - rank)


def bounds(genus: int, lam: Q, zeta_pairing: Q, rank_plus: Q, rank_minus: Q) -> Tuple[Q, Q]:
    """(-tau_L, tau_U), with the genus and the ranks checked.

    Its one caller, ``vinberg.GradedPair.interval``, always keeps tau_U, also
    at depth 3 (``amw --type`` on the pair (G_0, g_1 + g_{-2})).  Whether the
    paper's tau_U needs depth 2 or phi_- = 0 is open.
    """
    if genus < 2:
        raise ValueError("genus must be at least 2")
    if rank_plus < 0 or rank_minus < 0:
        raise ValueError("ranks must be non-negative")
    return -tau(genus, lam, zeta_pairing, rank_plus), tau(genus, lam, zeta_pairing, rank_minus)
