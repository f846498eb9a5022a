import itertools
from fractions import Fraction as Q

import pytest

from oracles import quaternionic_bounds

from gradedlie import amw
from gradedlie.amw import (
    BoundInput,
    amw_lower,
    amw_upper,
    coarse_interval,
    quaternionic_interval,
)


def test_input_validation():
    with pytest.raises(ValueError):
        BoundInput(genus=1)
    with pytest.raises(ValueError):
        BoundInput(genus=2, rank_plus=Q(-1))
    with pytest.raises(ValueError):
        BoundInput(genus=2, kappa=3)
    for depth in (0, 1):
        with pytest.raises(ValueError):
            amw_upper(BoundInput(genus=2), depth, True)


def test_replace_checks_like_construction(monkeypatch):
    """A replaced input goes through the constructor's checks, so the intervals'
    replaced inputs cannot carry a negative rank."""
    bi = BoundInput(genus=3, lam=Q(1, 2), rank_minus=Q(1), kappa=1)
    moved = bi.replace(rank_plus=Q(4))
    assert [getattr(moved, name) for name in BoundInput.__slots__] == [3, Q(1, 2), 4, 1, 0, 1]
    with pytest.raises(ValueError, match="^ranks must be non-negative$"):
        bi.replace(rank_minus=Q(-1))
    monkeypatch.setitem(amw.RANK_TABLE, 2, (Q(-1), Q(1)))
    with pytest.raises(ValueError, match="^ranks must be non-negative$"):
        coarse_interval(BoundInput(genus=2))


def test_lower_basic():
    assert amw_lower(BoundInput(genus=2, rank_plus=Q(4))) == 8


def test_lower_trivial():
    assert amw_lower(BoundInput(genus=2)) == 0


def test_lower_with_lambda():
    bi = BoundInput(genus=2, lam=Q(1), rank_plus=Q(4), zeta_pairing=Q(4))
    assert amw_lower(bi) == 8


def test_upper_depth_two():
    bi = BoundInput(genus=2, rank_minus=Q(1))
    assert amw_upper(bi, 2, False) == 2


def test_upper_absent_outside_regime():
    bi = BoundInput(genus=2, rank_minus=Q(1))
    assert amw_upper(bi, 3, False) is None
    assert amw_upper(bi, 3, True) == 2


def test_upper_trivial():
    assert amw_upper(BoundInput(genus=2), 2, False) == 0


def test_coarse():
    # the crude lower bound -(2g-2) rank_T(G_0, g_1) <= tau is -tau_L at lambda = 0
    assert -amw_lower(BoundInput(genus=2, rank_plus=Q(4))) == -8
    assert -amw_lower(BoundInput(genus=2, rank_plus=Q(0))) == 0
    assert -amw_lower(BoundInput(genus=3, rank_plus=Q(1))) == -4
    with pytest.raises(ValueError):
        BoundInput(genus=1, rank_plus=Q(1))


def coarse(genus: int, kappa: int):
    return coarse_interval(BoundInput(genus=genus, kappa=kappa))


def test_quaternionic_coarse_endpoints():
    assert coarse(2, 2) == (-8, 4)
    assert coarse(2, 1) == (-2, 2)
    g = 5
    assert coarse(g, 2) == (-4 * (2 * g - 2), 2 * (2 * g - 2))
    assert coarse(g, 1) == (-(2 * g - 2), 2 * g - 2)


def test_quaternionic_bounds_trivial():
    bi = BoundInput(genus=2)
    assert quaternionic_interval(bi) == (0, 0)


HALVES = [Q(k, 2) for k in range(-4, 5)]


def test_quaternionic_interval_matches_closed_form():
    # the general bounds at pairing 2*kappa and rank_minus scaled by kappa
    ranks = [x for x in HALVES if x >= 0]
    for g, lam, rank_plus, rank_minus, kappa in itertools.product(range(2, 6), HALVES, ranks, ranks, (1, 2)):
        bi = BoundInput(g, lam, rank_plus, rank_minus, kappa=kappa)
        assert quaternionic_interval(bi) == quaternionic_bounds(g, lam, rank_plus, rank_minus, kappa), bi


def test_lower_monotone_in_rank_plus():
    for g in (2, 3):
        for lam_num in range(-4, 2 * (2 * g - 2) + 1):
            lam = Q(lam_num)
            if lam > 2 * g - 2:
                continue
            prev = None
            for rp in range(0, 6):
                v = amw_lower(BoundInput(genus=g, lam=lam, rank_plus=Q(rp), zeta_pairing=Q(4)))
                if prev is not None:
                    assert v >= prev
                prev = v


def test_two_block_values_fill_depth_two_interval():
    # dims (1,1) at genus 2: the interval is [-2, 2] and the degree vectors
    # (a, -a) with |a| <= 1 land inside it, hitting both endpoints
    from gradedlie.quiver import QuiverHiggsTopology, toledo_invariant

    lower = -amw_lower(BoundInput(genus=2, rank_plus=Q(1)))
    upper = amw_upper(BoundInput(genus=2, rank_minus=Q(1)), 2, False)
    assert (lower, upper) == (-2, 2)
    values = {
        toledo_invariant(QuiverHiggsTopology((1, 1), (a, -a), 2)) for a in (-1, 0, 1)
    }
    assert values == {-2, 0, 2}
    assert all(lower <= v <= upper for v in values)
