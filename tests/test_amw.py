import itertools
from fractions import Fraction as Q

import pytest

from oracles import quaternionic_bounds

from gradedlie import quaternionic
from gradedlie.amw import BoundInput, amw_lower, amw_upper
from gradedlie.quaternionic import amw_interval, build_quaternionic
from gradedlie.rootsystem import LieType


def test_input_validation():
    with pytest.raises(ValueError):
        BoundInput(genus=1)
    with pytest.raises(ValueError):
        BoundInput(genus=2, rank_plus=Q(-1))
    for depth in (0, 1):
        with pytest.raises(ValueError):
            amw_upper(BoundInput(genus=2), depth, True)


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


def coarse(genus: int, name: str):
    """The interval at lambda = 0 of a type with kappa 2 (E6) or 1 (C3)."""
    return amw_interval(build_quaternionic(LieType.parse(name)), genus)


def test_quaternionic_coarse_endpoints():
    assert coarse(2, "E6") == (-8, 4)
    assert coarse(2, "C3") == (-2, 2)
    g = 5
    assert coarse(g, "E6") == (-4 * (2 * g - 2), 2 * (2 * g - 2))
    assert coarse(g, "C3") == (-(2 * g - 2), 2 * g - 2)


def test_quaternionic_bounds_trivial(monkeypatch):
    # zero Toledo ranks at lambda = 0 give the zero interval, whatever the pairing
    monkeypatch.setattr(quaternionic, "quaternionic_ranks", lambda qd: (Q(0), Q(0)))
    for name in ("E6", "C3"):
        assert amw_interval(build_quaternionic(LieType.parse(name)), 2) == (0, 0)


HALVES = [Q(k, 2) for k in range(-4, 5)]


def test_quaternionic_interval_matches_closed_form(monkeypatch):
    # at any Toledo ranks, a type's pairing and dual factor give the closed form at its kappa
    ranks = [x for x in HALVES if x >= 0]
    for name, kappa in (("A2", 2), ("C2", 1)):
        qd = build_quaternionic(LieType.parse(name))
        for rank_plus, rank_minus in itertools.product(ranks, ranks):
            monkeypatch.setattr(quaternionic, "quaternionic_ranks", lambda qd: (rank_plus, rank_minus))
            for g, lam in itertools.product(range(2, 6), HALVES):
                expected = quaternionic_bounds(g, lam, rank_plus, rank_minus, kappa)
                assert amw_interval(qd, g, lam) == expected, (name, g, lam, rank_plus, rank_minus)


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
