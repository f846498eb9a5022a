import itertools
from fractions import Fraction as Q

import pytest

from oracles import quaternionic_bounds

from gradedlie import vinberg
from gradedlie.chevalley import build_algebra
from gradedlie.grading import z_grading_from_labels
from gradedlie.quaternionic import build_quaternionic
from gradedlie.quiver import QuiverDims, toledo_invariant
from gradedlie.rootsystem import LieType


def u11():
    """The depth-2 pair of A1 (1), U(1,1): zeta-pairing 1 and dual factor -1, so tau_U is read at r_-."""
    return vinberg.GradedPair(z_grading_from_labels(build_algebra(LieType.parse("A1")), [1]))


def a2():
    """The highest-root pair of A2: zeta-pairing 4."""
    return build_quaternionic(LieType.parse("A2"))


def interval(monkeypatch, graded, genus, lam, rank_plus, rank_minus):
    """``graded.interval(genus, lam)`` with the Toledo ranks (rank_plus, rank_minus)."""
    monkeypatch.setattr(vinberg.GradedPair, "ranks", lambda self: (Q(rank_plus), Q(rank_minus)))
    return graded.interval(genus, Q(lam))


def test_input_validation():
    # the genus is outside input; the ranks are computed, and positive on every computed pair
    for graded in (u11(), a2()):
        with pytest.raises(ValueError, match="^genus must be at least 2$"):
            graded.interval(1, Q(0))
        assert min(graded.ranks()) > 0 > graded.dual_factor()


def test_lower_basic(monkeypatch):
    assert interval(monkeypatch, u11(), 2, 0, 4, 0)[0] == -8


def test_lower_trivial(monkeypatch):
    assert interval(monkeypatch, u11(), 2, 0, 0, 0)[0] == 0


def test_lower_with_lambda(monkeypatch):
    assert interval(monkeypatch, a2(), 2, 1, 4, 0)[0] == -8


def test_upper_depth_two(monkeypatch):
    assert interval(monkeypatch, u11(), 2, 0, 0, 1)[1] == 2


def test_upper_trivial(monkeypatch):
    assert interval(monkeypatch, u11(), 2, 0, 0, 0)[1] == 0


def test_coarse(monkeypatch):
    # the crude lower bound -(2g-2) rank_T(G_0, g_1) <= tau is -tau_L at lambda = 0
    assert interval(monkeypatch, u11(), 2, 0, 4, 0)[0] == -8
    assert interval(monkeypatch, u11(), 2, 0, 0, 0)[0] == 0
    assert interval(monkeypatch, u11(), 3, 0, 1, 0)[0] == -4
    with pytest.raises(ValueError):
        interval(monkeypatch, u11(), 1, 0, 1, 0)


def coarse(genus: int, name: str):
    """The interval at lambda = 0 of a type with kappa 2 (E6) or 1 (C3)."""
    return build_quaternionic(LieType.parse(name)).interval(genus, Q(0))


def test_quaternionic_coarse_endpoints():
    assert coarse(2, "E6") == (-8, 4)
    assert coarse(2, "C3") == (-2, 2)
    g = 5
    assert coarse(g, "E6") == (-4 * (2 * g - 2), 2 * (2 * g - 2))
    assert coarse(g, "C3") == (-(2 * g - 2), 2 * g - 2)


def test_quaternionic_bounds_trivial(monkeypatch):
    # zero Toledo ranks at lambda = 0 give the zero interval, whatever the pairing
    monkeypatch.setattr(vinberg.GradedPair, "ranks", lambda self: (Q(0), Q(0)))
    for name in ("E6", "C3"):
        assert build_quaternionic(LieType.parse(name)).interval(2, Q(0)) == (0, 0)


HALVES = [Q(k, 2) for k in range(-4, 5)]


def test_quaternionic_interval_matches_closed_form(monkeypatch):
    # at any Toledo ranks, a type's pairing and dual factor give the closed form at its kappa
    ranks = [x for x in HALVES if x >= 0]
    for name, kappa in (("A2", 2), ("C2", 1)):
        graded = build_quaternionic(LieType.parse(name))
        for rank_plus, rank_minus in itertools.product(ranks, ranks):
            monkeypatch.setattr(vinberg.GradedPair, "ranks", lambda self: (rank_plus, rank_minus))
            for g, lam in itertools.product(range(2, 6), HALVES):
                expected = quaternionic_bounds(g, lam, rank_plus, rank_minus, kappa)
                assert graded.interval(g, lam) == expected, (name, g, lam, rank_plus, rank_minus)


def test_lower_monotone_in_rank_plus(monkeypatch):
    graded = a2()
    for g in (2, 3):
        for lam_num in range(-4, 2 * (2 * g - 2) + 1):
            lam = Q(lam_num)
            if lam > 2 * g - 2:
                continue
            prev = None
            for rp in range(0, 6):
                v = -interval(monkeypatch, graded, g, lam, rp, 0)[0]  # tau_L
                if prev is not None:
                    assert v >= prev
                prev = v


def test_two_block_values_fill_depth_two_interval():
    # dims (1,1) at genus 2: the computed pair of A1 (1), U(1,1), has the interval [-2, 2],
    # and the degree vectors (a, -a) with |a| <= 1 land inside it, hitting both endpoints
    lower, upper = u11().interval(2, Q(0))
    assert (lower, upper) == (-2, 2)
    values = {
        toledo_invariant(QuiverDims((1, 1)), (a, -a), 2) for a in (-1, 0, 1)
    }
    assert values == {-2, 0, 2}
    assert all(lower <= v <= upper for v in values)
