"""The table of paper checks.

Each row states one numeric claim of the paper once: an id, where the claim
comes from, its expected value, and a function from seed to the computed,
JSON-ready value.  ``verify-paper`` runs the table and the acceptance tests
are parametrized over it.  Expected values are literals or follow from
``kappa_rule`` and the literature's ``RANK_TABLE``; none is read off the
value under test.  Rationals are serialized as exact "p/q" strings.
"""

from __future__ import annotations

import random
from fractions import Fraction as Q
from functools import lru_cache
from typing import Any, Callable, Dict, List, Optional, Tuple

from .cayley import BracketProjection, bracket_projection_test, cayley_pair
from .chevalley import build_algebra
from .grading import kac_labels, kac_lift_check, z_grading_from_labels
from .quaternionic import amw_interval, build_quaternionic, extremes_regular, kappa_rule, quaternionic_ranks
from .quiver import QuiverHiggsTopology, toledo_invariant
from .rootsystem import LieType, build_root_system
from .vinberg import jm_regular

QUATERNIONIC_TYPES = ("A2", "A3", "B3", "C2", "C3", "D4", "G2", "F4", "E6")
EXTENDED_TYPES = ("E7", "E8")
CHAIN_111 = (1, 1)  # A2 labels of the dimension vector (1, 1, 1)
CHAIN_222 = (0, 1, 0, 1, 0)  # A5 labels of (2, 2, 2)
# kappa -> (rank_T(G_0, g_1), rank_T(G_0, g_{-2})) of the highest-root grading, from the literature
RANK_TABLE = {2: (Q(4), Q(1)), 1: (Q(1), Q(1))}


def q_str(x) -> str:
    q = Q(x)
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


def q_list(xs) -> List[str]:
    return [q_str(x) for x in xs]


def witness_json(w: BracketProjection, dim: int) -> Dict[str, Any]:
    """The witness with every part as its ``dim`` coordinates."""
    return {
        "pair": [w.v_index, w.v_prime_index],
        "c_part": q_list(w.c_part.dense(dim)),
        "v_part": q_list(w.v_part.dense(dim)),
        "rest_part": q_list(w.rest_part.dense(dim)),
    }


class PaperCheck:
    """A row of the paper-check table."""

    __slots__ = ("id", "paper_ref", "expected", "actual")

    def __init__(self, id: str, paper_ref: str, expected: Any, actual: Callable[[int], Any]):
        self.id, self.paper_ref, self.expected = id, paper_ref, expected
        self.actual = actual  # seed -> JSON-ready value


def expected_ranks(t: LieType) -> List[str]:
    """(rank_T(G_0, g_1), rank_T(G_0, g_{-2})) of the highest-root grading."""
    return q_list(RANK_TABLE[kappa_rule(t)])


def quaternionic_types(extended: bool) -> Tuple[str, ...]:
    return QUATERNIONIC_TYPES + EXTENDED_TYPES if extended else QUATERNIONIC_TYPES


def kappa_table(extended: bool) -> Dict[str, int]:
    return {name: build_quaternionic(LieType.parse(name)).kappa for name in quaternionic_types(extended)}


@lru_cache(maxsize=2)  # one seed's two chain examples: the cayley-222 row and witness_222 share a run
def _chain_example(labels: Tuple[int, ...], seed: int) -> Tuple[tuple, Optional[Dict[str, Any]]]:
    """(dim c, dim V, theta-pair verdict, whether the witness has nonzero c- and V-parts),
    and the witness as JSON."""
    cd = cayley_pair(z_grading_from_labels(build_algebra(LieType("A", len(labels))), list(labels)), seed)
    w = bracket_projection_test(cd)
    summary = (cd.dim_c, cd.dim_v, w is None, w is not None and bool(w.c_part) and bool(w.v_part))
    return summary, None if w is None else witness_json(w, cd.algebra.dim)


def witness_222(seed: int) -> Optional[Dict[str, Any]]:
    return _chain_example(CHAIN_222, seed)[1]


def _quaternionic_rows(name: str) -> List[PaperCheck]:
    """Ranks and extreme-piece regularity; for kappa 1, the irregular degree-1 pair."""
    t = LieType.parse(name)
    rows = [
        PaperCheck(f"quaternionic-ranks-{name}", "rank table for the highest-root grading", expected_ranks(t),
                   lambda seed: q_list(quaternionic_ranks(build_quaternionic(t)))),
        PaperCheck(f"extreme-pieces-regular-{name}", "one-dimensional pieces are JM-regular", True,
                   lambda seed: extremes_regular(build_quaternionic(t))),
    ]
    if kappa_rule(t) == 1:
        rows.append(PaperCheck(
            f"sp-degree1-not-regular-{name}", "symplectic degree-1 pair is not JM-regular", False,
            lambda seed: jm_regular(build_quaternionic(t).pairs[1]),
        ))
    return rows


def _two_block_formula(seed: int) -> bool:
    rng = random.Random(seed)
    draws = [(rng.randint(1, 6), rng.randint(1, 6), rng.randint(-5, 5)) for _ in range(50)]
    return all(
        toledo_invariant(QuiverHiggsTopology((p, q), (a, -a), 2)) == 2 * Q(p * (-a) - q * a, p + q)
        for p, q, a in draws
    )


def _a2_all_lift(seed: int) -> bool:
    a2 = build_root_system(LieType("A", 2))
    return all(
        kac_lift_check(a2, kac_labels(a2, [p0, p1, 3 - p0 - p1])).lifts
        for p0 in range(4)
        for p1 in range(4 - p0)
    )


def _g2_lifts(seed: int) -> bool:
    g2 = build_root_system(LieType("G", 2))
    return kac_lift_check(g2, kac_labels(g2, [0, 1, 0])).lifts


def paper_checks(extended: bool) -> List[PaperCheck]:
    """Every paper check; ``extended`` adds the E7 and E8 rows of the rank table."""
    rows = [row for name in quaternionic_types(extended) for row in _quaternionic_rows(name)]
    return rows + [
        PaperCheck("coarse-bounds-kappa2", "coarse interval at genus 2, generic type",
                   ["-8", "4"], lambda seed: q_list(amw_interval(build_quaternionic(LieType("E", 6)), 2))),
        PaperCheck("coarse-bounds-kappa1", "coarse interval at genus 2, symplectic type",
                   ["-2", "2"], lambda seed: q_list(amw_interval(build_quaternionic(LieType("C", 3)), 2))),
        PaperCheck("quiver-toledo-two-vertex", "two-block Toledo formula", True, _two_block_formula),
        PaperCheck("quiver-toledo-111", "three-block Toledo value", "-4",
                   lambda seed: q_str(toledo_invariant(QuiverHiggsTopology((1, 1, 1), (1, 0, -1), 2)))),
        PaperCheck("cayley-111", "one-block-chain centralizer data", [0, 1, True],
                   lambda seed: list(_chain_example(CHAIN_111, seed)[0][:3])),
        PaperCheck("cayley-222", "two-block-chain data with projection witness",
                   [3, 4, False, True], lambda seed: list(_chain_example(CHAIN_222, seed)[0])),
        PaperCheck("kac-a2-all-lift", "rank-2 chain: every labelling lifts", True, _a2_all_lift),
        PaperCheck("kac-g2-no-lift", "no lift without a movable positive label", False, _g2_lifts),
    ]
