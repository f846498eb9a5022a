"""The table of paper checks.

Each row states one numeric claim of the paper once: an id, where it comes
from, its expected value, the CLI invocations (``argvs``) that reproduce it,
and ``read``, from their ``results`` blocks to the value the row reports.
``verify-paper`` runs each distinct argv once; a user can rerun any of them as
``gradedlie <argv>``.  Expected values are literals or follow from the literature's
``kappa_rule`` (which the quaternionic build certifies) and ``RANK_TABLE``, never
from the value under test.  Rationals are exact "p/q" strings.
"""

from __future__ import annotations

from fractions import Fraction as Q
from itertools import product
from typing import Any, Callable, List, Tuple

from .rootsystem import LieType

QUATERNIONIC_TYPES = ("A2", "A3", "B3", "C2", "C3", "D4", "G2", "F4", "E6")
EXTENDED_TYPES = ("E7", "E8")
# kappa -> (rank_T(G_0, g_1), rank_T(G_0, g_{-2})) of the highest-root grading, from the literature
RANK_TABLE = {2: ("4", "1"), 1: ("1", "1")}


def kappa_rule(t: LieType) -> int:
    """The highest-root grading's kappa: 1 for the symplectic algebras (family C and B2), 2 otherwise."""
    if t.family == "C" or (t.family == "B" and t.rank == 2):
        return 1
    return 2


class PaperCheck:
    """A row of the paper-check table."""

    __slots__ = ("id", "paper_ref", "expected", "argvs", "read")

    def __init__(self, id: str, paper_ref: str, expected: Any, argvs: List[tuple], read: Callable[[list], Any]):
        self.id, self.paper_ref, self.expected = id, paper_ref, expected
        self.argvs = argvs  # CLI invocations, without the program name
        self.read = read  # the argvs' results blocks, in order -> JSON-ready value


def expected_ranks(t: LieType) -> List[str]:
    """(rank_T(G_0, g_1), rank_T(G_0, g_{-2})) of the highest-root grading."""
    return list(RANK_TABLE[kappa_rule(t)])


def quaternionic_types(extended: bool) -> Tuple[str, ...]:
    return QUATERNIONIC_TYPES + EXTENDED_TYPES if extended else QUATERNIONIC_TYPES


def field(*keys: str) -> Callable[[list], Any]:
    """Reads ``keys`` off the one run's results: the value of one key, the list of several."""
    return lambda results: results[0][keys[0]] if len(keys) == 1 else [results[0][key] for key in keys]


def _quaternionic_rows(name: str) -> List[PaperCheck]:
    """Ranks and extreme-piece regularity; for kappa 1, the irregular degree-1 pair."""
    t, argvs = LieType.parse(name), [("quaternionic", "--type", name)]
    return [
        PaperCheck(f"quaternionic-ranks-{name}", "rank table for the highest-root grading", expected_ranks(t),
                   argvs, field("rank_plus", "rank_minus")),
        PaperCheck(f"extreme-pieces-regular-{name}", "one-dimensional pieces are JM-regular", True,
                   argvs, field("extreme_pieces_jm_regular")),
        PaperCheck(f"sp-degree1-not-regular-{name}", "symplectic degree-1 pair is not JM-regular", False,
                   argvs, field("degree1_jm_regular")),
    ][: 3 if kappa_rule(t) == 1 else 2]


def _chain_222(results: list) -> list:
    """dim c, dim V, the theta-pair verdict, and whether the witness has nonzero c- and V-parts."""
    witness = results[0].get("witness")
    parts = witness is not None and all(any(x != "0" for x in witness[part]) for part in ("c_part", "v_part"))
    return field("dim_c", "dim_v", "theta_pair_candidate")(results) + [parts]


def paper_checks(extended: bool, seed: int) -> List[PaperCheck]:
    """Every paper check at ``seed``; ``extended`` adds the E7 and E8 rows of the rank table."""
    # Every (p, q, a) of the two-block row: the paper claim is checked on this box only;
    # test_quiver::test_toledo_invariant_two_blocks reaches p, q <= 5 and |a| <= 4 in the library.
    box = list(product(range(1, 4), range(1, 4), range(-2, 3)))
    two_block = [("toledo", "--dims", f"{p},{q}", f"--degrees={a},{-a}", "--genus", "2") for p, q, a in box]
    a2_labels = [f"{p0},{p1},{3 - p0 - p1}" for p0 in range(4) for p1 in range(4 - p0)]
    return [row for name in quaternionic_types(extended) for row in _quaternionic_rows(name)] + [
        PaperCheck("coarse-bounds-kappa2", "coarse interval at genus 2, generic type", ["-8", "4"],
                   [("amw", "--type", "E6", "--genus", "2")], field("bounds")),
        PaperCheck("coarse-bounds-kappa1", "coarse interval at genus 2, symplectic type", ["-2", "2"],
                   [("amw", "--type", "C3", "--genus", "2")], field("bounds")),
        PaperCheck("quiver-toledo-two-vertex", "two-block Toledo formula", True, two_block,
                   lambda results: all(Q(r["tau"]) == 2 * Q(p * (-a) - q * a, p + q)
                                       for r, (p, q, a) in zip(results, box))),
        PaperCheck("quiver-toledo-111", "three-block Toledo value", "-4",
                   [("toledo", "--dims", "1,1,1", "--degrees=1,0,-1", "--genus", "2")], field("tau")),
        PaperCheck("cayley-111", "one-block-chain centralizer data", [0, 1, True],
                   [("cayley", "--dims", "1,1,1", "--seed", str(seed))],
                   field("dim_c", "dim_v", "theta_pair_candidate")),
        PaperCheck("cayley-222", "two-block-chain data with projection witness", [3, 4, False, True],
                   [("cayley", "--dims", "2,2,2", "--seed", str(seed))], _chain_222),
        PaperCheck("kac-a2-all-lift", "rank-2 chain: every labelling lifts", True,
                   [("kac", "--type", "A2", "--labels", labels) for labels in a2_labels],
                   lambda results: "none" not in [r["lift"] for r in results]),
        PaperCheck("kac-g2-no-lift", "no lift without a movable positive label", False,
                   [("kac", "--type", "G2", "--labels", "0,1,0")], lambda results: results[0]["lift"] != "none"),
    ]
