"""Checks of one job's outcome against its reference and independent oracles.

The oracles use none of gradedlie's code: root counts and algebra dimensions
come from closed formulas, and quiver orbits from Gabriel's classification
(an orbit of the linear A_m quiver is a multiplicity vector of interval
modules [i, j] with sum over i <= k <= j of m_ij = d_k).
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

_ROOT_COUNT = {
    "A": lambda r: r * (r + 1),
    "B": lambda r: 2 * r * r,
    "C": lambda r: 2 * r * r,
    "D": lambda r: 2 * r * (r - 1),
    "E": lambda r: {6: 72, 7: 126, 8: 240}[r],
    "F": lambda r: 48,
    "G": lambda r: 12,
}


def digest(report: dict) -> str:
    """sha256 of the canonical JSON form of a parsed report."""
    canonical = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _flag(argv: Tuple[str, ...], name: str) -> str:
    return argv[argv.index(name) + 1]


def _algebra_dim(lie_type: str) -> int:
    rank = int(lie_type[1:])
    return rank + _ROOT_COUNT[lie_type[0].upper()](rank)


def interval_multiplicities(dims: List[int]) -> Iterator[Dict[Tuple[int, int], int]]:
    """Every m_ij >= 0 over intervals [i, j] covering each vertex k exactly d_k times."""
    m = len(dims)
    intervals = [(i, j) for i in range(m) for j in range(i, m)]

    def extend(pos: int, left: List[int], chosen: Dict[Tuple[int, int], int]):
        if pos == len(intervals):
            if not any(left):
                yield dict(chosen)
            return
        i, j = intervals[pos]
        # vertex i is never covered by a later interval, so the last interval
        # starting at i must use up what is left there
        last_at_i = j == m - 1
        cap = min(left[i : j + 1])
        counts = [left[i]] if last_at_i else range(cap + 1)
        for c in counts:
            if c > cap:
                continue
            for k in range(i, j + 1):
                left[k] -= c
            if c:
                chosen[(i, j)] = c
            yield from extend(pos + 1, left, chosen)
            chosen.pop((i, j), None)
            for k in range(i, j + 1):
                left[k] += c

    yield from extend(0, list(dims), {})


def _rank_tuple(mult: Dict[Tuple[int, int], int], m: int) -> FrozenSet:
    """r_ij = sum of m_ab over a <= i and b >= j, for i < j."""
    return frozenset(
        (f"{i},{j}", sum(c for (a, b), c in mult.items() if a <= i and b >= j))
        for i in range(m)
        for j in range(i + 1, m)
    )


def _quiver(argv, results) -> Optional[str]:
    dims = [int(x) for x in _flag(argv, "--dims").split(",")]
    expected = {_rank_tuple(mult, len(dims)) for mult in interval_multiplicities(dims)}
    got = [frozenset(o["ranks"].items()) for o in results["orbits"]]
    if len(got) != len(expected):
        return f"{len(got)} orbits, interval multiplicities give {len(expected)}"
    if set(got) != expected:
        return "orbit rank tuples differ from the interval-multiplicity ones"
    return None


def _grading(argv, results) -> Optional[str]:
    dims = {int(j): d for j, d in results["piece_dims"].items()}
    if any(dims.get(-j) != d for j, d in dims.items()):
        return f"piece dims not symmetric: {dims}"
    if sum(dims.values()) != _algebra_dim(_flag(argv, "--type")):
        return f"piece dims sum to {sum(dims.values())}, not the algebra dimension"
    return None


def _quaternionic(argv, results) -> Optional[str]:
    pd = results["piece_dims"]
    if len(pd) != 5 or pd[0] != 1 or pd[4] != 1 or pd[1] != pd[3]:
        return f"piece dims {pd} do not have the shape [1, d, x, d, 1]"
    if sum(pd) != _algebra_dim(_flag(argv, "--type")):
        return f"piece dims sum to {sum(pd)}, not the algebra dimension"
    return None


ORACLES = {"quiver": _quiver, "grading": _grading, "quaternionic": _quaternionic}


def check(argv: Tuple[str, ...], outcome: dict, reference: Optional[dict]) -> Optional[str]:
    """None when the job is right, else the reason it failed.

    ``outcome`` holds the child's ``rc``, ``stdout`` and ``raised``;
    ``reference`` holds the seed commit's ``exit`` code and report ``digest``
    (null for jobs that had no report there, which only the oracles check).
    """
    if outcome.get("error"):
        return outcome["error"]
    if outcome["raised"]:
        return f"raised {outcome['raised']}"
    if reference is None:
        return "no reference for this job"
    if outcome["rc"] != reference["exit"]:
        return f"exit code {outcome['rc']}, reference {reference['exit']}"
    try:
        report = json.loads(outcome["stdout"])
    except json.JSONDecodeError:
        return "report is not JSON"
    failing = [c["id"] for c in report.get("checks", []) if not c["pass"]]
    if failing:
        return f"failed checks {failing}"
    if reference["digest"] is not None and digest(report) != reference["digest"]:
        return "report differs from the reference"
    oracle = ORACLES.get(argv[0])
    return oracle(argv, report["results"]) if oracle else None
