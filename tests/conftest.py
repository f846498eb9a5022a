import os
import subprocess
import sys
from fractions import Fraction as Q
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import settings

from gradedlie.checks import paper_checks
from gradedlie.chevalley import build_algebra
from gradedlie.cli import cmd_verify_paper
from gradedlie.grading import z_grading_from_labels
from gradedlie.quiver import QuiverDims, labels_for_dims
from gradedlie.rootsystem import LieType
from oracles import basis_index, dims_for_labels, from_sparse

# Property tests draw the same examples on every run and write no example
# database; CLI examples can take a second, so there is no per-example deadline.
settings.register_profile("tier1", derandomize=True, database=None, deadline=None)
settings.load_profile("tier1")

TESTS = Path(__file__).resolve().parent


def run_python(*args: str, cwd=None, env=None, exit_code: int = 0) -> subprocess.CompletedProcess:
    """``python *args`` in a fresh interpreter, which must exit with ``exit_code``: the one way
    Tier-1 starts ``sys.executable``.  ``env`` overrides entries of ``os.environ``, and the
    child's ``PYTHONPATH`` is this checkout's ``src`` followed by the one it would otherwise get.
    A child that hangs fails its test after ten minutes instead of holding the session."""
    child = {**os.environ, **(env or {})}
    child["PYTHONPATH"] = os.pathsep.join(filter(None, [str(TESTS.parent / "src"), child.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=child, capture_output=True, text=True, timeout=600)
    assert done.returncode == exit_code, done.stdout + done.stderr
    return done


@lru_cache(maxsize=None)
def isolated_replay() -> str:
    """The summary line of ``replay.py`` (which installs the benchmark tracer) run once per
    session under ``python -X dev -W error -O -S`` with ``src`` alone on its ``PYTHONPATH``:
    Tier-1's warnings policy, no ``assert`` statement and no installed package, in one
    interpreter."""
    done = run_python("-X", "dev", "-W", "error", "-O", "-S", str(TESTS / "replay.py"),
                      env={"PYTHONPATH": ""})
    return done.stdout.splitlines()[-1]


PAPER_CHECKS = {row.id: row for row in paper_checks(extended=True, seed=0)}


@lru_cache(maxsize=None)
def paper_check_actuals():
    """Each row's value as one ``verify-paper --extended`` run at seed 0 reports it, run once per session."""
    return {check["id"]: check["actual"] for check in cmd_verify_paper(seed=0, extended=True)["checks"]}


def paper_check_actual(check_id: str):
    return paper_check_actuals()[check_id]


def assert_paper_check(check_id: str):
    assert paper_check_actual(check_id) == PAPER_CHECKS[check_id].expected, check_id


def chain_root(i: int, j: int, rank: int):
    """Root alpha_i + ... + alpha_{j-1} of the rank-r chain diagram, 1-indexed."""
    return tuple(int(i <= k + 1 < j) for k in range(rank))


# Dynkin diagram automorphisms, as node -> image node (0-based, Bourbaki numbering)
DIAGRAM_AUTOMORPHISMS = {
    "A2": (1, 0),
    "A3": (2, 1, 0),
    "A4": (3, 2, 1, 0),
    "A5": (4, 3, 2, 1, 0),
    "D4": (2, 1, 3, 0),  # triality: 1 -> 3 -> 4 -> 1, the centre 2 fixed
    "E6": (5, 1, 4, 3, 2, 0),  # 1 <-> 6, 3 <-> 5
}


def moved_labels(sigma, labels):
    """The labels moved by the diagram automorphism sigma: label i lands on node sigma[i]."""
    moved = [0] * len(labels)
    for i, target in enumerate(sigma):
        moved[target] = labels[i]
    return moved


# types whose highest-root (quaternionic) gradings the tests build
TYPE_LIST = ["A2", "A3", "B3", "C2", "C3", "D4", "G2", "F4", "E6"]
# the paper-check types (verify-paper --extended) and the classical ones up to A12 and B9-D9
CLI_TYPES = (
    [f"A{r}" for r in range(2, 13)]
    + [f"{f}{r}" for f in "BC" for r in range(2, 10)]
    + [f"D{r}" for r in range(4, 10)]
    + ["E6", "E7", "E8", "F4", "G2"]
)


# every dimension vector with total n <= 5 and at least two blocks
SMALL_DIMS = [
    dims_for_labels([cuts >> k & 1 for k in range(n - 1)]).dims
    for n in range(2, 6)
    for cuts in range(1, 1 << (n - 1))
]


def dims_id(dims) -> str:
    """The test id of a dimension vector: its entries joined by commas, such as ``1,2,1``."""
    return ",".join(map(str, dims))


def quiver_grading(dims: QuiverDims):
    """The block grading of sl_n matching a quiver dimension vector."""
    alg = build_algebra(LieType("A", dims.n - 1))
    return z_grading_from_labels(alg, list(labels_for_dims(dims)))


def embed_quiver_element(zg, dims: QuiverDims, elem):
    """Degree-1 element of the block grading with the same rank data.

    The entry f_b[a][c] (vertex-b basis c to vertex-(b+1) basis a) goes onto
    the root vector joining position c of block b to position a of block b+1.
    """
    alg = build_algebra(zg.rs.lie_type)
    coords = {}
    for b, f in enumerate(elem):
        for a in range(f.rows):
            for c in range(f.cols):
                if f[a][c]:
                    i = dims.block_start(b) + c + 1
                    j = dims.block_start(b + 1) + a + 1
                    root = chain_root(i, j, alg.rank)
                    coords[basis_index(alg.rs, root)] = Q(f[a][c])
    return from_sparse(alg, coords)


@pytest.fixture(scope="session")
def sl2():
    return build_algebra(LieType.parse("A1"))


@pytest.fixture(scope="session")
def sl3():
    return build_algebra(LieType.parse("A2"))
