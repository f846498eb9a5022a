"""Counted work as a Tier-1 budget: the bytecode instructions of one ``cli.main`` call per
job, each in a fresh interpreter (``work_count.py``), held to ``work_budget.json``.

A count is exact and the same under every hash seed, so it resolves changes that a
timed run cannot.  It is comparable only on one interpreter version, so budgets are
keyed by minor version and other versions skip; 3.10 and 3.11 count ``sys.settrace``
opcode events, 3.12 and 3.13 ``sys.monitoring`` instruction events.  Each budget was the
job's count when it was recorded plus 1 %; a change that lowers a count may lower its
budget, and raising one is a bound change.  The 3.11 counts were taken on 3.11.7 and
agree exactly on 3.11.2; the 3.12 and 3.13 counts were taken on 3.12.1 and 3.13.0.  The
3.10 counts were taken on 3.10.13 by running ``work_count.py`` directly: pytest could not
start on that interpreter, which lacked its ``exceptiongroup`` dependency, so the two tests
below were called there as plain functions (with a stand-in ``pytest`` module) and passed.
Other patch releases are unchecked, and the stdlib code a job runs (``fractions``,
``json``'s indenting encoder) could differ there.
"""

import json
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
BUDGETS = json.loads((TESTS / "work_budget.json").read_text())

pytestmark = pytest.mark.skipif(
    VERSION not in BUDGETS,
    reason=f"work budgets are recorded for Python {', '.join(BUDGETS)} only; "
    f"a bytecode count on {VERSION} is not comparable with them",
)


def work(job: str, hash_seed: str = "0") -> int:
    """The instructions ``gradedlie <job>`` executes in a fresh interpreter, which must exit 0."""
    src = str(TESTS.parent / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, str(TESTS / "work_count.py"), *job.split()],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    executed, code = map(int, done.stdout.split())
    assert code == 0, job
    return executed


@lru_cache(maxsize=None)
def counts() -> dict:
    """Every budgeted job's count, two interpreters at a time."""
    jobs = list(BUDGETS[VERSION])
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(zip(jobs, pool.map(work, jobs)))


def test_every_job_within_its_budget():
    budgets = BUDGETS[VERSION]
    table = "\n".join(f"{job}: {n} of {budgets[job]}" for job, n in counts().items())
    assert all(n <= budgets[job] for job, n in counts().items()), f"a job is over its budget:\n{table}"


def test_count_does_not_depend_on_the_hash_seed():
    job = "grading --type B7 --labels 1,0,0,0,0,0,1"
    assert work(job, hash_seed="1") == counts()[job]
