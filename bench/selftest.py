#!/usr/bin/env python3
"""Self-test of the benchmark.

    python3 bench/selftest.py

Runs a tiny pool per workload, untraced and traced, and checks that every
metric named in BENCHMARK.json is printed with its unit, that a corrupted
reference digest is reported as a failure, and that a known-defect job
counts as failed without making the run incorrect.  Exits 1 on the first
broken expectation.
"""

from __future__ import annotations

import copy
import json
import sys

import run
import workloads
from workloads import Job

# One cheap pool job per workload; quiver also gets a beyond-bound vector.
TINY = {
    "paper": [("verify-paper", "--seed", "0")],
    "exceptional": [("quaternionic", "--type", "F4", "--seed", "0")],
    "classical_wide": [
        next(argv for s in workloads.WORKLOADS["classical_wide"].strata
             for argv in s.pool if argv[2] == "B5")
    ],
    "quiver": [("quiver", "--dims", "2,4"), ("quiver", "--dims", "4,4,4")],
}


def expect(ok: bool, what: str):
    if not ok:
        print(f"selftest FAILED: {what}", file=sys.stderr)
        sys.exit(1)


def tiny_jobs(workload: str):
    by_argv = {argv: s.known_defect for s in workloads.WORKLOADS[workload].strata for argv in s.pool}
    return [Job(argv, by_argv[argv]) for argv in TINY[workload]]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    references = json.loads(run.REFERENCES.read_text())
    expect(
        all(" ".join(j.argv) in references for j in workloads.all_pool_jobs()),
        "every pool job has a reference",
    )
    for workload in TINY:
        jobs = tiny_jobs(workload)
        defects = sum(j.known_defect is not None for j in jobs)
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run_workload(workload, 0, 1, trace, jobs=jobs, references=references)
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(got == want, f"{workload} trace={trace} prints {section} metrics with units")
            expect(result["correct"], f"{workload} trace={trace} is correct")
            expect(result["failed"] == defects, f"{workload} trace={trace} fails only known defects")

    job = tiny_jobs("exceptional")
    corrupted = copy.deepcopy(references)
    key = " ".join(job[0].argv)
    corrupted[key]["digest"] = "0" * 64
    result = run.run_workload("exceptional", 0, 1, False, jobs=job, references=corrupted)
    expect(result["failed"] == 1 and not result["correct"], "a corrupted digest is a failure")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
