#!/usr/bin/env python3
"""Write references.json: exit code and report digest of every pool job.

    python3 bench/make_references.py

The references belong to the seed commit of the benchmark.  Run this only
there, or to add entries for new pool jobs; rerunning it on a later commit
would turn that commit's output into the reference.  A job with a known
defect gets exit 0 and no digest, so only the oracles check it once fixed.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import gradedlie.cli  # noqa: F401  (children fork from an imported parent)

    deadline = time.perf_counter() + 3600.0
    references = {}
    for job in workloads.all_pool_jobs():
        outcome = run.run_job(job.argv, deadline)
        key = " ".join(job.argv)
        if job.known_defect is not None:
            if outcome.get("raised") != job.known_defect:
                print(f"{key}: expected {job.known_defect!r}, got {outcome}", file=sys.stderr)
                return 1
            references[key] = {"exit": 0, "digest": None}
        elif outcome.get("raised") or outcome.get("error"):
            print(f"{key}: {outcome.get('raised') or outcome.get('error')}", file=sys.stderr)
            return 1
        else:
            report = json.loads(outcome["stdout"])
            references[key] = {"exit": outcome["rc"], "digest": run.oracles.digest(report)}
        print(f"{outcome['latency']:7.3f} s  {key}", file=sys.stderr)
    run.REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
