#!/usr/bin/env python3
"""gradedlie benchmark: cold CLI jobs in a closed loop.

    python3 bench/run.py --workload paper --seed 1 --seconds 20 --trace 0

One client runs one job at a time.  Each job is a ``gradedlie.cli.main(argv)``
call in a child forked from a parent that has only imported gradedlie, so no
cache (``build_algebra``'s, a Killing Gram) survives from one job to the next:
every job costs what one CLI command costs a user.  Every report is checked
against the seed commit's reference and the independent oracles in
``oracles.py``.

``--trace 0`` prints the end-to-end metrics, with the times scaled to a
reference host speed that a calibration job run between the jobs measures
(see ``DESIGN.md``).  ``--trace 1`` runs every job
twice, untraced and traced in alternating order, and prints the per-layer
metrics from the traced children; their spans go to ``bench/out/``.
``--workload all`` runs every workload in turn.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

Run from the root of a checkout; it exits with code 2 when ``src/gradedlie``
is not there.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import os
import select
import signal
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional

import oracles
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCES = BENCH / "references.json"
OUT = BENCH / "out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("peak_rss_mb", "MB"),
)
SETUP_REPEATS = 21
WARMUP_S = 0.5
WARMUP_ARGV = ("grading", "--type", "A3", "--labels", "1,0,1")
# A run must end within 180 s; a job still running at this point is killed.
RUN_DEADLINE_S = 150.0
# The host's speed drifts by up to 1.7x within minutes (other tenants share
# its cores), and a run's times drift with it.  A fixed calibration job runs
# in a forked child after every CALIB_EVERY_S of job time, and the times
# reported are scaled to a host on which it takes CALIB_REF_S.
CALIB_EVERY_S = 0.5
CALIB_REF_S = 0.015


def set_up(workload: str, seed: int, seconds: float):
    """Import gradedlie afresh, build the job list and load the references."""
    for name in [m for m in sys.modules if m == "gradedlie" or m.startswith("gradedlie.")]:
        del sys.modules[name]
    importlib.import_module("gradedlie.cli")
    jobs = workloads.job_list(workload, seed, seconds)
    references = json.loads(REFERENCES.read_text())
    return jobs, references


def _time_in_child(fn) -> float:
    """Run fn in a forked child and return the time the child measured for it.

    The parent's heap stays as it was, and fork and exit are left out.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            start = time.perf_counter()
            fn()
            os.write(write_fd, repr(time.perf_counter() - start).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    try:
        data = os.read(read_fd, 64)
    finally:
        os.close(read_fd)
        _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"timed child exited with status {os.waitstatus_to_exitcode(status)}")
    return float(data)


def set_up_in_child(workload: str, seed: int, seconds: float) -> float:
    """Time one set-up in a forked child, so the jobs fork from an unchanged parent."""
    return _time_in_child(lambda: set_up(workload, seed, seconds))


def _child(argv, trace_id: Optional[int]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    sys.stdout, sys.stderr = out, err
    t = None
    if trace_id is not None:
        t = tracer.Tracer(trace_id)
        t.install()
    rc, raised = None, None
    try:
        rc = sys.modules["gradedlie.cli"].main(list(argv))
    except SystemExit as exc:
        rc = exc.code
    except Exception as exc:  # the job's failure is the result, not the benchmark's
        raised = f"{type(exc).__name__}: {exc}"
    result = {"rc": rc, "raised": raised, "stdout": out.getvalue(), "stderr": err.getvalue()}
    if t is not None:
        result["trace"] = t.export()
    return result


def run_job(argv, deadline: float, trace_id: Optional[int] = None) -> dict:
    """Run one job in a forked child; return its outcome, latency and peak RSS."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    start = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read_fd)
            data = memoryview(json.dumps(_child(argv, trace_id)).encode())
            while data:
                data = data[os.write(write_fd, data):]
            code = 0
        finally:
            os._exit(code)
    os.close(write_fd)
    chunks, error = [], None
    try:
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                os.kill(pid, signal.SIGKILL)
                error = "killed at the run deadline"
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    latency = time.perf_counter() - start
    if error is None and os.waitstatus_to_exitcode(status) != 0:
        error = f"child exited with status {os.waitstatus_to_exitcode(status)}"
    outcome = json.loads(b"".join(chunks)) if error is None else {"error": error}
    outcome.update(latency=latency, rss_mb=usage.ru_maxrss / 1024.0)
    return outcome


def _calibration_work() -> int:
    """Fraction arithmetic over tuple-keyed dicts, like gradedlie's hot loops.

    It runs in a forked child with the garbage collector off, so the size of
    the heap the child inherits (gradedlie's modules among it) does not
    change its time.
    """
    gc.disable()
    keys = [(i % 7 - 3, i % 5 - 2, i % 3 - 1, i % 11) for i in range(600)]
    form = {k: Fraction(1 + abs(k[0]), 2 + abs(k[1])) for k in keys}
    rows = []
    for a in keys[:150]:
        row = {}
        for b in keys[:60]:
            c = (a[0] + b[0], a[1] + b[1], a[2] + b[2], (a[3] + b[3]) % 11)
            if c in form:
                row[b] = form[c] * form[a] - form[b]
        rows.append(row)
    return len(rows)


def calibrate() -> float:
    """Time of the calibration job, which gauges the host's current speed."""
    return _time_in_child(_calibration_work)


def warm_up(deadline: float):
    """Fork and CPU warm-up on a tiny job outside the pools; nothing is kept."""
    until = time.perf_counter() + WARMUP_S
    while time.perf_counter() < until:
        run_job(WARMUP_ARGV, deadline)


def judge(jobs, outcomes, references):
    """(failed count, correct): a failure is correct only as the job's known defect."""
    failed, correct = 0, True
    for job, outcome in zip(jobs, outcomes):
        reason = oracles.check(job.argv, outcome, references.get(" ".join(job.argv)))
        outcome["failure"] = reason
        if reason is not None:
            failed += 1
            if reason != f"raised {job.known_defect}":
                correct = False
                print(f"FAIL {' '.join(job.argv)}: {reason}", file=sys.stderr)
    return failed, correct


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 jobs=None, references=None) -> dict:
    """Set up, run and check one workload; return the result object."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    start = time.perf_counter()
    listed, loaded = set_up(workload, seed, seconds)
    setup_times = [time.perf_counter() - start]
    jobs = listed if jobs is None else jobs
    references = loaded if references is None else references
    # The other set-ups are spread over the run, so their median sees the
    # same host as the jobs rather than only its first second.  They run in
    # forked children so that the jobs fork from an unchanged parent.
    setup_before = [k * len(jobs) // SETUP_REPEATS for k in range(1, SETUP_REPEATS)]
    warm_up(deadline)

    if not trace:
        outcomes, calibrations, since = [], [calibrate()], 0.0
        for i, job in enumerate(jobs):
            for _ in range(setup_before.count(i)):
                setup_times.append(set_up_in_child(workload, seed, seconds))
            outcomes.append(run_job(job.argv, deadline))
            since += outcomes[-1]["latency"]
            while since >= CALIB_EVERY_S:
                calibrations.append(calibrate())
                since -= CALIB_EVERY_S
        calibrations.append(calibrate())
        failed, correct = judge(jobs, outcomes, references)
        ok = [o["latency"] for o in outcomes if o["failure"] is None]
        measured = {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(o["latency"] for o in outcomes),
            "job_p50_s": statistics.median(ok) if ok else float("nan"),
        }
        slowness = statistics.median(calibrations) / CALIB_REF_S
        metrics = {name: value / slowness for name, value in measured.items()}
        metrics["peak_rss_mb"] = max(o.get("rss_mb", 0.0) for o in outcomes)
        units = dict(END_TO_END)
        extra = {
            "failed_frac": failed / len(jobs),
            "job_p50_s samples": len(ok),
            "host slowness": slowness,
            "calibration samples": len(calibrations),
            **{f"{name} unscaled": value for name, value in measured.items()},
        }
    else:
        plain, traced = [], []
        for i, job in enumerate(jobs):
            for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
                if is_traced:
                    traced.append(run_job(job.argv, deadline, trace_id=i))
                else:
                    plain.append(run_job(job.argv, deadline))
        _, correct_plain = judge(jobs, plain, references)
        _, correct_traced = judge(jobs, traced, references)
        failed = sum(
            p["failure"] is not None or t["failure"] is not None for p, t in zip(plain, traced)
        )
        correct = correct_plain and correct_traced
        traces = [o["trace"] for o in traced if "trace" in o]
        metrics = tracer.layer_metrics(
            traces,
            report_bytes=sum(len(o.get("stdout", "")) for o in traced),
            traced_wall=sum(o["latency"] for o in traced),
            untraced_wall=sum(o["latency"] for o in plain),
        )
        units = dict(tracer.LAYER_METRICS)
        extra = {"failed_frac": failed / len(jobs)}
        OUT.mkdir(exist_ok=True)
        spans = [s for t in traces for s in t["spans"]]
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(json.dumps(spans))

    for name, value in list(metrics.items()) + list(extra.items()):
        print(f"{workload:>15} {name:<42} {value:>14.6g} {units.get(name, '')}")
    return {
        "correct": correct,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds like an interrupted one: the job running then
    # is killed and reaped before the benchmark exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "gradedlie" / "__init__.py").is_file():
        print(f"error: no gradedlie sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    names = sorted(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results: Dict[str, dict] = {
        name: run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names
    }
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
