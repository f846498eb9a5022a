"""Per-layer tracing of gradedlie from outside the package.

``Tracer.install`` replaces selected functions and methods of the gradedlie
modules with timing wrappers.  A function is rebound in every gradedlie
module namespace that holds it by name (``rank`` and ``solve``, for example,
are imported into ``vinberg``, ``cayley`` and ``quiver``); a method is
replaced on its class.  It is meant for a forked child that runs one job and
exits, so nothing is ever unwrapped.

Three kinds of target:

- SPAN: each call records a span (name, start, end, parent, job id) and adds
  to the calls and self time of its name.
- TIMED: leaf calls that can run millions of times; only calls and self time
  are summed, with no span each.
- COUNTED: only calls are counted.  The call is not timed, so its time stays
  in the self time of the caller.

Self time is a call's duration minus the time of the SPAN and TIMED calls it
made.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter
from typing import Dict, List

SPAN, TIMED, COUNTED = "span", "timed", "counted"

# (module, attribute path, kind).  A class's __init__ is named after the class.
TARGETS = (
    ("rootsystem", "build_root_system", SPAN),
    ("rootsystem", "RootSystem.norm", TIMED),
    ("rootsystem", "RootSystem.form_value", COUNTED),
    ("chevalley", "StructureConstants.__init__", SPAN),
    ("chevalley", "ChevalleyAlgebra.__init__", SPAN),
    ("chevalley", "ChevalleyAlgebra.killing_gram", TIMED),
    ("chevalley", "ChevalleyAlgebra.killing_form", COUNTED),
    ("chevalley", "ChevalleyAlgebra.bracket", TIMED),
    ("chevalley", "ChevalleyAlgebra.centralizer", SPAN),
    ("grading", "z_grading_from_labels", SPAN),
    ("grading", "kac_lift_check", SPAN),
    ("vinberg", "generic_element", SPAN),
    ("vinberg", "orbit_dimension", COUNTED),
    ("vinberg", "jm_triple", SPAN),
    ("vinberg", "jm_regular", SPAN),
    ("vinberg", "killing_dual_norm", TIMED),
    ("quaternionic", "build_quaternionic", SPAN),
    ("cayley", "cayley_pair", SPAN),
    ("cayley", "bracket_projection_test", SPAN),
    ("quiver", "enumerate_orbits", SPAN),
    ("quiver", "rank_tuple", COUNTED),
    ("linalg", "rank", TIMED),
    ("linalg", "RationalMatrix.matmul", TIMED),
    ("linalg", "solve", TIMED),
    ("linalg", "kernel_basis", TIMED),
    ("linalg", "independent_subset", COUNTED),
    ("cli", "main", SPAN),
)

# Metrics of the traced run: (name, unit).  The order follows the pipeline.
LAYER_METRICS = (
    ("rootsystem.build_root_system.self_s", "s"),
    ("rootsystem.norm.calls", "count"),
    ("rootsystem.norm.self_s", "s"),
    ("rootsystem.form_value.calls", "count"),
    ("chevalley.StructureConstants.self_s", "s"),
    ("chevalley.ChevalleyAlgebra.self_s", "s"),
    ("chevalley.killing_gram.calls", "count"),
    ("chevalley.killing_gram.self_s", "s"),
    ("chevalley.killing_form.calls", "count"),
    ("chevalley.bracket.calls", "count"),
    ("chevalley.bracket.self_s", "s"),
    ("chevalley.centralizer.self_s", "s"),
    ("grading.z_grading_from_labels.self_s", "s"),
    ("grading.kac_lift_check.self_s", "s"),
    ("vinberg.generic_element.self_s", "s"),
    ("vinberg.orbit_dimension.calls", "count"),
    ("vinberg.generic_element.hit_ratio", "ratio"),
    ("vinberg.jm_triple.self_s", "s"),
    ("vinberg.jm_regular.self_s", "s"),
    ("vinberg.killing_dual_norm.self_s", "s"),
    ("quaternionic.build_quaternionic.self_s", "s"),
    ("cayley.cayley_pair.self_s", "s"),
    ("cayley.bracket_projection_test.self_s", "s"),
    ("quiver.enumerate_orbits.self_s", "s"),
    ("quiver.rank_tuple.calls", "count"),
    ("quiver.orbits_per_element", "ratio"),
    ("linalg.rank.calls", "count"),
    ("linalg.rank.self_s", "s"),
    ("linalg.matmul.calls", "count"),
    ("linalg.matmul.self_s", "s"),
    ("linalg.solve.calls", "count"),
    ("linalg.solve.self_s", "s"),
    ("linalg.kernel_basis.self_s", "s"),
    ("linalg.elim_cells", "count"),
    ("cli.main.self_s", "s"),
    ("cli.report_bytes", "bytes"),
    ("trace_overhead_frac", "ratio"),
    ("trace_span_coverage", "ratio"),
)


def metric_name(module: str, path: str) -> str:
    owner, _, attr = path.rpartition(".")
    return f"{module}.{owner if attr == '__init__' else attr}"


def _cells_of_matrix(m, *_):
    return m.rows * m.cols


def _cells_of_vectors(vectors):
    return len(vectors) * len(vectors[0]) if vectors else 0


# Matrix sizes passed to elimination: rows x cols summed into linalg.elim_cells.
_ELIM_CELLS = {
    "linalg.rank": _cells_of_matrix,
    "linalg.solve": _cells_of_matrix,
    "linalg.kernel_basis": _cells_of_matrix,
    "linalg.independent_subset": _cells_of_vectors,
}


class Tracer:
    """Wrappers, stacks and totals of one traced job."""

    def __init__(self, job_id: int):
        self.job_id = job_id
        self.stats: Dict[str, List[float]] = {}  # name -> [calls, self seconds]
        self.counts = {"linalg.elim_cells": 0, "quiver.orbits_found": 0}
        self.spans: List[dict] = []
        self._frames: List[List[float]] = []  # child seconds of each open call
        self._open_spans: List[int] = []

    def install(self):
        for module_name, path, kind in TARGETS:
            module = importlib.import_module(f"gradedlie.{module_name}")
            name = metric_name(module_name, path)
            self.stats[name] = [0, 0.0]
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            original = getattr(owner, attr)
            wrapper = self._wrap(original, name, kind)
            if owner_name:
                setattr(owner, attr, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "gradedlie" or mod_name.startswith("gradedlie."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)

    def _wrap(self, fn, name: str, kind: str):
        stat = self.stats[name]
        cells = _ELIM_CELLS.get(name)
        counts = self.counts
        if kind == COUNTED:
            def counted(*args, **kwargs):
                stat[0] += 1
                if cells:
                    counts["linalg.elim_cells"] += cells(*args)
                return fn(*args, **kwargs)
            return counted

        frames = self._frames
        spans = self.spans
        open_spans = self._open_spans
        job_id = self.job_id
        is_span = kind == SPAN
        is_orbits = name == "quiver.enumerate_orbits"

        def timed(*args, **kwargs):
            if cells:
                counts["linalg.elim_cells"] += cells(*args)
            frame = [0.0]
            frames.append(frame)
            if is_span:
                span_id = len(spans)
                spans.append(
                    {"id": span_id, "name": name, "job": job_id,
                     "parent": open_spans[-1] if open_spans else None}
                )
                open_spans.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if is_orbits:
                    counts["quiver.orbits_found"] += len(result)
                return result
            finally:
                end = perf_counter()
                frames.pop()
                elapsed = end - start
                if frames:
                    frames[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if is_span:
                    open_spans.pop()
                    spans[span_id]["start"] = start
                    spans[span_id]["end"] = end

        return timed

    def export(self) -> dict:
        return {"stats": self.stats, "counts": self.counts, "spans": self.spans}


def layer_metrics(traces: List[dict], report_bytes: int, traced_wall: float,
                  untraced_wall: float) -> Dict[str, float]:
    """Sum the exported traces of a run into the per-layer metrics."""
    stats: Dict[str, List[float]] = {}
    counts: Dict[str, int] = {}
    top_s = 0.0
    for t in traces:
        for name, (calls, self_s) in t["stats"].items():
            acc = stats.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, n in t["counts"].items():
            counts[name] = counts.get(name, 0) + n
        top_s += sum(s["end"] - s["start"] for s in t["spans"] if s["parent"] is None)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def total(name: str):
        return stats.get(name, (0, 0.0))

    derived = {
        "vinberg.generic_element.hit_ratio": ratio(
            total("vinberg.generic_element")[0], total("vinberg.orbit_dimension")[0]
        ),
        "quiver.orbits_per_element": ratio(
            counts.get("quiver.orbits_found", 0), total("quiver.rank_tuple")[0]
        ),
        "linalg.elim_cells": counts.get("linalg.elim_cells", 0),
        "cli.report_bytes": report_bytes,
        "trace_overhead_frac": ratio(traced_wall, untraced_wall) - 1.0,
        "trace_span_coverage": ratio(top_s, traced_wall),
    }
    out: Dict[str, float] = {}
    for metric, _unit in LAYER_METRICS:
        base, _, field = metric.rpartition(".")
        if metric in derived:
            out[metric] = derived[metric]
        else:
            out[metric] = total(base)[0 if field == "calls" else 1]
    return out
