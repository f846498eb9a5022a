"""Replay the README goldens and the benchmark references with the standard library alone.

Usage: ``PYTHONPATH=src python tests/replay.py`` replays, in one process:

- every ``gradedlie ...`` line of the README's CLI block, whose stdout must be its
  golden ``tests/golden/<slug>.out`` byte for byte and whose exit code must be the one
  in ``tests/golden/exit_codes.json``;
- every job of ``bench/references.json`` (only read), whose exit code must be its
  reference and whose report, where it has one, must have the reference sha256 of its
  canonical JSON;
- ``verify-paper --extended``, which must exit 0 with every check passing.

It prints one line per mismatch and a count, and exits 1 on any mismatch, else 0.
It needs no pytest, so it runs on an interpreter that has none; ``test_golden.py``
and ``test_references.py`` read their cases through it.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
from pathlib import Path

from gradedlie.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
EXAMPLES = [
    line.split()[1:]
    for line in (ROOT / "README.md").read_text().splitlines()
    if line.startswith("gradedlie ")
]
REFERENCES = json.loads((ROOT / "bench" / "references.json").read_text())


def slug(argv):
    """The golden file stem of a README argv: every run of non-alphanumerics becomes ``_``."""
    return re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_")


def canonical_digest(report: dict) -> str:
    """The sha256 of a report's canonical JSON (``sort_keys``, separators ``(",", ":")``)."""
    return hashlib.sha256(json.dumps(report, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


def run(argv):
    """(exit code, stdout) of ``cli.main(argv)``; stderr is dropped."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def mismatches():
    """One line per replayed command that differs from its record."""
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    for argv in EXAMPLES:
        code, out = run(argv)
        if code != codes.get(slug(argv)) or out != (GOLDEN / f"{slug(argv)}.out").read_text():
            yield f"README golden: gradedlie {' '.join(argv)}"
    for job, reference in sorted(REFERENCES.items()):
        code, out = run(job.split())
        if code != reference["exit"] or (
            reference["digest"] is not None and canonical_digest(json.loads(out)) != reference["digest"]
        ):
            yield f"benchmark reference: gradedlie {job}"
    code, out = run(["verify-paper", "--extended"])
    if code != 0 or not all(check["pass"] for check in json.loads(out)["checks"]):
        yield "verify-paper --extended: a check failed"


if __name__ == "__main__":
    failed = list(mismatches())
    for line in failed:
        print(f"mismatch: {line}")
    print(f"{len(failed)} mismatches: {len(EXAMPLES)} README goldens, {len(REFERENCES)} benchmark references, "
          f"verify-paper --extended, Python {sys.version.split()[0]}")
    sys.exit(1 if failed else 0)
