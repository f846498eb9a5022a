"""Every benchmark reference job, replayed in-process.

``bench/references.json`` maps each job of the benchmark pools to its exit
code and, where the job has a report, the sha256 of the report's canonical
JSON (``sort_keys``, separators ``(",", ":")``).  Replaying them here pins
reports that no golden covers, such as ``verify-paper --seed 1..7`` and
``quaternionic --seed 1..3``.  The file is only read.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from gradedlie.cli import main

REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "references.json").read_text()
)


def canonical_digest(report: dict) -> str:
    return hashlib.sha256(json.dumps(report, sort_keys=True, separators=(",", ":")).encode()).hexdigest()


@pytest.mark.parametrize("job", sorted(REFERENCES))
def test_reference_job_replays(job):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(job.split())
    reference = REFERENCES[job]
    assert code == reference["exit"]
    if reference["digest"] is not None:
        assert canonical_digest(json.loads(out.getvalue())) == reference["digest"]
