"""Every benchmark reference job, replayed in-process.

``bench/references.json`` maps each job of the benchmark pools to its exit
code and, where the job has a report, the sha256 of the report's canonical
JSON (``sort_keys``, separators ``(",", ":")``).  Replaying them here pins
reports that no golden covers, such as ``verify-paper --seed 1..7`` and
``quaternionic --seed 1..3``.  The file is only read, through ``replay.py``, which
replays the same jobs without pytest.
"""

import json

import pytest

from replay import REFERENCES, canonical_digest, run


@pytest.mark.parametrize("job", sorted(REFERENCES))
def test_reference_job_replays(job):
    code, out = run(job.split())
    reference = REFERENCES[job]
    assert code == reference["exit"]
    if reference["digest"] is not None:
        assert canonical_digest(json.loads(out)) == reference["digest"]
