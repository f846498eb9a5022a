"""Golden reports: every CLI example in the README, byte for byte.

Each ``gradedlie ...`` line of the README's CLI block has its stdout in
``tests/golden/<slug>.out`` and its exit code in ``tests/golden/exit_codes.json``,
where the slug is the argv with every run of non-alphanumerics turned into ``_``.
The files were written by running each example once; a change that alters any
report, even by one byte, fails here.  The lines and the slug rule are
``replay.py``'s, which replays the same goldens without pytest; the session's one
isolated run of it (``conftest.isolated_replay``) is checked here too.
"""

import json

import pytest

from conftest import isolated_replay
from replay import EXAMPLES, GOLDEN, slug

from gradedlie.cli import main


def test_every_example_has_a_golden_report():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert EXAMPLES and sorted(map(slug, EXAMPLES)) == sorted(codes)


@pytest.mark.parametrize("argv", EXAMPLES, ids=slug)
def test_readme_example_matches_golden(argv, capsys):
    code = main(argv)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[slug(argv)]
    assert capsys.readouterr().out == (GOLDEN / f"{slug(argv)}.out").read_text()


def test_replay_passes_without_site_packages():
    """``replay.py`` in a fresh interpreter started with ``-S`` and ``src`` alone on its path,
    so that no installed package (pytest, hypothesis) can be imported: the goldens, the
    benchmark references and ``verify-paper --extended`` replay with 0 mismatches."""
    summary = isolated_replay()
    assert summary.startswith("0 mismatches: "), summary
