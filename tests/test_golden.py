"""Golden reports: every CLI example in the README, byte for byte.

Each ``gradedlie ...`` line of the README's CLI block has its stdout in
``tests/golden/<slug>.out`` and its exit code in ``tests/golden/exit_codes.json``,
where the slug is the argv with every run of non-alphanumerics turned into ``_``.
The files were written by running each example once; a change that alters any
report, even by one byte, fails here.
"""

import json
import re
from pathlib import Path

import pytest

from gradedlie.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
EXAMPLES = [
    line.split()[1:]
    for line in (ROOT / "README.md").read_text().splitlines()
    if line.startswith("gradedlie ")
]


def slug(argv):
    return re.sub(r"[^A-Za-z0-9]+", "_", " ".join(argv)).strip("_")


def test_every_example_has_a_golden_report():
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert EXAMPLES and sorted(map(slug, EXAMPLES)) == sorted(codes)


@pytest.mark.parametrize("argv", EXAMPLES, ids=slug)
def test_readme_example_matches_golden(argv, capsys):
    code = main(argv)
    codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == codes[slug(argv)]
    assert capsys.readouterr().out == (GOLDEN / f"{slug(argv)}.out").read_text()
