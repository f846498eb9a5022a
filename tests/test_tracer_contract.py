"""The benchmark tracer binds gradedlie names by path; each one must resolve.

``bench/tracer.py`` wraps every ``TARGETS`` entry with ``getattr`` on
``gradedlie.<module>`` and reads ``.rows``/``.cols`` of every matrix passed to
``rank``, ``solve`` and ``kernel_basis``.  A renamed or deleted target makes
``bench/run.py --trace 1`` fail with ``AttributeError``, and so does a plain list
passed to one of those three from ``src``: untraced, ``tests/replay.py`` and
``bench/run.py --trace 0`` see nothing wrong, but the traced run judges its
outputs wrong.  The session's one isolated replay (``conftest.isolated_replay``), which runs
``tests/replay.py`` with the tracer installed, catches both.
"""

import importlib

import pytest

from conftest import isolated_replay
from oracles import root_vector
from replay import load_tracer

from gradedlie.chevalley import build_algebra
from gradedlie.rootsystem import LieType

tracer = load_tracer()


@pytest.mark.parametrize(
    "module, path", [(m, p) for m, p, _ in tracer.TARGETS], ids=lambda x: x
)
def test_trace_target_resolves(module, path):
    obj = importlib.import_module(f"gradedlie.{module}")
    for attr in path.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


def test_elimination_matrices_have_shape():
    alg = build_algebra(LieType.parse("A2"))
    block = alg.ad_block(root_vector(alg, (1, 0)), range(alg.rank), range(alg.dim))
    assert tracer._cells_of_matrix(block) == alg.dim * alg.rank


def test_replay_matches_with_the_tracer_installed():
    """``tests/replay.py`` in a fresh interpreter whose gradedlie functions are the
    tracer's wrappers, as in a ``bench/run.py --trace 1`` child."""
    summary = isolated_replay()
    assert summary.startswith("0 mismatches: "), summary
