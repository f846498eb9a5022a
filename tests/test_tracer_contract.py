"""The benchmark tracer binds gradedlie names by path; each one must resolve.

``bench/tracer.py`` wraps every ``TARGETS`` entry with ``getattr`` on
``gradedlie.<module>`` and reads ``.rows``/``.cols`` of every matrix passed to
``rank``, ``solve`` and ``kernel_basis``.  A renamed or deleted target makes
``bench/run.py --trace 1`` fail with ``AttributeError``.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from oracles import root_vector

from gradedlie.chevalley import build_algebra
from gradedlie.rootsystem import LieType

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
