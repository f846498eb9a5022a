"""The benchmark tracer binds gradedlie names by path; each one must resolve.

``bench/tracer.py`` wraps every ``TARGETS`` entry with ``getattr`` on
``gradedlie.<module>`` and reads ``.rows``/``.cols`` of every matrix passed to
``rank``, ``solve`` and ``kernel_basis``.  A renamed or deleted target makes
``bench/run.py --trace 1`` fail with ``AttributeError``, and so does a plain list
passed to one of those three from ``src``: untraced, ``tests/replay.py`` and
``bench/run.py --trace 0`` see nothing wrong, but the traced run judges its
outputs wrong.  The replay with the tracer installed catches both.
"""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from oracles import root_vector

from gradedlie.chevalley import build_algebra
from gradedlie.rootsystem import LieType

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


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


def test_replay_matches_with_the_tracer_installed():
    """``tests/replay.py`` in a fresh interpreter whose gradedlie functions are the
    tracer's wrappers, as in a ``bench/run.py --trace 1`` child."""
    script = (
        "import importlib.util, runpy\n"
        "import gradedlie.cli\n"
        f"spec = importlib.util.spec_from_file_location('bench_tracer', {str(TRACER)!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "tracer.Tracer(0).install()\n"
        f"runpy.run_path({str(ROOT / 'tests' / 'replay.py')!r}, run_name='__main__')\n"
    )
    src = str(ROOT / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1].startswith("0 mismatches")
