"""The benchmark's tracer installs on the library and uninstalls cleanly.

``perfbench/tracer.py`` wraps library functions by module and attribute
name, so a rename in ``lrsim`` breaks the benchmark.  This loads the tracer
from its file, without changing anything under ``perfbench/``, and fails
when it can no longer wrap the library.
"""

import importlib.util
from pathlib import Path

from lrsim import liecore as lie

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer_under_test", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer()
    original = lie.vec_to_skew
    t = tracer.Tracer()
    try:
        t.install(tracer.lrsim_modules())
        assert lie.vec_to_skew is not original
    finally:
        t.uninstall()
    assert lie.vec_to_skew is original
