"""The benchmark's tracer patches library names by attribute; each must exist."""
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_finds_every_name_it_patches(monkeypatch):
    # Deleting or renaming a name the tracer wraps (``assigner.lift``,
    # ``baselines.lift``, ``harness.pipeline_assign``, ...) raises
    # AttributeError in ``make_tracer``; this makes it fail here too.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    try:
        run = importlib.import_module("run")
        run.import_library()
        tracer = run.make_tracer()
        tracer.install()
        tracer.uninstall()
    finally:
        for name in set(sys.modules) - before:
            if not name.startswith("lowchurn"):
                del sys.modules[name]
