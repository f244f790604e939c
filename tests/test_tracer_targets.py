"""perfbench's tracer wraps library functions by name; every name must still resolve.

A refactor that renames or drops a wrapped function would otherwise show up
only in the benchmark self-test (python -m pytest perfbench). This test reads
perfbench/tracer.py and installs nothing.
"""

import importlib.util
from pathlib import Path

from spindbm import training

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def test_every_tracer_target_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    original = training.local_search_joint
    t = tracer.Tracer()
    assert t.absent == []
    assert training.local_search_joint is original  # built, not installed
