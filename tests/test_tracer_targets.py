"""perfbench's tracer wraps library functions by name; every name must still resolve.

A refactor that renames or drops a wrapped function, or changes a call the
workloads make, would otherwise show up only in the benchmark self-test
(python -m pytest perfbench) or in the benchmark itself. These tests read
perfbench/tracer.py and perfbench/workloads.py; the first installs nothing,
the second runs the benchmark's own workloads under the installed tracer.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

from spindbm import training

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # where its dataclasses look their annotations up
    spec.loader.exec_module(module)
    return module


def test_every_tracer_target_resolves():
    tracer = _perfbench_module("tracer")
    original = training.local_search_joint
    t = tracer.Tracer()
    assert t.absent == []
    assert training.local_search_joint is original  # built, not installed


def _benchmark_calls(work_dir: Path):
    """perfbench's three workloads at their desk size, and the one-state phases:
    their outputs.

    Each workload is set up, runs round 0 and finishes as the benchmark runs
    it, with no failed check. train_step runs its batch and sample its rows
    through the row engine, so nothing in them reaches the wrapped one-state
    searches, sweeps and MH couplings. Each phase calls them here by the
    names the tracer wraps in training: a posterior search, sweep and MH
    coupling on one generator, then the joint three on another.
    """
    workloads = _perfbench_module("workloads")
    out = []
    for name, workload in workloads.WORKLOADS.items():
        w = workload(0, workloads.SIZES["desk"], str(work_dir / name))
        w.setup()
        result = w.run_round(0)
        failures, _ = w.finish()
        assert result.failures == failures == [], name
        out.append(result.digest)
    params = training.init_params(training.DbmShape(16, 16, 8), training.rng_for(0, 2))
    v = np.where(np.random.default_rng(5).random(16) < 0.5, 1.0, -1.0)
    rng = np.random.default_rng(3)
    found = training.local_search_posterior(params, v, rng)
    h0 = training.gibbs_sweep_posterior(params, v, found.state, rng)
    run = training.mh_couple_posterior(params, v, h0, 100_000, rng)
    out.append(run.x_states[0].concat())
    rng = np.random.default_rng(4)
    found = training.local_search_joint(params, rng)
    x0 = training.gibbs_sweep_joint(params, found.state, rng, fields=found.fields)
    run = training.mh_couple_joint(params, x0, 100_000, rng)
    out.append(run.x_states[0].concat())
    return out


def test_traced_calls_observe_scalars_and_change_nothing(tmp_path):
    # perfbench's observers call int() and bool() on what the wrapped names
    # return, so the row engine must stay behind names the tracer leaves alone
    untraced = _benchmark_calls(tmp_path / "untraced")
    t = _perfbench_module("tracer").Tracer()
    t.install()
    try:
        traced = _benchmark_calls(tmp_path / "traced")
    finally:
        t.uninstall()
    assert len(traced) == len(untraced)
    assert all(np.array_equal(a, b) for a, b in zip(traced, untraced))
    for kind in ("joint", "posterior", "clamped"):
        steps = t.observed[f"search.local_search_{kind}"]
        assert steps and all(isinstance(s, int) for s in steps)
    for kind in ("joint", "posterior"):
        runs = t.observed[f"coupling.mh_couple_{kind}"]
        assert runs and all(isinstance(tau, int) and isinstance(truncated, bool)
                            for tau, truncated in runs)
