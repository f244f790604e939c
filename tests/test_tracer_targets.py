"""perfbench's tracer wraps library functions by name; every name must still resolve.

A refactor that renames or drops a wrapped function would otherwise show up
only in the benchmark self-test (python -m pytest perfbench). These tests
read perfbench/tracer.py; the first installs nothing, the second runs the
benchmark's library calls under the installed tracer.
"""

import importlib.util
from pathlib import Path

import numpy as np

from spindbm import DbmShape, TrainConfig, init_params, synthetic_patterns, training

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_tracer_target_resolves():
    tracer = _tracer_module()
    original = training.local_search_joint
    t = tracer.Tracer()
    assert t.absent == []
    assert training.local_search_joint is original  # built, not installed


def _benchmark_calls():
    """The library calls of perfbench's three workloads, at small sizes: their outputs."""
    check_params, v = training.default_check_model()
    out = []
    for estimator in training.ESTIMATORS:
        report = training.unbiasedness_report(check_params, v, 200, 0, estimator=estimator)
        out += [report["mean"], report["z"]]
    params = init_params(DbmShape(16, 16, 8), training.rng_for(0, 2))
    rows = synthetic_patterns(4, 16, seed=0).spins()
    cfg = TrainConfig(shape=params.shape, batch_size=4, optimizer="adam",
                      estimator="marginalized", tau_max=100_000)
    stepped, _ = training.train_step(params, rows, cfg, training.rng_for(0, 1, 1))
    out.append(stepped.vec)
    out.append(np.array(training.sample(params, 3, mh_steps=2,
                                        rng=np.random.default_rng(1))))
    out.append(training.complete(params, rows[0], np.arange(16) < 8,
                                 np.random.default_rng(2)))
    return out


def test_traced_calls_observe_scalars_and_change_nothing():
    # perfbench's observers call int() and bool() on what the wrapped names
    # return, so the row engine must stay behind names the tracer leaves alone
    untraced = _benchmark_calls()
    t = _tracer_module().Tracer()
    t.install()
    try:
        traced = _benchmark_calls()
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
