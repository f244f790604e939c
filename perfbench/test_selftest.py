"""Self-test of the benchmark: each workload at desk size (16-16-8).

Checks that one command emits every metric BENCHMARK.json names, with its
unit, that the correctness checks pass, that a traced run reproduces the
untraced run's fingerprint, and that the command refuses to run without
the library sources. Run from the repository root:

    python -m pytest perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(root, workload, trace, seed=3):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--size", "desk"]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)


def results(proc):
    assert proc.returncode == 0, proc.stderr
    *_, record, result = proc.stdout.strip().splitlines()
    return json.loads(record)["record"], json.loads(result)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric(workload):
    untraced = results(run_bench(ROOT, workload, 0))
    traced = results(run_bench(ROOT, workload, 1))
    for (record, result), spec in ((untraced, SPEC["end_to_end"]), (traced, SPEC["per_layer"])):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert record["failures"] == []
        assert set(result["metrics"]) == {m["name"] for m in spec}
        for m in spec:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    assert all(v["value"] > 0 for v in untraced[1]["metrics"].values())
    for record, _ in (untraced, traced):
        assert record["absent_targets"] == []
        assert set(record["tau_histogram"]) == {"joint", "posterior"}
    assert traced[0]["fingerprint"] == untraced[0]["fingerprint"]


def test_tracer_skips_missing_targets(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    try:
        import tracer
        from spindbm import training
    finally:
        del sys.path[:2]
    original = training.local_search_joint
    monkeypatch.setattr(tracer, "TARGETS", (
        ("spindbm.training", "local_search_joint", "search.local_search_joint"),
        ("spindbm.training", "no_such_function", "training.gone"),
        ("spindbm.no_such_module", "f", "training.gone")))
    t = tracer.Tracer(item_spans=("search.local_search_joint",))
    assert t.absent == ["spindbm.training.no_such_function", "spindbm.no_such_module.f"]
    t.install()
    try:
        training.sample(training.default_check_model()[0], 2, rng=np.random.default_rng(0))
    finally:
        t.uninstall()
    assert training.local_search_joint is original
    assert t.names == ["search.local_search_joint"] and t.span_item == [0, 1]
    assert len(t.observed["search.local_search_joint"]) == 2


def test_fails_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout == ""
