"""spindbm benchmark: one workload per call, timed, checked and fingerprinted.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload train-6272 --seed 0 --seconds 30 --trace 0

Workloads are defined in ``perfbench/workloads.py`` and listed in
``BENCHMARK.json``. The run pins BLAS to ``BLAS_THREADS`` threads before
numpy loads and sets the workload up ``SETUP_REPS`` times. It then runs
rounds 0, 1, 2, ... for ``--seconds`` seconds in one closed loop: one
caller, calls in sequence. A calibration kernel runs before every round
and set-up (see ``calibration.py``), and the end-to-end times are scaled
by it to the reference machine speed, so that a shared host's slow spells
do not read as regressions.

``--trace 0`` reports the end-to-end metrics. ``ops_per_s`` is work items
per second over all rounds; ``setup_s`` is the median import of spindbm in
a fresh interpreter plus the median set-up; ``peak_rss_mb`` is the
process's peak resident memory less the calibration kernel's arrays.
After the timed rounds, round 0 runs once more under the span tracer,
untimed, to record its tau and search-iteration histograms. ``--trace 1``
runs every round twice, untraced and under the span tracer, alternating
which goes first. It reports the per-layer metrics of the traced rounds
and the tracing overhead. Either way the run fails if a traced round's
outputs differ from its untraced twin's.

Every round's outputs are checked; a failed check or an exception fails
the round's items. The last stdout line is the result JSON. The line
before it is the run record: versions, pinned threads, the fingerprint of
round 0, raw timings, the speed factor, tau and search-iteration
histograms, and per-operation rates. The exit code is 0 only when every
check passed. ``--size desk`` runs the same code at 16-16-8 for the
self-test.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

BLAS_THREADS = 1  # fixed, <= nproc on any machine; recorded in the run record
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
DEFAULT_SEED = 0
HELD_OUT_SEED = 20230531  # confirms a claimed gain on a seed not tuned against

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_runs"
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import spindbm.training; print(time.perf_counter() - t)")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("paper", "desk"), default="paper")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def blas_info(np) -> dict:
    """BLAS library name/version from numpy's build config."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]
        return {k: deps[k].get("name", "") + " " + deps[k].get("version", "")
                for k in ("blas", "lapack") if k in deps}
    except (KeyError, TypeError, ValueError):
        return {}


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"  # checkouts without .git


def import_seconds(src) -> float:
    """Median over SETUP_REPS fresh interpreters of the time to import spindbm."""
    times = []
    for _ in range(SETUP_REPS):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(src)], check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def histogram(values) -> dict:
    counts = Counter(int(v) for v in values)
    return {str(k): counts[k] for k in sorted(counts)}


def run_round(workload, r, tracer):
    """One round, traced when a tracer is given; an exception fails the round."""
    if tracer is not None:
        tracer.install()
    try:
        return workload.run_round(r)
    except Exception:  # a crash inside the library is a failed operation
        traceback.print_exc()
        return None
    finally:
        if tracer is not None:
            tracer.uninstall()


def measure(workload, tracer, calibration, seconds):
    """Run rounds for ``seconds`` (at least one): (untraced, traced, spans, cal).

    With a tracer every round runs untraced and traced, in alternating
    order; ``spans`` holds each traced round's span-id range. ``cal`` holds
    the calibration time taken before each round.
    """
    untraced, traced, spans, cal = [], [], [], []
    deadline = perf_counter() + seconds
    r = 0
    while r == 0 or perf_counter() < deadline:
        cal.append(calibration.seconds())
        order = (False,) if tracer is None else ((False, True) if r % 2 == 0 else (True, False))
        for with_tracer in order:
            if with_tracer:
                first = len(tracer.span_start)
                traced.append(run_round(workload, r, tracer))
                spans.append((first, len(tracer.span_start)))
            else:
                untraced.append(run_round(workload, r, None))
        r += 1
    return untraced, traced, spans, cal


def check(workload, untraced, traced):
    """(failures, failed items, summary) from every round and the final check.

    A failed round fails its items; a failed final check fails them all.
    """
    failures, failed = [], 0
    for kind, results in (("untraced", untraced), ("traced", traced)):
        for r, res in enumerate(results):
            problems = ["raised an exception"] if res is None else list(res.failures)
            # the tracer must not change a result
            if kind == "traced" and res and untraced[r] and res.digest != untraced[r].digest:
                problems.append("outputs differ from the untraced run of the same round")
            failures += [f"{kind} round {r}: {p}" for p in problems]
            failed += workload.items_per_round if problems else 0
    final_failures, summary = workload.finish()
    if final_failures:
        failures += final_failures
        failed = workload.items_per_round * (len(untraced) + len(traced))
    return failures, failed, summary


def layer_metrics(np, tracer, traced_spans, traced_seconds, traced_items) -> dict:
    """Per-layer metrics from the spans recorded in traced rounds."""
    a = tracer.arrays()
    ms = (a["end"] - a["start"]) * 1e3
    in_rounds = np.zeros(len(ms), dtype=bool)
    for lo, hi in traced_spans:
        in_rounds[lo:hi] = True
    name_id = {n: i for i, n in enumerate(tracer.names)}

    def ids(name, rounds_only=True):
        if name not in name_id:
            return np.zeros(0, dtype=np.int64)
        mask = a["name"] == name_id[name]
        return np.flatnonzero(mask & in_rounds if rounds_only else mask)

    def ms_per_call(name, rounds_only=True):
        i = ids(name, rounds_only)
        return float(ms[i].mean()) if len(i) else 0.0

    def mean(values):
        return float(np.mean(values)) if len(values) else 0.0

    m = {}
    for kind in ("joint", "posterior", "clamped"):
        name = f"search.local_search_{kind}"
        m[f"{name}.ms_per_call"] = (ms_per_call(name), "ms")
        m[f"{name}.calls_per_op"] = (len(ids(name)) / traced_items, "count")
        m[f"{name}.iters_mean"] = (mean(tracer.observed[name]), "count")
    for kind in ("joint", "posterior"):
        name = f"search.gibbs_sweep_{kind}"
        m[f"{name}.ms_per_call"] = (ms_per_call(name), "ms")
    for kind in ("joint", "posterior"):
        name = f"coupling.mh_couple_{kind}"
        obs = tracer.observed[name]
        taus = np.array([t for t, _ in obs], dtype=np.float64)
        m[f"{name}.ms_per_call"] = (ms_per_call(name), "ms")
        m[f"{name}.tau_mean"] = (mean(taus), "steps")
        m[f"{name}.tau_p99"] = (float(np.percentile(taus, 99)) if len(taus) else 0.0, "steps")
        m[f"{name}.tau_max"] = (float(taus.max()) if len(taus) else 0.0, "steps")
        m[f"{name}.tau1_frac"] = (mean(taus == 1), "frac")
        m[f"{name}.truncated"] = (float(sum(t for _, t in obs)), "count")
    name = "coupling.telescope_estimate"
    m[f"{name}.ms_per_call"] = (ms_per_call(name), "ms")
    m[f"{name}.distinct_states_mean"] = (mean(tracer.observed[name]), "count")
    m["model.grad.ms_per_call"] = (ms_per_call("model.grad"), "ms")
    m["model.grad.calls_per_op"] = (len(ids("model.grad")) / traced_items, "count")
    steps = ids("training.train_step")
    accumulate = ids("model.add_scaled")
    accumulate = accumulate[np.isin(a["parent"][accumulate], steps)]
    m["model.add_scaled.ms_per_step"] = (
        float(ms[accumulate].sum() / len(steps)) if len(steps) else 0.0, "ms")
    m["training.optimizer_update.ms_per_call"] = (ms_per_call("training.optimizer_update"), "ms")
    m["training.train_step.ms_per_call"] = (ms_per_call("training.train_step"), "ms")
    m["training.checkpoint.ms_per_call"] = (ms_per_call("training.checkpoint"), "ms")
    sample = ids("training.sample")
    rows = len(ids("search.local_search_joint"))
    m["training.sample.ms_per_row"] = (
        float(ms[sample].sum() / rows) if len(sample) and rows else 0.0, "ms")
    m["training.complete.ms_per_call"] = (ms_per_call("training.complete"), "ms")
    # set-up work: averaged over every call, set-up included
    m["oracle.exact_grad_loglik.ms"] = (ms_per_call("oracle.exact_grad_loglik", False), "ms")
    m["data.to_spin_dataset.ms"] = (ms_per_call("data.to_spin_dataset", False), "ms")
    self_s = tracer.self_time_by_layer(np.flatnonzero(in_rounds))
    for layer, seconds in self_s.items():
        m[f"{layer}.self_share"] = (seconds / traced_seconds, "frac")
    return m


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "spindbm" / "__init__.py").is_file():
        print(f"spindbm sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spindbm.training  # noqa: F401  (numpy and scipy load here)
    if not Path(spindbm.__file__).resolve().is_relative_to(src.resolve()):
        print(f"imported spindbm from {spindbm.__file__}, not {src}", file=sys.stderr)
        return 2
    import numpy as np
    import scipy
    from calibration import Calibration, speed_factor
    from tracer import Tracer
    from workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    work_dir = OUT_DIR / f"tmp-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], str(work_dir))
    items = workload.items_per_round
    observer = Tracer(workload.item_spans)
    tracer = observer if args.trace else None
    calibration = Calibration()
    import_s = import_seconds(src)
    try:
        setup_times, setup_cal = [], []
        for _ in range(SETUP_REPS):
            setup_cal.append(calibration.seconds())
            if tracer is not None:
                tracer.install()
            t = perf_counter()
            try:
                workload.setup()
            finally:
                if tracer is not None:
                    tracer.uninstall()
            setup_times.append(perf_counter() - t)
        if tracer is not None:
            for values in tracer.observed.values():
                values.clear()  # keep only what the traced rounds observe
        untraced, traced, traced_spans, cal = measure(workload, tracer, calibration,
                                                      args.seconds)
        if tracer is None:
            # an untimed traced replay of round 0 puts the tau and search-iteration
            # histograms next to the timings and checks that tracing changes nothing
            traced.append(run_round(workload, 0, observer))
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    failures, failed, summary = check(workload, untraced, traced)
    attempted = items * (len(untraced) + len(traced))
    ok = [res for res in untraced if res]

    speed = speed_factor(workload.calibrate_with, cal)
    setup_speed = speed_factor(workload.calibrate_with, setup_cal)
    record = {
        "workload": args.workload, "seed": args.seed, "held_out_seed": HELD_OUT_SEED,
        "size": args.size, "shape": list(SIZES[args.size].shape), "trace": args.trace,
        "items_per_round": items, "rounds": len(untraced),
        "fingerprint": untraced[0].digest if untraced[0] else None,
        "failures": failures, "failed_frac": failed / attempted, **summary,
        "round_seconds": [round(res.seconds, 6) for res in ok],
        "calibration_seconds": {part: [round(c[part], 6) for c in cal] for part in cal[0]},
        "speed_factor": speed, "setup_speed_factor": setup_speed,
        "setup_seconds": [round(t, 6) for t in setup_times],
        "import_seconds": round(import_s, 6),
        "env": {
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__, **blas_info(np),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS, "git_commit": git_commit(),
        },
    }
    metrics = {}
    if ok:
        record["raw_ops_per_s"] = items * len(ok) / sum(res.seconds for res in ok)
        for part in ok[0].split:  # each kind of operation does an equal share
            seconds = sum(res.split[part] for res in ok)
            record[f"raw_{part}_ops_per_s"] = items / len(ok[0].split) * len(ok) / seconds
    if tracer is None:
        if ok:
            metrics["ops_per_s"] = {"value": record["raw_ops_per_s"] / speed, "unit": "1/s"}
        setup_s = (import_s + statistics.median(setup_times)) * setup_speed
        metrics["setup_s"] = {"value": setup_s, "unit": "s"}
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 - calibration.nbytes
        metrics["peak_rss_mb"] = {"value": peak / 2**20, "unit": "MiB"}
    else:
        pairs = [(u, t) for u, t in zip(untraced, traced) if u and t]
        if pairs:
            traced_seconds = sum(t.seconds for _, t in pairs)
            for name, (value, unit) in layer_metrics(
                    np, tracer, traced_spans, traced_seconds, items * len(traced)).items():
                metrics[name] = {"value": value, "unit": unit}
            overhead = traced_seconds / sum(u.seconds for u, _ in pairs) - 1.0
            metrics["trace_overhead_frac"] = {"value": overhead, "unit": "frac"}
        OUT_DIR.mkdir(exist_ok=True)
        tracer.save(OUT_DIR / f"{args.workload}-{args.size}-seed{args.seed}-spans.npz")

    record["absent_targets"] = observer.absent
    record["tau_histogram"] = {
        kind: histogram(t for t, _ in observer.observed[f"coupling.mh_couple_{kind}"])
        for kind in ("joint", "posterior")}
    record["search_iterations_histogram"] = {
        kind: histogram(observer.observed[f"search.local_search_{kind}"])
        for kind in ("joint", "posterior", "clamped")}
    correct = not failures
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
