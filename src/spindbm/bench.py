"""Coupling-efficiency benchmark across dimensionality.

Sweeps single-hidden-layer models (n_v = n_h1 = d, no second layer) over
a range of d and measures, for each of four arms, how many steps it takes
the coupled chains to meet: Gibbs or Metropolis coupling, initialized
from uniform noise or from a local mode (local search plus one Gibbs
sweep). Records are written to CSV for external plotting; the headline
contrast is that Gibbs meeting times blow up with dimension while the
mode-initialized Metropolis coupling meets in one step.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .coupling import (DEFAULT_TAU_MAX_GIBBS, DEFAULT_TAU_MAX_MH, gibbs_couple_joint,
                       mh_couple_joint)
from .model import DbmShape, JointState, uniform_spins
from .search import gibbs_sweep_joint, local_search_joint
from .training import init_params, rng_for

COUPLINGS = ("gibbs", "mh")
INITS = ("uniform", "local_mode")

DEFAULT_DIMS = (1, 5, 10, 25, 50, 100, 200)
DEFAULT_REPLICATES = 200

CSV_HEADER = ("arm", "dim", "replicate", "tau", "T", "total", "truncated")


@dataclass(frozen=True)
class BenchArm:
    coupling: str  # gibbs | mh
    init: str      # uniform | local_mode

    def __post_init__(self):
        if self.coupling not in COUPLINGS or self.init not in INITS:
            raise ValueError(f"unknown arm {self.coupling}+{self.init}")

    @property
    def label(self) -> str:
        return f"{self.coupling}+{self.init}"

    @classmethod
    def parse(cls, label: str) -> "BenchArm":
        coupling, _, init = label.partition("+")
        return cls(coupling, init)


ALL_ARMS = tuple(BenchArm(c, i) for c in COUPLINGS for i in INITS)


@dataclass
class BenchRecord:
    arm: BenchArm
    dim: int
    replicate: int
    tau: int
    T_search: int
    truncated: bool

    @property
    def total(self) -> int:
        return self.tau + self.T_search


def _run_one(arm: BenchArm, dim: int, replicate: int, seed: int,
             tau_max_mh: int, tau_max_gibbs: int) -> BenchRecord:
    rng = rng_for(seed, ALL_ARMS.index(arm), dim, replicate)
    params = init_params(DbmShape(dim, dim, 0), rng)
    t_search = 0
    if arm.init == "local_mode":
        sr = local_search_joint(params, rng)
        t_search = sr.steps
        x0 = gibbs_sweep_joint(params, sr.state, rng, fields=sr.fields)
    else:
        x0 = JointState(uniform_spins(dim, rng), uniform_spins(dim, rng),
                        uniform_spins(0, rng))
    if arm.coupling == "mh":
        run = mh_couple_joint(params, x0, tau_max_mh, rng, keep_states=False)
    else:
        run = gibbs_couple_joint(params, x0, tau_max_gibbs, rng, keep_states=False)
    return BenchRecord(arm, dim, replicate, run.tau, t_search, run.truncated)


def _run_one_tuple(args) -> BenchRecord:
    return _run_one(*args)


def run_coupling_sweep(dims=DEFAULT_DIMS, replicates: int = DEFAULT_REPLICATES,
                       arms=ALL_ARMS, seed: int = 0,
                       tau_max_mh: int = DEFAULT_TAU_MAX_MH,
                       tau_max_gibbs: int = DEFAULT_TAU_MAX_GIBBS,
                       threads: int = 1) -> list:
    """All (arm, dim, replicate) cells; truncations are recorded, never raised.

    Each cell draws a fresh model from its own deterministic stream, so the
    record list is reproducible bit-for-bit in the seed regardless of
    threads or execution order. threads > 1 runs the cells on a pool of at
    most that many worker processes, and never more workers than cells.
    """
    if any(d < 1 for d in dims) or threads < 1:
        raise ValueError("dims and threads must be >= 1")
    tasks = [(arm, dim, rep, seed, tau_max_mh, tau_max_gibbs)
             for arm in arms for dim in dims for rep in range(replicates)]
    workers = min(threads, len(tasks))
    if workers > 1:
        import multiprocessing  # only here: it adds to every import of the package
        with multiprocessing.Pool(processes=workers) as pool:
            records = pool.map(_run_one_tuple, tasks, chunksize=16)
    else:
        records = [_run_one_tuple(t) for t in tasks]
    records.sort(key=lambda r: (r.arm.label, r.dim, r.replicate))
    return records


def emit_csv(records, path):
    """Write records as CSV with a fixed header and deterministic ordering."""
    rows = sorted(records, key=lambda r: (r.arm.label, r.dim, r.replicate))
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(CSV_HEADER)
        for r in rows:
            w.writerow([r.arm.label, r.dim, r.replicate, r.tau, r.T_search,
                        r.total, int(r.truncated)])


def parse_csv(path) -> list:
    """Inverse of emit_csv (round-trip checks and downstream analysis)."""
    out = []
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.reader(f)
        header = next(reader)
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"{path}: unexpected header {header}")
        for row in reader:
            arm = BenchArm.parse(row[0])
            rec = BenchRecord(arm, int(row[1]), int(row[2]), int(row[3]),
                              int(row[4]), bool(int(row[6])))
            if rec.total != int(row[5]):
                raise ValueError(f"{path}: total column inconsistent in {row}")
            out.append(rec)
    return out


def summarize(records) -> list:
    """Per (arm, dim) summary rows: mean/median/p95 of total steps, truncation rate."""
    groups = {}
    for r in records:
        groups.setdefault((r.arm.label, r.dim), []).append(r)
    out = []
    for (label, dim) in sorted(groups):
        rs = groups[(label, dim)]
        totals = np.array([r.total for r in rs], dtype=np.float64)
        out.append({
            "arm": label,
            "dim": dim,
            "n": len(rs),
            "mean_total": float(np.mean(totals)),
            "median_total": float(np.median(totals)),
            "p95_total": float(np.quantile(totals, 0.95)),
            "mean_tau": float(np.mean([r.tau for r in rs])),
            "mean_T": float(np.mean([r.T_search for r in rs])),
            "truncated_frac": float(np.mean([r.truncated for r in rs])),
        })
    return out


def format_summary(summary_rows) -> str:
    header = (f"{'arm':>16} {'dim':>5} {'n':>5} {'mean':>10} {'median':>10} "
              f"{'p95':>10} {'tau':>8} {'T':>8} {'trunc%':>7}")
    lines = [header]
    for s in summary_rows:
        lines.append(f"{s['arm']:>16} {s['dim']:>5} {s['n']:>5} "
                     f"{s['mean_total']:>10.1f} {s['median_total']:>10.1f} "
                     f"{s['p95_total']:>10.1f} {s['mean_tau']:>8.2f} "
                     f"{s['mean_T']:>8.2f} {100 * s['truncated_frac']:>6.1f}%")
    return "\n".join(lines)
