"""In-process A/B of the local search and sweeps: this tree's search.py against a parent's.

Usage, from the root of a checkout, with the parent checked out elsewhere:

    python3 tools/ab_search.py --parent ../parent-checkout --pairs 24

Both copies of spindbm/search.py load into one interpreter, next to each
other, and share this tree's model.py, so the only difference between the
two sides is search.py. BLAS is pinned to one thread. Each case runs in
pairs, alternating which side goes first, and both sides of a pair draw
from the same seed, so they do the same work; the first pair also checks
that they return the same rows bit for bit. The cases are the searches and
Gibbs sweeps that dominate the benchmark's workloads:

- the oracle check's 1024-row blocks on the 3-3-2 model, posterior and joint;
- 4-row posterior and joint searches at 6272-500-500, a training batch;
- the 8-row joint search of sample at 6272-500-500;
- 8 one-row clamped searches (complete) with the lower half of a 28 x 28
  image observed;
- the sweeps that follow the oracle check's 1024-row searches, joint (taking
  the search's fields) and posterior (taking c = v_share(V));
- the joint sweep of a 4-row training batch at 6272-500-500, taking the
  search's fields.

The sweeps start from fixed points that this tree's search finds once.

For each case it prints the median seconds per sample of each side, the
median of the per-pair ratios parent time / tree time (above 1: the tree
is faster) and the pairs the tree won. tools/ab_coupling.py runs the MH
couplings through the same pairing and table.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import sys
from pathlib import Path
from time import perf_counter

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"  # before numpy loads

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from spindbm import data, search, training  # noqa: E402
from spindbm.model import DbmShape, uniform_spins, v_share  # noqa: E402


def load_parent_module(checkout: Path, name: str):
    """The parent's spindbm/<name>.py as a module of this tree's spindbm package."""
    path = checkout / "src" / "spindbm" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"spindbm._parent_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def cases():
    """(name, calls per sample, run(search module, rng) -> list of RowSearch or sweep rows)."""
    check, v = training.default_check_model()
    V_check = np.tile(v, (1024, 1))
    big = training.init_params(DbmShape(6272, 500, 500), np.random.default_rng([0, 1]))
    rng = np.random.default_rng(0)
    V4 = uniform_spins((4, 6272), rng)
    images = uniform_spins((8, 6272), rng)
    observed = data.lower_half_mask(28, 28).observed
    joint_check = search.local_search_joint_rows(check, 1024, rng)
    post_check = search.local_search_posterior_rows(check, V_check, rng)
    c_check = v_share(check, V_check)
    joint_big = search.local_search_joint_rows(big, 4, rng)
    return [
        ("oracle posterior x1024", 50,
         lambda s, g: [s.local_search_posterior_rows(check, V_check, g)]),
        ("oracle joint x1024", 30, lambda s, g: [s.local_search_joint_rows(check, 1024, g)]),
        ("6272 posterior R=4", 5, lambda s, g: [s.local_search_posterior_rows(big, V4, g)]),
        ("6272 joint R=4", 1, lambda s, g: [s.local_search_joint_rows(big, 4, g)]),
        ("6272 sample R=8", 1, lambda s, g: [s.local_search_joint_rows(big, 8, g)]),
        ("6272 complete 8 x R=1", 1,
         lambda s, g: [s.local_search_clamped_rows(big, row[None], observed, g)
                       for row in images]),
        ("oracle joint sweep x1024", 200,
         lambda s, g: [s.gibbs_sweep_joint_rows(check, joint_check.V, joint_check.H1,
                                                joint_check.H2, g, fields=joint_check.fields)]),
        ("oracle post sweep x1024", 200,
         lambda s, g: [s.gibbs_sweep_posterior_rows(check, V_check, post_check.H1,
                                                    post_check.H2, g, c=c_check)]),
        ("6272 joint sweep R=4", 20,
         lambda s, g: [s.gibbs_sweep_joint_rows(big, joint_big.V, joint_big.H1, joint_big.H2,
                                                g, fields=joint_big.fields)]),
    ]


def _time(run, module, calls: int, seed: int) -> float:
    rng = np.random.default_rng(seed)
    t = perf_counter()
    for _ in range(calls):
        run(module, rng)
    return perf_counter() - t


def _arrays(result) -> tuple:
    """A RowSearch's arrays; a sweep's result is already a tuple of them."""
    if isinstance(result, tuple):
        return result
    return (result.V, result.H1, result.H2, result.steps) + (result.fields or ())


def _same(a, b) -> bool:
    """Whether two lists of results hold the same rows, bit for bit."""
    return all(np.array_equal(x, y) for p, q in zip(a, b) for x, y in zip(_arrays(p), _arrays(q)))


def run_pairs(cases, parent, tree, pairs: int, same) -> int:
    """Time each (name, calls, run) case in alternating pairs and print the table.

    same(a, b) checks the first pair's results; a mismatch returns 1.
    """
    print(f"{'case':<24} {'parent s':>10} {'tree s':>10} {'ratio':>7} {'wins':>7}")
    for name, calls, run in cases:
        if not same(run(parent, np.random.default_rng(1)), run(tree, np.random.default_rng(1))):
            print(f"{name}: the two sides return different rows", file=sys.stderr)
            return 1
        t_parent, t_tree = [], []
        for i in range(pairs):
            seed = 1000 + i
            order = ((parent, t_parent), (tree, t_tree))
            for module, times in order if i % 2 == 0 else order[::-1]:
                times.append(_time(run, module, calls, seed))
        ratios = [a / b for a, b in zip(t_parent, t_tree)]
        wins = sum(r > 1.0 for r in ratios)
        print(f"{name:<24} {statistics.median(t_parent):>10.5f} "
              f"{statistics.median(t_tree):>10.5f} {statistics.median(ratios):>7.3f} "
              f"{wins:>4}/{pairs}")
    return 0


def parse_args(argv, name: str, description: str):
    """--parent and --pairs; name is the module the parent checkout supplies."""
    p = argparse.ArgumentParser(description=description)
    p.add_argument("--parent", required=True, type=Path,
                   help=f"root of the parent checkout whose {name}.py is the baseline")
    p.add_argument("--pairs", type=int, default=24)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv, "search", __doc__.split("\n")[0])
    return run_pairs(cases(), load_parent_module(args.parent, "search"), search, args.pairs,
                     _same)


if __name__ == "__main__":
    sys.exit(main())
