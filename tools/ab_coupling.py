"""In-process A/B of the MH coupling: this tree's coupling.py against a parent's.

Usage, from the root of a checkout, with the parent checked out elsewhere:

    python3 tools/ab_coupling.py --parent ../parent-checkout --pairs 24

Both copies of spindbm/coupling.py load into one interpreter, next to each
other, and share this tree's model.py and search.py, so the only difference
between the two sides is coupling.py. BLAS is pinned to one thread (see
ab_search.py, whose pairing and table this tool shares). The cases are the
oracle check's 1024-row MH couplings on the 3-3-2 model, joint and posterior
(taking c = v_share(V)), as one draw block of unbiasedness_report runs them.
Both start from the same rows, which this tree's search and sweep find once,
and each side of a pair draws from the same seed; the first pair checks that
the two sides return the same RowRuns bit for bit: tau, truncation flags and
every step record.

perfbench's span tracer does not see the row couplings, so this is where a
change to coupling._mh_chains shows its time.
"""

from __future__ import annotations

import sys

# first: ab_search pins BLAS to one thread before numpy loads and puts src on the path
from ab_search import load_parent_module, parse_args, run_pairs

import numpy as np

from spindbm import coupling, search, training
from spindbm.coupling import DEFAULT_TAU_MAX_MH
from spindbm.model import v_share


def cases():
    """(name, calls per sample, run(coupling module, rng) -> list of RowRuns)."""
    check, v = training.default_check_model()
    V = np.tile(v, (1024, 1))
    c = v_share(check, V)
    rng = np.random.default_rng(0)
    joint = search.local_search_joint_rows(check, 1024, rng)
    X = np.hstack(search.gibbs_sweep_joint_rows(check, joint.V, joint.H1, joint.H2, rng,
                                                fields=joint.fields))
    post = search.local_search_posterior_rows(check, V, rng, c=c)
    H = np.hstack(search.gibbs_sweep_posterior_rows(check, V, post.H1, post.H2, rng, c=c))
    return [
        ("oracle joint MH x1024", 30,
         lambda m, g: [m.mh_couple_joint_rows(check, X, DEFAULT_TAU_MAX_MH, g)]),
        ("oracle post MH x1024", 30,
         lambda m, g: [m.mh_couple_posterior_rows(check, V, H, DEFAULT_TAU_MAX_MH, g, c=c)]),
    ]


def _same(a, b) -> bool:
    """Whether two lists of RowRuns are the same runs, bit for bit."""
    def same_runs(p, q):
        return (np.array_equal(p.tau, q.tau) and np.array_equal(p.truncated, q.truncated)
                and len(p.steps) == len(q.steps)
                and all(np.array_equal(x, y) for s, r in zip(p.steps, q.steps)
                        for x, y in zip(s, r)))
    return len(a) == len(b) and all(same_runs(p, q) for p, q in zip(a, b))


def main(argv=None) -> int:
    args = parse_args(argv, "coupling", __doc__.split("\n")[0])
    return run_pairs(cases(), load_parent_module(args.parent, "coupling"), coupling,
                     args.pairs, _same)


if __name__ == "__main__":
    sys.exit(main())
