"""Certifying the gradient estimator against exact enumeration.

On an 8-unit model the log-likelihood gradient can be computed exactly,
so the telescoping coupled-chain estimator can be tested for bias: its
Monte Carlo mean must approach the exact value at the 1/sqrt(N) rate.
A contrastive-divergence-style short Gibbs negative phase fails the same
test, which is the whole point of the coupling construction.
"""

import numpy as np

import spindbm as sd
from spindbm import oracle
from spindbm.model import uniform_spins
from spindbm.search import gibbs_sweep_joint
from spindbm.training import TrainConfig, gradient_from_states, positive_phase_estimate

params, v = sd.training.default_check_model()
exact = oracle.exact_grad_loglik(params, v).as_vector()

for estimator in ("plain", "marginalized"):
    rep = sd.unbiasedness_report(params, v, n_samples=20_000, seed=0,
                                 estimator=estimator)
    print(f"{estimator:>13}: max |z| over {len(exact)} components "
          f"= {rep['max_abs_z']:.2f}  ->  {'unbiased' if rep['passed'] else 'BIASED'}")

# Now inject a deliberately biased negative phase: one Gibbs sweep from noise.
cfg = TrainConfig(shape=params.shape, estimator="plain")


def cd_style(p, vv, rng):
    g_pos, _, _ = positive_phase_estimate(p, vv, cfg, rng)
    x = sd.JointState(uniform_spins(3, rng), uniform_spins(3, rng), uniform_spins(2, rng))
    x = gibbs_sweep_joint(p, x, rng)
    g_neg = gradient_from_states(p, "plain", [], [(x.v, x.h1, x.h2, 1.0)])
    return g_neg.add_scaled(g_pos, -1.0)


rep = sd.unbiasedness_report(params, v, n_samples=20_000, seed=0, estimate_fn=cd_style)
print(f"{'1-sweep Gibbs':>13}: max |z| = {rep['max_abs_z']:.2f}  "
      f"->  {'unbiased' if rep['passed'] else 'BIASED (as expected)'}")
