"""Energies, conditionals, and exact enumeration on a desk-size model.

Everything a two-hidden-layer spin Boltzmann machine knows is in one
scalar: the energy of a configuration. This walk-through builds a tiny
model, pokes at its energy function and block conditionals, and checks
them against exhaustive enumeration, which is tractable at this size.
"""

import numpy as np

import spindbm as sd
from spindbm.model import h1_field, h2_field, v_field

rng = np.random.default_rng(0)
shape = sd.DbmShape(3, 3, 2)
params = sd.init_params(shape, rng)

print("A 3-3-2 model: weight matrices", params.W1.shape, "and", params.W2.shape)

x = sd.JointState(sd.uniform_spins(3, rng), sd.uniform_spins(3, rng),
                  sd.uniform_spins(2, rng))
print("\nrandom state v =", x.v, " h1 =", x.h1, " h2 =", x.h2)
print("energy:", sd.energy(params, x))

# The bipartite layout makes block conditionals one sigmoid per unit:
# P(s = +1) = sigmoid(2 a) = (1 + tanh a) / 2 for a unit with local field a.
print("\nP(v_i = +1 | h1) =", 0.5 + 0.5 * np.tanh(v_field(params, x.h1)))
print("P(h1_j = +1 | v, h2) =", 0.5 + 0.5 * np.tanh(h1_field(params, x.v, x.h2)))
print("P(h2_k = +1 | h1) =", 0.5 + 0.5 * np.tanh(h2_field(params, x.h1)))

# Summing out one block by brute force gives a marginal energy: here h1,
# whose 8 configurations are enumerated (the oracle's spin table).
h1_rows = sd.oracle.spin_table(3)
neg_e = [-sd.energy(params, sd.JointState(x.v, h1, x.h2)) for h1 in h1_rows]
print("\neven-block marginal energy E(v, h2) = -log sum_h1 exp(-E):",
      -np.logaddexp.reduce(neg_e))

# At 8 units we can enumerate all 256 states and normalize exactly.
dist = sd.enumerate_joint(params)
print("\nexact log partition function:", dist.log_partition)
print("probability of the state above:", dist.prob(x))

v = np.array([1.0, -1.0, 1.0])
g = sd.exact_grad_loglik(params, v)
print("\nexact gradient of log p(v) for v =", v)
print("dW1 block:\n", g.dW1)
