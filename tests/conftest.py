import numpy as np
import pytest

from spindbm import (DbmParams, DbmShape, gibbs_sweep_joint, gibbs_sweep_posterior, init_params,
                     local_search_joint, local_search_posterior, mh_couple_joint,
                     mh_couple_posterior, oracle, telescope_terms)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def state_counts(X):
    """How often each state occurs among the rows of X, indexed as oracle.state_index
    indexes one state."""
    n = X.shape[1]
    return np.bincount((X > 0).astype(np.int64) @ (np.int64(1) << np.arange(n)),
                       minlength=2 ** n)


def random_params(shape, seed=0, scale=1.0):
    """Dense Gaussian parameters (not orthogonal); handy for generic checks."""
    r = np.random.default_rng(seed)
    return DbmParams(
        scale * r.standard_normal((shape.n_v, shape.n_h1)),
        scale * r.standard_normal((shape.n_h1, shape.n_h2)),
        scale * r.standard_normal(shape.n_v),
        scale * r.standard_normal(shape.n_h1),
        scale * r.standard_normal(shape.n_h2),
    )


@pytest.fixture
def params_332():
    return random_params(DbmShape(3, 3, 2), seed=7)


@pytest.fixture
def ortho_params_332():
    return init_params(DbmShape(3, 3, 2), np.random.default_rng(7))


def summed_out_energy(params, v=None, h1=None, h2=None):
    """A marginal energy by brute force: -log sum exp(-E) over every block left as None.

    Built from the oracle's own energy and log-sum-exp, not the sampler's
    kernels. It keeps the log 2 per summed-out unit, which no gradient sees.
    """
    s = params.shape
    blocks = ((s.n_v, v), (s.n_h1, h1), (s.n_h2, h2))
    table = oracle.spin_table(sum(n for n, b in blocks if b is None))
    cols, k = [], 0
    for n, b in blocks:
        if b is None:
            cols.append(table[:, k:k + n])
            k += n
        else:
            cols.append(np.broadcast_to(b, (len(table), n)))
    rows = np.concatenate(cols, axis=1)
    return -oracle._logsumexp(-oracle._joint_energies(params, rows))


def enumerated_states(params, v):
    """Every posterior state at v weighted -p and every joint state weighted +p.

    The (v, h1, h2, weight) lists of training.gradient_from_states, so one
    call over them is the exact expectation of an estimator's integrand.
    """
    s = params.shape
    post = oracle.enumerate_posterior(params, v).probabilities
    joint = oracle.enumerate_joint(params).probabilities
    hid = oracle.spin_table(s.n_h1 + s.n_h2)
    full = oracle.spin_table(s.total)
    n_vh = s.n_v + s.n_h1
    posterior = [(v, h[:s.n_h1], h[s.n_h1:], -p) for h, p in zip(hid, post)]
    joint_states = [(x[:s.n_v], x[s.n_v:n_vh], x[n_vh:], p) for x, p in zip(full, joint)]
    return posterior, joint_states


# The one-state phases, chained from the public one-state functions: the
# reference that training's row stages (_positive_rows, _negative_rows) are
# held to. Each returns (CoupledRun, search steps).

def posterior_chain(params, v, tau_max, rng):
    """Posterior search, sweep and MH coupling with v clamped, all on rng."""
    found = local_search_posterior(params, v, rng)
    h0 = gibbs_sweep_posterior(params, v, found.state, rng)
    return mh_couple_posterior(params, v, h0, tau_max, rng), found.steps


def joint_chain(params, tau_max, rng):
    """Joint search, sweep (from the search's fields) and MH coupling, all on rng."""
    found = local_search_joint(params, rng)
    x0 = gibbs_sweep_joint(params, found.state, rng, fields=found.fields)
    return mh_couple_joint(params, x0, tau_max, rng), found.steps


def chain_states(run, sign, v=None):
    """A run's telescoping terms as gradient_from_states' (v, h1, h2, sign * coefficient)
    states: a posterior run's at its clamped v, a joint run's with v None."""
    if v is None:
        return [(x.v, x.h1, x.h2, sign * c) for x, c in telescope_terms(run)]
    return [(v, h.h1, h.h2, sign * c) for h, c in telescope_terms(run)]
