"""Lag-1 maximal couplings of MCMC chains and the telescoping estimator.

Two chains x and y target the same distribution and share all randomness:
both start from the same state, the x chain advances one extra step, and
from then on each step draws a single proposal and a single uniform that
both chains use for their accept tests. The coupling time tau is the
first t >= 1 with x_t = y_{t-1}; after that the chains stay merged, so
the telescoping sum

    f(x_0) + sum_{t=1}^{tau-1} [f(x_t) - f(y_{t-1})]

is an unbiased estimator of the stationary expectation of f.

The Metropolis-Hastings coupler proposes a fresh uniform configuration
each step and accepts with min(1, exp(E_current - E_proposed)); started
near a low-energy state, proposals are almost always rejected by both
chains and tau collapses to 1. The Gibbs coupler is the baseline: it
resamples blocks coordinatewise, coupling each conditional Bernoulli pair
maximally through one shared uniform per unit, and must wait until every
coordinate happens to agree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .model import (DbmParams, GradEstimate, HiddenState, JointState, is_spin,
                    split_state, uniform_spins)

DEFAULT_TAU_MAX_MH = 10_000
DEFAULT_TAU_MAX_GIBBS = 1_000_000


class CouplingTruncatedError(RuntimeError):
    """A coupled run hit tau_max before meeting; its telescoping sum is biased."""


@dataclass
class CoupledRun:
    """A lag-1 coupled trajectory up to the coupling time.

    x_states has tau + 1 entries (x_0 .. x_tau) and y_states has tau
    (y_0 .. y_{tau-1}), with x_0 = y_0 and, unless truncated,
    x_tau = y_{tau-1}. Runs recorded without trajectories (bench fast
    path) keep only x_0.
    """

    x_states: list
    y_states: list
    tau: int
    truncated: bool = False

    @property
    def has_trajectory(self) -> bool:
        return len(self.x_states) == self.tau + 1


def _energy_concat(params: DbmParams):
    """Joint energy as a function of one concatenated (v, h1, h2) vector."""
    W1, W2 = params.W1, params.W2
    b_v, b_h1, b_h2 = params.b_v, params.b_h1, params.b_h2
    n_v, n_h1 = W1.shape
    n_h2 = W2.shape[1]
    if n_h2:
        def e(x):
            v, h1, h2 = x[:n_v], x[n_v:n_v + n_h1], x[n_v + n_h1:]
            return (-float((v @ W1) @ h1) - float((h1 @ W2) @ h2)
                    - float(b_v @ v) - float(b_h1 @ h1) - float(b_h2 @ h2))
    else:
        def e(x):
            v, h1 = x[:n_v], x[n_v:]
            return -float((v @ W1) @ h1) - float(b_v @ v) - float(b_h1 @ h1)
    return e


def _energy_hidden_concat(params: DbmParams, v: np.ndarray):
    """Joint energy at clamped v as a function of one concatenated (h1, h2) vector."""
    c = params.W1.T @ v + params.b_h1  # absorbs the visible contribution
    const = float(params.b_v @ v)
    W2, b_h2 = params.W2, params.b_h2
    n_h1, n_h2 = W2.shape
    if n_h2:
        def e(h):
            h1, h2 = h[:n_h1], h[n_h1:]
            return -float(c @ h1) - float((h1 @ W2) @ h2) - float(b_h2 @ h2) - const
    else:
        def e(h):
            return -float(c @ h) - const
    return e


def _couple_mh(energy_fn, n_units, x0, tau_max, rng, keep_states):
    """Shared-randomness lag-1 coupling of uniform-proposal MH chains.

    Works on concatenated spin vectors; callers re-split into typed states.
    Returns (x_states, y_states, tau, truncated).
    """
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    e0 = energy_fn(x0)
    xs = [x0]
    ys = [x0]
    # x advances one step on its own to create the lag
    prop = uniform_spins(n_units, rng)
    e_p = energy_fn(prop)
    u = rng.random()
    if (math.log(u) if u > 0.0 else -math.inf) < e0 - e_p:
        x_cur, e_x = prop, e_p
    else:
        x_cur, e_x = x0, e0
    xs.append(x_cur)
    y_cur, e_y = x0, e0
    t = 1
    truncated = False
    while x_cur.tobytes() != y_cur.tobytes():  # exact +-1 arrays, bytewise test is safe
        if t >= tau_max:
            truncated = True
            break
        prop = uniform_spins(n_units, rng)
        e_p = energy_fn(prop)
        u = rng.random()
        log_u = math.log(u) if u > 0.0 else -math.inf
        if log_u < e_x - e_p:
            x_cur, e_x = prop, e_p
        if log_u < e_y - e_p:
            y_cur, e_y = prop, e_p
        t += 1
        if keep_states:
            xs.append(x_cur)
            ys.append(y_cur)
    if not keep_states:
        xs = [x0]
        ys = []
    return xs, ys, t, truncated


def mh_couple_joint(params: DbmParams, x0: JointState, tau_max: int = DEFAULT_TAU_MAX_MH,
                    rng: np.random.Generator = None, keep_states: bool = True) -> CoupledRun:
    """Couple two uniform-proposal MH chains on the joint state, starting at x0."""
    if rng is None:
        rng = np.random.default_rng()
    s = params.shape
    x0c = x0.concat()
    if not is_spin(x0c):
        raise ValueError("x0 must be a +-1 configuration")
    xs, ys, tau, trunc = _couple_mh(_energy_concat(params), s.total, x0c,
                                    tau_max, rng, keep_states)
    return CoupledRun([split_state(s, x) for x in xs] if keep_states else [x0],
                      [split_state(s, y) for y in ys], tau, trunc)


def mh_couple_posterior(params: DbmParams, v: np.ndarray, h0: HiddenState,
                        tau_max: int = DEFAULT_TAU_MAX_MH,
                        rng: np.random.Generator = None,
                        keep_states: bool = True) -> CoupledRun:
    """Couple two MH chains on the hidden state with v clamped.

    Both acceptance ratios use the joint energy at the clamped v, so the
    chains target the posterior over (h1, h2).
    """
    if rng is None:
        rng = np.random.default_rng()
    s = params.shape
    h0c = h0.concat()
    if not is_spin(h0c):
        raise ValueError("h0 must be a +-1 configuration")

    def split_hidden(h):
        return HiddenState(h[:s.n_h1].copy(), h[s.n_h1:].copy())

    xs, ys, tau, trunc = _couple_mh(_energy_hidden_concat(params, v),
                                    s.n_h1 + s.n_h2, h0c, tau_max, rng, keep_states)
    return CoupledRun([split_hidden(x) for x in xs] if keep_states else [h0],
                      [split_hidden(y) for y in ys], tau, trunc)


def mh_coupled_trajectory(params: DbmParams, x0: JointState, n_steps: int,
                          rng: np.random.Generator):
    """Run the coupled MH kernel for exactly n_steps, ignoring meetings.

    Diagnostic hook: returns (xs, ys) with xs = [x_0 .. x_n] and
    ys = [y_0 .. y_{n-1}] so marginal laws and the stay-merged property
    can be checked directly.
    """
    s = params.shape
    e = _energy_concat(params)
    x_cur = x0.concat()
    if not is_spin(x_cur):
        raise ValueError("x0 must be a +-1 configuration")
    e0 = e(x_cur)
    xs = [x_cur]
    ys = [x_cur]
    prop = uniform_spins(s.total, rng)
    e_p = e(prop)
    u = rng.random()
    if (math.log(u) if u > 0.0 else -math.inf) < e0 - e_p:
        x_cur, e_x = prop, e_p
    else:
        e_x = e0
    xs.append(x_cur)
    y_cur, e_y = xs[0], e0
    for _ in range(1, n_steps):
        prop = uniform_spins(s.total, rng)
        e_p = e(prop)
        u = rng.random()
        log_u = math.log(u) if u > 0.0 else -math.inf
        if log_u < e_x - e_p:
            x_cur, e_x = prop, e_p
        if log_u < e_y - e_p:
            y_cur, e_y = prop, e_p
        xs.append(x_cur)
        ys.append(y_cur)
    return ([split_state(s, x) for x in xs], [split_state(s, y) for y in ys])


def mh_step(params: DbmParams, x: JointState, rng: np.random.Generator) -> JointState:
    """One uncoupled uniform-proposal MH step on the joint state."""
    e = _energy_concat(params)
    cur = x.concat()
    prop = uniform_spins(params.shape.total, rng)
    u = rng.random()
    if (math.log(u) if u > 0.0 else -math.inf) < e(cur) - e(prop):
        return split_state(params.shape, prop)
    return x


# ---------------------------------------------------------------------------
# Gibbs-based coupling baseline
# ---------------------------------------------------------------------------

def _coupled_spin_sample(a_x, a_y, rng):
    """Maximal coordinatewise coupling of two product-Bernoulli blocks."""
    u = rng.random(len(a_x))
    return (np.where(u < expit(2.0 * a_x), 1.0, -1.0),
            np.where(u < expit(2.0 * a_y), 1.0, -1.0))


def _coupled_gibbs_sweep(params: DbmParams, x: np.ndarray, y: np.ndarray,
                         rng: np.random.Generator):
    """One systematic-scan Gibbs sweep of both chains with shared uniforms."""
    W1, W2 = params.W1, params.W2
    b_v, b_h1, b_h2 = params.b_v, params.b_h1, params.b_h2
    n_v, n_h1 = W1.shape
    vx, h1x, h2x = x[:n_v], x[n_v:n_v + n_h1], x[n_v + n_h1:]
    vy, h1y, h2y = y[:n_v], y[n_v:n_v + n_h1], y[n_v + n_h1:]
    if rng.random() < 0.5:
        vx, vy = _coupled_spin_sample(W1 @ h1x + b_v, W1 @ h1y + b_v, rng)
        h2x, h2y = _coupled_spin_sample(W2.T @ h1x + b_h2, W2.T @ h1y + b_h2, rng)
        h1x, h1y = _coupled_spin_sample(W1.T @ vx + W2 @ h2x + b_h1,
                                        W1.T @ vy + W2 @ h2y + b_h1, rng)
    else:
        h1x, h1y = _coupled_spin_sample(W1.T @ vx + W2 @ h2x + b_h1,
                                        W1.T @ vy + W2 @ h2y + b_h1, rng)
        vx, vy = _coupled_spin_sample(W1 @ h1x + b_v, W1 @ h1y + b_v, rng)
        h2x, h2y = _coupled_spin_sample(W2.T @ h1x + b_h2, W2.T @ h1y + b_h2, rng)
    return np.concatenate([vx, h1x, h2x]), np.concatenate([vy, h1y, h2y])


def _gibbs_sweep_concat(params: DbmParams, x: np.ndarray, rng: np.random.Generator):
    W1, W2 = params.W1, params.W2
    n_v, n_h1 = W1.shape
    v, h1, h2 = x[:n_v], x[n_v:n_v + n_h1], x[n_v + n_h1:]
    p = lambda a: np.where(rng.random(len(a)) < expit(2.0 * a), 1.0, -1.0)
    if rng.random() < 0.5:
        v = p(W1 @ h1 + params.b_v)
        h2 = p(W2.T @ h1 + params.b_h2)
        h1 = p(W1.T @ v + W2 @ h2 + params.b_h1)
    else:
        h1 = p(W1.T @ v + W2 @ h2 + params.b_h1)
        v = p(W1 @ h1 + params.b_v)
        h2 = p(W2.T @ h1 + params.b_h2)
    return np.concatenate([v, h1, h2])


def gibbs_couple_joint(params: DbmParams, x0: JointState,
                       tau_max: int = DEFAULT_TAU_MAX_GIBBS,
                       rng: np.random.Generator = None,
                       keep_states: bool = True) -> CoupledRun:
    """Lag-1 coupled systematic-scan Gibbs chains from a shared start.

    The chains meet only when every coordinate coincides, which takes a
    number of sweeps that grows steeply with dimension; this is the
    baseline the MH coupler is measured against.
    """
    if rng is None:
        rng = np.random.default_rng()
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    s = params.shape
    x_cur = x0.concat()
    if not is_spin(x_cur):
        raise ValueError("x0 must be a +-1 configuration")
    xs = [x_cur]
    ys = [x_cur]
    y_cur = x_cur
    x_cur = _gibbs_sweep_concat(params, x_cur, rng)  # lag-creating solo sweep
    xs.append(x_cur)
    t = 1
    truncated = False
    while x_cur.tobytes() != y_cur.tobytes():
        if t >= tau_max:
            truncated = True
            break
        x_cur, y_cur = _coupled_gibbs_sweep(params, x_cur, y_cur, rng)
        t += 1
        if keep_states:
            xs.append(x_cur)
            ys.append(y_cur)
    if not keep_states:
        return CoupledRun([x0], [], t, truncated)
    return CoupledRun([split_state(s, x) for x in xs],
                      [split_state(s, y) for y in ys], t, truncated)


# ---------------------------------------------------------------------------
# telescoping estimator and summaries
# ---------------------------------------------------------------------------

def telescope_terms(run: CoupledRun) -> list:
    """The telescoping sum f(x_0) + sum_{t=1}^{tau-1} [f(x_t) - f(y_{t-1})] as
    (distinct state, net coefficient) pairs.

    Rejected proposals make chain states repeat, so the sum collapses to one
    term per distinct state with an integer net coefficient; terms whose
    coefficient cancels to zero are left out. The coefficients always sum
    to 1, so at least one term remains. Requires a non-truncated run with
    its trajectory recorded.
    """
    if run.truncated:
        raise CouplingTruncatedError("telescoping sum over a truncated run would be biased")
    if not run.has_trajectory:
        raise ValueError("run was recorded without states (keep_states=False)")
    if run.tau == 1:
        return [(run.x_states[0], 1)]
    coeffs = {}

    def add(state, c):
        key = state.concat().tobytes()
        if key in coeffs:
            coeffs[key][1] += c
        else:
            coeffs[key] = [state, c]

    add(run.x_states[0], 1)
    for t in range(1, run.tau):
        add(run.x_states[t], 1)
        add(run.y_states[t - 1], -1)
    return [(state, c) for state, c in coeffs.values() if c != 0]


def telescope_estimate(run: CoupledRun, grad_fn) -> GradEstimate:
    """grad_fn(x_0) + sum_{t=1}^{tau-1} [grad_fn(x_t) - grad_fn(y_{t-1})].

    Unbiased for the stationary expectation of grad_fn; evaluated as one
    grad_fn call per term of telescope_terms(run). grad_fn must return a
    fresh GradEstimate each call (the result may be accumulated in place).
    """
    terms = telescope_terms(run)
    state, c = terms[0]
    g = grad_fn(state)
    if c != 1:
        g.scale(float(c))
    for state, c in terms[1:]:
        g.add_scaled(grad_fn(state), float(c))
    return g


def coupling_time_stats(samples) -> dict:
    """Summaries of (tau, T_search) pairs: mean/variance/quantiles of tau, T, tau+T."""
    taus = np.array([s[0] for s in samples], dtype=np.float64)
    ts = np.array([s[1] for s in samples], dtype=np.float64)
    if len(taus) == 0:
        raise ValueError("no samples")
    out = {}
    for name, a in (("tau", taus), ("T", ts), ("total", taus + ts)):
        out[name] = {
            "mean": float(np.mean(a)),
            "variance": float(np.var(a)),
            "min": float(np.min(a)),
            "median": float(np.median(a)),
            "p90": float(np.quantile(a, 0.90)),
            "p95": float(np.quantile(a, 0.95)),
            "max": float(np.max(a)),
        }
    return out
