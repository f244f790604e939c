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
from functools import partial

import numpy as np

from .model import (DbmParams, GradEstimate, HiddenState, JointState, check_joint,
                    energy_vhh, is_spin, split_state, uniform_spins, v_share)
from .search import block_pass, gibbs_sweep_joint, sweep_uniforms

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


def _joint_energy(params: DbmParams):
    """model.energy_vhh as a function of one concatenated (v, h1, h2) vector."""
    n_v, n_vh = params.W1.shape[0], sum(params.W1.shape)
    return lambda x: energy_vhh(params, x[:n_v], x[n_v:n_vh], x[n_vh:])


def _posterior_energy(params: DbmParams, v: np.ndarray):
    """Joint energy at clamped v as a function of one concatenated (h1, h2) vector.

    The one energy besides model.energy_vhh on the sampler side: v's share
    of the h1 field (c = model.v_share(v)) and the constant b_v'v are hoisted
    out of the proposal loop, which saves an n_v x n_h1 gemv (6272 x 500 at
    image scale) per proposal.
    """
    c = v_share(params, v)
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


def _mh_chains(energy, split, start, n_steps: int, rng: np.random.Generator,
               stop_at_meeting: bool = True, keep_states: bool = True) -> CoupledRun:
    """The one lag-1 coupled uniform-proposal MH loop.

    The chains run on concatenated spin vectors: energy maps one to its
    energy and split maps it back to a state like start. Step t draws one
    proposal and one uniform, and both chains accept with
    min(1, exp(E_current - E_proposal)) on that shared pair. x may move from
    t = 1 and y from t = 2, so y trails x by one step. The loop stops at the
    first t with x_t = y_{t-1} (the chains then stay merged) or after
    n_steps steps, which truncates the run; with stop_at_meeting=False it
    always runs n_steps and is never marked truncated.
    """
    if n_steps < 1:
        raise ValueError("tau_max and n_steps must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    x0 = start.concat()
    if not is_spin(x0):
        raise ValueError("the start state must be a +-1 configuration")
    x = y = x0
    e_x = e_y = energy(x0)
    xs, ys = [x0], [x0]
    t = 0
    met = False
    while not met and t < n_steps:
        prop = uniform_spins(len(x0), rng)
        e_p = energy(prop)
        u = rng.random()
        log_u = math.log(u) if u > 0.0 else -math.inf
        if log_u < e_x - e_p:
            x, e_x = prop, e_p
        if t and log_u < e_y - e_p:
            y, e_y = prop, e_p
        t += 1
        if keep_states:
            xs.append(x)
            if t > 1:
                ys.append(y)
        met = stop_at_meeting and x.tobytes() == y.tobytes()  # exact +-1 arrays
    truncated = stop_at_meeting and not met
    if not keep_states:
        return CoupledRun([start], [], t, truncated)
    return CoupledRun([split(a) for a in xs], [split(b) for b in ys], t, truncated)


def mh_couple_joint(params: DbmParams, x0: JointState, tau_max: int = DEFAULT_TAU_MAX_MH,
                    rng: np.random.Generator = None, keep_states: bool = True) -> CoupledRun:
    """Couple two uniform-proposal MH chains on the joint state, starting at x0."""
    check_joint(params, x0.v, x0.h1, x0.h2)
    return _mh_chains(_joint_energy(params), partial(split_state, params.shape), x0,
                      tau_max, rng, keep_states=keep_states)


def mh_couple_posterior(params: DbmParams, v: np.ndarray, h0: HiddenState,
                        tau_max: int = DEFAULT_TAU_MAX_MH,
                        rng: np.random.Generator = None,
                        keep_states: bool = True) -> CoupledRun:
    """Couple two MH chains on the hidden state with v clamped.

    Both acceptance ratios use the joint energy at the clamped v, so the
    chains target the posterior over (h1, h2).
    """
    check_joint(params, v, h0.h1, h0.h2)
    n_h1 = params.W1.shape[1]

    def split_hidden(h):
        return HiddenState(h[:n_h1].copy(), h[n_h1:].copy())

    return _mh_chains(_posterior_energy(params, v), split_hidden, h0, tau_max, rng,
                      keep_states=keep_states)


def mh_coupled_trajectory(params: DbmParams, x0: JointState, n_steps: int,
                          rng: np.random.Generator):
    """Run the coupled MH kernel for exactly n_steps >= 1, ignoring meetings.

    Diagnostic hook: returns (xs, ys) with xs = [x_0 .. x_n] and
    ys = [y_0 .. y_{n-1}] so marginal laws and the stay-merged property
    can be checked directly.
    """
    check_joint(params, x0.v, x0.h1, x0.h2)
    run = _mh_chains(_joint_energy(params), partial(split_state, params.shape), x0,
                     n_steps, rng, stop_at_meeting=False)
    return run.x_states, run.y_states


def mh_step(params: DbmParams, x: JointState, rng: np.random.Generator) -> JointState:
    """One uncoupled uniform-proposal MH step on the joint state.

    This is the coupled loop's first step, in which x moves alone.
    """
    return mh_coupled_trajectory(params, x, 1, rng)[0][1]


# ---------------------------------------------------------------------------
# Gibbs-based coupling baseline
# ---------------------------------------------------------------------------

def gibbs_couple_joint(params: DbmParams, x0: JointState,
                       tau_max: int = DEFAULT_TAU_MAX_GIBBS,
                       rng: np.random.Generator = None,
                       keep_states: bool = True) -> CoupledRun:
    """Lag-1 coupled systematic-scan Gibbs chains from a shared start.

    After x's solo sweep, each step is one block pass of both chains on
    the same coin flip and the same uniforms, which couples every
    coordinate's conditional Bernoulli pair maximally. The chains meet
    only when every coordinate coincides, which takes a number of sweeps
    that grows steeply with dimension; this is the baseline the MH coupler
    is measured against.
    """
    if rng is None:
        rng = np.random.default_rng()
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    if not is_spin(x0.concat()):
        raise ValueError("the start state must be a +-1 configuration")
    sizes = (len(x0.v), len(x0.h1), len(x0.h2))
    y = x0
    x = gibbs_sweep_joint(params, x0, rng)  # lag-creating solo sweep
    xs, ys = [x0, x], [x0]
    t = 1
    met = x.equals(y)
    while not met and t < tau_max:
        even_first = rng.random() < 0.5
        u = sweep_uniforms(rng, even_first, *sizes)
        x = JointState(*block_pass(params, x.v, x.h1, x.h2, even_first, u))
        y = JointState(*block_pass(params, y.v, y.h1, y.h2, even_first, u))
        t += 1
        if keep_states:
            xs.append(x)
            ys.append(y)
        met = x.equals(y)
    return CoupledRun(xs if keep_states else [x0], ys if keep_states else [], t, not met)


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
