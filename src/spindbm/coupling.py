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

from dataclasses import dataclass

import numpy as np

from .model import (DbmParams, DimensionError, GradEstimate, HiddenState, JointState,
                    check_joint, check_visible, energy_vhh, is_spin, keep_rows, pick_rows,
                    random_rows, uniform_spins, v_share)
from .search import block_pass, block_uniforms, gibbs_sweep_joint, sweep_uniforms

DEFAULT_TAU_MAX_MH = 10_000
DEFAULT_TAU_MAX_GIBBS = 100_000


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


@dataclass
class RowRuns:
    """R lag-1 coupled MH runs, moved together as rows.

    x0 is the (R, n) starts (each chain's free units, concatenated), tau and
    truncated are (R,) arrays. steps holds the trajectory, one record
    (rows, X, Y) per step t = 1, 2, ...: X[i] = x_t and Y[i] = y_{t-1} of
    run rows[i], for the runs that took step t (every run with tau >= t).
    steps is empty for runs recorded without trajectories.
    """

    x0: np.ndarray
    tau: np.ndarray
    truncated: np.ndarray
    steps: list


WINDOW_STEPS = 32  # the most lockstep steps one draw covers
WINDOW_NUMBERS = 1 << 16  # and the most numbers: many runs of many units get short windows


def _mh_chains(params: DbmParams, X0: np.ndarray, n_steps: int, rng: np.random.Generator,
               V=None, c=None, stop_at_meeting: bool = True,
               keep_states: bool = True) -> RowRuns:
    """The one lag-1 coupled uniform-proposal MH loop, over R runs as rows.

    With V None the chains run on the joint state and each row of X0 is a
    concatenated (v, h1, h2); with clamped rows V they run on (h1, h2), with
    c = model.v_share(V) hoisted out of the proposal loop (computed here
    unless given). Either way a chain is a concatenated spin vector of the
    free units, scored by model.energy_vhh. At step t every run still going
    draws its own proposal row, then its own uniform (from rng[r] when rng
    holds one generator per run, see model.random_rows), and both of its chains
    accept with min(1, exp(E_current - E_proposal)) on that shared pair.
    x may move from t = 1 and y from t = 2, so y trails x by one step. A run
    stops at the first t with x_t = y_{t-1} (the chains then stay merged)
    or after n_steps steps, which truncates it; with stop_at_meeting=False
    every run goes n_steps steps and none is marked truncated.

    Windows: when rng is one np.random.Generator, a window of steps that
    ends with no run meeting lets the next k lockstep steps draw as one
    window, k doubling each time up to WINDOW_STEPS steps and WINDOW_NUMBERS
    numbers (and never past n_steps): one rng.random((k, R_t (n + 1))) call,
    which holds exactly what those k steps draw one at a time (each step's
    R_t proposal rows, then its R_t uniforms), one energy product over the
    k R_t proposals and one log; then the k accept tests run in order, with
    a meeting test wherever a chain moved (and at step 1). When runs meet at
    window step s < k, the window gives back what its last k - s steps drew:
    the generator's state from before the draw is restored and the s steps'
    numbers drawn again, so the next window draws for the runs still going
    what the next step would; k stays as it was. So every tau, step record
    and generator state after the loop is that of the step-at-a-time loop,
    bit for bit. Any other rng (one generator per run, DrawnStreams) takes
    one step per draw.
    """
    if n_steps < 1:
        raise ValueError("tau_max and n_steps must be >= 1")
    if not is_spin(X0):
        raise ValueError("the start state must be a +-1 configuration")
    joint = V is None
    n_v = params.W1.shape[0] if joint else 0
    if not joint and c is None:
        c = v_share(params, V)
    n_vh = n_v + params.W1.shape[1]
    R, n = X0.shape
    tau = np.full(R, n_steps, dtype=np.int64)
    rows = np.arange(R)
    X = Y = X0
    E_x = E_y = energy_vhh(params, X0[:, :n_v] if joint else V, X0[:, n_v:n_vh],
                           X0[:, n_vh:], c)
    steps = []
    windows = isinstance(rng, np.random.Generator)
    t, k, done = 0, 1, False
    with np.errstate(divide="ignore"):  # log 0 = -inf: always accept
        while t < n_steps and not done:
            R_t = len(rows)
            if windows:
                k = min(k, n_steps - t, max(1, WINDOW_NUMBERS // max(1, R_t * (n + 1))))
                saved = rng.bit_generator.state if k > 1 else None
                U = rng.random((k, R_t * (n + 1)))
                P = np.where(U[:, :R_t * n] < 0.5, 1.0, -1.0).reshape(k, R_t, n)
                log_U = np.log(U[:, R_t * n:])
            else:
                P = uniform_spins(X.shape, rng)[None]
                log_U = np.log(random_rows(rng, (R_t,)))[None]
            if joint:  # one product over the k R_t proposal rows
                Q = P.reshape(-1, n)
                E_P = energy_vhh(params, Q[:, :n_v], Q[:, n_v:n_vh], Q[:, n_vh:]).reshape(k, R_t)
            else:  # V and c broadcast over the k steps
                E_P = energy_vhh(params, V, P[..., :n_vh], P[..., n_vh:], c)
            for j, (p, log_u, E_p) in enumerate(zip(P, log_U, E_P), start=1):
                moved = t == 0  # all may meet at step 1; later only a run whose chain moved
                move = log_u < E_x - E_p
                if np.count_nonzero(move):
                    X, E_x = np.where(move[:, None], p, X), np.where(move, E_p, E_x)
                    moved = True
                if t:
                    move = log_u < E_y - E_p
                    if np.count_nonzero(move):
                        Y, E_y = np.where(move[:, None], p, Y), np.where(move, E_p, E_y)
                        moved = True
                t += 1
                if keep_states:
                    steps.append((rows, X, Y))
                if not (stop_at_meeting and moved):
                    continue
                met = (X == Y).all(axis=1)  # exact +-1 arrays
                n_met = np.count_nonzero(met)
                if n_met == R_t:
                    tau[rows] = t
                    rows, done = rows[:0], True
                elif n_met:
                    tau[rows[met]] = t
                    go = (~met).nonzero()[0]
                    rows, X, Y, E_x, E_y, V, c = (pick_rows(a, go)
                                                  for a in (rows, X, Y, E_x, E_y, V, c))
                    rng = keep_rows(rng, go)
                if done or n_met:  # the window ends here; k stays
                    if j < k:  # give back what the steps after this one drew
                        rng.bit_generator.state = saved
                        rng.random(j * R_t * (n + 1))
                    break
            else:  # no run met: the next window is twice as long
                k = min(2 * k, WINDOW_STEPS) if windows else 1
    truncated = np.zeros(R, dtype=bool)
    truncated[rows] = stop_at_meeting
    return RowRuns(X0, tau, truncated, steps)


def _one_run(params: DbmParams, runs: RowRuns, start, keep_states: bool) -> CoupledRun:
    """The CoupledRun of a one-row RowRuns, with start's state type."""
    tau, truncated = int(runs.tau[0]), bool(runs.truncated[0])
    if not keep_states:
        return CoupledRun([start], [], tau, truncated)
    joint = isinstance(start, JointState)
    n_v = params.W1.shape[0] if joint else 0
    n_vh = n_v + params.W1.shape[1]

    def state(a):
        h1, h2 = a[n_v:n_vh].copy(), a[n_vh:].copy()
        return JointState(a[:n_v].copy(), h1, h2) if joint else HiddenState(h1, h2)

    return CoupledRun([state(runs.x0[0])] + [state(X[0]) for _, X, _ in runs.steps],
                      [state(Y[0]) for _, _, Y in runs.steps], tau, truncated)


def mh_couple_joint_rows(params: DbmParams, X0: np.ndarray, tau_max: int,
                         rng: np.random.Generator) -> RowRuns:
    """Couple R pairs of uniform-proposal MH chains on the joint state.

    Row r of X0 is run r's start, a concatenated (v, h1, h2).
    """
    if X0.shape[-1] != params.shape.total:
        raise DimensionError(f"start rows of {X0.shape[-1]} units do not match the model's "
                             f"{params.shape.total}")
    return _mh_chains(params, X0, tau_max, rng)


def mh_couple_posterior_rows(params: DbmParams, V: np.ndarray, H0: np.ndarray, tau_max: int,
                             rng: np.random.Generator, c=None) -> RowRuns:
    """Couple R pairs of MH chains on the hidden state, run r with V's row r clamped.

    Row r of H0 is run r's start, a concatenated (h1, h2). c =
    model.v_share(V), when given, saves computing it here.
    """
    check_visible(params, V)
    if H0.shape[-1] != params.shape.n_h1 + params.shape.n_h2:
        raise DimensionError(f"start rows of {H0.shape[-1]} units do not match the model's "
                             f"{params.shape.n_h1 + params.shape.n_h2} hidden units")
    return _mh_chains(params, H0, tau_max, rng, V, c)


def mh_couple_joint(params: DbmParams, x0: JointState, tau_max: int,
                    rng: np.random.Generator, keep_states: bool = True) -> CoupledRun:
    """Couple two uniform-proposal MH chains on the joint state, starting at x0."""
    check_joint(params, x0.v, x0.h1, x0.h2)
    runs = _mh_chains(params, x0.concat()[None], tau_max, rng, keep_states=keep_states)
    return _one_run(params, runs, x0, keep_states)


def mh_couple_posterior(params: DbmParams, v: np.ndarray, h0: HiddenState, tau_max: int,
                        rng: np.random.Generator, keep_states: bool = True) -> CoupledRun:
    """Couple two MH chains on the hidden state with v clamped.

    Both acceptance ratios use the joint energy at the clamped v, so the
    chains target the posterior over (h1, h2).
    """
    check_joint(params, v, h0.h1, h0.h2)
    runs = _mh_chains(params, h0.concat()[None], tau_max, rng, np.asarray(v)[None],
                      keep_states=keep_states)
    return _one_run(params, runs, h0, keep_states)


def mh_coupled_trajectory(params: DbmParams, x0: JointState, n_steps: int,
                          rng: np.random.Generator):
    """Run the coupled MH kernel for exactly n_steps >= 1, ignoring meetings.

    Diagnostic hook: returns (xs, ys) with xs = [x_0 .. x_n] and
    ys = [y_0 .. y_{n-1}] so marginal laws and the stay-merged property
    can be checked directly.
    """
    check_joint(params, x0.v, x0.h1, x0.h2)
    run = _one_run(params, _mh_chains(params, x0.concat()[None], n_steps, rng,
                                      stop_at_meeting=False), x0, True)
    return run.x_states, run.y_states


def mh_step(params: DbmParams, x: JointState, rng: np.random.Generator) -> JointState:
    """One uncoupled uniform-proposal MH step on the joint state.

    This is the coupled loop's first step, in which x moves alone.
    """
    return mh_coupled_trajectory(params, x, 1, rng)[0][1]


# ---------------------------------------------------------------------------
# Gibbs-based coupling baseline
# ---------------------------------------------------------------------------

def gibbs_couple_joint(params: DbmParams, x0: JointState, tau_max: int,
                       rng: np.random.Generator, keep_states: bool = True) -> CoupledRun:
    """Lag-1 coupled systematic-scan Gibbs chains from a shared start.

    After x's solo sweep, each step is one block pass over both chains
    stacked as rows, on the same coin flip and the same uniforms, which
    couples every coordinate's conditional Bernoulli pair maximally. The
    chains meet only when every coordinate coincides, which takes a number
    of sweeps that grows steeply with dimension; this is the baseline the
    MH coupler is measured against.
    """
    if tau_max < 1:
        raise ValueError("tau_max must be >= 1")
    if not is_spin(x0.concat()):
        raise ValueError("the start state must be a +-1 configuration")
    n_v, n_h1, n_h2 = (len(x0.v), len(x0.h1), len(x0.h2))
    y = x0
    x = gibbs_sweep_joint(params, x0, rng)  # lag-creating solo sweep
    xs, ys = [x0, x], [x0]
    t = 1
    met = x.equals(y)
    pair = [np.stack(blocks) for blocks in ((x.v, y.v), (x.h1, y.h1), (x.h2, y.h2))]
    while not met and t < tau_max:
        even_first, U = sweep_uniforms(rng, 1, n_v, n_h1, n_h2)
        pair = block_pass(params, *pair, even_first[0],
                          block_uniforms(U, even_first[0], n_v, n_h1))[:3]
        x, y = JointState(*(b[0] for b in pair)), JointState(*(b[1] for b in pair))
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


def telescope_rows(runs: RowRuns):
    """The telescoping sums of R runs as stacked rows: (states, coefficients, owners).

    As in telescope_terms, run r's sum f(x_0) + sum_{t=1}^{tau_r-1}
    [f(x_t) - f(y_{t-1})] collapses to one row per distinct state with its
    nonzero net coefficient, so each run's coefficients sum to 1; owners[k]
    is the run of row k, and the rows come in run order. A run with tau = 1
    gives its start at coefficient 1. Any truncated run raises
    CouplingTruncatedError, since its sum would be biased: this is the one
    place a truncated coupling is refused. Runs recorded without trajectories
    (keep_states=False) raise ValueError.
    """
    cut = np.count_nonzero(runs.truncated)
    if cut:
        raise CouplingTruncatedError(
            f"{cut} of {len(runs.tau)} coupled runs were truncated: they did not meet within "
            f"tau_max = {runs.tau.max()} steps, and their telescoping sums would be biased; "
            "raise tau_max")
    if not runs.steps:
        raise ValueError("runs were recorded without states (keep_states=False)")
    rows = np.concatenate([r for r, _, _ in runs.steps])
    t = np.repeat(np.arange(1, len(runs.steps) + 1), [len(r) for r, _, _ in runs.steps])
    # x_0 enters run r's sum, and x_t and y_{t-1} do for t < tau_r
    on = (t < runs.tau[rows]).nonzero()[0]
    X = pick_rows(np.concatenate([X for _, X, _ in runs.steps]), on)
    Y = pick_rows(np.concatenate([Y for _, _, Y in runs.steps]), on)
    rows = pick_rows(rows, on)
    R = len(runs.tau)
    return _distinct(np.concatenate([runs.x0, X, Y]),
                     np.concatenate([np.ones(R + len(X)), -np.ones(len(Y))]),
                     np.concatenate([np.arange(R), rows, rows]))


def _distinct(states, coefs, owners):
    """One row per distinct (owner, state) with its summed coefficient, if nonzero.

    Rows come out sorted by owner, then by state.
    """
    packed = np.packbits(states > 0, axis=1)
    words = np.zeros((len(states), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    words[:, :packed.shape[1]] = packed
    words = words.view(np.uint64)  # each state's spins as bits, 64 to a key
    order = np.lexsort((*words.T[::-1], owners))
    words, owners = words[order], owners[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (owners[1:] != owners[:-1]) | (words[1:] != words[:-1]).any(axis=1)
    # float64 for no rows too, where bincount gives int64
    net = np.bincount(np.cumsum(first) - 1, weights=coefs[order]).astype(np.float64, copy=False)
    keep = net != 0
    return states[order[first][keep]], net[keep], owners[first][keep]


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
