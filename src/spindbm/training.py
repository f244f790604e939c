"""Training loops and gradient estimators.

The main algorithm estimates the log-likelihood gradient with two
telescoping coupled-chain estimates per example: a positive phase over
the posterior of the hidden units given the data, and a negative phase
over the joint distribution. Each phase initializes its chains near a
local mode (local search plus one Gibbs sweep) so the Metropolis
couplings meet almost immediately, and the resulting estimates are
exactly unbiased. A persistent-contrastive-divergence baseline with a
mean-field positive phase is included for comparison; it is biased.

Gradient ascent conventions: estimates returned by the phase functions
approximate expectations of the energy gradient; the update direction is
(negative phase) - (positive phase), which ascends the log-likelihood.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, fields
from typing import NamedTuple

import numpy as np

from . import oracle
from .coupling import (DEFAULT_TAU_MAX_MH, CouplingTruncatedError,
                       mh_couple_joint, mh_couple_joint_rows, mh_couple_posterior,
                       mh_couple_posterior_rows, mh_step, telescope_rows, telescope_terms)
from .model import (DbmParams, DbmShape, GradEstimate, JointState, check_visible,
                    grad_from_rows, grad_rows, h1_field, h2_field, load_params,
                    save_params, uniform_spins, v_field, v_share)
# Not called here; perfbench/tracer.py wraps these names in this module,
# so they stay importable from it.
from .coupling import telescope_estimate  # noqa: F401
from .model import (grad_energy_even_marginal, grad_energy_odd_marginal,  # noqa: F401
                    grad_energy_odd_posterior, grad_energy_vhh)
# The *_rows engine entry points carry no name perfbench/tracer.py wraps, so
# the wrapped names below keep their one-state results.
from .search import (gibbs_sweep_joint, gibbs_sweep_joint_rows, gibbs_sweep_posterior,
                     gibbs_sweep_posterior_rows, local_search_clamped, local_search_joint,
                     local_search_joint_rows, local_search_posterior,
                     local_search_posterior_rows)

ESTIMATORS = ("plain", "marginalized")
OPTIMIZERS = ("sgd", "adam", "amsgrad")
TRUNCATION_POLICIES = ("error", "drop_sample")


class NonFiniteUpdateError(RuntimeError):
    """A training step's gradient was not finite, so its update would not be."""


def rng_for(seed: int, *key: int) -> np.random.Generator:
    """Independent generator for a (seed, key...) address; schedule-free."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


# ---------------------------------------------------------------------------
# initialization
# ---------------------------------------------------------------------------

def random_semi_orthogonal(n_rows: int, n_cols: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random semi-orthogonal matrix, orthonormal along the smaller side.

    Gaussian matrix -> QR, with Q's columns sign-corrected by the diagonal
    of R so the distribution is uniform over the orthogonal group.
    """
    if n_rows == 0 or n_cols == 0:
        return np.zeros((n_rows, n_cols))
    if n_rows < n_cols:
        return random_semi_orthogonal(n_cols, n_rows, rng).T
    a = rng.standard_normal((n_rows, n_cols))
    q, r = np.linalg.qr(a)
    d = np.sign(np.diag(r))
    d[d == 0] = 1.0
    return q * d


LOGISTIC_SCALE = 0.5  # the scale of the initial biases' logistic law


def logistic_draws(n: int, rng: np.random.Generator) -> np.ndarray:
    """Logistic(0, LOGISTIC_SCALE) samples via the inverse CDF scale*ln(u/(1-u))."""
    u = rng.random(n)
    while np.any(u == 0.0):  # rng.random() can return exactly 0
        u[u == 0.0] = rng.random(int(np.sum(u == 0.0)))
    return LOGISTIC_SCALE * np.log(u / (1.0 - u))


def init_params(shape: DbmShape, rng: np.random.Generator) -> DbmParams:
    """Semi-orthogonal weights and Logistic(0, 0.5) biases.

    Nonzero biases break the global spin-flip symmetry of the energy that
    zero biases would leave in place.
    """
    return DbmParams(
        random_semi_orthogonal(shape.n_v, shape.n_h1, rng),
        random_semi_orthogonal(shape.n_h1, shape.n_h2, rng),
        logistic_draws(shape.n_v, rng),
        logistic_draws(shape.n_h1, rng),
        logistic_draws(shape.n_h2, rng),
    ).validate()


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass
class TrainConfig:
    shape: DbmShape
    learning_rate: float = 1e-2
    optimizer: str = "sgd"
    batch_size: int = 1
    steps: int = 1000
    seed: int = 0
    tau_max: int = DEFAULT_TAU_MAX_MH
    estimator: str = "marginalized"
    truncation_policy: str = "error"
    checkpoint_every: int = 100
    data: str = ""
    out_dir: str = ""
    resume: str = ""

    def validate(self) -> "TrainConfig":
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1 or self.steps < 0:
            raise ValueError("batch_size must be >= 1 and steps >= 0")
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}")
        if self.truncation_policy not in TRUNCATION_POLICIES:
            raise ValueError(f"unknown truncation_policy {self.truncation_policy!r}")
        if self.tau_max < 1 or self.checkpoint_every < 1:
            raise ValueError("tau_max and checkpoint_every must be >= 1")
        return self

    def items(self):
        """(key, value) in config-file order: the shape's sizes, then the other fields."""
        for f in fields(self.shape):
            yield f.name, getattr(self.shape, f.name)
        for f in fields(self):
            if f.name != "shape":
                yield f.name, getattr(self, f.name)


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------

def _shifted(params: DbmParams, step: np.ndarray) -> DbmParams:
    """params + step as a new DbmParams, built in place in step's memory."""
    step += params.vec
    return DbmParams.from_vector(params.shape, step)


class SgdOptimizer:
    """Plain stochastic gradient ascent."""

    def __init__(self, learning_rate: float):
        self.lr = learning_rate

    def update(self, params: DbmParams, grad: GradEstimate) -> DbmParams:
        return _shifted(params, grad.vec * self.lr)


# Adam runs its passes over chunks of _ADAM_CHUNK entries, so that m, v, the
# scratch and the new parameters stay in cache from one pass to the next.
# At 6272-500-500 (3.4 M entries, one core with a 2 MiB L2), an update took
# 38 ms in chunks of 16 K or 32 K entries, 43 ms in 8 K or 64 K, 49 ms in
# 4 K and 59 ms in whole-vector passes.
_ADAM_CHUNK = 16_384

ADAM_BETA1 = 0.9  # decay of the first moment
ADAM_BETA2 = 0.999  # decay of the second moment
ADAM_EPS = 1e-8  # added to the denominator's square root


class AdamOptimizer:
    """Adam / AMSGrad ascent with bias-corrected moments.

    The moments are flat vectors in GradEstimate order, updated in place
    chunk by chunk through one chunk-long scratch vector; v_max exists only
    for AMSGrad. Each entry goes through the same operations as in
    whole-vector passes, so the chunking does not change any bit.
    """

    def __init__(self, learning_rate: float, amsgrad: bool = False):
        self.lr = learning_rate
        self.amsgrad = amsgrad
        self.t = 0
        self.m = None
        self.v = None
        self.v_max = None
        self._buf = None

    def update(self, params: DbmParams, grad: GradEstimate) -> DbmParams:
        g = grad.vec
        n = g.size
        if self.m is None:
            self.m = np.zeros(n)
            self.v = np.zeros(n)
            self.v_max = np.zeros(n) if self.amsgrad else None
            self._buf = np.empty(min(n, _ADAM_CHUNK))
        self.t += 1
        b1, b2, lr, eps = ADAM_BETA1, ADAM_BETA2, self.lr, ADAM_EPS
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        new = np.empty(n)
        for lo in range(0, n, _ADAM_CHUNK):
            hi = min(lo + _ADAM_CHUNK, n)
            gs, m, v, step = g[lo:hi], self.m[lo:hi], self.v[lo:hi], new[lo:hi]
            buf = self._buf[:hi - lo]
            m *= b1
            np.multiply(gs, 1.0 - b1, out=buf)
            m += buf
            v *= b2
            np.multiply(gs, 1.0 - b2, out=buf)
            buf *= gs
            v += buf
            np.divide(v, c2, out=buf)  # v_hat
            if self.amsgrad:
                v_max = self.v_max[lo:hi]
                np.maximum(v_max, buf, out=v_max)
                np.sqrt(v_max, out=buf)
            else:
                np.sqrt(buf, out=buf)
            buf += eps
            np.divide(m, c1, out=step)  # m_hat
            step *= lr
            step /= buf
            step += params.vec[lo:hi]
        return DbmParams.from_vector(params.shape, new)


def make_optimizer(cfg: TrainConfig):
    if cfg.optimizer == "sgd":
        return SgdOptimizer(cfg.learning_rate)
    return AdamOptimizer(cfg.learning_rate, amsgrad=(cfg.optimizer == "amsgrad"))


# ---------------------------------------------------------------------------
# phase estimators
# ---------------------------------------------------------------------------

def _stack(rows: list, n: int) -> np.ndarray:
    return np.array(rows, dtype=np.float64).reshape(len(rows), n)


def _integrand_rows(params: DbmParams, estimator: str, V, H1, H2, w, n_pos: int):
    """The weighted rows (V, H1, H2, w) whose energy gradients sum to the
    estimator's integrand over weighted stacked states.

    The first n_pos states are posterior states (their v clamped), the rest
    joint states. The plain integrand is the energy gradient at the state,
    so its rows are the states. The marginalized one is the mean of two
    Rao-Blackwellized rows, each at weight w/2: (v, tanh field of h1, h2),
    and then (v, h1, tanh field of h2) for a posterior state or
    (tanh field of v, h1, tanh field of h2) for a joint state; each tanh
    factor is one GEMM over the stacked states of its block. All first rows
    come before all second rows.
    """
    if estimator == "plain":
        return V, H1, H2, w
    T1 = np.tanh(h1_field(params, V, H2))
    T2 = np.tanh(h2_field(params, H1))
    Tv = np.tanh(v_field(params, H1[n_pos:]))
    half = 0.5 * w
    return (np.concatenate([V, V[:n_pos], Tv]), np.concatenate([T1, H1]),
            np.concatenate([H2, T2]), np.concatenate([half, half]))


def gradient_from_states(params: DbmParams, estimator: str, posterior: list, joint: list,
                         scale: float = 1.0) -> GradEstimate:
    """scale * sum of weight * integrand(state) over (v, h1, h2, weight) states.

    posterior holds states of posterior chains (with the clamped v they were
    drawn under), joint those of joint chains. All of them are stacked into
    rows (_integrand_rows) for a single model.grad_from_rows call.
    """
    s = params.shape
    states = posterior + joint
    V = _stack([st[0] for st in states], s.n_v)
    H1 = _stack([st[1] for st in states], s.n_h1)
    H2 = _stack([st[2] for st in states], s.n_h2)
    w = np.array([st[3] for st in states], dtype=np.float64) * scale
    return grad_from_rows(*_integrand_rows(params, estimator, V, H1, H2, w, len(posterior)))


def positive_phase_run(params: DbmParams, v: np.ndarray, tau_max: int,
                       rng: np.random.Generator):
    """Posterior coupling from a perturbed posterior mode: (run, search_steps).

    v's share of the h1 field, c = v_share(v), is computed once and passed
    to the search, the sweep and the MH coupling.
    """
    check_visible(params, v)
    c = v_share(params, v)
    sr = local_search_posterior(params, v, rng, c=c)
    h0 = gibbs_sweep_posterior(params, v, sr.state, rng, c=c)
    run = mh_couple_posterior(params, v, h0, tau_max, rng, c=c)
    return run, sr.steps


def negative_phase_run(params: DbmParams, tau_max: int, rng: np.random.Generator):
    """Joint coupling from a perturbed joint mode: (run, search_steps).

    The sweep takes its first block's field from the search's fields.
    """
    sr = local_search_joint(params, rng)
    x0 = gibbs_sweep_joint(params, sr.state, rng, fields=sr.fields)
    run = mh_couple_joint(params, x0, tau_max, rng)
    return run, sr.steps


def _posterior_states(v: np.ndarray, run, sign: float) -> list:
    return [(v, h.h1, h.h2, sign * c) for h, c in telescope_terms(run)]


def _joint_states(run, sign: float) -> list:
    return [(x.v, x.h1, x.h2, sign * c) for x, c in telescope_terms(run)]


def _example_states(params: DbmParams, v: np.ndarray, tau_max: int,
                   rng: np.random.Generator):
    """One example's log-likelihood gradient estimate as weighted chain states.

    Runs the positive phase, then the negative phase, on rng. Returns
    (posterior, joint, (tau_pos, tau_neg, T_pos, T_neg)): the positive
    phase's telescoping terms enter with weight -c, the negative phase's
    with +c. A truncated positive run raises CouplingTruncatedError before
    the negative phase starts.
    """
    prun, t_p = positive_phase_run(params, v, tau_max, rng)
    posterior = _posterior_states(v, prun, -1.0)
    nrun, t_n = negative_phase_run(params, tau_max, rng)
    return posterior, _joint_states(nrun, 1.0), (prun.tau, nrun.tau, t_p, t_n)


class DrawRows(NamedTuple):
    """The weighted chain states of n_draws estimator draws, stacked as rows.

    Row k belongs to draw owner[k]; the first n_pos rows are posterior
    states (weight -coefficient), the rest joint states (+coefficient).
    """

    V: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    w: np.ndarray
    owner: np.ndarray
    n_pos: int
    n_draws: int


def _example_block(params: DbmParams, v: np.ndarray, n_draws: int, tau_max: int,
                   rng: np.random.Generator) -> DrawRows:
    """n_draws independent draws of _example_states at v, run stage by stage.

    The n_draws posterior searches run as one row-stacked search, then the
    sweeps, then the couplings; then the joint ones. Each stage draws all
    its rows' numbers from rng in turn, so the block is a function of rng's
    state and n_draws. Any truncated run raises CouplingTruncatedError, a
    positive one before the joint stages start.
    """
    check_visible(params, v)
    s = params.shape
    V = np.broadcast_to(v, (n_draws, s.n_v))
    c = np.broadcast_to(v_share(params, v), (n_draws, s.n_h1))
    found = local_search_posterior_rows(params, V, rng, c=c)
    H = np.hstack(gibbs_sweep_posterior_rows(params, V, found.H1, found.H2, rng, c=c))
    pos, pos_c, pos_owner = telescope_rows(mh_couple_posterior_rows(params, V, H, tau_max,
                                                                    rng, c=c))
    found = local_search_joint_rows(params, n_draws, rng)
    X = np.hstack(gibbs_sweep_joint_rows(params, found.V, found.H1, found.H2, rng,
                                         fields=found.fields))
    neg, neg_c, neg_owner = telescope_rows(mh_couple_joint_rows(params, X, tau_max, rng))
    n_vh = s.n_v + s.n_h1
    return DrawRows(np.concatenate([np.broadcast_to(v, (len(pos), s.n_v)), neg[:, :s.n_v]]),
                    np.concatenate([pos[:, :s.n_h1], neg[:, s.n_v:n_vh]]),
                    np.concatenate([pos[:, s.n_h1:], neg[:, n_vh:]]),
                    np.concatenate([-pos_c, neg_c]), np.concatenate([pos_owner, neg_owner]),
                    len(pos), n_draws)


def _draw_gradients(params: DbmParams, estimator: str, rows: DrawRows) -> np.ndarray:
    """Each draw's log-likelihood gradient estimate: an (n_draws, dim) array.

    Row d is what gradient_from_states gives for draw d's states, built
    from the same _integrand_rows.
    """
    V, H1, H2, w = _integrand_rows(params, estimator, rows.V, rows.H1, rows.H2, rows.w,
                                   rows.n_pos)
    owner = np.tile(rows.owner, len(w) // len(rows.w))
    order = np.argsort(owner, kind="stable")
    starts = np.searchsorted(owner[order], np.arange(rows.n_draws))  # no draw lacks rows
    return np.add.reduceat(grad_rows(V[order], H1[order], H2[order], w[order]), starts)


def positive_phase_estimate(params: DbmParams, v: np.ndarray, cfg: TrainConfig,
                            rng: np.random.Generator):
    """Unbiased estimate of E[grad E(v, h)] under the posterior: (g, tau, T)."""
    run, steps = positive_phase_run(params, v, cfg.tau_max, rng)
    g = gradient_from_states(params, cfg.estimator, _posterior_states(v, run, 1.0), [])
    return g, run.tau, steps


def negative_phase_estimate(params: DbmParams, cfg: TrainConfig,
                            rng: np.random.Generator):
    """Unbiased estimate of E[grad E(x)] under the joint law: (g, tau, T)."""
    run, steps = negative_phase_run(params, cfg.tau_max, rng)
    g = gradient_from_states(params, cfg.estimator, [], _joint_states(run, 1.0))
    return g, run.tau, steps


def _column(default, fmt: str):
    return field(default=default, metadata={"fmt": fmt})


@dataclass
class StepMetrics:
    """One training step; the fields, in order, are the log's columns, formatted by "fmt"."""

    step: int = _column(0, "")
    mean_tau_pos: float = _column(0.0, ".6g")
    mean_tau_neg: float = _column(0.0, ".6g")
    mean_T_pos: float = _column(0.0, ".6g")
    mean_T_neg: float = _column(0.0, ".6g")
    grad_norm: float = _column(0.0, ".10g")
    wall_ms: float = _column(0.0, ".3f")
    dropped: int = _column(0, "")


_LOG_FORMATS = tuple((f.name, f.metadata["fmt"]) for f in fields(StepMetrics))
LOG_COLUMNS = tuple(name for name, _ in _LOG_FORMATS)


def train_step(params: DbmParams, batch, cfg: TrainConfig, rng: np.random.Generator,
               optimizer=None):
    """One gradient-ascent step from coupled-chain estimates over a batch.

    Each example contributes one positive-phase and one negative-phase
    coupling; their difference estimates the per-example log-likelihood
    gradient and the batch mean drives the optimizer. The chain states of
    the whole batch are weighted by +-coefficient / kept and turned into the
    batch gradient by one gradient_from_states call.

    Returns (new_params, StepMetrics).
    """
    if optimizer is None:
        optimizer = make_optimizer(cfg)
    rngs = rng.spawn(len(batch))
    posterior, joint, stats = [], [], []
    dropped = 0
    for v, sub in zip(batch, rngs):
        try:
            pos, neg, st = _example_states(params, v, cfg.tau_max, sub)
        except CouplingTruncatedError:
            if cfg.truncation_policy == "error":
                raise
            dropped += 1  # drop_sample reintroduces bias; offered for robustness runs
            continue
        posterior += pos
        joint += neg
        stats.append(st)
    if stats:
        total = gradient_from_states(params, cfg.estimator, posterior, joint, 1.0 / len(stats))
        new_params = optimizer.update(params, total)
        grad_norm = total.norm()
        means = np.mean(np.array(stats, dtype=np.float64), axis=0)
    else:
        new_params = params.copy()
        grad_norm = 0.0
        means = np.zeros(4)
    metrics = StepMetrics(
        mean_tau_pos=float(means[0]),
        mean_tau_neg=float(means[1]),
        mean_T_pos=float(means[2]),
        mean_T_neg=float(means[3]),
        grad_norm=grad_norm,
        dropped=dropped,
    )
    return new_params, metrics


# ---------------------------------------------------------------------------
# mean-field / PCD baseline
# ---------------------------------------------------------------------------

@dataclass
class MeanFieldState:
    """Mean parameters (in [-1, 1]) of a factorized posterior approximation."""

    mu_h1: np.ndarray
    mu_h2: np.ndarray
    converged: bool = True
    iterations: int = 0


def mean_field_posterior(params: DbmParams, v: np.ndarray, damping: float = 0.5,
                         tol: float = 1e-4, max_iters: int = 50) -> MeanFieldState:
    """Damped tanh fixed-point iteration for the factorized posterior given v."""
    check_visible(params, v)
    c = v_share(params, v)
    mu1 = np.zeros(params.W1.shape[1])
    mu2 = np.zeros(params.W2.shape[1])
    for it in range(1, max_iters + 1):
        new1 = (1.0 - damping) * mu1 + damping * np.tanh(h1_field(params, v, mu2, c))
        new2 = (1.0 - damping) * mu2 + damping * np.tanh(h2_field(params, new1))
        delta = max(float(np.max(np.abs(new1 - mu1), initial=0.0)),
                    float(np.max(np.abs(new2 - mu2), initial=0.0)))
        mu1, mu2 = new1, new2
        if delta < tol:
            return MeanFieldState(mu1, mu2, True, it)
    return MeanFieldState(mu1, mu2, False, max_iters)


def init_persistent_chains(params: DbmParams, n_chains: int,
                           rng: np.random.Generator) -> list:
    s = params.shape
    return [JointState(uniform_spins(s.n_v, rng), uniform_spins(s.n_h1, rng),
                       uniform_spins(s.n_h2, rng)) for _ in range(n_chains)]


def pcd_step(params: DbmParams, batch, persistent_chains: list, cfg: TrainConfig,
             rng: np.random.Generator):
    """Persistent-contrastive-divergence step (biased baseline).

    Positive phase: mean-field posterior means stand in for spins.
    Negative phase: one Gibbs sweep (PCD-1) of each chain carried across steps.
    Returns (new_params, updated_chains, StepMetrics).
    """
    mean_field = []
    for v in batch:
        mf = mean_field_posterior(params, v)
        mean_field.append((np.asarray(v, dtype=np.float64), mf.mu_h1, mf.mu_h2,
                           -1.0 / len(batch)))
    new_chains = [gibbs_sweep_joint(params, chain, rng) for chain in persistent_chains]
    chains = [(x.v, x.h1, x.h2, 1.0 / len(new_chains)) for x in new_chains]
    g = gradient_from_states(params, "plain", mean_field, chains)
    new_params = SgdOptimizer(cfg.learning_rate).update(params, g)
    return new_params, new_chains, StepMetrics(grad_norm=g.norm())


# ---------------------------------------------------------------------------
# sampling and completion
# ---------------------------------------------------------------------------

def sample(params: DbmParams, n: int, mh_steps: int = 0, *, rng: np.random.Generator) -> list:
    """Draw n visible vectors: local search to a mode, then mh_steps MH moves.

    With mh_steps = 0 the local minimum itself is the sample; uniform
    proposals are rejected so often near a mode that the extra MH steps
    rarely move the state anyway.
    """
    out = []
    for _ in range(n):
        x = local_search_joint(params, rng).state
        for _ in range(mh_steps):
            x = mh_step(params, x, rng)
        out.append(x.v.copy())
    return out


def complete(params: DbmParams, v_observed: np.ndarray, observed: np.ndarray,
             rng: np.random.Generator) -> np.ndarray:
    """Fill in unobserved visible units with a clamped local-search state."""
    sr = local_search_clamped(params, v_observed, observed, rng)
    return sr.state.v.copy()


# ---------------------------------------------------------------------------
# training loop
# ---------------------------------------------------------------------------

def _format_row(m: StepMetrics) -> str:
    return ",".join(format(getattr(m, name), fmt) for name, fmt in _LOG_FORMATS)


def train(cfg: TrainConfig, dataset, out_dir=None, initial_params: DbmParams = None):
    """Run the full coupled-estimate training loop.

    dataset: sequence of +-1 visible vectors (rows of a matrix work).
    out_dir: when given, checkpoints land there (initial, periodic, final)
    and its train_log.csv is appended to.
    Returns (params, [StepMetrics per step]). A step whose gradient norm is
    not finite is logged, then raises NonFiniteUpdateError.
    """
    cfg.validate()
    data = [np.asarray(v, dtype=np.float64) for v in dataset]
    if not data:
        raise ValueError("empty dataset")
    if any(len(v) != cfg.shape.n_v for v in data):
        raise ValueError("dataset width does not match n_v")
    if initial_params is not None:
        params = initial_params.copy()
    elif cfg.resume:
        params = load_params(cfg.resume)
        if params.shape != cfg.shape:
            raise ValueError("resume checkpoint shape does not match config")
    else:
        params = init_params(cfg.shape, rng_for(cfg.seed, 2))
    optimizer = make_optimizer(cfg)

    log_fh = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_params(params, os.path.join(out_dir, "ckpt-000000.udbm"))
        log_path = os.path.join(out_dir, "train_log.csv")
        new_log = not os.path.exists(log_path)
        log_fh = open(log_path, "a", encoding="utf-8")
        if new_log:
            for k, val in cfg.items():
                log_fh.write(f"# {k}={val}\n")
            log_fh.write(",".join(LOG_COLUMNS) + "\n")

    history = []
    try:
        for step in range(1, cfg.steps + 1):
            t0 = time.perf_counter()
            batch_rng = rng_for(cfg.seed, 0, step)
            idx = batch_rng.integers(0, len(data), size=cfg.batch_size)
            batch = [data[i] for i in idx]
            params, metrics = train_step(params, batch, cfg, rng_for(cfg.seed, 1, step),
                                         optimizer)
            metrics.step = step
            metrics.wall_ms = (time.perf_counter() - t0) * 1e3
            history.append(metrics)
            if log_fh is not None:
                log_fh.write(_format_row(metrics) + "\n")
            if not math.isfinite(metrics.grad_norm):
                raise NonFiniteUpdateError(
                    f"step {step}: gradient norm is {metrics.grad_norm}, so the update is not finite")
            if out_dir is not None and (step % cfg.checkpoint_every == 0
                                        or step == cfg.steps):
                save_params(params, os.path.join(out_dir, f"ckpt-{step:06d}.udbm"))
    finally:
        if log_fh is not None:
            log_fh.close()
    return params, history


# ---------------------------------------------------------------------------
# estimator-vs-oracle check
# ---------------------------------------------------------------------------

Z_THRESHOLD = 4.0  # an oracle z-test passes when every |z| is at most this

# unbiasedness_report runs its default estimator's draws in blocks of this
# many rows (_example_block). At 3-3-2 a block's arrays take well under a
# MiB; larger blocks save little more time per draw.
DRAW_BLOCK = 1024

CHECK_MODEL_SEED = 7  # the oracle check's fixed 3-3-2 model


def default_check_model() -> tuple:
    """Small fixed model and visible vector used by the oracle check."""
    shape = DbmShape(3, 3, 2)
    params = init_params(shape, rng_for(CHECK_MODEL_SEED, 2))
    v = np.array([1.0, -1.0, 1.0])
    return params, v


def unbiasedness_report(params: DbmParams, v: np.ndarray, n_samples: int, seed: int,
                        estimator: str = "plain", tau_max: int = DEFAULT_TAU_MAX_MH,
                        estimate_fn=None) -> dict:
    """Componentwise z-test of the gradient estimator mean against the oracle.

    The default estimator's draws run in blocks of DRAW_BLOCK
    (_example_block), all on one generator; a truncated coupling raises
    CouplingTruncatedError. estimate_fn(params, v, rng) -> GradEstimate is
    injectable, and is called once per draw, so a biased estimator (for
    example a short-run Gibbs negative phase) can be shown to fail.
    Components whose estimates never vary must match the oracle exactly and
    are reported with z = 0.
    """
    exact = oracle.exact_grad_loglik(params, v).vec
    dim = exact.size
    acc = np.zeros(dim)
    acc2 = np.zeros(dim)
    rng = rng_for(seed, 3)
    if estimate_fn is None:
        for done in range(0, n_samples, DRAW_BLOCK):
            G = _draw_gradients(params, estimator, _example_block(
                params, v, min(DRAW_BLOCK, n_samples - done), tau_max, rng))
            acc += G.sum(axis=0)
            acc2 += np.einsum("ij,ij->j", G, G)
    else:
        for _ in range(n_samples):
            g = estimate_fn(params, v, rng).vec
            acc += g
            acc2 += g * g
    mean = acc / n_samples
    var = np.maximum(acc2 / n_samples - mean**2, 0.0)
    se = np.sqrt(var / n_samples)
    z = np.zeros(dim)
    nonzero = se > 0
    z[nonzero] = (mean[nonzero] - exact[nonzero]) / se[nonzero]
    exact_only = ~nonzero
    degenerate_off = exact_only & (np.abs(mean - exact) > 1e-9)
    z[degenerate_off] = np.inf
    return {
        "n_samples": n_samples,
        "estimator": estimator,
        "mean": mean,
        "exact": exact,
        "se": se,
        "z": z,
        "max_abs_z": float(np.max(np.abs(z))),
        "passed": bool(np.max(np.abs(z)) <= Z_THRESHOLD),
    }
