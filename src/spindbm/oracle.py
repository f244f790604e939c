"""Exact brute-force reference for tiny models.

Everything here enumerates the full state space, so it only works for
models with at most MAX_TOTAL_UNITS units, but within that limit it gives
machine-precision ground truth: the partition function, exact marginals
and posteriors, exact log-likelihood, the exact log-likelihood gradient,
and the explicit Metropolis-Hastings transition matrix. The sampling and
estimation code never calls into this module; tests use it as the
independent referee.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DbmParams, DbmShape, GradEstimate, HiddenState, JointState

MAX_TOTAL_UNITS = 24
_CHUNK = 1 << 16


class SizeCapError(ValueError):
    """Raised when a model is too large to enumerate."""


def _logsumexp(a: np.ndarray) -> float:
    """log(sum(exp(a))) of a finite 1-D array.

    The k maximal entries leave the sum and return as
    log1p(rest / k) + log(k) + max, which keeps the largest terms out of
    the rounding. This is the arithmetic of the log-sum-exp the tests
    referee with, so the two agree to the bit. The sampler never calls this.
    """
    a_max = a.max()
    top = a == a_max
    k = np.count_nonzero(top)
    rest = np.exp(np.where(top, -np.inf, a) - a_max).sum()
    return float(np.log1p(rest / k) + np.log(k) + a_max)


def spin_table(n_units: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Spin configurations for state indices [start, stop) as a matrix.

    Bit k of the state index carries unit k; bit 0 maps to the first unit.
    """
    if stop is None:
        stop = 1 << n_units
    idx = np.arange(start, stop, dtype=np.int64)
    bits = (idx[:, None] >> np.arange(n_units, dtype=np.int64)[None, :]) & 1
    return bits.astype(np.float64) * 2.0 - 1.0


def state_index(x: np.ndarray) -> int:
    """Inverse of spin_table row construction: spins -> state index."""
    bits = (np.asarray(x) > 0).astype(np.int64)
    return int(bits @ (np.int64(1) << np.arange(len(bits), dtype=np.int64)))


def _joint_energies(params: DbmParams, spins: np.ndarray) -> np.ndarray:
    """Energies of a batch of concatenated (v, h1, h2) rows."""
    s = params.shape
    V = spins[:, :s.n_v]
    H1 = spins[:, s.n_v:s.n_v + s.n_h1]
    H2 = spins[:, s.n_v + s.n_h1:]
    e = -np.einsum("ni,ni->n", V @ params.W1, H1)
    if s.n_h2:
        e -= np.einsum("nj,nj->n", H1 @ params.W2, H2)
        e -= H2 @ params.b_h2
    e -= V @ params.b_v
    e -= H1 @ params.b_h1
    return e


@dataclass
class ExactDistribution:
    """Exhaustively enumerated distribution over joint or hidden states.

    probabilities[i] is the mass of state index i; spin_table(n_units, i, i+1)
    recovers the configuration. For posterior distributions, v holds the
    clamped visible vector and states enumerate the hidden units only.
    """

    shape: DbmShape
    probabilities: np.ndarray
    log_partition: float
    v: np.ndarray | None = None

    @property
    def n_units(self) -> int:
        return self.shape.total if self.v is None else self.shape.n_h1 + self.shape.n_h2

    def state_at(self, i: int):
        row = spin_table(self.n_units, i, i + 1)[0]
        if self.v is not None:
            return HiddenState(row[:self.shape.n_h1].copy(), row[self.shape.n_h1:].copy())
        s = self.shape
        return JointState(row[:s.n_v].copy(), row[s.n_v:s.n_v + s.n_h1].copy(),
                          row[s.n_v + s.n_h1:].copy())

    def prob(self, state) -> float:
        return float(self.probabilities[state_index(state.concat())])


def _check_cap(n_units: int, cap: int = MAX_TOTAL_UNITS):
    if n_units > cap:
        raise SizeCapError(f"{n_units} units exceed the enumeration cap of {cap}")


def enumerate_joint(params: DbmParams) -> ExactDistribution:
    """Exact Boltzmann distribution over all joint states."""
    s = params.shape
    _check_cap(s.total)
    n = 1 << s.total
    neg_e = np.empty(n)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        neg_e[lo:hi] = -_joint_energies(params, spin_table(s.total, lo, hi))
    log_z = _logsumexp(neg_e)
    return ExactDistribution(s, np.exp(neg_e - log_z), log_z)


def enumerate_posterior(params: DbmParams, v: np.ndarray) -> ExactDistribution:
    """Exact posterior over (h1, h2) given a clamped visible vector."""
    s = params.shape
    n_hid = s.n_h1 + s.n_h2
    _check_cap(n_hid)
    n = 1 << n_hid
    neg_e = np.empty(n)
    v = np.asarray(v, dtype=np.float64)
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        hid = spin_table(n_hid, lo, hi)
        full = np.concatenate([np.broadcast_to(v, (hi - lo, s.n_v)), hid], axis=1)
        neg_e[lo:hi] = -_joint_energies(params, full)
    log_z = _logsumexp(neg_e)
    return ExactDistribution(s, np.exp(neg_e - log_z), log_z, v=v.copy())


def expected_grad(dist: ExactDistribution, grad_fn) -> GradEstimate:
    """Expectation of grad_fn(state) under an enumerated distribution.

    Plain loop over states; intended for models of about 12 units or less.
    For the plain energy gradient use the vectorized exact_*_grad_energy.
    """
    _check_cap(dist.n_units, 12)
    acc = GradEstimate.zeros(dist.shape)
    for i, p in enumerate(dist.probabilities):
        acc.add_scaled(grad_fn(dist.state_at(i)), float(p))
    return acc


def _expected_grad_energy_rows(shape: DbmShape, probs: np.ndarray, make_rows) -> GradEstimate:
    """Vectorized E[grad E] where make_rows(lo, hi) yields full spin rows."""
    acc = GradEstimate.zeros(shape)
    dw1, dw2 = acc.dW1, acc.dW2
    dbv, dbh1, dbh2 = acc.db_v, acc.db_h1, acc.db_h2
    for lo in range(0, len(probs), _CHUNK):
        hi = min(lo + _CHUNK, len(probs))
        rows = make_rows(lo, hi)
        p = probs[lo:hi]
        V = rows[:, :shape.n_v]
        H1 = rows[:, shape.n_v:shape.n_v + shape.n_h1]
        H2 = rows[:, shape.n_v + shape.n_h1:]
        pv = V * p[:, None]
        dw1 -= pv.T @ H1
        dbv -= p @ V
        dbh1 -= p @ H1
        if shape.n_h2:
            dw2 -= (H1 * p[:, None]).T @ H2
            dbh2 -= p @ H2
    return acc


def exact_joint_grad_energy(params: DbmParams) -> GradEstimate:
    """E[grad energy] under the exact joint distribution."""
    s = params.shape
    dist = enumerate_joint(params)
    return _expected_grad_energy_rows(s, dist.probabilities,
                                      lambda lo, hi: spin_table(s.total, lo, hi))


def exact_posterior_grad_energy(params: DbmParams, v: np.ndarray) -> GradEstimate:
    """E[grad energy(v, h)] under the exact posterior given v."""
    s = params.shape
    v = np.asarray(v, dtype=np.float64)
    dist = enumerate_posterior(params, v)
    n_hid = s.n_h1 + s.n_h2

    def make_rows(lo, hi):
        hid = spin_table(n_hid, lo, hi)
        return np.concatenate([np.broadcast_to(v, (hi - lo, s.n_v)), hid], axis=1)

    return _expected_grad_energy_rows(s, dist.probabilities, make_rows)


def exact_grad_loglik(params: DbmParams, v: np.ndarray) -> GradEstimate:
    """Exact gradient of log p(v): -E_posterior[grad E] + E_joint[grad E]."""
    g = exact_joint_grad_energy(params)
    return g.add_scaled(exact_posterior_grad_energy(params, v), -1.0)


def exact_loglik_single(params: DbmParams, v: np.ndarray, log_z: float | None = None) -> float:
    """Exact log p(v) for one visible vector."""
    if log_z is None:
        log_z = enumerate_joint(params).log_partition
    return enumerate_posterior(params, v).log_partition - log_z


def exact_loglik(params: DbmParams, dataset) -> float:
    """Mean exact log p(v) over an iterable of visible vectors."""
    log_z = enumerate_joint(params).log_partition
    lls = [exact_loglik_single(params, v, log_z) for v in dataset]
    if not lls:
        raise ValueError("empty dataset")
    return float(np.mean(lls))


def exact_mh_transition_matrix(params: DbmParams) -> np.ndarray:
    """Transition matrix of uniform-proposal Metropolis-Hastings on joint states.

    Row i holds P(next = j | current = i): every state is proposed with equal
    probability and accepted with min(1, exp(E_i - E_j)); all rejection mass
    sits on the diagonal.
    """
    s = params.shape
    _check_cap(s.total, 12)
    n = 1 << s.total
    e = _joint_energies(params, spin_table(s.total))
    accept = np.exp(np.minimum(e[:, None] - e[None, :], 0.0))
    p = accept / n
    np.fill_diagonal(p, 0.0)
    np.fill_diagonal(p, 1.0 - p.sum(axis=1))
    return p
