"""Exact brute-force reference for tiny models.

Everything here enumerates the full state space, so it only works for
models with at most MAX_TOTAL_UNITS units, but within that limit it gives
machine-precision ground truth: the partition function, exact marginals
and posteriors, exact log-likelihood, the exact log-likelihood gradient,
and the explicit Metropolis-Hastings transition matrix. It writes its own
energy, so tests use it as the independent referee; of the library, only
training.unbiasedness_report calls into it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DbmParams, DbmShape, GradEstimate

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
    e -= np.einsum("nj,nj->n", H1 @ params.W2, H2)
    e -= H2 @ params.b_h2
    e -= V @ params.b_v
    e -= H1 @ params.b_h1
    return e


@dataclass
class ExactDistribution:
    """Exhaustively enumerated distribution over joint or hidden states.

    probabilities[i] is the mass of state index i; spin_table(n, i, i+1)
    recovers the configuration, n being the number of enumerated units. For
    posterior distributions, v holds the clamped visible vector and states
    enumerate the hidden units only.
    """

    shape: DbmShape
    probabilities: np.ndarray
    log_partition: float
    v: np.ndarray | None = None

    def prob(self, state) -> float:
        return float(self.probabilities[state_index(state.concat())])


def _check_cap(n_units: int, cap: int = MAX_TOTAL_UNITS):
    if n_units > cap:
        raise SizeCapError(f"{n_units} units exceed the enumeration cap of {cap}")


def _row_chunks(params: DbmParams, v=None):
    """The one enumeration: (lo, hi, rows) over every state, _CHUNK states at a time.

    rows are the concatenated (v, h1, h2) spin rows of state indices
    [lo, hi): of all units when v is None, else of the hidden units under
    the clamped v.
    """
    s = params.shape
    n_units = s.total if v is None else s.n_h1 + s.n_h2
    _check_cap(n_units)
    n = 1 << n_units
    for lo in range(0, n, _CHUNK):
        hi = min(lo + _CHUNK, n)
        rows = spin_table(n_units, lo, hi)
        if v is not None:
            rows = np.concatenate([np.broadcast_to(v, (hi - lo, s.n_v)), rows], axis=1)
        yield lo, hi, rows


def _enumerate(params: DbmParams, v=None) -> ExactDistribution:
    """Exact distribution over all joint states, or over the hidden ones given v."""
    neg_e = np.concatenate([-_joint_energies(params, rows)
                            for _, _, rows in _row_chunks(params, v)])
    log_z = _logsumexp(neg_e)
    return ExactDistribution(params.shape, np.exp(neg_e - log_z), log_z,
                             v=None if v is None else v.copy())


def enumerate_joint(params: DbmParams) -> ExactDistribution:
    """Exact Boltzmann distribution over all joint states."""
    return _enumerate(params)


def enumerate_posterior(params: DbmParams, v: np.ndarray) -> ExactDistribution:
    """Exact posterior over (h1, h2) given a clamped visible vector."""
    return _enumerate(params, np.asarray(v, dtype=np.float64))


def _expected_grad_energy(params: DbmParams, v=None) -> GradEstimate:
    """E[grad E] under the exact joint distribution (v None) or posterior given v."""
    s = params.shape
    probs = _enumerate(params, v).probabilities
    acc = GradEstimate.zeros(s)
    for lo, hi, rows in _row_chunks(params, v):
        p = probs[lo:hi]
        V = rows[:, :s.n_v]
        H1 = rows[:, s.n_v:s.n_v + s.n_h1]
        H2 = rows[:, s.n_v + s.n_h1:]
        acc.dW1 -= (V * p[:, None]).T @ H1
        acc.db_v -= p @ V
        acc.db_h1 -= p @ H1
        acc.dW2 -= (H1 * p[:, None]).T @ H2
        acc.db_h2 -= p @ H2
    return acc


def exact_joint_grad_energy(params: DbmParams) -> GradEstimate:
    """E[grad energy] under the exact joint distribution."""
    return _expected_grad_energy(params)


def exact_posterior_grad_energy(params: DbmParams, v: np.ndarray) -> GradEstimate:
    """E[grad energy(v, h)] under the exact posterior given v."""
    return _expected_grad_energy(params, np.asarray(v, dtype=np.float64))


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
