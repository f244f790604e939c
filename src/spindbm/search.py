"""Discrete local search and single-sweep Gibbs sampling.

Both are the same block pass. The bipartite layers split into the even
block (v, h2) and the odd block (h1); a pass sets each block from its
local fields, the even block first or the odd block first. Local search
walks to a local minimum of the energy by repeating the pass with a sign
threshold (each block's conditional minimizer) until the state stops
changing; which block moves first is decided by one coin flip per call. A
Gibbs sweep is one pass that draws each block's spins from its
conditionals instead. The sweeps perturb a found mode before coupling, so
that chain initialization is not supported only on the exact modes.

Sign convention: sgn(0) = +1 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .model import DbmParams, HiddenState, JointState, is_spin, uniform_spins


class SearchDivergenceError(RuntimeError):
    """Local search exceeded its iteration cap (should never happen)."""


@dataclass
class SearchResult:
    """A block-wise fixed point plus the number of outer iterations taken."""

    state: object  # JointState or HiddenState
    steps: int


_THRESHOLD = (None, None, None)  # block_pass uniforms that make it a minimization


def default_max_iterations(params: DbmParams) -> int:
    return sum(params.W1.shape) + params.W2.shape[1] + 64  # all units + 64


def _spins(field: np.ndarray, u) -> np.ndarray:
    """sgn(field) when u is None, else spins with P(+1) = sigmoid(2 field) drawn from u."""
    if u is None:
        return np.where(field >= 0.0, 1.0, -1.0)
    return np.where(u < expit(2.0 * field), 1.0, -1.0)


def _odd_field(params: DbmParams, v, h2, c):
    return params.W1.T @ v + params.W2 @ h2 + params.b_h1 if c is None else c + params.W2 @ h2


def block_pass(params: DbmParams, v, h1, h2, even_first: bool, uniforms=_THRESHOLD,
               c=None, clamp=None):
    """One pass over the even block (v, h2) and the odd block (h1); returns (v, h1, h2).

    uniforms = (u_v, u_h1, u_h2) picks each block's update: None sets it to
    the sign of its field, an array draws its spins from those uniforms
    (see sweep_uniforms). v is free by default. c = W1'v + b_h1 fixes v and
    is v's hoisted share of the h1 field (posterior passes). clamp =
    (observed, v_obs) keeps the observed visible units at v_obs.
    """
    u_v, u_h1, u_h2 = uniforms
    if not even_first:
        h1 = _spins(_odd_field(params, v, h2, c), u_h1)
    if c is None:
        v = _spins(params.W1 @ h1 + params.b_v, u_v)
        if clamp is not None:
            v = np.where(clamp[0], clamp[1], v)
    h2 = _spins(params.W2.T @ h1 + params.b_h2, u_h2)
    if even_first:
        h1 = _spins(_odd_field(params, v, h2, c), u_h1)
    return v, h1, h2


def sweep_uniforms(rng: np.random.Generator, even_first: bool, n_v: int, n_h1: int,
                   n_h2: int):
    """One Gibbs sweep's uniforms (u_v, u_h1, u_h2), drawn in block_pass's update order.

    n_v = 0 draws no u_v: the posterior sweep, where v is fixed.
    """
    if even_first:
        u_v = rng.random(n_v) if n_v else None
        u_h2 = rng.random(n_h2)
        return u_v, rng.random(n_h1), u_h2
    u_h1 = rng.random(n_h1)
    return (rng.random(n_v) if n_v else None), u_h1, rng.random(n_h2)


def block_minimize_joint(params: DbmParams, v, h1, h2, even_first: bool):
    """One full block-minimization pass; returns the new (v, h1, h2).

    Applying this to a local-search result must leave it unchanged.
    """
    return block_pass(params, v, h1, h2, even_first)


def block_minimize_posterior(params: DbmParams, v, h1, h2, even_first: bool):
    """One block-minimization pass over (h1, h2) with v clamped."""
    return block_pass(params, v, h1, h2, even_first, c=params.W1.T @ v + params.b_h1)[1:]


def _state(v, h1, h2, posterior: bool):
    return HiddenState(h1, h2) if posterior else JointState(v, h1, h2)


def _fixed_point(params: DbmParams, v, rng, max_iterations, trace, c=None,
                 clamp=None) -> SearchResult:
    """Threshold passes from (v, uniform h1, h2) until the state stops changing.

    The one local-search loop; c and clamp are passed on to block_pass.
    """
    n_h1, n_h2 = params.W2.shape
    h1 = uniform_spins(n_h1, rng)
    h2 = uniform_spins(n_h2, rng)
    even_first = rng.random() < 0.5
    cap = max_iterations if max_iterations is not None else default_max_iterations(params)
    posterior = c is not None
    if trace is not None:
        trace.append(_state(v, h1, h2, posterior))
    for it in range(1, cap + 1):
        v_new, h1_new, h2_new = block_pass(params, v, h1, h2, even_first, _THRESHOLD, c, clamp)
        if trace is not None:
            trace.append(_state(v_new, h1_new, h2_new, posterior))
        # v_new is v when c fixes v
        if ((v_new is v or np.array_equal(v_new, v)) and np.array_equal(h1_new, h1)
                and np.array_equal(h2_new, h2)):
            return SearchResult(_state(v_new, h1_new, h2_new, posterior), it)
        v, h1, h2 = v_new, h1_new, h2_new
    raise SearchDivergenceError(f"no fixed point within {cap} iterations")


def local_search_joint(params: DbmParams, rng: np.random.Generator,
                       max_iterations: int | None = None,
                       trace: list | None = None) -> SearchResult:
    """Block-minimize the joint energy from a uniform random start.

    trace, when given, receives the JointState after every iteration.
    """
    return _fixed_point(params, uniform_spins(params.W1.shape[0], rng), rng,
                        max_iterations, trace)


def local_search_posterior(params: DbmParams, v: np.ndarray, rng: np.random.Generator,
                           max_iterations: int | None = None,
                           trace: list | None = None) -> SearchResult:
    """Block-minimize the posterior energy over (h1, h2) with v clamped."""
    return _fixed_point(params, v, rng, max_iterations, trace,
                        c=params.W1.T @ v + params.b_h1)


def local_search_clamped(params: DbmParams, v_observed: np.ndarray, observed: np.ndarray,
                         rng: np.random.Generator,
                         max_iterations: int | None = None,
                         trace: list | None = None) -> SearchResult:
    """Like local_search_joint, but visible units flagged observed never move.

    v_observed entries outside the observed mask are ignored. An all-False
    mask degenerates to the unclamped joint search.
    """
    s = params.shape
    observed = np.asarray(observed, dtype=bool)
    if observed.shape != (s.n_v,):
        raise ValueError("mask length does not match the visible layer")
    if observed.any() and not is_spin(np.asarray(v_observed)[observed]):
        raise ValueError("observed entries must be +-1")
    v_obs = np.where(observed, np.asarray(v_observed, dtype=np.float64), 0.0)
    v = np.where(observed, v_obs, uniform_spins(s.n_v, rng))
    return _fixed_point(params, v, rng, max_iterations, trace, clamp=(observed, v_obs))


def gibbs_sweep_joint(params: DbmParams, x: JointState, rng: np.random.Generator) -> JointState:
    """One full Gibbs sweep over both blocks, order chosen by a coin flip."""
    even_first = rng.random() < 0.5
    u = sweep_uniforms(rng, even_first, len(x.v), len(x.h1), len(x.h2))
    return JointState(*block_pass(params, x.v, x.h1, x.h2, even_first, u))


def gibbs_sweep_posterior(params: DbmParams, v: np.ndarray, h: HiddenState,
                          rng: np.random.Generator) -> HiddenState:
    """One full Gibbs sweep over (h1, h2) with v clamped."""
    c = params.W1.T @ v + params.b_h1
    even_first = rng.random() < 0.5
    u = sweep_uniforms(rng, even_first, 0, len(h.h1), len(h.h2))
    _, h1, h2 = block_pass(params, v, h.h1, h.h2, even_first, u, c)
    return HiddenState(h1, h2)
