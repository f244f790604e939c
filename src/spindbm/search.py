"""Discrete local search and single-sweep Gibbs sampling.

Both are the same block pass. The bipartite layers split into the even
block (v, h2) and the odd block (h1); a pass sets each block from its
local fields, the even block first or the odd block first. Local search
walks to a local minimum of the energy by repeating the pass with a sign
threshold (each block's conditional minimizer) until the state stops
changing; which block moves first is decided by one coin flip per call.
It carries the local fields from pass to pass, updating them from the
units that flipped, and confirms the fixed point it reaches with one
exact pass whenever such updates were made. A Gibbs sweep is one pass
that draws each block's spins from its conditionals instead. The sweeps
perturb a found mode before coupling, so that chain initialization is
not supported only on the exact modes. A joint search returns its fields
at the fixed point, and the sweep that follows it sets its first block
from them.

Sign convention: sgn(0) = +1 everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (DbmParams, HiddenState, JointState, check_joint, check_visible, h1_field,
                    h2_field, is_spin, uniform_spins, v_field, v_share)


class SearchDivergenceError(RuntimeError):
    """Local search exceeded its iteration cap (should never happen)."""


@dataclass
class SearchResult:
    """A block-wise fixed point plus the number of outer iterations taken.

    fields: a joint search's (a_v, a_h1, a_h2) at the returned state, equal
    to model.v_field, h1_field and h2_field there (gibbs_sweep_joint takes
    them); None for posterior and clamped searches.
    """

    state: object  # JointState or HiddenState
    steps: int
    fields: tuple | None = None


_THRESHOLD = (None, None, None)  # block_pass uniforms that make it a minimization


def default_max_iterations(params: DbmParams) -> int:
    return sum(params.W1.shape) + params.W2.shape[1] + 64  # all units + 64


def _spins(field: np.ndarray, u) -> np.ndarray:
    """sgn(field) when u is None, else spins with P(+1) = sigmoid(2 field) drawn from u.

    u is uniform on [-1, 1) (see sweep_uniforms): u < tanh(a) has probability
    (1 + tanh a) / 2 = sigmoid(2 a), and tanh cannot overflow.
    """
    if u is None:
        return np.where(field >= 0.0, 1.0, -1.0)
    return np.where(u < np.tanh(field), 1.0, -1.0)


def _set_free(v, v_free, rows):
    """v with its free rows replaced by v_free."""
    if rows is None:
        return v_free
    v = v.copy()
    v[rows[0]] = v_free
    return v


def block_pass(params: DbmParams, v, h1, h2, even_first: bool, uniforms=_THRESHOLD,
               c=None, rows=None, fields=None):
    """One pass over the even block (v, h2) and the odd block (h1).

    Returns (v, h1, h2, (a_v, a_h1, a_h2)): the new state and the fields its
    blocks were set from. uniforms = (u_v, u_h1, u_h2) picks each block's
    update: None sets it to the sign of its field, an array draws its spins
    from those uniforms (see sweep_uniforms). v is free by default. c =
    model.v_share(v) fixes v and is v's hoisted share of the h1 field
    (posterior passes; a_v is then None). rows = (free, W1[free], b_v[free])
    moves only the free visible units (u_v and a_v then cover those rows);
    the others keep their values in v. fields, the fields at the input
    state, set the first block instead of fields computed here.
    """
    u_v, u_h1, u_h2 = uniforms
    a_v = a_h1 = a_h2 = None
    if fields is not None:
        if even_first:
            a_v, _, a_h2 = fields
        else:
            a_h1 = fields[1]
    if not even_first:
        if a_h1 is None:
            a_h1 = h1_field(params, v, h2, c)
        h1 = _spins(a_h1, u_h1)
    if c is None:
        if a_v is None:
            a_v = v_field(params, h1, rows)
        v = _set_free(v, _spins(a_v, u_v), rows)
    if a_h2 is None:
        a_h2 = h2_field(params, h1)
    h2 = _spins(a_h2, u_h2)
    if even_first:
        a_h1 = h1_field(params, v, h2, c)
        h1 = _spins(a_h1, u_h1)
    return v, h1, h2, (a_v, a_h1, a_h2)


def sweep_uniforms(rng: np.random.Generator, n_v: int, n_h1: int, n_h2: int):
    """All of one Gibbs sweep's randomness: (even_first, (u_v, u_h1, u_h2)).

    The block-order coin comes first, then the uniforms on [-1, 1) in
    block_pass's update order; rng.uniform(-1.0, 1.0, n) is rng.random(n)'s
    stream scaled to 2u - 1. n_v = 0 draws no u_v: the posterior sweep,
    where v is fixed.
    """
    even_first = rng.random() < 0.5
    if even_first:
        u_v = rng.uniform(-1.0, 1.0, n_v) if n_v else None
        u_h2 = rng.uniform(-1.0, 1.0, n_h2)
        u_h1 = rng.uniform(-1.0, 1.0, n_h1)
    else:
        u_h1 = rng.uniform(-1.0, 1.0, n_h1)
        u_v = rng.uniform(-1.0, 1.0, n_v) if n_v else None
        u_h2 = rng.uniform(-1.0, 1.0, n_h2)
    return even_first, (u_v, u_h1, u_h2)


def block_minimize_joint(params: DbmParams, v, h1, h2, even_first: bool):
    """One full block-minimization pass; returns the new (v, h1, h2).

    Applying this to a local-search result must leave it unchanged.
    """
    check_joint(params, v, h1, h2)
    return block_pass(params, v, h1, h2, even_first)[:3]


def block_minimize_posterior(params: DbmParams, v, h1, h2, even_first: bool):
    """One block-minimization pass over (h1, h2) with v clamped."""
    check_joint(params, v, h1, h2)
    return block_pass(params, v, h1, h2, even_first, c=v_share(params, v))[1:3]


def _state(v, h1, h2, posterior: bool):
    return HiddenState(h1, h2) if posterior else JointState(v, h1, h2)


# The fields are carried between passes and updated from the units that
# flipped, unless so many flipped that a full gemv is cheaper. W1 is
# row-major: at 6272-500-500 with one BLAS thread, gathering 300 rows took
# 0.13 ms, gathering 20 columns 0.8 ms and a full gemv 1.35 ms. So the h1
# field (rows of W1 and columns of W2) is recomputed in full when more than
# 1/_ROW_SHARE of v or h2 flipped, and the v and h2 fields (columns of W1)
# when more than 1/_COLUMN_SHARE of h1 flipped.
_ROW_SHARE = 8
_COLUMN_SHARE = 32


def _fixed_point(params: DbmParams, v, rng, trace, c=None, rows=None) -> SearchResult:
    """Threshold passes from (v, uniform h1, h2) until the state stops changing.

    The one local-search loop; c and rows are passed on to block_pass. Each
    block's field is kept across passes and updated from the units that
    flipped. Such updates round differently from a fresh sum, so a pass
    that flips nothing ends the search only once the exact block_pass also
    leaves the state unchanged; that check is skipped when every field was
    computed in full. The result is a fixed point of block_pass, and its
    fields are fresh: computed in full, or by the confirming pass.
    """
    W1_free = params.W1 if rows is None else rows[1]
    W2 = params.W2
    n_v = params.W1.shape[0]
    n_h1, n_h2 = W2.shape
    h1 = uniform_spins(n_h1, rng)
    h2 = uniform_spins(n_h2, rng)
    even_first = rng.random() < 0.5
    cap = default_max_iterations(params)
    posterior = c is not None
    if trace is not None:
        trace.append(_state(v, h1, h2, posterior))
    a_v = a_h2 = a_h1 = None
    even_ok = odd_ok = False  # the block's field matches the other block's spins
    even_drift = odd_drift = False  # the field holds updates from flipped units
    for it in range(1, cap + 1):
        moved = False
        for odd in ((False, True) if even_first else (True, False)):
            if odd:
                if not odd_ok:
                    a_h1, odd_ok, odd_drift = h1_field(params, v, h2, c), True, False
                h1_new = _spins(a_h1, None)
                flip = h1_new != h1
                n = np.count_nonzero(flip)
                if n:
                    moved = True
                    if n * _COLUMN_SHARE > n_h1:
                        even_ok = False
                    elif even_ok:
                        t = np.flatnonzero(flip)
                        d = 2.0 * h1_new[t]
                        if not posterior:
                            a_v += W1_free[:, t] @ d
                        a_h2 += d @ W2[t]
                        even_drift = True
                    h1 = h1_new
            else:
                if not even_ok:
                    a_v = None if posterior else v_field(params, h1, rows)
                    a_h2, even_ok, even_drift = h2_field(params, h1), True, False
                h2_new = _spins(a_h2, None)
                flip_h2 = h2_new != h2
                n_h2_flips = np.count_nonzero(flip_h2)
                n_v_flips = 0
                if not posterior:
                    v_free = _spins(a_v, None)
                    flip_v = v_free != (v if rows is None else v[rows[0]])
                    n_v_flips = np.count_nonzero(flip_v)
                if n_v_flips or n_h2_flips:
                    moved = True
                    if n_v_flips * _ROW_SHARE > n_v or n_h2_flips * _ROW_SHARE > n_h2:
                        odd_ok = False
                    elif odd_ok:
                        if n_v_flips:
                            s = np.flatnonzero(flip_v)
                            a_h1 += (2.0 * v_free[s]) @ W1_free[s]
                        if n_h2_flips:
                            r = np.flatnonzero(flip_h2)
                            a_h1 += W2[:, r] @ (2.0 * h2_new[r])
                        odd_drift = True
                    if n_v_flips:
                        v = _set_free(v, v_free, rows)
                    h2 = h2_new
        if not moved and (even_drift or odd_drift):
            v_x, h1_x, h2_x, fresh = block_pass(params, v, h1, h2, even_first, _THRESHOLD,
                                                c, rows)
            if not (np.array_equal(h1_x, h1) and np.array_equal(h2_x, h2)
                    and (posterior or np.array_equal(v_x, v))):
                moved = True
                v, h1, h2 = v_x, h1_x, h2_x
                even_ok = odd_ok = False
            else:
                a_v, a_h1, a_h2 = fresh
        if trace is not None:
            trace.append(_state(v, h1, h2, posterior))
        if not moved:
            fields = None if posterior or rows is not None else (a_v, a_h1, a_h2)
            return SearchResult(_state(v, h1, h2, posterior), it, fields)
    raise SearchDivergenceError(f"no fixed point within {cap} iterations")


def local_search_joint(params: DbmParams, rng: np.random.Generator,
                       trace: list | None = None) -> SearchResult:
    """Block-minimize the joint energy from a uniform random start.

    trace, when given, receives the JointState after every iteration.
    """
    return _fixed_point(params, uniform_spins(params.W1.shape[0], rng), rng, trace)


def local_search_posterior(params: DbmParams, v: np.ndarray, rng: np.random.Generator,
                           trace: list | None = None, c=None) -> SearchResult:
    """Block-minimize the posterior energy over (h1, h2) with v clamped.

    c = model.v_share(v), when given, saves computing it here.
    """
    check_visible(params, v)
    return _fixed_point(params, v, rng, trace, c=v_share(params, v) if c is None else c)


def local_search_clamped(params: DbmParams, v_observed: np.ndarray, observed: np.ndarray,
                         rng: np.random.Generator,
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
    v = np.where(observed, np.asarray(v_observed, dtype=np.float64),
                 uniform_spins(s.n_v, rng))
    free = np.flatnonzero(~observed)
    if free.size == 0 or free[-1] - free[0] + 1 == free.size:  # one run: take views
        free = slice(free[0], free[-1] + 1) if free.size else slice(0, 0)
    rows = (free, params.W1[free], params.b_v[free])
    return _fixed_point(params, v, rng, trace, rows=rows)


def gibbs_sweep_joint(params: DbmParams, x: JointState, rng: np.random.Generator,
                      fields=None) -> JointState:
    """One full Gibbs sweep over both blocks, order chosen by a coin flip.

    fields = (a_v, a_h1, a_h2) at x (a joint SearchResult's fields) set the
    first block, which saves computing its field.
    """
    check_joint(params, x.v, x.h1, x.h2)
    even_first, u = sweep_uniforms(rng, len(x.v), len(x.h1), len(x.h2))
    return JointState(*block_pass(params, x.v, x.h1, x.h2, even_first, u, fields=fields)[:3])


def gibbs_sweep_posterior(params: DbmParams, v: np.ndarray, h: HiddenState,
                          rng: np.random.Generator, c=None) -> HiddenState:
    """One full Gibbs sweep over (h1, h2) with v clamped; c = model.v_share(v) if given."""
    check_joint(params, v, h.h1, h.h2)
    if c is None:
        c = v_share(params, v)
    even_first, u = sweep_uniforms(rng, 0, len(h.h1), len(h.h2))
    _, h1, h2, _ = block_pass(params, v, h.h1, h.h2, even_first, u, c)
    return HiddenState(h1, h2)
