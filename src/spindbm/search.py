"""Discrete local search and single-sweep Gibbs sampling, for R states at once.

Both are the same block pass. The bipartite layers split into the even
block (v, h2) and the odd block (h1); a pass sets each block from its
local fields, the even block first or the odd block first. Local search
walks to a local minimum of the energy by repeating the pass with a sign
threshold (each block's conditional minimizer) until the state stops
changing; which block moves first is decided by one coin flip per state.
It carries the local fields from pass to pass, updating them from the
units that flipped, and confirms the fixed point it reaches with one
exact pass whenever such updates were made. A Gibbs sweep is one pass
that draws each block's spins from its conditionals instead. The sweeps
perturb a found mode before coupling, so that chain initialization is
not supported only on the exact modes. A joint search returns its fields
at the fixed point, and the sweep that follows it sets its first block
from them.

The engine is row-stacked: the *_rows functions take R independent states
as (R, n) arrays. Each row keeps its own block order, its own flags for
which fields it carries, and its own iteration count, and a row leaves
the search once it reaches its fixed point. The one-state functions are
the R = 1 case and draw the same numbers from rng as R = 1 rows do.

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


@dataclass
class RowSearch:
    """R searches' fixed points as (R, n) rows, and each row's outer iterations.

    V is the clamped rows of a posterior search. steps is an (R,) int
    array. fields: a joint search's (A_v, A_h1, A_h2) at the returned rows
    (gibbs_sweep_joint_rows takes them); None for posterior and clamped
    searches.
    """

    V: np.ndarray
    H1: np.ndarray
    H2: np.ndarray
    steps: np.ndarray
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
    """v with its free units (the last axis) replaced by v_free."""
    if rows is None:
        return v_free
    v = v.copy()
    v[..., rows[0]] = v_free
    return v


def block_pass(params: DbmParams, v, h1, h2, even_first: bool, uniforms=_THRESHOLD,
               c=None, rows=None, fields=None):
    """One pass over the even block (v, h2) and the odd block (h1).

    The state is one state or R states stacked as rows, all in the same
    block order. Returns (v, h1, h2, (a_v, a_h1, a_h2)): the new state and
    the fields its blocks were set from. uniforms = (u_v, u_h1, u_h2) picks
    each block's update: None sets it to the sign of its field, an array
    draws its spins from those uniforms (see sweep_uniforms). v is free by
    default. c = model.v_share(v) fixes v and is v's hoisted share of the h1
    field (posterior passes; a_v is then None). rows = (free, W1[free],
    b_v[free]) moves only the free visible units (u_v and a_v then cover
    those units); the others keep their values in v. fields, the fields at
    the input state, set the first block instead of fields computed here.
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


def sweep_uniforms(rng: np.random.Generator, n_rows: int, n_v: int, n_h1: int, n_h2: int):
    """All the randomness of R Gibbs sweeps: (even_first, U).

    R coins come first, giving the (R,) block orders, then U, an
    (R, n_v + n_h1 + n_h2) block of uniforms on [-1, 1); each row holds its
    uniforms in the update order of its own block order (see
    block_uniforms). rng.uniform(-1.0, 1.0, n) is rng.random(n)'s stream
    scaled to 2u - 1. n_v = 0 draws no u_v: the posterior sweep, where v is
    fixed. For one row this is one sweep's coin, then its uniforms in
    block_pass's update order.
    """
    even_first = rng.random(n_rows) < 0.5
    return even_first, rng.uniform(-1.0, 1.0, (n_rows, n_v + n_h1 + n_h2))


def block_uniforms(U, even_first: bool, n_v: int, n_h1: int):
    """(u_v, u_h1, u_h2) from rows of U laid out in even_first's update order."""
    n = U.shape[-1]
    if even_first:
        u_v, u_h2, u_h1 = U[..., :n_v], U[..., n_v:n - n_h1], U[..., n - n_h1:]
    else:
        u_h1, u_v, u_h2 = U[..., :n_h1], U[..., n_h1:n_h1 + n_v], U[..., n_h1 + n_v:]
    return (u_v if n_v else None), u_h1, u_h2


def _groups(even_first: np.ndarray) -> list:
    """(block order, rows) for each block order some row has.

    rows is slice(None) when every row shares the order, so that one-order
    blocks (R = 1 among them) work on views.
    """
    n_even = np.count_nonzero(even_first)
    if n_even in (0, len(even_first)):
        return [(n_even > 0, slice(None))]
    return [(True, even_first.nonzero()[0]), (False, (~even_first).nonzero()[0])]


def _row_counts(mask: np.ndarray, total: int) -> np.ndarray:
    """The True entries in each row of an (R, n) mask whose total count is known."""
    return np.full(1, total) if len(mask) == 1 else mask.sum(axis=1)


def _pick(a, rows):
    return None if a is None else a[rows]


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
# 0.13 ms, gathering 20 columns 0.8 ms and a full gemv 1.35 ms. So a row's
# h1 field (rows of W1 and columns of W2) is recomputed in full when more
# than 1/_ROW_SHARE of its v or h2 flipped, and its v and h2 fields
# (columns of W1) when more than 1/_COLUMN_SHARE of its h1 flipped.
_ROW_SHARE = 8
_COLUMN_SHARE = 32


def _fixed_point(params: DbmParams, V, rng, trace=None, c=None, rows=None) -> RowSearch:
    """Threshold passes from (V, uniform H1, H2) until every row stops changing.

    The one local-search loop. It draws H1, H2 and the R block-order coins,
    then runs the rows of each block order together (_descend). c and rows
    are passed on to block_pass; c holds one row per state. trace, for one
    row only, receives the state after every iteration.
    """
    n_h1, n_h2 = params.W2.shape
    R = len(V)
    H1 = uniform_spins((R, n_h1), rng)
    H2 = uniform_spins((R, n_h2), rng)
    even_first = rng.random(R) < 0.5
    posterior = c is not None
    if trace is not None:
        trace.append(_state(V[0], H1[0], H2[0], posterior))
    done = []
    for order, g in _groups(even_first):
        done += _descend(params, V[g], H1[g], H2[g], order, _pick(c, g), rows,
                         np.arange(R)[g], trace)
    carry = not (posterior or rows is not None)
    if len(done) == 1:  # every row stopped together, in order
        _, it, V_, H1, H2, fields = done[0]
        return RowSearch(V if posterior else V_, H1, H2, np.full(R, it),
                         fields if carry else None)
    out = RowSearch(V if posterior else np.empty_like(V), np.empty_like(H1),
                    np.empty_like(H2), np.empty(R, dtype=np.int64),
                    (np.empty_like(V), np.empty_like(H1), np.empty_like(H2)) if carry else None)
    for idx, it, V_, H1, H2, fields in done:
        out.steps[idx] = it
        if not posterior:
            out.V[idx] = V_
        out.H1[idx], out.H2[idx] = H1, H2
        for o, a in zip(out.fields or (), fields):
            o[idx] = a
    return out


def _descend(params, V, H1, H2, even_first: bool, c, rows, idx, trace) -> list:
    """Threshold passes over rows that share one block order.

    Each row's fields are kept across passes and updated from the units
    that flipped in it. Such updates round differently from a fresh sum, so
    a pass that flips nothing in a row ends its search only once the exact
    block_pass also leaves it unchanged; that check is skipped when every
    field of the row was computed in full. So each result row is a fixed
    point of block_pass, and its fields are fresh: computed in full, or by
    the confirming pass. A row that stops changing leaves the loop. Returns
    the rows in the groups that stopped together: (idx, iterations, V, H1,
    H2, (A_v, A_h1, A_h2)), idx mapping them to the caller's rows.
    """
    W1_free = params.W1 if rows is None else rows[1]
    W2 = params.W2
    n_v = params.W1.shape[0]
    n_h1, n_h2 = W2.shape
    # the most units that may flip in a block for the other block's fields
    # to be updated rather than recomputed (0: always recomputed)
    few_h1, few_v, few_h2 = n_h1 // _COLUMN_SHARE, n_v // _ROW_SHARE, n_h2 // _ROW_SHARE
    cap = default_max_iterations(params)
    posterior = c is not None
    R = len(H1)
    A_v = A_h1 = A_h2 = None
    even_ok = np.zeros(R, dtype=bool)  # the row's even fields match its odd block
    odd_ok = np.zeros(R, dtype=bool)
    even_drift = np.zeros(R, dtype=bool)  # the row's fields hold updates from flipped units
    odd_drift = np.zeros(R, dtype=bool)
    drifted = False  # some row's fields were ever updated
    done = []
    for it in range(1, cap + 1):
        moved = np.zeros(R, dtype=bool)
        for odd in ((False, True) if even_first else (True, False)):
            if odd:
                n_ok = np.count_nonzero(odd_ok)
                if n_ok == 0:
                    A_h1 = h1_field(params, V, H2, c)
                    odd_ok[:] = True
                    if drifted:
                        odd_drift[:] = False
                elif n_ok < R:
                    J = (~odd_ok).nonzero()[0]
                    A_h1[J] = h1_field(params, V[J], H2[J], _pick(c, J))
                    odd_ok[J], odd_drift[J] = True, False
                new = _spins(A_h1, None)
                flip = new != H1
                n = np.count_nonzero(flip)
                if n:
                    n = _row_counts(flip, n)
                    np.logical_or(moved, n, out=moved)
                    np.logical_and(even_ok, n <= few_h1, out=even_ok)
                    for r in (n.astype(bool) & even_ok).nonzero()[0] if few_h1 else ():
                        t = flip[r].nonzero()[0]
                        d = 2.0 * new[r, t]
                        if not posterior:
                            A_v[r] += W1_free[:, t] @ d
                        A_h2[r] += d @ W2[t]
                        even_drift[r] = drifted = True
                    H1 = new
            else:
                n_ok = np.count_nonzero(even_ok)
                if n_ok == 0:
                    A_v = None if posterior else v_field(params, H1, rows)
                    A_h2 = h2_field(params, H1)
                    even_ok[:] = True
                    if drifted:
                        even_drift[:] = False
                elif n_ok < R:
                    J = (~even_ok).nonzero()[0]
                    if not posterior:
                        A_v[J] = v_field(params, H1[J], rows)
                    A_h2[J] = h2_field(params, H1[J])
                    even_ok[J], even_drift[J] = True, False
                h2_new = _spins(A_h2, None)
                flip_h2 = h2_new != H2
                n_h2_flips = np.count_nonzero(flip_h2)
                n_v_flips = 0
                if not posterior:
                    v_free = _spins(A_v, None)
                    flip_v = v_free != (V if rows is None else V[:, rows[0]])
                    n_v_flips = np.count_nonzero(flip_v)
                if n_v_flips or n_h2_flips:
                    n_h2_flips = _row_counts(flip_h2, n_h2_flips)
                    few = n_h2_flips <= few_h2
                    if not posterior:
                        n_v_flips = _row_counts(flip_v, n_v_flips)
                        few &= n_v_flips <= few_v
                    row_moved = np.logical_or(n_v_flips, n_h2_flips)
                    moved |= row_moved
                    odd_ok &= few
                    for r in (row_moved & odd_ok).nonzero()[0] if few_v or few_h2 else ():
                        if not posterior and n_v_flips[r]:
                            s = flip_v[r].nonzero()[0]
                            A_h1[r] += (2.0 * v_free[r, s]) @ W1_free[s]
                        if n_h2_flips[r]:
                            q = flip_h2[r].nonzero()[0]
                            A_h1[r] += W2[:, q] @ (2.0 * h2_new[r, q])
                        odd_drift[r] = drifted = True
                    if not posterior:
                        V = _set_free(V, v_free, rows)
                    H2 = h2_new
        if drifted:
            J = (~moved & (even_drift | odd_drift)).nonzero()[0]
            if J.size:
                v_x, h1_x, h2_x, fresh = block_pass(params, V[J], H1[J], H2[J], even_first,
                                                    _THRESHOLD, _pick(c, J), rows)
                same = (h1_x == H1[J]).all(axis=1) & (h2_x == H2[J]).all(axis=1)
                if not posterior:
                    same &= (v_x == V[J]).all(axis=1)
                kept, changed = J[same], J[~same]
                if not posterior:
                    A_v[kept] = fresh[0][same]
                A_h1[kept], A_h2[kept] = fresh[1][same], fresh[2][same]
                if changed.size:
                    moved[changed] = True
                    if not posterior:
                        V = V.copy()
                        V[changed] = v_x[~same]
                    H1, H2 = H1.copy(), H2.copy()
                    H1[changed], H2[changed] = h1_x[~same], h2_x[~same]
                    even_ok[changed] = odd_ok[changed] = False
        if trace is not None:
            trace.append(_state(V[0], H1[0], H2[0], posterior))
        n_moved = np.count_nonzero(moved)
        if n_moved == 0:
            return done + [(idx, it, V, H1, H2, (A_v, A_h1, A_h2))]
        if n_moved < R:
            stop = ~moved
            done.append((idx[stop], it, V[stop], H1[stop], H2[stop],
                         tuple(_pick(a, stop) for a in (A_v, A_h1, A_h2))))
            idx, V, H1, H2 = idx[moved], V[moved], H1[moved], H2[moved]
            c = _pick(c, moved)
            A_v, A_h1, A_h2 = _pick(A_v, moved), A_h1[moved], A_h2[moved]
            even_ok, odd_ok = even_ok[moved], odd_ok[moved]
            even_drift, odd_drift = even_drift[moved], odd_drift[moved]
            R = len(H1)
    raise SearchDivergenceError(f"no fixed point within {cap} iterations")


def _one(result: RowSearch, posterior: bool) -> SearchResult:
    """The one-state result of a one-row search."""
    fields = None if result.fields is None else tuple(a[0] for a in result.fields)
    return SearchResult(_state(result.V[0], result.H1[0], result.H2[0], posterior),
                        int(result.steps[0]), fields)


def local_search_joint_rows(params: DbmParams, n_rows: int,
                            rng: np.random.Generator) -> RowSearch:
    """Block-minimize the joint energy from n_rows uniform random starts."""
    return _fixed_point(params, uniform_spins((n_rows, params.W1.shape[0]), rng), rng)


def local_search_joint(params: DbmParams, rng: np.random.Generator,
                       trace: list | None = None) -> SearchResult:
    """Block-minimize the joint energy from a uniform random start.

    trace, when given, receives the JointState after every iteration.
    """
    return _one(_fixed_point(params, uniform_spins((1, params.W1.shape[0]), rng), rng, trace),
                False)


def local_search_posterior_rows(params: DbmParams, V: np.ndarray, rng: np.random.Generator,
                                c=None) -> RowSearch:
    """Block-minimize the posterior energy over (h1, h2) with each row of V clamped.

    c = model.v_share(V), when given, saves computing it here.
    """
    check_visible(params, V)
    return _fixed_point(params, V, rng, c=v_share(params, V) if c is None else c)


def local_search_posterior(params: DbmParams, v: np.ndarray, rng: np.random.Generator,
                           trace: list | None = None, c=None) -> SearchResult:
    """Block-minimize the posterior energy over (h1, h2) with v clamped.

    c = model.v_share(v), when given, saves computing it here.
    """
    check_visible(params, v)
    c = v_share(params, v) if c is None else c
    return _one(_fixed_point(params, np.asarray(v)[None], rng, trace, c=c[None]), True)


def _clamped_start(params: DbmParams, V_observed, observed, rng):
    """(V, rows): uniform spins on the unobserved units, and block_pass's free rows."""
    s = params.shape
    observed = np.asarray(observed, dtype=bool)
    if observed.shape != (s.n_v,):
        raise ValueError("mask length does not match the visible layer")
    V_observed = np.asarray(V_observed, dtype=np.float64)
    if observed.any() and not is_spin(V_observed[..., observed]):
        raise ValueError("observed entries must be +-1")
    V = np.where(observed, V_observed, uniform_spins((len(V_observed), s.n_v), rng))
    free = np.flatnonzero(~observed)
    if free.size == 0 or free[-1] - free[0] + 1 == free.size:  # one run: take views
        free = slice(free[0], free[-1] + 1) if free.size else slice(0, 0)
    return V, (free, params.W1[free], params.b_v[free])


def local_search_clamped_rows(params: DbmParams, V_observed: np.ndarray, observed: np.ndarray,
                              rng: np.random.Generator) -> RowSearch:
    """Like local_search_joint_rows, one row per row of V_observed, with the
    visible units flagged observed (one mask for every row) never moving."""
    V, rows = _clamped_start(params, V_observed, observed, rng)
    return _fixed_point(params, V, rng, rows=rows)


def local_search_clamped(params: DbmParams, v_observed: np.ndarray, observed: np.ndarray,
                         rng: np.random.Generator,
                         trace: list | None = None) -> SearchResult:
    """Like local_search_joint, but visible units flagged observed never move.

    v_observed entries outside the observed mask are ignored. An all-False
    mask degenerates to the unclamped joint search.
    """
    V, rows = _clamped_start(params, np.asarray(v_observed)[None], observed, rng)
    return _one(_fixed_point(params, V, rng, trace, rows=rows), False)


def _sweep(params: DbmParams, V, H1, H2, rng, c=None, fields=None):
    """R Gibbs sweeps, each row in the block order of its own coin: (V, H1, H2).

    c = model.v_share(V) clamps V (the posterior sweep). fields, the joint
    fields at the input rows, set each row's first block.
    """
    n_v = 0 if c is not None else V.shape[-1]
    n_h1 = H1.shape[-1]
    even_first, U = sweep_uniforms(rng, len(H1), n_v, n_h1, H2.shape[-1])
    out = None
    for order, g in _groups(even_first):
        new = block_pass(params, V[g], H1[g], H2[g], order,
                         block_uniforms(U[g], order, n_v, n_h1), _pick(c, g),
                         fields=None if fields is None else tuple(_pick(a, g) for a in fields))
        if isinstance(g, slice):
            return new[:3]
        if out is None:
            out = [V.copy(), np.empty_like(H1), np.empty_like(H2)]
        for o, a in zip(out, new):
            o[g] = a
    return tuple(out)


def gibbs_sweep_joint_rows(params: DbmParams, V, H1, H2, rng: np.random.Generator,
                           fields=None):
    """One full Gibbs sweep of each row over both blocks: (V, H1, H2).

    fields = (A_v, A_h1, A_h2) at the rows (a joint RowSearch's fields) set
    each row's first block, which saves computing its field.
    """
    check_joint(params, V, H1, H2)
    return _sweep(params, V, H1, H2, rng, fields=fields)


def gibbs_sweep_joint(params: DbmParams, x: JointState, rng: np.random.Generator,
                      fields=None) -> JointState:
    """One full Gibbs sweep over both blocks, order chosen by a coin flip.

    fields = (a_v, a_h1, a_h2) at x (a joint SearchResult's fields) set the
    first block, which saves computing its field.
    """
    check_joint(params, x.v, x.h1, x.h2)
    V, H1, H2 = _sweep(params, x.v[None], x.h1[None], x.h2[None], rng,
                       fields=None if fields is None else tuple(a[None] for a in fields))
    return JointState(V[0], H1[0], H2[0])


def gibbs_sweep_posterior_rows(params: DbmParams, V, H1, H2, rng: np.random.Generator,
                               c=None):
    """One Gibbs sweep of each row over (h1, h2) with its V row clamped: (H1, H2).

    c = model.v_share(V), when given, saves computing it here.
    """
    check_joint(params, V, H1, H2)
    return _sweep(params, V, H1, H2, rng, v_share(params, V) if c is None else c)[1:]


def gibbs_sweep_posterior(params: DbmParams, v: np.ndarray, h: HiddenState,
                          rng: np.random.Generator, c=None) -> HiddenState:
    """One full Gibbs sweep over (h1, h2) with v clamped; c = model.v_share(v) if given."""
    check_joint(params, v, h.h1, h.h2)
    c = v_share(params, v) if c is None else c
    _, H1, H2 = _sweep(params, np.asarray(v)[None], h.h1[None], h.h2[None], rng, c[None])
    return HiddenState(H1[0], H2[0])
