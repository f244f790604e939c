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
as (R, n) arrays. A search is one loop of half-passes over all its rows,
k = 0, 1, 2, ...: even, odd, even, and so on, in which each row keeps the
phase of its own block order. Half-pass k = 0 sets the even-first rows
alone; the odd-first rows join at k = 1. So each half-pass sets the same
block in every row it covers and makes one product for all of them. Each
row keeps its own flags for which fields it carries and its own
iteration count, and leaves the search once it reaches its fixed point.
A sweep makes one pass over the rows of each block order. A block of
R = 0 rows gives empty rows and draws nothing. The one-state functions are
the R = 1 case and draw the same numbers from rng as R = 1 rows do. rng is
one generator, which draws each stage's numbers for all rows at once, or a
sequence of one generator per row, from which row r draws exactly what a
one-state call draws from it (model.random_rows).

Sign convention: sgn(0) = +1 everywhere.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .model import (DbmParams, HiddenState, JointState, check_joint, check_visible, h1_field,
                    h2_field, is_spin, pick_rows, random_rows, uniform_spins, v_field, v_share)


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
        if rows is None:
            v = _spins(a_v, u_v)
        else:  # a copy of v with its free units set
            v = v.copy()
            v[..., rows[0]] = _spins(a_v, u_v)
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
    block_pass's update order. rng may be one generator per row
    (model.random_rows).
    """
    even_first = random_rows(rng, (n_rows,)) < 0.5
    return even_first, random_rows(rng, (n_rows, n_v + n_h1 + n_h2), -1.0)


def block_uniforms(U, even_first: bool, n_v: int, n_h1: int):
    """(u_v, u_h1, u_h2) from rows of U laid out in even_first's update order."""
    n = U.shape[-1]
    if even_first:
        u_v, u_h2, u_h1 = U[..., :n_v], U[..., n_v:n - n_h1], U[..., n - n_h1:]
    else:
        u_h1, u_v, u_h2 = U[..., :n_h1], U[..., n_h1:n_h1 + n_v], U[..., n_h1 + n_v:]
    return (u_v if n_v else None), u_h1, u_h2


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
    """Threshold half-passes from (V, uniform H1, H2) until every row stops changing.

    It draws H1, H2 and the R block-order coins, sorts the even-first rows
    first, and runs one loop of half-passes k = 0, 1, 2, ...: even, odd,
    even, and so on. The even-first rows take every one and k = 0 alone; the
    odd-first rows join at k = 1. A row's iteration is two half-passes in
    its own block order, so the even-first rows end theirs after odd
    half-passes and the odd-first rows after even ones (none at k = 0).
    Each half-pass computes its block's fields with one product over all
    the rows that need them in full. Each row's fields are kept across
    half-passes and updated from the units that flipped in it. Such updates
    round differently from a fresh sum, so an iteration that flips nothing
    in a row ends its search only once the exact block_pass in its order
    also leaves it unchanged; that check is skipped when every field of the
    row was computed in full, and it is one block_pass over the rows that
    need it. So each result row is a fixed point of block_pass, and its
    fields are fresh: computed in full, or by the confirming pass. A row
    that stops changing leaves the loop, and its iterations, V, H1, H2 and,
    for a joint search, (A_v, A_h1, A_h2) go to its row of the result, in
    the caller's order. The even half-pass writes V and H2 through views of
    rows :n, and a recompute writes its rows of the fields, or rebinds them
    when it covers all R rows. R = 0 returns the empty result after drawing
    zero numbers. c and rows are passed on to block_pass (c holds one row
    per state). trace, for one row only, receives a copy of the state after
    every iteration.
    """
    free, W1_free = (slice(None), params.W1) if rows is None else rows[:2]
    n_v, n_h1, n_h2 = params.sizes
    # the most units that may flip in a block for the other block's fields
    # to be updated rather than recomputed (0: always recomputed)
    few_h1, few_v, few_h2 = n_h1 // _COLUMN_SHARE, n_v // _ROW_SHARE, n_h2 // _ROW_SHARE
    cap = default_max_iterations(params)
    posterior = c is not None
    R = len(V)
    H1 = uniform_spins((R, n_h1), rng)
    H2 = uniform_spins((R, n_h2), rng)
    even_first = random_rows(rng, (R,)) < 0.5
    if trace is not None:
        trace.append(_state(V[0].copy(), H1[0].copy(), H2[0].copy(), posterior))
    out = RowSearch(V if posterior else np.empty_like(V), np.empty_like(H1),
                    np.empty_like(H2), np.empty(R, dtype=np.int64),
                    None if posterior or rows is not None else
                    (np.empty_like(V), np.empty_like(H1), np.empty_like(H2)))
    if not R:
        return out
    idx = np.arange(R)  # each row's row in the caller's order
    n_even = int(np.count_nonzero(even_first))  # the even-first rows are rows :n_even
    if 0 < n_even < R:
        idx = np.argsort(~even_first, kind="stable")
        V, H1, H2, c = (pick_rows(a, idx) for a in (V, H1, H2, c))
    # the rows' fields (A_v, A_h1, A_h2); A_v is None in a posterior search
    A = [None if posterior else np.empty((R, len(W1_free))), np.empty((R, n_h1)),
         np.empty((R, n_h2))]
    # for the block b a half-pass sets (0 even, 1 odd): ok[b], the row's fields
    # that set b match the other block; drift[b], they hold updates from flips
    ok = [np.zeros(R, dtype=bool), np.zeros(R, dtype=bool)]
    drift = [np.zeros(R, dtype=bool), np.zeros(R, dtype=bool)]
    drifted = False  # some row's fields were ever updated
    moved = np.zeros(R, dtype=bool)  # the row flipped a unit in its current iteration
    for k in itertools.count(0 if n_even else 1):
        b = k % 2  # the block this half-pass sets
        n = n_even if k == 0 else R  # the half-pass sets rows :n
        n_ok = np.count_nonzero(ok[b])
        if n_ok < R:
            # recompute the stale fields that set block b, as (index in A, fields): of
            # rows :n when no row holds them, else of rows J
            J = (~ok[b]).nonzero()[0] if n_ok else slice(0, n)
            if b:
                a_J = ((1, h1_field(params, pick_rows(V, J), pick_rows(H2, J), pick_rows(c, J))),)
            else:
                H1_J = pick_rows(H1, J)
                a_J = ((2, h2_field(params, H1_J)),) if posterior else (
                    (0, v_field(params, H1_J, rows)), (2, h2_field(params, H1_J)))
            for i, a in a_J:
                if not n_ok and n == R:  # writing these read 4% slower on infer-6272
                    A[i] = a
                else:
                    A[i][J] = a
            ok[b][J] = True
            if drifted:
                drift[b][J] = False
        if b:
            new = _spins(A[1], None)
            flip = new != H1
            n_flips = np.count_nonzero(flip)
            if n_flips:
                n_flips = flip.sum(axis=1)
                np.logical_or(moved, n_flips, out=moved)
                np.logical_and(ok[0], n_flips <= few_h1, out=ok[0])
                for r in (n_flips.astype(bool) & ok[0]).nonzero()[0] if few_h1 else ():
                    t = flip[r].nonzero()[0]
                    d = 2.0 * new[r, t]
                    if not posterior:
                        A[0][r] += W1_free[:, t] @ d
                    A[2][r] += d @ params.W2[t]
                    drift[0][r] = drifted = True
                H1 = new
        else:
            # views of rows :n, through which this half-pass writes them
            V_n, H2_n, A_v, A_h2, moved_n, ok_n = (
                pick_rows(a, slice(0, n)) for a in (V, H2, A[0], A[2], moved, ok[1]))
            h2_new = _spins(A_h2, None)
            flip_h2 = h2_new != H2_n
            n_h2_flips = np.count_nonzero(flip_h2)
            n_v_flips = 0
            if not posterior:
                v_new = _spins(A_v, None)
                flip_v = v_new != V_n[:, free]
                n_v_flips = np.count_nonzero(flip_v)
            if n_v_flips or n_h2_flips:
                n_h2_flips = flip_h2.sum(axis=1)
                if not posterior:
                    n_v_flips = flip_v.sum(axis=1)
                row_moved = np.logical_or(n_v_flips, n_h2_flips)
                moved_n |= row_moved
                if k:  # at k = 0 no row holds odd fields yet
                    ok_n &= n_h2_flips <= few_h2
                    if not posterior:
                        ok_n &= n_v_flips <= few_v
                for r in (row_moved & ok_n).nonzero()[0] if k and (few_v or few_h2) else ():
                    if not posterior and n_v_flips[r]:
                        s = flip_v[r].nonzero()[0]
                        A[1][r] += (2.0 * v_new[r, s]) @ W1_free[s]
                    if n_h2_flips[r]:
                        q = flip_h2[r].nonzero()[0]
                        A[1][r] += params.W2[:, q] @ (2.0 * h2_new[r, q])
                    drift[1][r] = drifted = True
                if not posterior:
                    V_n[:, free] = v_new
                H2_n[...] = h2_new
        # the rows whose iteration ends here, rows lo:hi: the even-first rows
        # after an odd half-pass, the odd-first rows after an even one
        lo, hi = (0, n_even) if b else (n_even, n)
        if lo == hi:
            continue
        end = slice(lo, hi)
        it = (k + 1) // 2
        if drifted:
            J = (~moved[end] & (drift[0][end] | drift[1][end])).nonzero()[0] + lo
            if J.size:
                x = V[J], H1[J], H2[J]
                v_x, h1_x, h2_x, fresh = block_pass(params, *x, b == 1, _THRESHOLD,
                                                    pick_rows(c, J), rows)
                same = (h1_x == x[1]).all(axis=1) & (h2_x == x[2]).all(axis=1)
                if not posterior:
                    same &= (v_x == x[0]).all(axis=1)
                kept, changed = J[same], J[~same]
                for a, a_x in zip(A, fresh):
                    if a is not None:  # A_v is None in a posterior search
                        a[kept] = a_x[same]
                if changed.size:
                    moved[changed] = True
                    if not posterior:
                        V[changed] = v_x[~same]
                    H1[changed], H2[changed] = h1_x[~same], h2_x[~same]
                    ok[0][changed] = ok[1][changed] = False
        if trace is not None:
            trace.append(_state(V[0].copy(), H1[0].copy(), H2[0].copy(), posterior))
        n_moved = np.count_nonzero(moved[end])
        if n_moved and it == cap:
            raise SearchDivergenceError(f"no fixed point within {cap} iterations")
        if n_moved == hi - lo:
            moved[end] = False
            continue
        go = np.ones(R, dtype=bool)
        go[end] = moved[end]
        moved[end] = False
        stop, go = (~go).nonzero()[0], go.nonzero()[0]
        left = idx[stop]
        out.steps[left] = it
        if not posterior:
            out.V[left] = pick_rows(V, stop)
        out.H1[left], out.H2[left] = pick_rows(H1, stop), pick_rows(H2, stop)
        for o, a in zip(out.fields or (), A):
            o[left] = pick_rows(a, stop)
        if not go.size:
            return out
        idx, moved, ok[0], ok[1], drift[0], drift[1] = (a[go] for a in (idx, moved, *ok, *drift))
        V, H1, H2, c, A[0], A[1], A[2] = (pick_rows(a, go) for a in (V, H1, H2, c, *A))
        R = len(H1)
        if b:
            n_even -= hi - lo - n_moved


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
                           trace: list | None = None) -> SearchResult:
    """Block-minimize the posterior energy over (h1, h2) with v clamped."""
    check_visible(params, v)
    V = np.asarray(v)[None]
    return _one(_fixed_point(params, V, rng, trace, c=v_share(params, V)), True)


def _clamped_start(params: DbmParams, V_observed, observed, rng):
    """(V, rows): uniform spins on the unobserved units, and block_pass's free rows."""
    check_visible(params, V_observed)
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

    Each block order's rows are gathered for one block_pass and scattered
    back. c = model.v_share(V) clamps V (the posterior sweep). fields, the
    joint fields at the input rows, set each row's first block.
    """
    n_v = 0 if c is not None else V.shape[-1]
    n_h1 = H1.shape[-1]
    even_first, U = sweep_uniforms(rng, len(H1), n_v, n_h1, H2.shape[-1])
    out = (np.empty_like(V), np.empty_like(H1), np.empty_like(H2))
    for order in (True, False):
        g = (even_first == order).nonzero()[0]
        if not g.size:
            continue
        new = block_pass(params, pick_rows(V, g), pick_rows(H1, g), pick_rows(H2, g), order,
                         block_uniforms(pick_rows(U, g), order, n_v, n_h1), pick_rows(c, g),
                         fields=None if fields is None else tuple(pick_rows(a, g) for a in fields))
        for o, a in zip(out, new):
            o[g] = a
    return out


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
                          rng: np.random.Generator) -> HiddenState:
    """One full Gibbs sweep over (h1, h2) with v clamped."""
    check_joint(params, v, h.h1, h.h2)
    V = np.asarray(v)[None]
    _, H1, H2 = _sweep(params, V, h.h1[None], h.h2[None], rng, v_share(params, V))
    return HiddenState(H1[0], H2[0])
