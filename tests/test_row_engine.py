"""The row-stacked chain engine: R independent states moved as (R, n) arrays.

Row r of a block must be what the one-state entry point computes from row
r's numbers, so most tests here replay one block's random numbers row by
row through the one-state functions (Replay stands in for the generator).
TestRowStreams gives each row its own generator instead, as training does:
a block on R spawned generators must equal R one-state calls (for
training's block, R one-row calls of its stages), each on its own copy of
row r's generator; and training's stages at R = 1 must equal the one-state
chain of search, sweep and MH coupling.
"""

import warnings

import numpy as np
import pytest

from spindbm import (DbmShape, HiddenState, JointState, block_minimize_joint,
                     block_minimize_posterior, gibbs_sweep_joint, gibbs_sweep_posterior,
                     init_params, local_search_clamped, local_search_joint,
                     local_search_posterior, mh_couple_joint, mh_couple_posterior,
                     telescope_terms, uniform_spins)
from spindbm import search
from spindbm.coupling import (CoupledRun, CouplingTruncatedError, RowRuns, _mh_chains,
                              mh_couple_joint_rows, mh_couple_posterior_rows,
                              telescope_rows)
from spindbm.model import DrawnStream, energy_vhh, v_field, v_share
from spindbm.oracle import spin_table
from spindbm.search import (SearchDivergenceError, default_max_iterations,
                            gibbs_sweep_joint_rows, gibbs_sweep_posterior_rows,
                            local_search_clamped_rows, local_search_joint_rows,
                            local_search_posterior_rows)
from spindbm.training import (_example_block, _negative_rows, _positive_rows,
                              default_check_model, sample)

from conftest import joint_chain, posterior_chain, random_params

R = 40
SHAPES = (DbmShape(3, 3, 2), DbmShape(6, 5, 0), DbmShape(40, 48, 16), DbmShape(300, 96, 64))


class Replay:
    """Hands out queued uniforms in order, as rng.random and rng.uniform would."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, size=None):
        a = self.draws.pop(0)
        return float(np.asarray(a).reshape(())) if size is None else np.reshape(a, size)

    def uniform(self, low, high, size):
        return self.random(size)


def _models():
    for i, shape in enumerate(SHAPES):
        yield random_params(shape, seed=60 + i)
        yield init_params(shape, np.random.default_rng(70 + i))


def _search_draws(rng, params, clamped_v: bool):
    s = params.shape
    sizes = ((s.n_v,) if clamped_v else ()) + (s.n_h1, s.n_h2, None)
    return [rng.random(R if n is None else (R, n)) for n in sizes]


def _row(draws, r):
    return [d[r:r + 1] for d in draws]


def _same_state(a, b):
    return all(np.array_equal(x, y) for x, y in zip(vars(a).values(), vars(b).values()))


class TestSearchRows:
    @pytest.mark.parametrize("orders", ["mixed", "even-first", "odd-first"])
    @pytest.mark.parametrize("kind", ["joint", "posterior", "clamped"])
    def test_each_row_is_its_one_state_search(self, kind, orders):
        for i, params in enumerate(_models()):
            s = params.shape
            rng = np.random.default_rng(i)
            V = uniform_spins((R, s.n_v), rng)
            observed = np.arange(s.n_v) < s.n_v // 2
            draws = _search_draws(rng, params, kind != "posterior")
            # the coin row: the block holds rows of both orders, or of one
            draws[-1] = {"mixed": draws[-1], "even-first": draws[-1] / 2,
                         "odd-first": 0.5 + draws[-1] / 2}[orders]
            even_first = draws[-1] < 0.5
            assert {"mixed": even_first.any() and not even_first.all(),
                    "even-first": even_first.all(), "odd-first": not even_first.any()}[orders]
            if kind == "joint":
                block = local_search_joint_rows(params, R, Replay(*draws))
            elif kind == "posterior":
                block = local_search_posterior_rows(params, V, Replay(*draws))
            else:
                block = local_search_clamped_rows(params, V, observed, Replay(*draws))
            for r in range(R):
                replay = Replay(*_row(draws, r))
                if kind == "joint":
                    one = local_search_joint(params, replay)
                elif kind == "posterior":
                    one = local_search_posterior(params, V[r], replay)
                else:
                    one = local_search_clamped(params, V[r], observed, replay)
                x = one.state
                assert block.steps[r] == one.steps
                assert np.array_equal(block.H1[r], x.h1) and np.array_equal(block.H2[r], x.h2)
                assert np.array_equal(block.V[r], V[r] if kind == "posterior" else x.v)
                if kind == "joint":
                    for a, b in zip(block.fields, one.fields):
                        np.testing.assert_allclose(a[r], b, rtol=0, atol=1e-9)
                else:
                    assert block.fields is None

    @pytest.mark.parametrize("kind", ["joint", "posterior", "clamped"])
    def test_every_row_is_a_block_fixed_point(self, kind):
        for i, params in enumerate(_models()):
            s = params.shape
            rng = np.random.default_rng(100 + i)
            V = uniform_spins((R, s.n_v), rng)
            observed = rng.random(s.n_v) < 0.5
            if kind == "joint":
                block = local_search_joint_rows(params, R, rng)
            elif kind == "posterior":
                block = local_search_posterior_rows(params, V, rng)
            else:
                block = local_search_clamped_rows(params, V, observed, rng)
                assert np.array_equal(block.V[:, observed], V[:, observed])
            cap = default_max_iterations(params)
            assert np.all((block.steps >= 1) & (block.steps <= cap))
            for r in range(R):
                v, h1, h2 = block.V[r], block.H1[r], block.H2[r]
                # a fixed point of one block order is one of the other order too
                for even_first in (True, False):
                    if kind == "joint":
                        again = block_minimize_joint(params, v, h1, h2, even_first)
                        assert all(np.array_equal(a, b) for a, b in zip(again, (v, h1, h2)))
                    else:
                        again = block_minimize_posterior(params, v, h1, h2, even_first)
                        assert all(np.array_equal(a, b) for a, b in zip(again, (h1, h2)))
                if kind == "clamped":
                    free = ~observed
                    a_v = v_field(params, h1)[free]
                    assert np.array_equal(v[free], np.where(a_v >= 0.0, 1.0, -1.0))

    def test_rows_leave_at_different_iterations(self):
        params = init_params(DbmShape(300, 96, 64), np.random.default_rng(5))
        block = local_search_joint_rows(params, R, np.random.default_rng(6))
        assert len(np.unique(block.steps)) > 1

    @pytest.mark.parametrize("kind", ["joint", "posterior", "clamped"])
    def test_iteration_cap_raises(self, kind, monkeypatch):
        # with a cap of one iteration, a block whose rows move in their first
        # iteration has not reached its fixed point
        monkeypatch.setattr(search, "default_max_iterations", lambda params: 1)
        params = random_params(DbmShape(40, 48, 16), seed=61)
        s = params.shape
        rng = np.random.default_rng(3)
        V = uniform_spins((R, s.n_v), rng)
        draws = _search_draws(rng, params, kind != "posterior")
        even_first = draws[-1] < 0.5
        assert even_first.any() and not even_first.all()
        with pytest.raises(SearchDivergenceError):
            if kind == "joint":
                local_search_joint_rows(params, R, Replay(*draws))
            elif kind == "posterior":
                local_search_posterior_rows(params, V, Replay(*draws))
            else:
                local_search_clamped_rows(params, V, np.arange(s.n_v) < s.n_v // 2,
                                          Replay(*draws))


class TestSweepRows:
    @pytest.mark.parametrize("orders", ["mixed", "even-first", "odd-first"])
    @pytest.mark.parametrize("with_fields", [False, True])
    def test_each_row_is_its_one_state_sweep(self, with_fields, orders):
        for i, params in enumerate(_models()):
            s = params.shape
            rng = np.random.default_rng(200 + i)
            found = local_search_joint_rows(params, R, rng)
            fields = found.fields if with_fields else None
            coins = rng.random(R)
            # the block holds rows of both orders, or of one
            coins = {"mixed": coins, "even-first": coins / 2, "odd-first": 0.5 + coins / 2}[orders]
            even_first = coins < 0.5
            assert {"mixed": even_first.any() and not even_first.all(),
                    "even-first": even_first.all(), "odd-first": not even_first.any()}[orders]
            U = rng.uniform(-1.0, 1.0, (R, s.total))
            U_post = rng.uniform(-1.0, 1.0, (R, s.n_h1 + s.n_h2))
            joint = gibbs_sweep_joint_rows(params, found.V, found.H1, found.H2,
                                           Replay(coins, U), fields=fields)
            post = gibbs_sweep_posterior_rows(params, found.V, found.H1, found.H2,
                                              Replay(coins, U_post))
            for r in range(R):
                x = JointState(found.V[r], found.H1[r], found.H2[r])
                one = gibbs_sweep_joint(params, x, Replay(coins[r:r + 1], U[r:r + 1]),
                                        fields=None if fields is None
                                        else tuple(a[r] for a in fields))
                assert _same_state(JointState(*(a[r] for a in joint)), one)
                h = gibbs_sweep_posterior(params, x.v, HiddenState(x.h1, x.h2),
                                          Replay(coins[r:r + 1], U_post[r:r + 1]))
                assert _same_state(HiddenState(*(a[r] for a in post)), h)


def _run_of(runs: RowRuns, r: int, sizes) -> CoupledRun:
    """Run r of a block of runs as a one-state CoupledRun of JointStates.

    sizes = (n_v, n_h1) splits each row; n_v = 0 for posterior runs, whose
    states then carry an empty v.
    """
    xs, ys = [runs.x0[r]], []
    for rows, X, Y in runs.steps:
        at = np.flatnonzero(rows == r)
        if at.size:
            xs.append(X[at[0]])
            ys.append(Y[at[0]])
    split = np.cumsum(sizes[:2])
    return CoupledRun([JointState(*np.split(a, split)) for a in xs],
                      [JointState(*np.split(a, split)) for a in ys], int(runs.tau[r]))


class TestMhRows:
    def test_one_row_is_the_one_state_coupling(self):
        for i, params in enumerate(_models()):
            s = params.shape
            x = JointState(*(uniform_spins(n, np.random.default_rng(i)) for n in
                             (s.n_v, s.n_h1, s.n_h2)))
            for tau_max in (1, 3, 10_000):
                one = mh_couple_joint(params, x, tau_max, np.random.default_rng(300 + i))
                runs = mh_couple_joint_rows(params, x.concat()[None], tau_max,
                                            np.random.default_rng(300 + i))
                assert (runs.tau[0], runs.truncated[0]) == (one.tau, one.truncated)
                assert len(runs.steps) == one.tau
                for (_, X, Y), a, b in zip(runs.steps, one.x_states[1:], one.y_states):
                    assert np.array_equal(X[0], a.concat()) and np.array_equal(Y[0], b.concat())
                h = HiddenState(x.h1, x.h2)
                one = mh_couple_posterior(params, x.v, h, tau_max,
                                          np.random.default_rng(400 + i))
                runs = mh_couple_posterior_rows(params, x.v[None], h.concat()[None], tau_max,
                                                np.random.default_rng(400 + i))
                assert (runs.tau[0], runs.truncated[0]) == (one.tau, one.truncated)

    def test_runs_meet_when_their_chains_meet(self):
        params = random_params(DbmShape(3, 3, 2), seed=8)
        s = params.shape
        rng = np.random.default_rng(9)
        runs = mh_couple_joint_rows(params, uniform_spins((500, s.total), rng), 10_000, rng)
        assert not runs.truncated.any() and (runs.tau > 1).any()
        assert len(runs.steps) == runs.tau.max()
        for t, (rows, X, Y) in enumerate(runs.steps, start=1):
            assert np.array_equal(rows, np.flatnonzero(runs.tau >= t))
            met = (X == Y).all(axis=1)
            assert np.array_equal(met, runs.tau[rows] == t)

    def test_telescope_rows_match_telescope_terms(self):
        for i, params in enumerate(_models()):
            s = params.shape
            rng = np.random.default_rng(500 + i)
            X0 = uniform_spins((R, s.total), rng)
            runs = mh_couple_joint_rows(params, X0, 10_000, rng)
            states, coefs, owners = telescope_rows(runs)
            # the rows come in run order: the batch gradient sums them in this order
            assert np.all(np.diff(owners) >= 0)
            assert (runs.tau == 1).any() and (runs.tau > 1).any()
            for r in range(R):
                run = _run_of(runs, r, (s.n_v, s.n_h1))
                if run.tau == 1:  # its start alone, at coefficient 1
                    assert np.array_equal(states[owners == r], X0[r][None])
                    assert np.array_equal(coefs[owners == r], [1.0])
                assert run.has_trajectory and run.x_states[-1].equals(run.y_states[-1])
                expected = {x.concat().tobytes(): c for x, c in telescope_terms(run)}
                mine = owners == r
                assert coefs[mine].sum() == 1.0
                assert {a.tobytes(): c for a, c in zip(states[mine], coefs[mine])} == expected

    def test_zero_uniform_accepts_without_warning(self):
        # log 0 = -inf is below every energy difference, so u = 0 accepts even
        # a proposal that the smallest positive uniform rejects, and taking
        # that log raises no RuntimeWarning
        params = random_params(DbmShape(3, 3, 2), seed=8, scale=50.0)
        table = spin_table(params.shape.total)
        E = energy_vhh(params, table[:, :3], table[:, 3:6], table[:, 6:])
        best, worst = table[E.argmin()], table[E.argmax()]
        tiny = 5e-324  # the smallest positive double
        assert E.min() - E.max() < np.log(tiny)
        X0 = np.stack([best, best])
        proposal = np.where(np.stack([worst, worst]) > 0, 0.25, 0.75)  # uniform_spins' draw
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            runs = mh_couple_joint_rows(params, X0, 1, Replay(proposal, np.array([0.0, tiny])))
        _, X, _ = runs.steps[0]
        assert np.array_equal(X[0], worst) and np.array_equal(X[1], best)

    def test_telescope_rows_need_trajectories(self):
        # as telescope_terms does, whether or not every run met at tau = 1
        params = random_params(DbmShape(3, 3, 2), seed=8)
        rng = np.random.default_rng(12)
        runs = _mh_chains(params, uniform_spins((4, 8), rng), 10_000, rng, keep_states=False)
        assert runs.steps == [] and not runs.truncated.any()
        with pytest.raises(ValueError, match="keep_states"):
            telescope_rows(runs)
        with pytest.raises(ValueError, match="keep_states"):
            telescope_rows(RowRuns(runs.x0, np.ones(4, dtype=np.int64), runs.truncated, []))

    def test_truncated_rows_raise(self):
        params = random_params(DbmShape(3, 3, 2), seed=8)
        rng = np.random.default_rng(10)
        runs = mh_couple_joint_rows(params, uniform_spins((200, 8), rng), 1, rng)
        cut = np.count_nonzero(runs.truncated)
        assert cut
        with pytest.raises(CouplingTruncatedError, match=f"^{cut} of 200 coupled runs .* "
                           "within tau_max = 1 steps.*; raise tau_max$"):
            telescope_rows(runs)

    @pytest.mark.parametrize("kind", ["joint", "posterior"])
    def test_each_row_is_its_one_state_coupling(self, kind):
        # every run draws its own proposal and uniform per step and leaves at
        # its own tau; the runs still going at step t draw in row order
        T = 40
        for i, params in enumerate(_models()):
            s = params.shape
            rng = np.random.default_rng(600 + i)
            V = uniform_spins((R, s.n_v), rng)
            n = s.total if kind == "joint" else s.n_h1 + s.n_h2
            X0 = uniform_spins((R, n), rng)
            P, u = rng.random((R, T, n)), rng.random((R, T))
            ones = []
            for r in range(R):
                replay = Replay(*(d for t in range(T) for d in (P[r, t:t + 1], u[r, t:t + 1])))
                if kind == "joint":
                    x0 = JointState(*np.split(X0[r], np.cumsum([s.n_v, s.n_h1])))
                    ones.append(mh_couple_joint(params, x0, T, replay))
                else:
                    h0 = HiddenState(*np.split(X0[r], [s.n_h1]))
                    ones.append(mh_couple_posterior(params, V[r], h0, T, replay))
            taus = np.array([one.tau for one in ones])
            draws = []
            for t in range(T):
                going = taus > t
                draws += [P[going, t], u[going, t]]
            if kind == "joint":
                runs = mh_couple_joint_rows(params, X0, T, Replay(*draws))
            else:
                runs = mh_couple_posterior_rows(params, V, X0, T, Replay(*draws),
                                                c=v_share(params, V))
            assert np.array_equal(runs.tau, taus)
            assert [bool(t) for t in runs.truncated] == [one.truncated for one in ones]
            assert (taus > 1).any()
            for r, one in enumerate(ones):
                xs = [X[np.flatnonzero(rows == r)[0]] for rows, X, _ in runs.steps if r in rows]
                assert len(xs) == one.tau
                assert all(np.array_equal(a, b.concat()) for a, b in zip(xs, one.x_states[1:]))


def _lockstep(params, X0, n_steps, rng, V=None, c=None, stop_at_meeting=True):
    """The reference MH loop, one step per draw: (tau, truncated, steps).

    Each step draws its runs' proposal rows, then their uniforms, from rng,
    scores them with one energy product over the runs still going, and tests
    acceptance and meeting, as coupling._mh_chains did before it drew
    windows of steps.
    """
    joint = V is None
    n_v = params.W1.shape[0] if joint else 0
    if not joint and c is None:
        c = v_share(params, V)
    n_vh = n_v + params.W1.shape[1]
    tau = np.full(len(X0), n_steps, dtype=np.int64)
    rows = np.arange(len(X0))
    X = Y = X0
    E_x = E_y = energy_vhh(params, X0[:, :n_v] if joint else V, X0[:, n_v:n_vh],
                           X0[:, n_vh:], c)
    steps = []
    for t in range(n_steps):
        P = np.where(rng.random(X.shape) < 0.5, 1.0, -1.0)
        E_p = energy_vhh(params, P[:, :n_v] if joint else V, P[:, n_v:n_vh], P[:, n_vh:], c)
        with np.errstate(divide="ignore"):
            log_u = np.log(rng.random(len(rows)))
        move = log_u < E_x - E_p
        X, E_x = np.where(move[:, None], P, X), np.where(move, E_p, E_x)
        if t:
            move = log_u < E_y - E_p
            Y, E_y = np.where(move[:, None], P, Y), np.where(move, E_p, E_y)
        steps.append((rows, X, Y))
        if stop_at_meeting:
            met = (X == Y).all(axis=1)
            tau[rows[met]] = t + 1
            if met.all():
                rows = rows[:0]
                break
            go = ~met
            rows, X, Y, E_x, E_y = rows[go], X[go], Y[go], E_x[go], E_y[go]
            if not joint:
                V, c = V[go], c[go]
    truncated = np.zeros(len(X0), dtype=bool)
    truncated[rows] = stop_at_meeting
    return tau, truncated, steps


def _mode_starts(params, n, seed, V=None):
    """n search-plus-sweep starts, as the estimator's stages make them."""
    rng = np.random.default_rng(seed)
    if V is None:
        found = local_search_joint_rows(params, n, rng)
        return np.hstack(gibbs_sweep_joint_rows(params, found.V, found.H1, found.H2, rng,
                                                fields=found.fields))
    found = local_search_posterior_rows(params, V, rng)
    return np.hstack(gibbs_sweep_posterior_rows(params, V, found.H1, found.H2, rng))


class TestMhWindows:
    """On one Generator, _mh_chains draws runs of lockstep steps as windows;
    every result, and the generator's state after, is the step-at-a-time loop's."""

    @staticmethod
    def _check(params, X0, n_steps, seed, V=None, c=None, stop_at_meeting=True):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        runs = _mh_chains(params, X0, n_steps, rng, V, c, stop_at_meeting)
        tau, truncated, steps = _lockstep(params, X0, n_steps, ref, V, c, stop_at_meeting)
        assert np.array_equal(runs.tau, tau)
        assert np.array_equal(runs.truncated, truncated)
        assert len(runs.steps) == len(steps)
        for mine, theirs in zip(runs.steps, steps):
            assert all(np.array_equal(a, b) for a, b in zip(mine, theirs))
        assert rng.bit_generator.state == ref.bit_generator.state
        return runs

    @pytest.mark.parametrize("kind", ["joint", "posterior"])
    def test_check_model_blocks_with_long_tails(self, kind):
        params, v = default_check_model()
        V = np.tile(v, (1024, 1))
        for seed in range(3):
            if kind == "joint":
                runs = self._check(params, _mode_starts(params, 1024, seed), 10_000, 50 + seed)
            else:
                runs = self._check(params, _mode_starts(params, 1024, seed, V), 10_000,
                                   50 + seed, V, v_share(params, V))
            # a long tail (windows up to the cap) and many meeting steps (windows cut)
            assert runs.tau.max() > 40 and len(np.unique(runs.tau)) > 15
            assert not runs.truncated.any()

    @pytest.mark.parametrize("kind", ["joint", "posterior"])
    def test_model_without_h2(self, kind):
        params = random_params(DbmShape(6, 5, 0), seed=12, scale=0.3)
        V = uniform_spins((200, 6), np.random.default_rng(13))
        X0 = uniform_spins((200, 11 if kind == "joint" else 5), np.random.default_rng(14))
        runs = self._check(params, X0, 10_000, 15, None if kind == "joint" else V)
        assert runs.tau.max() > 8

    @pytest.mark.parametrize("tau_max", [5, 50, 77])
    def test_tau_max_inside_a_window(self, tau_max):
        params, _ = default_check_model()
        runs = self._check(params, _mode_starts(params, 1024, 3), tau_max, 16)
        assert runs.truncated.any() and len(runs.steps) == tau_max

    @pytest.mark.parametrize("n", [0, 1])
    def test_zero_and_one_row(self, n):
        params, v = default_check_model()
        V = np.tile(v, (n, 1))
        taus = []
        for seed in range(40):
            taus.append(self._check(params, _mode_starts(params, n, seed), 10_000, seed).tau)
            self._check(params, _mode_starts(params, n, seed, V), 10_000, seed, V)
        assert len(taus[0]) == n
        assert n == 0 or np.concatenate(taus).max() > 4

    @pytest.mark.parametrize("n_steps", [1, 7, 70])
    def test_without_stopping_at_meetings(self, n_steps):
        params, _ = default_check_model()
        runs = self._check(params, _mode_starts(params, 7, 17), n_steps, 18,
                           stop_at_meeting=False)
        assert len(runs.steps) == n_steps and not runs.truncated.any()


EMPTY_BLOCK = ["search joint", "search posterior", "search clamped", "sweep joint",
               "sweep posterior", "mh joint", "mh posterior", "example block",
               "sample mh_steps=0", "sample mh_steps=2"]


class TestEmptyBlocks:
    @pytest.mark.parametrize("entry", EMPTY_BLOCK)
    def test_empty_block_gives_empty_rows_and_draws_nothing(self, entry):
        params = random_params(DbmShape(6, 5, 3), seed=8)
        s = params.shape
        V, H1, H2 = np.empty((0, s.n_v)), np.empty((0, s.n_h1)), np.empty((0, s.n_h2))
        rng = np.random.default_rng(11)
        before = rng.bit_generator.state
        if entry.startswith("search"):
            if entry == "search joint":
                found = local_search_joint_rows(params, 0, rng)
                assert [a.shape for a in found.fields] == [(0, s.n_v), (0, s.n_h1), (0, s.n_h2)]
            elif entry == "search posterior":
                found = local_search_posterior_rows(params, V, rng)
            else:
                found = local_search_clamped_rows(params, V, np.arange(s.n_v) < 2, rng)
            assert entry == "search joint" or found.fields is None
            assert [a.shape for a in (found.V, found.H1, found.H2, found.steps)] == [
                (0, s.n_v), (0, s.n_h1), (0, s.n_h2), (0,)]
        elif entry == "sweep joint":
            out = gibbs_sweep_joint_rows(params, V, H1, H2, rng, fields=(V, H1, H2))
            assert [a.shape for a in out] == [(0, s.n_v), (0, s.n_h1), (0, s.n_h2)]
        elif entry == "sweep posterior":
            out = gibbs_sweep_posterior_rows(params, V, H1, H2, rng)
            assert [a.shape for a in out] == [(0, s.n_h1), (0, s.n_h2)]
        elif entry.startswith("mh"):
            if entry == "mh joint":
                runs = mh_couple_joint_rows(params, np.empty((0, s.total)), 10, rng)
            else:
                runs = mh_couple_posterior_rows(params, V, np.empty((0, s.n_h1 + s.n_h2)), 10,
                                                rng)
            assert runs.tau.shape == runs.truncated.shape == (0,)
            n = s.total if entry == "mh joint" else s.n_h1 + s.n_h2
            states, coefs, owners = telescope_rows(runs)
            assert (states.shape, coefs.shape, owners.shape) == ((0, n), (0,), (0,))
            assert coefs.dtype == np.float64
        elif entry == "example block":
            rows = _example_block(params, V, 10, rng)
            assert [a.shape for a in rows[:5]] == [(0, s.n_v), (0, s.n_h1), (0, s.n_h2), (0,),
                                                   (0,)]
            assert rows.w.dtype == np.float64
            assert (rows.n_pos, rows.n_draws) == (0, 0)
            assert rows.tau.shape == rows.steps.shape == (0, 2)
        else:
            assert sample(params, 0, int(entry[-1]), rng=rng) == []
        assert rng.bit_generator.state == before


STREAM_SHAPES = (DbmShape(3, 3, 2), DbmShape(10, 8, 6), DbmShape(6, 5, 0))


def _stream_models():
    """Weak Gaussian weights (many tau > 1 runs) and orthogonal ones, per shape."""
    for i, shape in enumerate(STREAM_SHAPES):
        yield random_params(shape, seed=80 + i, scale=0.3)
        yield init_params(shape, np.random.default_rng(90 + i))


def _gens(seed, n):
    """n spawned generators; each call gives fresh copies of the same streams."""
    return np.random.default_rng(seed).spawn(n)


def _same_streams_left(a, b):
    """Both lists of generators were advanced by the same number of draws."""
    return all(x.random() == y.random() for x, y in zip(a, b))


def _rows_of_run(runs: RowRuns, r: int):
    """Run r's x_1.., y_0.. rows of a block of runs, as arrays."""
    at = [(np.flatnonzero(rows == r), X, Y) for rows, X, Y in runs.steps]
    return ([X[i[0]] for i, X, _ in at if i.size], [Y[i[0]] for i, _, Y in at if i.size])


class TestRowStreams:
    @pytest.mark.parametrize("kind", ["joint", "posterior", "clamped"])
    def test_search_rows_on_their_own_generators(self, kind):
        for i, params in enumerate(_stream_models()):
            s = params.shape
            V = uniform_spins((R, s.n_v), np.random.default_rng(i))
            observed = np.arange(s.n_v) < s.n_v // 2
            gens = _gens(700 + i, R)
            if kind == "joint":
                block = local_search_joint_rows(params, R, gens)
            elif kind == "posterior":
                block = local_search_posterior_rows(params, V, gens)
            else:
                block = local_search_clamped_rows(params, V, observed, gens)
            ones = _gens(700 + i, R)
            for r, g in enumerate(ones):
                if kind == "joint":
                    one = local_search_joint(params, g)
                elif kind == "posterior":
                    one = local_search_posterior(params, V[r], g)
                else:
                    one = local_search_clamped(params, V[r], observed, g)
                x = one.state
                assert block.steps[r] == one.steps
                assert np.array_equal(block.H1[r], x.h1) and np.array_equal(block.H2[r], x.h2)
                assert np.array_equal(block.V[r], V[r] if kind == "posterior" else x.v)
            assert _same_streams_left(gens, ones)

    def test_drawn_stream_is_its_generator(self):
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        stream = DrawnStream(rng.random(40))
        assert stream.random() == ref.random()
        assert np.array_equal(stream.random((2, 3)), ref.random((2, 3)))
        assert np.array_equal(stream.random(()), ref.random(()))
        assert np.array_equal(stream.uniform(-1.0, 1.0, 7), ref.uniform(-1.0, 1.0, 7))
        assert np.array_equal(stream.uniform(-1.0, 1.0, (3, 5)), ref.uniform(-1.0, 1.0, (3, 5)))
        assert stream.random(0).shape == (0,)
        assert stream.left == 40 - 30
        assert np.array_equal(stream.random(10), ref.random(10))
        with pytest.raises(RuntimeError):
            stream.random()

    @pytest.mark.parametrize("with_fields", [False, True])
    def test_sweep_rows_on_their_own_generators(self, with_fields):
        for i, params in enumerate(_stream_models()):
            found = local_search_joint_rows(params, R, np.random.default_rng(i))
            fields = found.fields if with_fields else None
            gens, post_gens = _gens(800 + i, R), _gens(900 + i, R)
            joint = gibbs_sweep_joint_rows(params, found.V, found.H1, found.H2, gens,
                                           fields=fields)
            post = gibbs_sweep_posterior_rows(params, found.V, found.H1, found.H2, post_gens)
            ones, post_ones = _gens(800 + i, R), _gens(900 + i, R)
            for r in range(R):
                x = JointState(found.V[r], found.H1[r], found.H2[r])
                one = gibbs_sweep_joint(params, x, ones[r], fields=None if fields is None
                                        else tuple(a[r] for a in fields))
                assert _same_state(JointState(*(a[r] for a in joint)), one)
                h = gibbs_sweep_posterior(params, x.v, HiddenState(x.h1, x.h2), post_ones[r])
                assert _same_state(HiddenState(*(a[r] for a in post)), h)
            assert _same_streams_left(gens, ones) and _same_streams_left(post_gens, post_ones)

    @pytest.mark.parametrize("kind", ["joint", "posterior"])
    @pytest.mark.parametrize("tau_max", [3, 10_000])
    def test_mh_rows_on_their_own_generators(self, kind, tau_max):
        long_runs = 0
        for i, params in enumerate(_stream_models()):
            s = params.shape
            rng = np.random.default_rng(i)
            V = uniform_spins((R, s.n_v), rng)
            X0 = uniform_spins((R, s.total if kind == "joint" else s.n_h1 + s.n_h2), rng)
            gens = _gens(1000 + i, R)
            if kind == "joint":
                runs = mh_couple_joint_rows(params, X0, tau_max, gens)
            else:
                runs = mh_couple_posterior_rows(params, V, X0, tau_max, gens)
            ones = _gens(1000 + i, R)
            for r, g in enumerate(ones):
                if kind == "joint":
                    one = mh_couple_joint(params, JointState(*np.split(
                        X0[r], np.cumsum([s.n_v, s.n_h1]))), tau_max, g)
                else:
                    one = mh_couple_posterior(params, V[r], HiddenState(*np.split(
                        X0[r], [s.n_h1])), tau_max, g)
                assert (runs.tau[r], runs.truncated[r]) == (one.tau, one.truncated)
                xs, ys = _rows_of_run(runs, r)
                assert len(xs) == len(ys) == one.tau
                assert all(np.array_equal(a, b.concat()) for a, b in zip(xs, one.x_states[1:]))
                assert all(np.array_equal(a, b.concat()) for a, b in zip(ys, one.y_states))
            assert _same_streams_left(gens, ones)
            long_runs += np.count_nonzero(runs.tau > 1)
        assert long_runs > 0

    @pytest.mark.parametrize("tau_max", [2, 10_000])
    def test_stages_at_one_row_are_the_one_state_chain(self, tau_max):
        # the positive and the negative stage at R = 1 draw what the public
        # one-state search, sweep and MH coupling draw on the same generator
        seen = {"long": 0, "cut": 0}
        for i, params in enumerate(_stream_models()):
            for k, v in enumerate(uniform_spins((R, params.shape.n_v),
                                                np.random.default_rng(i))):
                stage, ref = (np.random.default_rng([1300 + i, k]) for _ in range(2))
                V = v[None]
                for (runs, steps), (run, ref_steps) in (
                        (_positive_rows(params, V, tau_max, stage),
                         posterior_chain(params, v, tau_max, ref)),
                        (_negative_rows(params, 1, tau_max, stage),
                         joint_chain(params, tau_max, ref))):
                    assert steps[0] == ref_steps
                    assert (runs.tau[0], runs.truncated[0]) == (run.tau, run.truncated)
                    assert np.array_equal(runs.x0[0], run.x_states[0].concat())
                    xs, ys = _rows_of_run(runs, 0)
                    assert len(xs) == len(run.x_states) - 1 and len(ys) == len(run.y_states)
                    assert all(np.array_equal(a, b.concat()) for a, b in zip(xs, run.x_states[1:]))
                    assert all(np.array_equal(a, b.concat()) for a, b in zip(ys, run.y_states))
                    seen["long"] += run.tau > 1
                    seen["cut"] += run.truncated
                assert stage.random() == ref.random()  # the same draws, and no more
        assert seen["long"] > 0
        if tau_max == 2:
            assert seen["cut"] > 0

    @pytest.mark.parametrize("tau_max", [2, 10_000])
    def test_example_block_on_its_own_generators(self, tau_max):
        # each row draws what the positive, then the negative stage draw at
        # R = 1 on its generator. A truncated run raises: a positive one before
        # the negative stage draws a number, a negative one after it. The blocks
        # are all rows, the rows whose positive run meets, and the rows whose
        # runs both meet
        seen = {"long": 0, "pos_cut": 0, "neg_cut": 0}
        for i, params in enumerate(_stream_models()):
            s = params.shape
            V = uniform_spins((R, s.n_v), np.random.default_rng(i))
            after_pos, after_both = _gens(1100 + i, R), _gens(1100 + i, R)
            stages = []
            for r in range(R):
                _positive_rows(params, V[r:r + 1], tau_max, after_pos[r])
                stages.append((_positive_rows(params, V[r:r + 1], tau_max, after_both[r]),
                               _negative_rows(params, 1, tau_max, after_both[r])))
            pos_cut = np.array([prun.truncated[0] for (prun, _), _ in stages])
            neg_cut = np.array([nrun.truncated[0] for _, (nrun, _) in stages])
            blocks = {tuple(np.flatnonzero(keep)) for keep in (
                np.ones(R, dtype=bool), ~pos_cut, ~pos_cut & ~neg_cut)}
            for rows in map(list, blocks):
                every = _gens(1100 + i, R)
                gens = [every[r] for r in rows]
                if pos_cut[rows].any() or neg_cut[rows].any():
                    with pytest.raises(CouplingTruncatedError, match="raise tau_max"):
                        _example_block(params, V[rows], tau_max, gens)
                    cut = "pos_cut" if pos_cut[rows].any() else "neg_cut"
                    seen[cut] += 1
                    drawn = after_pos if cut == "pos_cut" else after_both
                    # the same draws, and no more
                    assert all(g.bit_generator.state == drawn[r].bit_generator.state
                               for g, r in zip(gens, rows))
                    continue
                block = _example_block(params, V[rows], tau_max, gens)
                states = np.hstack([block.V, block.H1, block.H2])
                for k, r in enumerate(rows):
                    (prun, t_p), (nrun, t_n) = stages[r]
                    assert (block.tau[k, 0], block.steps[k, 0]) == (prun.tau[0], t_p[0])
                    assert (block.tau[k, 1], block.steps[k, 1]) == (nrun.tau[0], t_n[0])
                    seen["long"] += (prun.tau[0] > 1) + (nrun.tau[0] > 1)
                    mine = block.owner == k
                    pos = mine & (np.arange(len(mine)) < block.n_pos)
                    terms = ((pos, V[r], _run_of(prun, 0, (0, s.n_h1)), -1.0),
                             (mine & ~pos, V[r, :0], _run_of(nrun, 0, params.sizes), 1.0))
                    for sel, v, run, sign in terms:
                        want = {np.concatenate([v, x.concat()]).tobytes(): sign * c
                                for x, c in telescope_terms(run)}
                        assert dict(zip((a.tobytes() for a in states[sel]), block.w[sel])) == want
                assert all(g.bit_generator.state == after_both[r].bit_generator.state
                           for g, r in zip(gens, rows))
                assert np.all(np.diff(block.owner[:block.n_pos]) >= 0)  # example order
                assert np.all(np.diff(block.owner[block.n_pos:]) >= 0)
        assert seen["long"] > 0
        if tau_max == 2:
            assert seen["pos_cut"] > 0 and seen["neg_cut"] > 0
