"""The row-stacked chain engine: R independent states moved as (R, n) arrays.

Row r of a block must be what the one-state entry point computes from row
r's numbers, so most tests here replay one block's random numbers row by
row through the one-state functions (Replay stands in for the generator).
"""

import numpy as np
import pytest

from spindbm import (DbmShape, HiddenState, JointState, block_minimize_joint,
                     block_minimize_posterior, gibbs_sweep_joint, gibbs_sweep_posterior,
                     init_params, local_search_clamped, local_search_joint,
                     local_search_posterior, mh_couple_joint, mh_couple_posterior,
                     telescope_terms, uniform_spins)
from spindbm.coupling import (CoupledRun, CouplingTruncatedError, RowRuns,
                              mh_couple_joint_rows, mh_couple_posterior_rows,
                              telescope_rows)
from spindbm.model import v_field, v_share
from spindbm.search import (default_max_iterations, gibbs_sweep_joint_rows,
                            gibbs_sweep_posterior_rows, local_search_clamped_rows,
                            local_search_joint_rows, local_search_posterior_rows)

from conftest import random_params

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
    @pytest.mark.parametrize("kind", ["joint", "posterior", "clamped"])
    def test_each_row_is_its_one_state_search(self, kind):
        for i, params in enumerate(_models()):
            s = params.shape
            rng = np.random.default_rng(i)
            V = uniform_spins((R, s.n_v), rng)
            observed = np.arange(s.n_v) < s.n_v // 2
            draws = _search_draws(rng, params, kind != "posterior")
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


class TestSweepRows:
    @pytest.mark.parametrize("with_fields", [False, True])
    def test_each_row_is_its_one_state_sweep(self, with_fields):
        for i, params in enumerate(_models()):
            s = params.shape
            rng = np.random.default_rng(200 + i)
            found = local_search_joint_rows(params, R, rng)
            fields = found.fields if with_fields else None
            coins = rng.random(R)
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
    """Run r of a block of joint runs as a one-state CoupledRun."""
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
            for r in range(R):
                run = _run_of(runs, r, (s.n_v, s.n_h1))
                assert run.has_trajectory and run.x_states[-1].equals(run.y_states[-1])
                expected = {x.concat().tobytes(): c for x, c in telescope_terms(run)}
                mine = owners == r
                assert coefs[mine].sum() == 1.0
                assert {a.tobytes(): c for a, c in zip(states[mine], coefs[mine])} == expected

    def test_truncated_rows_raise(self):
        params = random_params(DbmShape(3, 3, 2), seed=8)
        rng = np.random.default_rng(10)
        runs = mh_couple_joint_rows(params, uniform_spins((200, 8), rng), 1, rng)
        assert runs.truncated.any()
        with pytest.raises(CouplingTruncatedError):
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
