import numpy as np
import pytest

from spindbm import (CoupledRun, CouplingTruncatedError, DbmParams, DbmShape,
                     DimensionError, HiddenState, JointState, coupling_time_stats, energy,
                     gibbs_couple_joint, mh_couple_joint,
                     mh_couple_posterior, mh_coupled_trajectory, mh_step,
                     telescope_estimate, uniform_spins)
from spindbm.coupling import _mh_chains
from spindbm.model import grad_energy_vhh
from spindbm.oracle import spin_table, state_index
from spindbm.search import gibbs_sweep_joint, local_search_joint
from spindbm.training import init_params

from conftest import random_params, state_counts


def random_state(shape, rng):
    return JointState(uniform_spins(shape.n_v, rng), uniform_spins(shape.n_h1, rng),
                      uniform_spins(shape.n_h2, rng))


def deep_mode_params(shape, strength=30.0):
    """Bias-only model with one overwhelmingly dominant configuration."""
    p = DbmParams.zeros(shape)
    p.b_v[:] = strength
    p.b_h1[:] = strength
    p.b_h2[:] = strength
    return p


class TestMhCoupleJoint:
    def test_zero_params_tau_one_or_two(self, rng):
        params = DbmParams.zeros(DbmShape(2, 2, 1))
        for _ in range(200):
            x0 = random_state(params.shape, rng)
            run = mh_couple_joint(params, x0, 100, rng)
            # all energies equal: both chains accept every shared proposal
            assert run.tau in (1, 2)
            if run.tau == 1:
                assert run.x_states[1].equals(run.x_states[0])

    def test_deep_mode_rejects_first_proposal(self, rng):
        params = deep_mode_params(DbmShape(3, 3, 2))
        mode = JointState(np.ones(3), np.ones(3), np.ones(2))
        taus = [mh_couple_joint(params, mode, 100, rng).tau for _ in range(200)]
        assert np.mean(np.array(taus) == 1) > 0.99

    def test_invariants_of_run(self, rng):
        params = random_params(DbmShape(3, 3, 2), seed=4)
        for _ in range(100):
            x0 = random_state(params.shape, rng)
            run = mh_couple_joint(params, x0, 10_000, rng)
            assert not run.truncated
            assert len(run.x_states) == run.tau + 1
            assert len(run.y_states) == run.tau
            assert run.x_states[0].equals(run.y_states[0])          # shared start
            assert run.x_states[run.tau].equals(run.y_states[run.tau - 1])

    def test_truncation_flag(self, rng):
        params = deep_mode_params(DbmShape(3, 3, 2))
        # start the chains apart is impossible by construction, so force a
        # truncation with a state that almost surely accepts its first move
        far = JointState(-np.ones(3), -np.ones(3), -np.ones(2))
        run = mh_couple_joint(params, far, 1, rng)
        # either it met at t=1 (first proposal rejected by both) or truncated
        assert run.tau == 1
        if run.truncated:
            assert not run.x_states[-1].equals(run.y_states[-1])

    def test_determinism(self):
        params = random_params(DbmShape(3, 3, 2), seed=4)
        x0 = random_state(params.shape, np.random.default_rng(5))
        r1 = mh_couple_joint(params, x0, 1000, np.random.default_rng(9))
        r2 = mh_couple_joint(params, x0, 1000, np.random.default_rng(9))
        assert r1.tau == r2.tau
        for a, b in zip(r1.x_states, r2.x_states):
            assert a.equals(b)

    def test_local_mode_start_at_high_dimension(self, rng):
        # orthogonal-init model at d = 200: mode-initialized couplings meet at once
        params = init_params(DbmShape(200, 200, 0), np.random.default_rng(0))
        hits = 0
        n = 100
        for _ in range(n):
            sr = local_search_joint(params, rng)
            x0 = gibbs_sweep_joint(params, sr.state, rng)
            run = mh_couple_joint(params, x0, 1000, rng, keep_states=False)
            hits += int(run.tau == 1)
        assert hits >= 0.95 * n


class TestMhCouplePosterior:
    def test_zero_params_tau_one_or_two(self, rng):
        params = DbmParams.zeros(DbmShape(2, 2, 1))
        v = np.array([1.0, -1.0])
        for _ in range(100):
            h0 = HiddenState(uniform_spins(2, rng), uniform_spins(1, rng))
            run = mh_couple_posterior(params, v, h0, 100, rng)
            assert run.tau in (1, 2)

    def test_dominant_posterior_mode(self, rng):
        params = deep_mode_params(DbmShape(3, 3, 2))
        v = np.ones(3)
        h0 = HiddenState(np.ones(3), np.ones(2))
        taus = [mh_couple_posterior(params, v, h0, 100, rng).tau for _ in range(200)]
        assert np.mean(np.array(taus) == 1) > 0.99

    def test_posterior_energy_uses_clamped_v(self, rng):
        # the acceptance must depend on v: under v = +1 the all-plus hidden
        # state is a deep isolated mode (tau = 1 always); under v = -1 the
        # same start sits 50 energy units above the mode, so the first
        # proposal to hit the mode is accepted by both chains and tau > 1
        params = DbmParams.zeros(DbmShape(1, 1, 1))
        params.W1[:] = 25.0
        params.W2[:] = 25.0
        aligned = HiddenState(np.ones(1), np.ones(1))
        taus_plus = [mh_couple_posterior(params, np.array([1.0]), aligned, 100, rng).tau
                     for _ in range(100)]
        taus_minus = [mh_couple_posterior(params, np.array([-1.0]), aligned, 100, rng).tau
                      for _ in range(100)]
        assert all(t == 1 for t in taus_plus)
        # from the uphill start, tau = 1 needs the solo step to stay put,
        # which happens with probability 1/2 here
        assert np.mean(np.array(taus_minus) > 1) > 0.3


class TestFaithfulness:
    def test_marginal_laws_agree(self, rng):
        # empirical laws of x_t and y_t match for t = 1, 2, 3
        params = random_params(DbmShape(3, 3, 2), seed=11)
        n = 20_000
        counts_x = np.zeros((4, 2 ** 8))
        counts_y = np.zeros((4, 2 ** 8))
        for _ in range(n):
            sr = local_search_joint(params, rng)
            x0 = gibbs_sweep_joint(params, sr.state, rng)
            xs, ys = mh_coupled_trajectory(params, x0, 4, rng)
            for t in (1, 2, 3):
                counts_x[t, state_index(xs[t].concat())] += 1
                counts_y[t, state_index(ys[t].concat())] += 1
        for t in (1, 2, 3):
            tv = 0.5 * np.abs(counts_x[t] - counts_y[t]).sum() / n
            assert tv < 0.05

    def test_once_met_always_met(self, rng):
        params = random_params(DbmShape(3, 3, 2), seed=2)
        for _ in range(50):
            x0 = random_state(params.shape, rng)
            xs, ys = mh_coupled_trajectory(params, x0, 30, rng)
            assert (len(xs), len(ys)) == (31, 30)  # exactly n_steps steps
            met = None
            for t in range(1, 30):
                if xs[t].equals(ys[t - 1]):
                    met = t
                    break
            if met is None:
                continue
            for t in range(met, 30):
                assert xs[t].equals(ys[t - 1])

    @pytest.mark.parametrize("n_steps", [0, -3])
    def test_trajectory_rejects_nonpositive_steps(self, n_steps, rng):
        params = random_params(DbmShape(3, 3, 2), seed=2)
        with pytest.raises(ValueError):
            mh_coupled_trajectory(params, random_state(params.shape, rng), n_steps, rng)


class TestGibbsCoupling:
    def test_zero_params_meets_after_one_coupled_sweep(self, rng):
        # equal conditionals plus shared uniforms merge every coordinate at
        # the first coupled sweep, so tau = 2 (tau = 1 only if the solo sweep
        # happens to reproduce the start)
        params = DbmParams.zeros(DbmShape(2, 2, 1))
        for _ in range(100):
            run = gibbs_couple_joint(params, random_state(params.shape, rng), 100, rng)
            assert run.tau in (1, 2)

    def test_run_invariants_and_merge(self, rng):
        params = random_params(DbmShape(3, 3, 2), seed=6, scale=0.5)
        for _ in range(30):
            run = gibbs_couple_joint(params, random_state(params.shape, rng), 100_000, rng)
            assert not run.truncated
            assert run.x_states[0].equals(run.y_states[0])
            assert run.x_states[run.tau].equals(run.y_states[run.tau - 1])

    def test_coupling_time_grows_with_dimension(self, rng):
        means = []
        for d in (8, 48):
            taus = []
            for seed in range(15):
                params = init_params(DbmShape(d, d, 0), np.random.default_rng(seed))
                run = gibbs_couple_joint(params, random_state(params.shape, rng),
                                         200_000, rng, keep_states=False)
                taus.append(run.tau)
            means.append(np.mean(taus))
        assert means[1] > 3.0 * means[0]

    def test_keep_states_false_stores_no_trajectory(self, rng):
        params = random_params(DbmShape(3, 3, 2), seed=6, scale=0.5)
        run = gibbs_couple_joint(params, random_state(params.shape, rng), 100_000,
                                 rng, keep_states=False)
        assert not run.has_trajectory
        with pytest.raises(ValueError):
            telescope_estimate(run, lambda s: grad_energy_vhh(s.v, s.h1, s.h2))


class TestTelescope:
    def _grad(self, params):
        return lambda s: grad_energy_vhh(s.v, s.h1, s.h2)

    def test_tau_one_is_first_state(self, rng):
        params = random_params(DbmShape(2, 2, 1), seed=1)
        x0 = random_state(params.shape, rng)
        run = CoupledRun([x0, x0], [x0], tau=1)
        g = telescope_estimate(run, self._grad(params))
        np.testing.assert_array_equal(g.vec, self._grad(params)(x0).vec)

    def test_tau_two_adds_one_difference(self, rng):
        params = random_params(DbmShape(2, 2, 1), seed=1)
        x0, x1 = random_state(params.shape, rng), random_state(params.shape, rng)
        x2 = x1.copy()
        run = CoupledRun([x0, x1, x2], [x0, x2], tau=2)
        g = telescope_estimate(run, self._grad(params))
        fn = self._grad(params)
        want = fn(x0).vec + fn(x1).vec - fn(x0).vec
        np.testing.assert_allclose(g.vec, want, atol=1e-14)

    def test_truncated_run_raises(self, rng):
        params = random_params(DbmShape(2, 2, 1), seed=1)
        x0 = random_state(params.shape, rng)
        run = CoupledRun([x0, x0], [x0], tau=1, truncated=True)
        with pytest.raises(CouplingTruncatedError):
            telescope_estimate(run, self._grad(params))

    def test_matches_naive_sum_on_real_runs(self, rng):
        # the coefficient-aggregated evaluation equals the literal telescope
        params = random_params(DbmShape(3, 3, 2), seed=8)
        fn = self._grad(params)
        for _ in range(100):
            run = mh_couple_joint(params, random_state(params.shape, rng), 10_000, rng)
            naive = fn(run.x_states[0]).copy()
            for t in range(1, run.tau):
                naive.add_scaled(fn(run.x_states[t]), 1.0)
                naive.add_scaled(fn(run.y_states[t - 1]), -1.0)
            np.testing.assert_allclose(telescope_estimate(run, fn).vec, naive.vec,
                                       atol=1e-9)


class TestMhStep:
    def test_stationarity_empirically(self, rng):
        # single-chain kernel preserves the exact distribution: move n exact
        # samples one step as one block, the move sample makes, and compare
        # against the exact law
        from spindbm import enumerate_joint
        params = random_params(DbmShape(2, 2, 1), seed=3)
        dist = enumerate_joint(params)
        n = 200_000
        idx = rng.choice(len(dist.probabilities), size=n, p=dist.probabilities)
        X = spin_table(params.shape.total)[idx]
        Y = _mh_chains(params, X, 1, rng, stop_at_meeting=False).steps[0][1]
        tv = 0.5 * np.abs(state_counts(Y) / n - dist.probabilities).sum()
        assert tv < 0.02

    def test_rejects_nonspin_state(self, rng):
        # the same validation as mh_couple_joint
        params = random_params(DbmShape(2, 2, 1), seed=3)
        bad = JointState(np.array([1.0, 0.0]), np.ones(2), np.ones(1))
        with pytest.raises(ValueError):
            mh_couple_joint(params, bad, 10, rng)
        with pytest.raises(ValueError):
            mh_step(params, bad, rng)


class TestStartSizes:
    """Every MH coupler checks the start's block sizes against the model."""

    SHAPE = DbmShape(4, 3, 2)

    # (5, 3, 1) and (4, 2, 3) have the model's total length, so only the
    # check tells them apart from a valid start
    @pytest.mark.parametrize("sizes", [(5, 3, 1), (4, 2, 3), (3, 3, 2), (4, 4, 2), (4, 3, 1)],
                             ids=str)
    def test_joint_couplers_reject_mismatched_start(self, sizes, rng):
        params = random_params(self.SHAPE, seed=1)
        x0 = JointState(*(uniform_spins(n, rng) for n in sizes))
        with pytest.raises(DimensionError):
            mh_couple_joint(params, x0, 100, rng)
        with pytest.raises(DimensionError):
            mh_coupled_trajectory(params, x0, 3, rng)
        with pytest.raises(DimensionError):
            mh_step(params, x0, rng)

    @pytest.mark.parametrize("sizes", [(5, 3, 2), (3, 3, 2), (4, 2, 3), (4, 4, 1), (4, 3, 3)],
                             ids=str)
    def test_posterior_coupler_rejects_mismatched_v_or_start(self, sizes, rng):
        params = random_params(self.SHAPE, seed=1)
        v, h1, h2 = (uniform_spins(n, rng) for n in sizes)
        with pytest.raises(DimensionError):
            mh_couple_posterior(params, v, HiddenState(h1, h2), 100, rng)


class TestCouplingTimeStats:
    def test_singleton(self):
        s = coupling_time_stats([(3, 7)])
        assert s["tau"]["mean"] == 3 and s["tau"]["variance"] == 0
        assert s["total"]["mean"] == 10

    def test_known_small_list(self):
        s = coupling_time_stats([(1, 2), (3, 4), (5, 6)])
        assert s["tau"]["mean"] == pytest.approx(3.0)
        assert s["tau"]["variance"] == pytest.approx(8.0 / 3.0)
        assert s["T"]["median"] == 4.0
        assert s["total"]["mean"] == pytest.approx(7.0)

    def test_streaming_recomputation(self, rng):
        taus = rng.integers(1, 50, size=5000)
        ts = rng.integers(0, 20, size=5000)
        s = coupling_time_stats(list(zip(taus, ts)))
        # Welford-style streaming pass
        mean = 0.0
        m2 = 0.0
        for i, t in enumerate(taus, 1):
            d = t - mean
            mean += d / i
            m2 += d * (t - mean)
        assert s["tau"]["mean"] == pytest.approx(mean)
        assert s["tau"]["variance"] == pytest.approx(m2 / len(taus))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            coupling_time_stats([])
