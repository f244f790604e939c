import os

import numpy as np
import pytest

from spindbm import (DbmParams, DbmShape, DimensionError, GradEstimate, JointState,
                     NonFiniteUpdateError, StepMetrics, TrainConfig, complete, init_params,
                     init_persistent_chains, make_optimizer, mean_field_posterior,
                     negative_phase_estimate, pcd_step, positive_phase_estimate,
                     sample, train, train_step, unbiasedness_report)
from spindbm import oracle, training
from spindbm.coupling import CouplingTruncatedError, mh_step
from spindbm.model import grad_from_rows, uniform_spins
from spindbm.search import block_minimize_joint, gibbs_sweep_joint, local_search_joint
from spindbm.training import (LOG_COLUMNS, AdamOptimizer, SgdOptimizer, gradient_from_states,
                              logistic_draws, random_semi_orthogonal, rng_for)

from conftest import chain_states, joint_chain, posterior_chain, random_params


def nan_at_step_3(monkeypatch):
    """Make training.train_step report a NaN gradient norm on its third call."""
    real, calls = training.train_step, []

    def step(*args, **kwargs):
        new_params, metrics = real(*args, **kwargs)
        calls.append(None)
        if len(calls) == 3:
            metrics.grad_norm = float("nan")
        return new_params, metrics

    monkeypatch.setattr(training, "train_step", step)


class TestInitParams:
    def test_square_orthogonal(self):
        w = random_semi_orthogonal(6, 6, np.random.default_rng(0))
        assert np.max(np.abs(w.T @ w - np.eye(6))) < 1e-6
        assert np.max(np.abs(w @ w.T - np.eye(6))) < 1e-6

    def test_tall_matrix_orthonormal_columns(self):
        w = random_semi_orthogonal(9, 4, np.random.default_rng(1))
        assert np.max(np.abs(w.T @ w - np.eye(4))) < 1e-6

    def test_wide_matrix_orthonormal_rows(self):
        w = random_semi_orthogonal(3, 8, np.random.default_rng(2))
        assert np.max(np.abs(w @ w.T - np.eye(3))) < 1e-6

    def test_zero_width(self):
        assert random_semi_orthogonal(4, 0, np.random.default_rng(0)).shape == (4, 0)

    def test_bias_variance_matches_logistic(self):
        # Logistic(0, 0.5) has variance (pi^2 / 3) * 0.25 = pi^2 / 12
        draws = logistic_draws(1_000_000, np.random.default_rng(3))
        want = np.pi ** 2 / 12
        assert abs(draws.var() - want) / want < 0.02
        assert abs(draws.mean()) < 0.01

    def test_init_params_shapes_and_finiteness(self):
        p = init_params(DbmShape(5, 3, 2), np.random.default_rng(4))
        p.validate()
        assert p.W1.shape == (5, 3) and p.W2.shape == (3, 2)
        assert np.max(np.abs(p.W1.T @ p.W1 - np.eye(3))) < 1e-6


class TestPhaseEstimates:
    def test_zero_params_positive_phase_centered(self, rng):
        params = DbmParams.zeros(DbmShape(3, 3, 2))
        cfg = TrainConfig(shape=params.shape, estimator="plain")
        v = np.array([1.0, -1.0, 1.0])
        n = 4000
        acc = np.zeros(3 * 3)
        for _ in range(n):
            g, _, _ = positive_phase_estimate(params, v, cfg, rng)
            acc += g.dW1.ravel()
        se = 1.0 / np.sqrt(n)  # each entry of -v h1' is +-1
        assert np.max(np.abs(acc / n)) < 4 * se

    @pytest.mark.parametrize("estimator", ["plain", "marginalized"])
    def test_positive_phase_unbiased(self, ortho_params_332, estimator):
        params = ortho_params_332
        v = np.array([1.0, -1.0, 1.0])
        exact = oracle.exact_posterior_grad_energy(params, v).as_vector()
        cfg = TrainConfig(shape=params.shape, estimator=estimator)
        rng = rng_for(99, 1)
        n = 20_000
        acc = np.zeros_like(exact)
        acc2 = np.zeros_like(exact)
        for _ in range(n):
            g, _, _ = positive_phase_estimate(params, v, cfg, rng)
            acc += g.vec
            acc2 += g.vec ** 2
        mean = acc / n
        se = np.sqrt(np.maximum(acc2 / n - mean ** 2, 0) / n)
        ok = se > 0
        assert np.all(np.abs(mean[ok] - exact[ok]) <= 4.5 * se[ok])
        assert np.all(np.abs(mean[~ok] - exact[~ok]) < 1e-12)

    @pytest.mark.parametrize("estimator", ["plain", "marginalized"])
    def test_negative_phase_unbiased(self, ortho_params_332, estimator):
        params = ortho_params_332
        exact = oracle.exact_joint_grad_energy(params).as_vector()
        cfg = TrainConfig(shape=params.shape, estimator=estimator)
        rng = rng_for(99, 2)
        n = 20_000
        acc = np.zeros_like(exact)
        acc2 = np.zeros_like(exact)
        for _ in range(n):
            g, _, _ = negative_phase_estimate(params, cfg, rng)
            acc += g.vec
            acc2 += g.vec ** 2
        mean = acc / n
        se = np.sqrt(np.maximum(acc2 / n - mean ** 2, 0) / n)
        ok = se > 0
        assert np.all(np.abs(mean[ok] - exact[ok]) <= 4.5 * se[ok])

    def test_marginalized_variance_not_larger(self, ortho_params_332):
        # paired comparison on the same coupled runs, as training builds it:
        # each draw is a positive, then a negative stage at R = 1 on rng
        params = ortho_params_332
        v = np.array([1.0, -1.0, 1.0])
        rng = rng_for(99, 3)
        n = 10_000
        sums = {k: 0.0 for k in ("plain", "marg")}
        sqs = {k: 0.0 for k in ("plain", "marg")}
        for _ in range(n):
            rows = training._example_block(params, v[None], 10_000, rng)
            for key, est in (("plain", "plain"), ("marg", "marginalized")):
                g = training._draw_gradients(params, est, rows)[0]
                sums[key] = sums[key] + g
                sqs[key] = sqs[key] + g * g
        var = {k: sqs[k] / n - (sums[k] / n) ** 2 for k in sums}
        frac = np.mean(var["marg"] <= var["plain"] + 1e-12)
        assert frac >= 0.85
        assert var["marg"].mean() < var["plain"].mean()


class TestTrainStep:
    def test_zero_learning_rate_is_identity(self, ortho_params_332, rng):
        cfg = TrainConfig(shape=ortho_params_332.shape)
        batch = [np.array([1.0, -1.0, 1.0])]
        new, _ = train_step(ortho_params_332, batch, cfg, rng, SgdOptimizer(0.0))
        for a, b in zip(new.arrays(), ortho_params_332.arrays()):
            assert np.array_equal(a, b)

    def test_exact_gradient_step_increases_loglik(self, ortho_params_332, rng):
        params = ortho_params_332
        batch = [np.array([1.0, -1.0, 1.0]), np.array([-1.0, 1.0, 1.0])]
        cfg = TrainConfig(shape=params.shape, learning_rate=1e-2)
        ll0 = oracle.exact_loglik(params, batch)
        total = GradEstimate.zeros(params.shape)
        for v in batch:
            total.add_scaled(oracle.exact_grad_loglik(params, v), 1.0 / len(batch))
        new = make_optimizer(cfg).update(params, total)
        assert oracle.exact_loglik(new, batch) > ll0

    def test_metrics_populated(self, ortho_params_332, rng):
        cfg = TrainConfig(shape=ortho_params_332.shape)
        batch = [np.array([1.0, -1.0, 1.0])] * 3
        _, m = train_step(ortho_params_332, batch, cfg, rng)
        assert m.mean_tau_pos >= 1 and m.mean_tau_neg >= 1
        assert m.mean_T_pos >= 1 and m.mean_T_neg >= 1
        assert m.grad_norm > 0

    def test_short_training_improves_loglik(self):
        # a fast end-to-end sanity run; the acceptance suite does the long one
        from spindbm.data import synthetic_patterns
        shape = DbmShape(6, 4, 2)
        rows = synthetic_patterns(3, 6, seed=5).spins()
        params = init_params(shape, np.random.default_rng(1))
        cfg = TrainConfig(shape=shape, steps=600, batch_size=3, seed=17,
                          optimizer="adam", learning_rate=1e-2,
                          estimator="marginalized", tau_max=200_000)
        trained, _ = train(cfg, rows, initial_params=params)
        assert oracle.exact_loglik(trained, rows) > oracle.exact_loglik(params, rows) + 0.3


class _Capture:
    """Optimizer stand-in that records the batch gradient it is handed."""

    def update(self, params, grad):
        self.grad = grad.vec.copy()
        return params


def _outer_rows(a, b, c):
    """Energy gradient at one (v, h1, h2)-like row from explicit outer products."""
    return np.concatenate([-np.outer(a, b).ravel(), -np.outer(b, c).ravel(), -a, -b, -c])


def _reference_integrand(params, estimator, v, h1, h2, joint):
    if estimator == "plain":
        return _outer_rows(v, h1, h2)
    t1 = np.tanh(params.W1.T @ v + params.W2 @ h2 + params.b_h1)
    t2 = np.tanh(params.W2.T @ h1 + params.b_h2)
    tv = np.tanh(params.W1 @ h1 + params.b_v) if joint else v
    return 0.5 * (_outer_rows(v, t1, h2) + _outer_rows(tv, h1, t2))


def _literal_telescope(run, f):
    total = f(run.x_states[0])
    for t in range(1, run.tau):
        total = total + f(run.x_states[t]) - f(run.y_states[t - 1])
    return total


def _reference_batch_gradient(params, batch, cfg, rng):
    """Per-example sum of per-state outer products over the streams train_step uses.

    Example i runs the one-state phases (posterior_chain, then joint_chain)
    on the i-th spawned generator. Returns (mean gradient over the batch,
    tau > 1 runs, telescoping terms cancelled to zero).
    """
    from spindbm.coupling import telescope_terms
    total, long_runs, cancelled = 0.0, 0, 0
    for v, sub in zip(batch, rng.spawn(len(batch))):
        prun, _ = posterior_chain(params, v, cfg.tau_max, sub)
        nrun, _ = joint_chain(params, cfg.tau_max, sub)
        for run in (prun, nrun):
            if run.tau > 1:
                long_runs += 1
                states = run.x_states[:run.tau] + run.y_states[:run.tau - 1]
                distinct = {st.concat().tobytes() for st in states}
                cancelled += len(distinct) - len(telescope_terms(run))
        pos = _literal_telescope(prun, lambda h: _reference_integrand(
            params, cfg.estimator, v, h.h1, h.h2, False))
        neg = _literal_telescope(nrun, lambda x: _reference_integrand(
            params, cfg.estimator, x.v, x.h1, x.h2, True))
        total = total + neg - pos
    return total / len(batch), long_runs, cancelled


def _spin_batch(seed, n, n_v):
    return [np.where(np.random.default_rng([seed, i]).random(n_v) < 0.5, 1.0, -1.0)
            for i in range(n)]


def _assert_rel_close(got, want):
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


class TestBatchGradient:
    """train_step's one-GEMM batch gradient against per-state outer products."""

    @pytest.mark.parametrize("estimator", ["plain", "marginalized"])
    @pytest.mark.parametrize("n_h2", [2, 0])
    def test_matches_outer_product_sum(self, estimator, n_h2):
        # weak weights keep many states near-degenerate, so tau > 1 runs with
        # repeated, cancelling states are common
        params = random_params(DbmShape(4, 3, n_h2), seed=3, scale=0.3)
        cfg = TrainConfig(shape=params.shape, estimator=estimator)
        long_runs = cancelled = 0
        for seed in range(6):
            batch = _spin_batch(seed, 6, 4)
            opt = _Capture()
            _, m = train_step(params, batch, cfg, rng_for(seed, 1), opt)
            want, n_long, n_cancelled = _reference_batch_gradient(
                params, batch, cfg, rng_for(seed, 1))
            _assert_rel_close(opt.grad, want)
            long_runs += n_long
            cancelled += n_cancelled
        assert long_runs > 0 and cancelled > 0  # the cases exercised tau > 1 and cancellation

    @pytest.mark.parametrize("estimator", ["plain", "marginalized"])
    def test_block_step_is_the_per_example_step_bit_for_bit(self, estimator):
        # where every run meets at tau = 1, the block's gradient rows are the
        # per-example one-state runs' rows in the same order, so the step is the
        # same to the last bit: the argument that keeps training fingerprints
        # unchanged
        params = init_params(DbmShape(64, 32, 16), np.random.default_rng(11))
        cfg = TrainConfig(shape=params.shape, estimator=estimator, optimizer="adam",
                          batch_size=4, learning_rate=1e-3)
        for seed in range(5):
            batch = _spin_batch(100 + seed, 4, 64)
            got, _ = train_step(params, batch, cfg, rng_for(seed, 1), make_optimizer(cfg))
            posterior, joint = [], []
            for v, sub in zip(batch, rng_for(seed, 1).spawn(4)):
                prun, _ = posterior_chain(params, v, cfg.tau_max, sub)
                nrun, _ = joint_chain(params, cfg.tau_max, sub)
                assert prun.tau == nrun.tau == 1
                posterior += chain_states(prun, -1.0, v)
                joint += chain_states(nrun, 1.0)
            total = gradient_from_states(params, estimator, posterior, joint, 1.0 / len(batch))
            want = make_optimizer(cfg).update(params, total)
            assert np.array_equal(got.vec, want.vec)

    @pytest.mark.parametrize("estimator", ["plain", "marginalized"])
    def test_no_rows_give_zero_gradient(self, estimator):
        # telescoping coefficients sum to 1, so a run never cancels entirely;
        # K = 0 rows are checked at the kernel
        from spindbm.model import grad_from_rows
        params = random_params(DbmShape(4, 3, 2), seed=3)
        g = grad_from_rows(np.zeros((0, 4)), np.zeros((0, 3)), np.zeros((0, 2)), np.zeros(0))
        assert g.sizes == (4, 3, 2)
        np.testing.assert_array_equal(g.vec, GradEstimate.zeros(params.shape).vec)
        g = gradient_from_states(params, estimator, [], [])
        np.testing.assert_array_equal(g.vec, GradEstimate.zeros(params.shape).vec)


class TestMeanField:
    def test_zero_weights_reach_tanh_bias_in_one_undamped_step(self):
        params = DbmParams.zeros(DbmShape(3, 3, 2))
        params.b_h1[:] = np.array([0.3, -0.7, 1.2])
        params.b_h2[:] = np.array([0.5, -0.5])
        mf = mean_field_posterior(params, np.ones(3), damping=1.0, max_iters=1)
        np.testing.assert_allclose(mf.mu_h1, np.tanh(params.b_h1), atol=1e-12)
        np.testing.assert_allclose(mf.mu_h2, np.tanh(params.b_h2), atol=1e-12)

    def test_converges_to_fixed_point(self):
        params = random_params(DbmShape(4, 3, 2), seed=3, scale=0.5)
        v = np.array([1.0, -1.0, 1.0, -1.0])
        mf = mean_field_posterior(params, v, tol=1e-10, max_iters=500)
        assert mf.converged
        new1 = np.tanh(params.W1.T @ v + params.W2 @ mf.mu_h2 + params.b_h1)
        new2 = np.tanh(params.W2.T @ new1 + params.b_h2)
        assert np.max(np.abs(new1 - mf.mu_h1)) < 1e-7
        assert np.max(np.abs(new2 - mf.mu_h2)) < 1e-7
        assert np.all(np.abs(mf.mu_h1) <= 1) and np.all(np.abs(mf.mu_h2) <= 1)

    def test_nonconvergence_flagged(self):
        params = random_params(DbmShape(4, 3, 2), seed=3, scale=3.0)
        mf = mean_field_posterior(params, np.ones(4), tol=1e-14, max_iters=2)
        assert not mf.converged
        assert mf.iterations == 2


def test_wrong_visible_length_raises_dimension_error(rng):
    params = random_params(DbmShape(4, 3, 2), seed=4)
    v = np.ones(5)
    chains = init_persistent_chains(params, 1, rng)
    with pytest.raises(DimensionError):
        mean_field_posterior(params, v)
    with pytest.raises(DimensionError):
        positive_phase_estimate(params, v, TrainConfig(shape=params.shape), rng)
    with pytest.raises(DimensionError):
        pcd_step(params, [v], chains, TrainConfig(shape=params.shape), rng)


class TestPcd:
    def test_zero_learning_rate_identity(self, ortho_params_332, rng):
        cfg = TrainConfig(shape=ortho_params_332.shape)
        cfg.learning_rate = 0.0  # bypasses validate(), fine for the identity check
        chains = init_persistent_chains(ortho_params_332, 2, rng)
        new, _, _ = pcd_step(ortho_params_332, [np.ones(3)], chains, cfg, rng)
        for a, b in zip(new.arrays(), ortho_params_332.arrays()):
            assert np.array_equal(a, b)

    def test_chains_persist_and_evolve(self, ortho_params_332, rng):
        cfg = TrainConfig(shape=ortho_params_332.shape, learning_rate=1e-3)
        chains = init_persistent_chains(ortho_params_332, 4, rng)
        before = [c.concat().copy() for c in chains]
        _, after, _ = pcd_step(ortho_params_332, [np.ones(3)], chains, cfg, rng)
        assert len(after) == 4
        changed = sum(not np.array_equal(b, a.concat()) for b, a in zip(before, after))
        assert changed >= 1

    def test_each_chain_takes_one_gibbs_sweep(self, ortho_params_332):
        cfg = TrainConfig(shape=ortho_params_332.shape, learning_rate=1e-3)
        chains = init_persistent_chains(ortho_params_332, 3, np.random.default_rng(1))
        pcd_rng, rng = np.random.default_rng(2), np.random.default_rng(2)
        _, after, _ = pcd_step(ortho_params_332, [np.ones(3)], chains, cfg, pcd_rng)
        expected = [gibbs_sweep_joint(ortho_params_332, c, rng) for c in chains]
        assert all(a.equals(e) for a, e in zip(after, expected))
        assert pcd_rng.random() == rng.random()  # and drew nothing more

    def test_pcd_gradient_is_biased_where_coupled_is_not(self):
        # strong weights widen the mean-field gap; the coupled estimator's
        # mean matches the oracle while PCD's does not
        params = random_params(DbmShape(3, 3, 2), seed=21, scale=1.2)
        v = np.array([1.0, -1.0, 1.0])
        exact = oracle.exact_grad_loglik(params, v).as_vector()
        cfg = TrainConfig(shape=params.shape, learning_rate=1e-2)
        rng = rng_for(5, 1)
        chains = init_persistent_chains(params, 1, rng)
        n = 3000
        acc = np.zeros_like(exact)
        acc2 = np.zeros_like(exact)
        for _ in range(n):
            _, chains, _ = pcd_step(params, [v], chains, cfg, rng)
            # reconstruct the pcd gradient estimate from a fresh call pattern:
            # positive mean-field part is deterministic, negative from chains
            mf = mean_field_posterior(params, v)
            x = chains[0]
            g = gradient_from_states(params, "plain", [(v, mf.mu_h1, mf.mu_h2, -1.0)],
                                     [(x.v, x.h1, x.h2, 1.0)])
            acc += g.vec
            acc2 += g.vec ** 2
        mean = acc / n
        se = np.sqrt(np.maximum(acc2 / n - mean ** 2, 0) / n)
        se = np.maximum(se, 1e-12)
        z_pcd = np.max(np.abs((mean - exact) / se))
        assert z_pcd > 6.0  # biased

        rep = unbiasedness_report(params, v, 3000, seed=6, estimator="plain")
        assert rep["passed"]


class TestSampleComplete:
    def test_bias_dominated_sampling(self, rng):
        params = DbmParams.zeros(DbmShape(4, 2, 1))
        params.b_v[:] = np.array([2.0, -2.0, 2.0, -2.0])
        for v in sample(params, 5, rng=rng):
            np.testing.assert_array_equal(v, np.array([1.0, -1.0, 1.0, -1.0]))

    def test_two_mode_model_covers_both_modes(self, rng):
        # ferromagnetic weights with zero biases leave a global flip symmetry,
        # so local search lands in both all-plus and all-minus basins
        params = DbmParams.zeros(DbmShape(2, 2, 1))
        params.W1[:] = 2.0 * np.eye(2)
        params.W2[:] = 2.0
        seen = {tuple(v) for v in sample(params, 100, rng=rng)}
        assert (1.0, 1.0) in seen and (-1.0, -1.0) in seen

    def test_samples_are_search_fixed_points(self, rng):
        params = random_params(DbmShape(3, 3, 2), seed=13)
        from spindbm.search import local_search_joint
        for _ in range(20):
            r = local_search_joint(params, rng)
            for ef in (True, False):
                v2, h12, h22 = block_minimize_joint(params, r.state.v, r.state.h1,
                                                    r.state.h2, ef)
                from spindbm.model import energy_vhh
                assert energy_vhh(params, v2, h12, h22) >= \
                    energy_vhh(params, r.state.v, r.state.h1, r.state.h2) - 1e-12

    def test_mh_steps_move_rarely_from_deep_mode(self, rng):
        params = DbmParams.zeros(DbmShape(4, 2, 1))
        params.b_v[:] = 10.0
        params.b_h1[:] = 10.0
        params.b_h2[:] = 10.0
        vs = sample(params, 10, mh_steps=3, rng=rng)
        for v in vs:
            np.testing.assert_array_equal(v, np.ones(4))

    def test_sample_rejects_negative_counts(self):
        params = random_params(DbmShape(3, 3, 2), seed=13)
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample(params, -1, rng=rng)
        with pytest.raises(ValueError):
            sample(params, 2, mh_steps=-1, rng=rng)
        assert sample(params, 0, mh_steps=3, rng=rng) == []
        assert rng.random() == np.random.default_rng(0).random()  # nothing was drawn

    @pytest.mark.parametrize("shape", [DbmShape(3, 3, 2), DbmShape(10, 8, 6), DbmShape(6, 5, 0),
                                       DbmShape(64, 32, 16)], ids=str)
    @pytest.mark.parametrize("n", [0, 1, 5])
    @pytest.mark.parametrize("mh_steps", [0, 2])
    def test_sample_draws_the_sequential_stream(self, shape, n, mh_steps):
        # the n rows run as one block, yet give what n samples in turn give
        params = random_params(shape, seed=21)
        rng, seq = np.random.default_rng(22), np.random.default_rng(22)
        got = sample(params, n, mh_steps, rng=rng)
        want = []
        for _ in range(n):
            x = local_search_joint(params, seq).state
            for _ in range(mh_steps):
                x = mh_step(params, x, seq)
            want.append(x.v)
        assert len(got) == n
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        assert rng.random() == seq.random()

    def test_paper_scale_sample_is_eight_one_row_searches(self):
        # the sample half of the infer-6272 benchmark's round 0 at seed 0
        params = init_params(DbmShape(6272, 500, 500), np.random.default_rng([0, 1]))
        got = sample(params, 8, rng=np.random.default_rng([0, 3, 0]))
        seq = np.random.default_rng([0, 3, 0])
        assert len(got) == 8
        for v in got:
            assert np.array_equal(v, local_search_joint(params, seq).state.v)

    def test_sample_raises_on_a_stream_not_drawn_exactly(self, monkeypatch):
        params = random_params(DbmShape(3, 3, 2), seed=13)
        search_rows = training.local_search_joint_rows

        def overdraw(params, n, streams):
            found = search_rows(params, n, streams)
            streams[-1].random()
            return found

        def underdraw(params, n, streams):
            return search_rows(params, n, np.random.default_rng(1))

        for wrong in (overdraw, underdraw):
            monkeypatch.setattr(training, "local_search_joint_rows", wrong)
            with pytest.raises(RuntimeError):
                sample(params, 3, rng=np.random.default_rng(0))

    def test_complete_identity_when_fully_observed(self, rng):
        params = random_params(DbmShape(4, 3, 2), seed=2)
        v = uniform_spins(4, rng)
        got = complete(params, v, np.ones(4, dtype=bool), rng)
        np.testing.assert_array_equal(got, v)

    def test_complete_fills_with_bias_sign_on_zero_weights(self, rng):
        params = DbmParams.zeros(DbmShape(4, 2, 1))
        params.b_v[:] = np.array([1.0, -1.0, 1.0, -1.0])
        got = complete(params, np.zeros(4), np.zeros(4, dtype=bool), rng)
        np.testing.assert_array_equal(got, np.sign(params.b_v))


class TestOptimizers:
    def test_sgd_zero_gradient_identity(self, ortho_params_332):
        opt = SgdOptimizer(0.5)
        g = GradEstimate.zeros(ortho_params_332.shape)
        new = opt.update(ortho_params_332, g)
        for a, b in zip(new.arrays(), ortho_params_332.arrays()):
            assert np.array_equal(a, b)

    def test_adam_zero_gradient_preserves_zero_moments(self, ortho_params_332):
        opt = AdamOptimizer(0.1)
        g = GradEstimate.zeros(ortho_params_332.shape)
        new = opt.update(ortho_params_332, g)
        for a, b in zip(new.arrays(), ortho_params_332.arrays()):
            assert np.array_equal(a, b)
        assert all(np.all(m == 0) for m in opt.m)
        assert all(np.all(vv == 0) for vv in opt.v)

    def test_adam_single_step_matches_hand_formula(self):
        params = DbmParams(np.array([[0.0]]), np.array([[0.0]]),
                           np.zeros(1), np.zeros(1), np.zeros(1))
        g = GradEstimate.zeros(params.shape)
        g.vec[:] = 2.0
        opt = AdamOptimizer(0.1)
        new = opt.update(params, g)
        m_hat = (0.1 * 2.0) / (1 - 0.9)
        v_hat = (0.001 * 4.0) / (1 - 0.999)
        want = 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert new.W1[0, 0] == pytest.approx(want, rel=1e-12)

    def test_amsgrad_denominator_is_monotone(self):
        params = DbmParams(np.array([[0.0]]), np.array([[0.0]]),
                           np.zeros(1), np.zeros(1), np.zeros(1))
        opt = AdamOptimizer(0.1, amsgrad=True)
        g_big = GradEstimate.zeros(params.shape)
        g_big.vec[:] = 10.0
        params = opt.update(params, g_big)
        vmax_after_big = [vv.copy() for vv in opt.v_max]
        g_small = GradEstimate.zeros(params.shape)
        g_small.vec[:] = 0.01
        opt.update(params, g_small)
        for before, now in zip(vmax_after_big, opt.v_max):
            assert np.all(now >= before - 1e-15)


class _WholeVectorAdam:
    """AdamOptimizer as it was before its passes were chunked, kept verbatim as the reference."""

    def __init__(self, learning_rate: float, beta1: float = 0.9, beta2: float = 0.999,
                 eps: float = 1e-8, amsgrad: bool = False):
        self.lr = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.amsgrad = amsgrad
        self.t = 0
        self.m = None
        self.v = None
        self.v_max = None
        self._buf = None

    def update(self, params: DbmParams, grad: GradEstimate) -> DbmParams:
        g = grad.vec
        if self.m is None:
            self.m = np.zeros_like(g)
            self.v = np.zeros_like(g)
            self.v_max = np.zeros_like(g) if self.amsgrad else None
            self._buf = np.empty_like(g)
        self.t += 1
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        m, v, buf = self.m, self.v, self._buf
        m *= self.beta1
        np.multiply(g, 1.0 - self.beta1, out=buf)
        m += buf
        v *= self.beta2
        np.multiply(g, 1.0 - self.beta2, out=buf)
        buf *= g
        v += buf
        np.divide(v, c2, out=buf)  # v_hat
        if self.amsgrad:
            np.maximum(self.v_max, buf, out=self.v_max)
            np.sqrt(self.v_max, out=buf)
        else:
            np.sqrt(buf, out=buf)
        buf += self.eps
        step = np.divide(m, c1)  # m_hat; becomes the new parameter vector
        step *= self.lr
        step /= buf
        step += params.vec
        return DbmParams.from_vector(params.shape, step)


def _shape_with(n_entries: int) -> DbmShape:
    """A (n_v, n_h1, 0) shape whose parameter vector has n_entries entries."""
    for n_h1 in range(1, n_entries):
        if (n_entries + 1) % (n_h1 + 1) == 0:  # n_entries = n_v (n_h1 + 1) + n_h1
            return DbmShape((n_entries - n_h1) // (n_h1 + 1), n_h1, 0)
    raise ValueError(n_entries)


class TestBlockedAdam:
    # n = chunks * chunk + extra; 3 entries is the smallest model (1-1-0).
    @pytest.mark.parametrize("chunks,extra", [(0, 3), (1, -1), (1, 0), (1, 1), (3, 7)])
    @pytest.mark.parametrize("amsgrad", [False, True], ids=["adam", "amsgrad"])
    def test_matches_whole_vector_passes(self, chunks, extra, amsgrad):
        chunk = training._ADAM_CHUNK
        n = chunks * chunk + extra
        shape = _shape_with(n)
        assert DbmParams.zeros(shape).vec.size == n
        rng = np.random.default_rng(n)
        params = DbmParams.from_vector(shape, rng.standard_normal(n))
        ref_params = params.copy()
        opt, ref = AdamOptimizer(1e-2, amsgrad=amsgrad), _WholeVectorAdam(1e-2, amsgrad=amsgrad)
        for _ in range(3):
            # gradients of mixed scales, so that eps and the AMSGrad maximum matter
            g = GradEstimate.from_vector(shape, rng.standard_normal(n)
                                         * 10.0 ** rng.integers(-9, 3, n))
            before = params.vec.copy()
            new = opt.update(params, g)
            ref_params = ref.update(ref_params, g)
            assert np.array_equal(params.vec, before)
            assert not np.shares_memory(new.vec, params.vec)
            assert np.array_equal(new.vec, ref_params.vec)
            assert np.array_equal(opt.m, ref.m) and np.array_equal(opt.v, ref.v)
            if amsgrad:
                assert np.array_equal(opt.v_max, ref.v_max)
            else:
                assert opt.v_max is None
            params = new
        assert opt._buf.size == min(n, chunk)


class TestTrainLoop:
    def _dataset(self):
        from spindbm.data import synthetic_patterns
        return synthetic_patterns(3, 4, seed=2).spins()

    def _cfg(self, **kw):
        base = dict(shape=DbmShape(4, 3, 2), steps=25, batch_size=2, seed=5,
                    checkpoint_every=10, estimator="marginalized",
                    optimizer="adam", learning_rate=1e-2, tau_max=100_000)
        base.update(kw)
        return TrainConfig(**base)

    def test_writes_log_and_checkpoints(self, tmp_path):
        out = tmp_path / "run"
        params, history = train(self._cfg(), self._dataset(), out_dir=str(out))
        assert len(history) == 25
        lines = (out / "train_log.csv").read_text().splitlines()
        header_comments = [l for l in lines if l.startswith("#")]
        assert any("estimator=marginalized" in l for l in header_comments)
        rows = [l for l in lines if l and not l.startswith("#")]
        assert rows[0].split(",")[0] == "step"
        assert len(rows) == 26  # header + 25 steps
        for step in (0, 10, 20, 25):
            assert (out / f"ckpt-{step:06d}.udbm").exists()

    def test_steps_zero_writes_initial_checkpoint_only(self, tmp_path):
        out = tmp_path / "zero"
        params, history = train(self._cfg(steps=0), self._dataset(), out_dir=str(out))
        assert history == []
        assert (out / "ckpt-000000.udbm").exists()
        assert len(list(out.glob("ckpt-*.udbm"))) == 1

    def test_bit_reproducible(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        train(self._cfg(), self._dataset(), out_dir=str(out1))
        train(self._cfg(), self._dataset(), out_dir=str(out2))
        for name in ("ckpt-000000.udbm", "ckpt-000020.udbm", "ckpt-000025.udbm"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        wall = LOG_COLUMNS.index("wall_ms")  # the only column that varies
        strip = lambda p: [l.split(",")[:wall] + l.split(",")[wall + 1:]
                           for l in p.read_text().splitlines()]
        assert strip(out1 / "train_log.csv") == strip(out2 / "train_log.csv")

    def test_nonfinite_gradient_names_the_step(self, tmp_path, monkeypatch):
        nan_at_step_3(monkeypatch)
        out = tmp_path / "run"
        with pytest.raises(NonFiniteUpdateError, match="step 3"):
            train(self._cfg(), self._dataset(), out_dir=str(out))
        rows = [l for l in (out / "train_log.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3"]
        assert not (out / "ckpt-000003.udbm").exists()

    def test_resume_from_checkpoint(self, tmp_path):
        out = tmp_path / "first"
        train(self._cfg(), self._dataset(), out_dir=str(out))
        cfg2 = self._cfg(steps=5)
        cfg2.resume = str(out / "ckpt-000025.udbm")
        params2, history2 = train(cfg2, self._dataset(), out_dir=str(tmp_path / "second"))
        assert len(history2) == 5

    # (mean_tau_pos, mean_tau_neg, mean_T_pos, mean_T_neg) of each step of
    # _cfg(), recorded with the per-state outer-product gradient. They depend
    # only on how the chains draw random numbers, not on float summation
    # order, so a refactor that changes RNG consumption fails here.
    PINNED_CHAIN_STATS = [
        (1.0, 1.0, 2.0, 2.0), (1.5, 1.0, 2.0, 2.0), (1.0, 2.0, 2.5, 2.0),
        (1.0, 1.0, 2.0, 2.0), (1.0, 1.0, 2.5, 2.0), (1.0, 1.0, 2.5, 2.5),
        (27.0, 1.0, 2.0, 2.0), (1.0, 1.0, 2.5, 2.5), (1.0, 1.0, 2.5, 2.0),
        (1.0, 1.0, 2.0, 2.5), (1.0, 1.0, 3.0, 2.5), (1.0, 1.0, 3.0, 2.0),
        (1.5, 1.0, 2.0, 2.0), (7.5, 4.5, 2.5, 2.0), (1.0, 1.0, 2.5, 2.0),
        (4.5, 10.0, 3.0, 2.0), (1.0, 2.5, 2.5, 2.0), (1.0, 1.0, 3.0, 2.0),
        (1.0, 1.0, 3.0, 2.5), (1.0, 1.0, 1.5, 2.5), (1.0, 1.0, 2.5, 2.0),
        (1.0, 1.0, 2.0, 2.0), (1.0, 4.0, 2.0, 2.0), (1.0, 1.0, 2.0, 2.0),
        (1.0, 1.0, 2.0, 2.0),
    ]

    def test_chain_randomness_pinned(self):
        _, history = train(self._cfg(), self._dataset())
        got = [(m.mean_tau_pos, m.mean_tau_neg, m.mean_T_pos, m.mean_T_neg) for m in history]
        assert got == self.PINNED_CHAIN_STATS

    def test_truncated_step_raises_unlogged(self, tmp_path):
        # at tau_max = 1 some step's coupling truncates: train raises there,
        # and writes neither a log row nor a checkpoint for that step
        out = tmp_path / "cut"
        cfg = self._cfg(tau_max=1, checkpoint_every=1)
        with pytest.raises(CouplingTruncatedError, match="raise tau_max"):
            train(cfg, self._dataset(), out_dir=str(out))
        rows = [l.split(",")[0] for l in (out / "train_log.csv").read_text().splitlines()
                if l and not l.startswith("#")][1:]
        done = len(rows)  # steps 1..done ran; step done + 1 raised
        assert rows == [str(k) for k in range(1, done + 1)]
        assert sorted(p.name for p in out.glob("ckpt-*")) == [
            f"ckpt-{k:06d}.udbm" for k in range(done + 1)]
        assert len(train(self._cfg(tau_max=1, steps=done), self._dataset())[1]) == done
        with pytest.raises(CouplingTruncatedError):
            train(self._cfg(tau_max=1, steps=done + 1), self._dataset())

    def test_log_row_format_pinned(self):
        m = StepMetrics(step=7, mean_tau_pos=1.25, mean_tau_neg=1 / 3, mean_T_pos=2.0,
                        mean_T_neg=12345678.9, grad_norm=0.1234567890123, wall_ms=12.34567)
        assert training._format_row(m) == "7,1.25,0.333333,2,1.23457e+07,0.123456789,12.346"

    @pytest.mark.parametrize("bad", [{"learning_rate": np.nan}, {"learning_rate": np.inf},
                                     {"learning_rate": 0.0}, {"seed": -1},
                                     {"truncation_policy": "drop_sample"}], ids=str)
    def test_rejects_bad_config_before_writing(self, tmp_path, bad):
        # a NaN learning rate would turn every parameter NaN at step 1
        out = tmp_path / "run"
        with pytest.raises(ValueError, match=f"^{next(iter(bad))} "):
            train(self._cfg(**bad), self._dataset(), out_dir=str(out))
        assert not out.exists()

    def test_dataset_width_mismatch(self):
        with pytest.raises(ValueError):
            train(self._cfg(), [np.ones(3)], out_dir=None)

    @pytest.mark.parametrize("bad", [0.0, 0.5, 2.0, np.nan])
    def test_rejects_rows_that_are_not_spins(self, bad):
        # a 0/1 row would train silently on a different objective
        data = self._dataset()
        data[2, 1] = bad
        with pytest.raises(ValueError, match="row 2 "):
            train(self._cfg(steps=3), data, out_dir=None)
        with pytest.raises(ValueError, match="row 0 "):
            train(self._cfg(steps=3), (data + 1) / 2, out_dir=None)

    @pytest.mark.parametrize("width", [3, 5])
    def test_rejects_ragged_rows(self, width):
        rows = list(self._dataset())
        rows[2] = np.ones(width)
        with pytest.raises(ValueError, match="row 2 "):
            train(self._cfg(steps=3), rows, out_dir=None)

    def test_dataset_forms_train_alike(self):
        # the dataset is checked and kept as one array; each batch becomes
        # float64 in train_step, so every form of the same +-1 rows trains alike
        data = self._dataset()
        base_params, base = train(self._cfg(steps=4), data, out_dir=None)
        for form in (list(data), data.astype(np.int8), data.tolist(), iter(list(data))):
            params, history = train(self._cfg(steps=4), form, out_dir=None)
            assert np.array_equal(params.as_vector(), base_params.as_vector())
            assert [m.grad_norm for m in history] == [m.grad_norm for m in base]


class TestUnbiasednessReport:
    def test_passes_for_correct_estimator(self, ortho_params_332):
        rep = unbiasedness_report(ortho_params_332, np.array([1.0, -1.0, 1.0]),
                                  4000, seed=1, estimator="marginalized")
        assert rep["passed"]
        assert rep["max_abs_z"] <= 4.0

    def test_detects_injected_bias(self, ortho_params_332):
        # short-run Gibbs negative phase (contrastive-divergence style) is the
        # classic biased baseline and must fail the z-test
        params = ortho_params_332
        v = np.array([1.0, -1.0, 1.0])
        from spindbm.training import positive_phase_estimate
        cfg = TrainConfig(shape=params.shape, estimator="plain")

        def biased(p, vv, rng):
            g_pos, _, _ = positive_phase_estimate(p, vv, cfg, rng)
            x = JointState(uniform_spins(3, rng), uniform_spins(3, rng),
                           uniform_spins(2, rng))
            x = gibbs_sweep_joint(p, x, rng)
            g = gradient_from_states(p, "plain", [], [(x.v, x.h1, x.h2, 1.0)])
            return g.add_scaled(g_pos, -1.0)

        rep = unbiasedness_report(params, v, 4000, seed=1, estimate_fn=biased)
        assert not rep["passed"]

    def test_injected_estimator_is_called_once_per_draw(self, ortho_params_332):
        v = np.array([1.0, -1.0, 1.0])
        cfg = TrainConfig(shape=ortho_params_332.shape, estimator="plain")
        calls = []

        def counted(p, vv, rng):
            calls.append(None)
            g_pos, _, _ = positive_phase_estimate(p, vv, cfg, rng)
            g_neg, _, _ = negative_phase_estimate(p, cfg, rng)
            return g_neg.add_scaled(g_pos, -1.0)

        unbiasedness_report(ortho_params_332, v, training.DRAW_BLOCK + 3, seed=2,
                            estimate_fn=counted)
        assert len(calls) == training.DRAW_BLOCK + 3

    @pytest.mark.parametrize("injected", [False, True])
    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_rejects_fewer_than_one_draw(self, injected, n_samples):
        # no draws have no mean: the report must not read as a pass
        params, v = training.default_check_model()
        calls = []

        def never(p, vv, rng):
            calls.append(None)

        with pytest.raises(ValueError, match="n_samples"):
            unbiasedness_report(params, v, n_samples, seed=0,
                                estimate_fn=never if injected else None)
        assert not calls

    @pytest.mark.parametrize("estimator", training.ESTIMATORS)
    def test_a_truncated_row_raises(self, estimator):
        # tau_max = 1 truncates every coupling whose x chain accepts its first proposal
        params, v = training.default_check_model()
        with pytest.raises(CouplingTruncatedError):
            unbiasedness_report(params, v, 200, seed=0, estimator=estimator, tau_max=1)

    def test_blocks_are_a_function_of_seed_and_size(self):
        params, v = training.default_check_model()
        n = training.DRAW_BLOCK + 37  # one full block and a short one
        a = unbiasedness_report(params, v, n, seed=4, estimator="marginalized")
        b = unbiasedness_report(params, v, n, seed=4, estimator="marginalized")
        assert np.array_equal(a["mean"], b["mean"]) and np.array_equal(a["se"], b["se"])
        V = np.broadcast_to(v, (300, len(v)))
        rows = [training._example_block(params, V, 10_000, rng_for(4, 3)) for _ in range(2)]
        assert all(np.array_equal(x, y) for x, y in zip(*rows))
        other = training._example_block(params, V, 10_000, rng_for(5, 3))
        assert not all(np.array_equal(x, y) for x, y in zip(rows[0], other))

    @pytest.mark.parametrize("estimator", training.ESTIMATORS)
    def test_one_draw_block_is_the_one_state_draw(self, ortho_params_332, estimator):
        # R = 1 draws what the one-state phases, posterior_chain then
        # joint_chain, draw on the same generator, so both give the same gradient
        v = np.array([1.0, -1.0, 1.0])
        for seed in range(30):
            rows = training._example_block(ortho_params_332, v[None], 10_000, rng_for(seed, 3))
            rng = rng_for(seed, 3)
            prun, _ = posterior_chain(ortho_params_332, v, 10_000, rng)
            nrun, _ = joint_chain(ortho_params_332, 10_000, rng)
            g = gradient_from_states(ortho_params_332, estimator, chain_states(prun, -1.0, v),
                                     chain_states(nrun, 1.0)).vec
            got = training._draw_gradients(ortho_params_332, estimator, rows)
            assert got.shape == (1, g.size)
            np.testing.assert_allclose(got[0], g, rtol=0, atol=1e-12)

    def test_draw_gradients_sum_to_the_summed_kernel(self, ortho_params_332):
        v = np.array([1.0, -1.0, 1.0])
        rows = training._example_block(ortho_params_332, np.broadcast_to(v, (500, 3)), 10_000,
                                       rng_for(8, 3))
        for estimator in training.ESTIMATORS:
            per_draw = training._draw_gradients(ortho_params_332, estimator, rows)
            summed = grad_from_rows(*training._integrand_rows(
                ortho_params_332, estimator, rows.V, rows.H1, rows.H2, rows.w, rows.n_pos))
            np.testing.assert_allclose(per_draw.sum(axis=0), summed.vec, rtol=0, atol=1e-10)
