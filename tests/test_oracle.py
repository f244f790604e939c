import itertools

import numpy as np
import pytest
from scipy.special import logsumexp

from spindbm import (DbmParams, DbmShape, JointState, SizeCapError,
                     enumerate_joint, enumerate_posterior, exact_grad_loglik,
                     exact_loglik, exact_mh_transition_matrix)
from spindbm.oracle import (_logsumexp, exact_joint_grad_energy, exact_loglik_single,
                            exact_posterior_grad_energy, spin_table, state_index)

from conftest import random_params
from test_model import central_diff


class TestEnumeration:
    def test_zero_params_uniform(self):
        params = DbmParams.zeros(DbmShape(3, 2, 2))
        dist = enumerate_joint(params)
        n = 2 ** 7
        assert dist.probabilities.shape == (n,)
        np.testing.assert_allclose(dist.probabilities, np.full(n, 1.0 / n), atol=1e-15)
        assert dist.log_partition == pytest.approx(7 * np.log(2), abs=1e-12)

    def test_one_one_one_hand_table(self):
        # E(v, h1, h2) = -v h1 - h1 h2 takes values {-2, 0, 2}; two states at
        # each of -2 and +2, four at 0
        params = DbmParams(np.array([[1.0]]), np.array([[1.0]]),
                           np.zeros(1), np.zeros(1), np.zeros(1))
        dist = enumerate_joint(params)
        z = 2 * np.e ** 2 + 4 + 2 * np.e ** -2
        assert dist.log_partition == pytest.approx(np.log(z), abs=1e-12)
        by_energy = {-2.0: np.e ** 2 / z, 0.0: 1 / z, 2.0: np.e ** -2 / z}
        for bits in itertools.product([-1.0, 1.0], repeat=3):
            v, h1, h2 = bits
            e = -v * h1 - h1 * h2
            state = JointState(np.array([v]), np.array([h1]), np.array([h2]))
            assert dist.prob(state) == pytest.approx(by_energy[e], abs=1e-14)

    def test_probabilities_sum_to_one(self, params_332):
        dist = enumerate_joint(params_332)
        assert np.all(dist.probabilities >= 0)
        assert abs(dist.probabilities.sum() - 1.0) < 1e-12

    def test_size_cap(self):
        with pytest.raises(SizeCapError):
            enumerate_joint(DbmParams.zeros(DbmShape(10, 10, 10)))

    def test_state_index_round_trip(self):
        table = spin_table(5)
        for i in (0, 3, 17, 31):
            assert state_index(table[i]) == i

    def test_posterior_matches_conditioned_joint(self, params_332):
        v = np.array([1.0, -1.0, -1.0])
        post = enumerate_posterior(params_332, v)
        joint = enumerate_joint(params_332)
        # condition the joint enumeration on v by matching state indices
        shape = params_332.shape
        cond = np.zeros(2 ** 5)
        for i, p in enumerate(joint.probabilities):
            row = spin_table(shape.total, i, i + 1)[0]
            if np.array_equal(row[:3], v):
                cond[state_index(row[3:])] += p
        cond /= cond.sum()
        assert np.max(np.abs(cond - post.probabilities)) < 1e-14


class TestExactGradient:
    def test_zero_params_weight_blocks_vanish(self):
        params = DbmParams.zeros(DbmShape(3, 3, 2))
        g = exact_grad_loglik(params, np.array([1.0, 1.0, -1.0]))
        assert np.max(np.abs(g.dW2)) < 1e-14   # hiddens are symmetric
        assert np.max(np.abs(g.db_h1)) < 1e-14
        assert np.max(np.abs(g.db_h2)) < 1e-14

    def test_matches_finite_differences_of_loglik(self):
        v = np.array([1.0, -1.0, 1.0])
        for seed in range(20):
            params = random_params(DbmShape(3, 3, 2), seed=seed)
            fd = central_diff(lambda p: exact_loglik_single(p, v), params)
            np.testing.assert_allclose(exact_grad_loglik(params, v).as_vector(), fd,
                                       rtol=1e-6, atol=1e-6)

    def test_posterior_and_joint_components(self, params_332):
        # the log-likelihood gradient is their difference by construction
        v = np.array([-1.0, 1.0, 1.0])
        g = exact_joint_grad_energy(params_332).as_vector() \
            - exact_posterior_grad_energy(params_332, v).as_vector()
        np.testing.assert_allclose(exact_grad_loglik(params_332, v).as_vector(), g,
                                   atol=1e-14)


class TestExactLoglik:
    def test_zero_params_value(self):
        params = DbmParams.zeros(DbmShape(4, 2, 2))
        data = [np.ones(4), -np.ones(4)]
        assert exact_loglik(params, data) == pytest.approx(-4 * np.log(2), abs=1e-12)

    def test_duplication_invariance(self, params_332):
        data = [np.array([1.0, 1.0, -1.0]), np.array([-1.0, 1.0, 1.0])]
        assert exact_loglik(params_332, data) == pytest.approx(
            exact_loglik(params_332, data + data), abs=1e-12)

    def test_consistent_with_joint_marginal(self, params_332):
        v = np.array([1.0, -1.0, 1.0])
        joint = enumerate_joint(params_332)
        shape = params_332.shape
        marg = sum(p for i, p in enumerate(joint.probabilities)
                   if np.array_equal(spin_table(shape.total, i, i + 1)[0][:3], v))
        assert np.log(marg) == pytest.approx(exact_loglik_single(params_332, v), abs=1e-10)


class TestMhTransitionMatrix:
    def test_zero_params_uniform_offdiagonal(self):
        params = DbmParams.zeros(DbmShape(2, 2, 1))
        p = exact_mh_transition_matrix(params)
        n = 2 ** 5
        off = p[~np.eye(n, dtype=bool)]
        np.testing.assert_allclose(off, 1.0 / n, atol=1e-15)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_rows_sum_to_one(self, params_332):
        p = exact_mh_transition_matrix(params_332)
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-12)

    def test_boltzmann_is_stationary(self, params_332):
        p = exact_mh_transition_matrix(params_332)
        pi = enumerate_joint(params_332).probabilities
        np.testing.assert_allclose(pi @ p, pi, atol=1e-12)

    def test_detailed_balance(self, params_332):
        p = exact_mh_transition_matrix(params_332)
        pi = enumerate_joint(params_332).probabilities
        flow = pi[:, None] * p
        np.testing.assert_allclose(flow, flow.T, rtol=1e-12, atol=1e-300)


class TestLogSumExp:
    """The enumeration's log-sum-exp against scipy's, which stays the referee."""

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 1000, 1 << 17])
    def test_matches_scipy(self, n):
        rng = np.random.default_rng(n)
        for scale in (1e-3, 1.0, 30.0, 700.0):
            a = scale * (rng.standard_normal(n) + rng.standard_normal())
            for vec in (a, np.round(a), np.concatenate([a, a])):  # with ties at the max
                np.testing.assert_allclose(_logsumexp(vec), logsumexp(vec), rtol=1e-14, atol=0)
