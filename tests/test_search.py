import itertools

import numpy as np
import pytest
from scipy.special import expit

from spindbm import (DbmParams, DbmShape, DimensionError, HiddenState, JointState,
                     block_minimize_joint, block_minimize_posterior, energy,
                     enumerate_joint, gibbs_sweep_joint, gibbs_sweep_posterior,
                     init_params, local_search_clamped, local_search_joint,
                     local_search_posterior, uniform_spins)
from spindbm import search
from spindbm.model import energy_vhh, h1_field, h2_field, v_field
from spindbm.oracle import spin_table, state_index
from spindbm.search import (SearchDivergenceError, SearchResult, _spins,
                            default_max_iterations)

from conftest import random_params


def bias_only_params(shape, b=1.0):
    p = DbmParams.zeros(shape)
    p.b_v[:] = b
    p.b_h1[:] = b
    p.b_h2[:] = b
    return p


class TestLocalSearchJoint:
    def test_bias_dominated_goes_all_plus(self, rng):
        params = bias_only_params(DbmShape(4, 3, 2))
        r = local_search_joint(params, rng)
        assert np.all(r.state.v == 1) and np.all(r.state.h1 == 1) and np.all(r.state.h2 == 1)
        assert r.steps <= 2

    def test_zero_params_tie_break_to_plus(self, rng):
        params = DbmParams.zeros(DbmShape(3, 3, 2))
        for _ in range(10):
            r = local_search_joint(params, rng)
            assert np.all(r.state.concat() == 1.0)   # sgn(0) = +1
            assert r.steps <= 2

    def test_result_is_local_minimum(self, rng):
        # no single-unit flip and no block re-minimization improves the energy
        for seed in range(100):
            params = random_params(DbmShape(3, 3, 2), seed=seed)
            r = local_search_joint(params, rng)
            x = r.state
            e0 = energy(params, x)
            concat = x.concat()
            for i in range(len(concat)):
                flipped = concat.copy()
                flipped[i] = -flipped[i]
                e1 = energy_vhh(params, flipped[:3], flipped[3:6], flipped[6:])
                assert e1 >= e0 - 1e-12
            for even_first in (True, False):
                v2, h12, h22 = block_minimize_joint(params, x.v, x.h1, x.h2, even_first)
                assert energy_vhh(params, v2, h12, h22) >= e0 - 1e-12

    def test_fixed_point_under_reapplication(self, rng):
        for seed in range(20):
            params = random_params(DbmShape(4, 3, 2), seed=seed)
            for even_first in (True, False):
                r = local_search_joint(params, rng)
                v2, h12, h22 = block_minimize_joint(params, r.state.v, r.state.h1,
                                                    r.state.h2, even_first)
                # the order used during the search is a fixed point; the other
                # order may hop to an equal-energy state, never to a lower one
                assert energy_vhh(params, v2, h12, h22) >= energy(params, r.state) - 1e-12

    def test_energy_monotone_and_strictly_decreasing(self, rng):
        for seed in range(30):
            params = random_params(DbmShape(5, 4, 3), seed=seed)
            trace = []
            local_search_joint(params, rng, trace=trace)
            energies = [energy(params, s) for s in trace]
            diffs = np.diff(energies)
            assert np.all(diffs <= 1e-12)
            assert np.all(diffs[:-1] < -1e-12)  # strict until the confirming pass

    def test_cap_never_hit_on_random_models(self, rng):
        for seed in range(200):
            params = random_params(DbmShape(4, 4, 2), seed=seed)
            local_search_joint(params, rng)  # raises SearchDivergenceError on failure


class TestLocalSearchPosterior:
    def test_zero_params_all_plus(self, rng):
        params = DbmParams.zeros(DbmShape(3, 3, 2))
        r = local_search_posterior(params, np.array([1.0, -1.0, 1.0]), rng)
        assert np.all(r.state.h1 == 1) and np.all(r.state.h2 == 1)

    def test_bias_dominated(self, rng):
        params = bias_only_params(DbmShape(3, 3, 2), b=2.0)
        r = local_search_posterior(params, -np.ones(3), rng)
        assert np.all(r.state.h1 == 1) and np.all(r.state.h2 == 1)

    def test_block_fixed_point(self, rng):
        for seed in range(50):
            params = random_params(DbmShape(3, 3, 2), seed=seed)
            v = uniform_spins(3, rng)
            r = local_search_posterior(params, v, rng)
            for even_first in (True, False):
                h1n, h2n = block_minimize_posterior(params, v, r.state.h1, r.state.h2,
                                                    even_first)
                e0 = energy(params, JointState(v, r.state.h1, r.state.h2))
                en = energy(params, JointState(v, h1n, h2n))
                assert en >= e0 - 1e-12


class TestLocalSearchClamped:
    def test_fully_observed_only_hiddens_move(self, rng):
        params = random_params(DbmShape(4, 3, 2), seed=1)
        v = uniform_spins(4, rng)
        r = local_search_clamped(params, v, np.ones(4, dtype=bool), rng)
        assert np.array_equal(r.state.v, v)

    def test_zero_weight_fills_with_bias_sign(self, rng):
        params = DbmParams.zeros(DbmShape(4, 2, 1))
        params.b_v[:] = np.array([1.0, -2.0, 3.0, -4.0])
        observed = np.array([True, False, False, True])
        v_in = np.array([-1.0, 0.0, 0.0, 1.0])
        r = local_search_clamped(params, v_in, observed, rng)
        assert r.state.v[0] == -1.0 and r.state.v[3] == 1.0      # clamped
        assert r.state.v[1] == -1.0 and r.state.v[2] == 1.0      # sgn(b_v)

    def test_empty_mask_degenerates_to_joint_search(self, rng):
        params = random_params(DbmShape(3, 3, 2), seed=3)
        r = local_search_clamped(params, np.zeros(3), np.zeros(3, dtype=bool), rng)
        e0 = energy(params, r.state)
        for even_first in (True, False):
            v2, h12, h22 = block_minimize_joint(params, r.state.v, r.state.h1,
                                                r.state.h2, even_first)
            assert energy_vhh(params, v2, h12, h22) >= e0 - 1e-12

    def test_conditional_local_minimum_over_free_coordinates(self, rng):
        for seed in range(30):
            params = random_params(DbmShape(3, 3, 2), seed=seed)
            observed = np.array([True, False, True])
            v_obs = uniform_spins(3, rng)
            r = local_search_clamped(params, v_obs, observed, rng)
            assert np.array_equal(r.state.v[observed], v_obs[observed])
            e0 = energy(params, r.state)
            concat = r.state.concat()
            free = [1] + list(range(3, 8))  # unobserved visible + all hiddens
            for i in free:
                flipped = concat.copy()
                flipped[i] = -flipped[i]
                assert energy_vhh(params, flipped[:3], flipped[3:6], flipped[6:]) >= e0 - 1e-12

    def test_rejects_nonspin_observed_entries(self, rng):
        params = random_params(DbmShape(3, 3, 2), seed=3)
        with pytest.raises(ValueError):
            local_search_clamped(params, np.array([0.5, 1.0, 1.0]),
                                 np.ones(3, dtype=bool), rng)


class TestStateSizes:
    """Block passes, sweeps and the posterior search check sizes against the model."""

    SHAPE = DbmShape(4, 3, 2)

    @staticmethod
    def _state_with_wrong(block, rng):
        sizes = {"v": 4, "h1": 3, "h2": 2}
        sizes[block] += 1
        return tuple(uniform_spins(n, rng) for n in sizes.values())

    @pytest.mark.parametrize("even_first", [True, False])
    @pytest.mark.parametrize("block", ["v", "h1", "h2"])
    def test_block_minimize_rejects_wrong_block(self, even_first, block, rng):
        params = random_params(self.SHAPE, seed=4)
        v, h1, h2 = self._state_with_wrong(block, rng)
        with pytest.raises(DimensionError):
            block_minimize_joint(params, v, h1, h2, even_first)
        with pytest.raises(DimensionError):
            block_minimize_posterior(params, v, h1, h2, even_first)

    @pytest.mark.parametrize("block", ["v", "h1", "h2"])
    def test_gibbs_sweeps_reject_wrong_block(self, block, rng):
        params = random_params(self.SHAPE, seed=4)
        v, h1, h2 = self._state_with_wrong(block, rng)
        for _ in range(4):  # the coin flip picks either block order
            with pytest.raises(DimensionError):
                gibbs_sweep_joint(params, JointState(v, h1, h2), rng)
            with pytest.raises(DimensionError):
                gibbs_sweep_posterior(params, v, HiddenState(h1, h2), rng)

    @pytest.mark.parametrize("n_v", [3, 5])
    def test_posterior_search_rejects_wrong_v(self, n_v, rng):
        params = random_params(self.SHAPE, seed=4)
        with pytest.raises(DimensionError):
            local_search_posterior(params, uniform_spins(n_v, rng), rng)


class TestGibbsSweeps:
    def test_zero_params_units_are_fair_coins(self, rng):
        params = DbmParams.zeros(DbmShape(3, 2, 1))
        x = JointState(np.ones(3), np.ones(2), np.ones(1))
        n = 100_000
        acc = np.zeros(6)
        for _ in range(n):
            x = gibbs_sweep_joint(params, x, rng)
            acc += x.concat()
        mean = acc / n
        assert np.all(np.abs(mean) < 4.0 / np.sqrt(n))

    @pytest.mark.slow
    def test_long_chain_matches_boltzmann(self, rng):
        # total-variation agreement with the enumerated distribution
        params = random_params(DbmShape(2, 2, 1), seed=5, scale=0.8)
        exact = enumerate_joint(params).probabilities
        counts = np.zeros(2 ** 5)
        x = JointState(uniform_spins(2, rng), uniform_spins(2, rng), uniform_spins(1, rng))
        n = 1_000_000
        for _ in range(n):
            x = gibbs_sweep_joint(params, x, rng)
            counts[state_index(x.concat())] += 1
        tv = 0.5 * np.abs(counts / n - exact).sum()
        assert tv < 0.02

    def test_posterior_sweep_never_touches_v(self, rng):
        params = random_params(DbmShape(3, 3, 2), seed=2)
        v = np.array([1.0, -1.0, 1.0])
        from spindbm import HiddenState
        h = HiddenState(uniform_spins(3, rng), uniform_spins(2, rng))
        for _ in range(50):
            h = gibbs_sweep_posterior(params, v, h, rng)
            assert set(np.unique(h.h1)) <= {-1.0, 1.0}

    def test_posterior_sweep_matches_exact_posterior(self, rng):
        from spindbm import HiddenState, enumerate_posterior
        params = random_params(DbmShape(2, 2, 1), seed=9, scale=0.8)
        v = np.array([1.0, -1.0])
        exact = enumerate_posterior(params, v).probabilities
        counts = np.zeros(2 ** 3)
        h = HiddenState(uniform_spins(2, rng), uniform_spins(1, rng))
        n = 300_000
        for _ in range(n):
            h = gibbs_sweep_posterior(params, v, h, rng)
            counts[state_index(h.concat())] += 1
        tv = 0.5 * np.abs(counts / n - exact).sum()
        assert tv < 0.02


# ---------------------------------------------------------------------------
# The search loop carries its fields between passes. The reference below is
# the loop that recomputes every field on every pass, kept verbatim with the
# block pass it calls (clamp = (observed, v_obs) masks the observed units).
# ---------------------------------------------------------------------------

_THRESHOLD = (None, None, None)


def _odd_field(params, v, h2, c):
    return params.W1.T @ v + params.W2 @ h2 + params.b_h1 if c is None else c + params.W2 @ h2


def _reference_block_pass(params, v, h1, h2, even_first, uniforms=_THRESHOLD,
                          c=None, clamp=None):
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


def _state(v, h1, h2, posterior):
    return HiddenState(h1, h2) if posterior else JointState(v, h1, h2)


def _reference_fixed_point(params, v, rng, trace, c=None, clamp=None):
    n_h1, n_h2 = params.W2.shape
    h1 = uniform_spins(n_h1, rng)
    h2 = uniform_spins(n_h2, rng)
    even_first = rng.random() < 0.5
    cap = default_max_iterations(params)
    posterior = c is not None
    if trace is not None:
        trace.append(_state(v, h1, h2, posterior))
    for it in range(1, cap + 1):
        v_new, h1_new, h2_new = _reference_block_pass(params, v, h1, h2, even_first,
                                                      _THRESHOLD, c, clamp)
        if trace is not None:
            trace.append(_state(v_new, h1_new, h2_new, posterior))
        # v_new is v when c fixes v
        if ((v_new is v or np.array_equal(v_new, v)) and np.array_equal(h1_new, h1)
                and np.array_equal(h2_new, h2)):
            return SearchResult(_state(v_new, h1_new, h2_new, posterior), it)
        v, h1, h2 = v_new, h1_new, h2_new
    raise SearchDivergenceError(f"no fixed point within {cap} iterations")


def _reference_search(kind, params, rng, v=None, observed=None, trace=None):
    if kind == "joint":
        return _reference_fixed_point(params, uniform_spins(params.W1.shape[0], rng), rng,
                                      trace)
    if kind == "posterior":
        return _reference_fixed_point(params, v, rng, trace,
                                      c=params.W1.T @ v + params.b_h1)
    v_obs = np.where(observed, v, 0.0)
    v0 = np.where(observed, v_obs, uniform_spins(len(v), rng))
    return _reference_fixed_point(params, v0, rng, trace, clamp=(observed, v_obs))


def _search(kind, params, rng, v=None, observed=None, trace=None):
    if kind == "joint":
        return local_search_joint(params, rng, trace=trace)
    if kind == "posterior":
        return local_search_posterior(params, v, rng, trace=trace)
    return local_search_clamped(params, v, observed, rng, trace=trace)


def _even_first(kind, params, seed):
    """The block order a search drew from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    n_v, n_h1 = params.W1.shape
    if kind != "posterior":
        uniform_spins(n_v, rng)
    uniform_spins(n_h1, rng)
    uniform_spins(params.W2.shape[1], rng)
    return rng.random() < 0.5


def _same(a, b):
    return all(np.array_equal(x, y) for x, y in zip(vars(a).values(), vars(b).values()))


@pytest.fixture
def exact_passes(monkeypatch):
    """Record (input, output) of every block_pass the search loop runs to confirm."""
    calls, real = [], search.block_pass

    def spy(params, v, h1, h2, even_first, uniforms=_THRESHOLD, c=None, rows=None,
            fields=None):
        out = real(params, v, h1, h2, even_first, uniforms, c, rows, fields)
        calls.append(((v, h1, h2), out[:3]))
        return out

    monkeypatch.setattr(search, "block_pass", spy)
    return calls


class TestIncrementalFields:
    @pytest.mark.parametrize("shape", [DbmShape(512, 128, 64), DbmShape(784, 200, 100)],
                             ids=str)
    @pytest.mark.parametrize("model", ["gaussian", "orthogonal"])
    @pytest.mark.parametrize("kind", ["joint", "posterior", "clamped-half",
                                      "clamped-scattered"])
    def test_matches_fresh_field_reference(self, shape, model, kind, exact_passes):
        params = (random_params(shape, seed=11) if model == "gaussian"
                  else init_params(shape, np.random.default_rng(11)))
        n_v = shape.n_v
        observed = {"clamped-half": np.arange(n_v) < n_v // 2,
                    "clamped-scattered": np.random.default_rng(3).random(n_v) < 0.5
                    }.get(kind)
        base = kind.split("-")[0]
        for seed in range(30):
            v = uniform_spins(n_v, np.random.default_rng(1000 + seed))
            t_ref, t_new = [], []
            ref = _reference_search(base, params, np.random.default_rng(seed), v, observed,
                                    t_ref)
            new = _search(base, params, np.random.default_rng(seed), v, observed, t_new)
            assert new.steps == ref.steps
            assert _same(new.state, ref.state)
            assert len(t_new) == len(t_ref)
            assert all(_same(a, b) for a, b in zip(t_new, t_ref))
            # the result is a fixed point of the exact pass in the search's order
            even_first = _even_first(base, params, seed)
            x = new.state
            if base == "joint":
                again = block_minimize_joint(params, x.v, x.h1, x.h2, even_first)
            elif base == "posterior":
                again = block_minimize_posterior(params, v, x.h1, x.h2, even_first)
            else:
                again = _reference_block_pass(params, x.v, x.h1, x.h2, even_first,
                                              clamp=(observed, v))
            assert all(np.array_equal(a, b) for a, b in
                       zip(again, (x.h1, x.h2) if base == "posterior" else (x.v, x.h1, x.h2)))
        # fields were updated from flipped units, so some searches ran the confirming pass
        assert exact_passes
        assert all(_same(JointState(*a), JointState(*b)) for a, b in exact_passes)

    def test_confirming_pass_moves_state(self, exact_passes):
        # h1[1]'s field sums to exactly 0 fresh once v[1] = -1, so sgn gives +1:
        # fl(1 - 2^-53) - (1 - 2^-53) = 0. Updated from the v[1] = +1 state
        # instead, fl(1 + 2^-53) = 1 has already dropped the 2^-53, and the field
        # reads fl(2^-53 - 2^-52) = -2^-53 < 0.
        eps = 2.0 ** -53
        params = DbmParams.zeros(DbmShape(8, 2, 0))
        params.W1[0, 1] = 1.0    # v[0] = +1 always (bias 2) feeds h1[1]
        params.W1[1, 1] = eps
        params.W1[1, 0] = 1.0    # v[1] follows h1[0], which becomes -1 (bias -2)
        params.b_v[0] = 2.0
        params.b_h1[:] = (-2.0, -(1.0 - eps))
        moved = 0
        for seed in range(40):
            ref = _reference_search("joint", params, np.random.default_rng(seed))
            n = len(exact_passes)
            r = local_search_joint(params, np.random.default_rng(seed))
            assert _same(r.state, ref.state)
            assert r.state.h1[1] == 1.0
            x = r.state
            again = block_minimize_joint(params, x.v, x.h1, x.h2,
                                         _even_first("joint", params, seed))
            assert all(np.array_equal(a, b) for a, b in zip(again, (x.v, x.h1, x.h2)))
            moved += any(not _same(JointState(*a), JointState(*b))
                         for a, b in exact_passes[n:])
        assert moved > 0


class TestFieldHandover:
    """A joint search hands its fields at the returned state to the Gibbs sweep."""

    @pytest.mark.parametrize("shape", [DbmShape(16, 16, 8), DbmShape(512, 128, 64),
                                       DbmShape(784, 200, 100)], ids=str)
    @pytest.mark.parametrize("model", ["gaussian", "orthogonal"])
    @pytest.mark.parametrize("fields_from", ["full-recompute", "confirming-pass"])
    def test_fields_are_fresh_and_sweep_matches(self, shape, model, fields_from,
                                                exact_passes, monkeypatch):
        params = (random_params(shape, seed=11) if model == "gaussian"
                  else init_params(shape, np.random.default_rng(11)))
        if fields_from == "full-recompute":  # every flip count is "many": no delta updates
            monkeypatch.setattr(search, "_ROW_SHARE", 10 ** 9)
            monkeypatch.setattr(search, "_COLUMN_SHARE", 10 ** 9)
        confirmed = passes = 0
        for seed in range(30):
            n = len(exact_passes)
            r = local_search_joint(params, np.random.default_rng(seed))
            passes += len(exact_passes) - n
            confirmed += any(_same(JointState(*a), JointState(*b))
                             for a, b in exact_passes[n:])
            x = r.state
            a_v, a_h1, a_h2 = r.fields
            assert np.array_equal(a_v, v_field(params, x.h1))
            assert np.array_equal(a_h1, h1_field(params, x.v, x.h2))
            assert np.array_equal(a_h2, h2_field(params, x.h1))
            rng_a, rng_b = np.random.default_rng(500 + seed), np.random.default_rng(500 + seed)
            assert _same(gibbs_sweep_joint(params, x, rng_a, fields=r.fields),
                         gibbs_sweep_joint(params, x, rng_b))
            assert rng_a.random() == rng_b.random()
        if fields_from == "full-recompute":
            assert passes == 0
        else:
            assert confirmed > 0

    def test_sweep_reads_the_handed_fields(self):
        params = random_params(DbmShape(64, 32, 16), seed=4)
        r = local_search_joint(params, np.random.default_rng(0))
        flipped = tuple(-a for a in r.fields)
        differs = [not _same(gibbs_sweep_joint(params, r.state, np.random.default_rng(s),
                                               fields=flipped),
                             gibbs_sweep_joint(params, r.state, np.random.default_rng(s)))
                   for s in range(10)]
        assert all(differs)

    def test_posterior_and_clamped_searches_carry_no_fields(self, rng):
        params = random_params(DbmShape(8, 6, 4), seed=2)
        v = uniform_spins(8, rng)
        assert local_search_posterior(params, v, rng).fields is None
        assert local_search_clamped(params, v, np.arange(8) < 4, rng).fields is None


class TestSpinDraw:
    def test_matches_expit_threshold(self):
        # the tanh threshold against scipy's sigmoid on fields from -400 to 400,
        # with uniforms spread over [0, 1) and others just off each threshold,
        # handed to _spins as sweep_uniforms draws them: 2u - 1 on [-1, 1)
        rng = np.random.default_rng(0)
        field = np.concatenate([np.linspace(-400.0, 400.0, 80_001),
                                np.linspace(-20.0, 20.0, 80_001)])
        p = expit(2.0 * field)
        near = p + rng.choice([-1.0, 1.0], field.size) * 10.0 ** rng.uniform(-11.9, -2, field.size)
        for u in (rng.random(field.size), np.clip(near, 0.0, np.nextafter(1.0, 0.0))):
            keep = np.abs(u - p) > 1e-12
            assert keep.sum() > field.size // 2
            assert np.array_equal(_spins(field[keep], 2.0 * u[keep] - 1.0),
                                  np.where(u < p, 1.0, -1.0)[keep])
