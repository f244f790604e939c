import builtins
import itertools
import struct

import numpy as np
import pytest
from scipy.special import expit

from spindbm import (CheckpointError, DbmParams, DbmShape, DimensionError,
                     GradEstimate, JointState, energy, grad_energy_even_marginal,
                     grad_energy_odd_marginal, grad_energy_odd_posterior, load_params,
                     save_params, uniform_spins)
from spindbm import model, oracle
from spindbm.training import (AdamOptimizer, SgdOptimizer, default_check_model,
                              gradient_from_states, init_params)
from spindbm.model import grad_energy_vhh, h1_field, h2_field, v_field

from conftest import enumerated_states, random_params, summed_out_energy


def scalar_loop_energy(params, x):
    """Independent term-by-term evaluation of the joint energy."""
    e = 0.0
    for i in range(len(x.v)):
        for j in range(len(x.h1)):
            e -= x.v[i] * params.W1[i, j] * x.h1[j]
    for j in range(len(x.h1)):
        for k in range(len(x.h2)):
            e -= x.h1[j] * params.W2[j, k] * x.h2[k]
    e -= sum(params.b_v[i] * x.v[i] for i in range(len(x.v)))
    e -= sum(params.b_h1[j] * x.h1[j] for j in range(len(x.h1)))
    e -= sum(params.b_h2[k] * x.h2[k] for k in range(len(x.h2)))
    return e


def all_states(shape):
    for bits in itertools.product([-1.0, 1.0], repeat=shape.total):
        a = np.array(bits)
        yield JointState(a[:shape.n_v], a[shape.n_v:shape.n_v + shape.n_h1],
                         a[shape.n_v + shape.n_h1:])


def central_diff(f, params, step=1e-6):
    """Central finite differences of f(params) along every parameter."""
    shape = params.shape
    vec = params.as_vector()
    out = np.empty_like(vec)
    for i in range(len(vec)):
        hi = vec.copy()
        hi[i] += step
        lo = vec.copy()
        lo[i] -= step
        out[i] = (f(DbmParams.from_vector(shape, hi))
                  - f(DbmParams.from_vector(shape, lo))) / (2 * step)
    return out


class TestEnergy:
    def test_zero_params_zero_energy(self, rng):
        params = DbmParams.zeros(DbmShape(4, 3, 2))
        x = JointState(uniform_spins(4, rng), uniform_spins(3, rng), uniform_spins(2, rng))
        assert energy(params, x) == 0.0

    def test_one_one_one_hand_value(self):
        params = DbmParams(np.array([[1.0]]), np.array([[1.0]]),
                           np.zeros(1), np.zeros(1), np.zeros(1))
        x = JointState(np.array([1.0]), np.array([1.0]), np.array([1.0]))
        assert energy(params, x) == -2.0

    def test_matches_scalar_loop(self, params_332, rng):
        for _ in range(20):
            x = JointState(uniform_spins(3, rng), uniform_spins(3, rng), uniform_spins(2, rng))
            assert abs(energy(params_332, x) - scalar_loop_energy(params_332, x)) < 1e-12

    def test_shape_mismatch_raises(self, params_332, rng):
        bad = JointState(uniform_spins(4, rng), uniform_spins(3, rng), uniform_spins(2, rng))
        with pytest.raises(DimensionError):
            energy(params_332, bad)

    def test_hidden_relabeling_invariance(self, params_332, rng):
        # swapping two first-hidden units together with their weights/biases
        p = params_332.copy()
        p.W1 = p.W1[:, [1, 0, 2]]
        p.W2 = p.W2[[1, 0, 2], :]
        p.b_h1 = p.b_h1[[1, 0, 2]]
        for _ in range(10):
            x = JointState(uniform_spins(3, rng), uniform_spins(3, rng), uniform_spins(2, rng))
            swapped = JointState(x.v, x.h1[[1, 0, 2]], x.h2)
            assert abs(energy(params_332, x) - energy(p, swapped)) < 1e-12


def _split_rows(shape, spins):
    n_v, n_vh = shape.n_v, shape.n_v + shape.n_h1
    return spins[:, :n_v], spins[:, n_v:n_vh], spins[:, n_vh:]


class TestEnergyKernel:
    """energy_vhh on stacked rows against the oracle, single rows and the clamped-v form."""

    def test_all_states_match_oracle_and_single_rows(self):
        params = default_check_model()[0]
        spins = oracle.spin_table(params.shape.total)
        assert spins.shape == (2 ** 8, 8)
        V, H1, H2 = _split_rows(params.shape, spins)
        e = model.energy_vhh(params, V, H1, H2)
        assert e.shape == (2 ** 8,)
        assert np.max(np.abs(e - oracle._joint_energies(params, spins))) <= 1e-12
        singles = np.array([model.energy_vhh(params, *row) for row in zip(V, H1, H2)])
        assert np.max(np.abs(e - singles)) <= 1e-12

    @pytest.mark.parametrize("shape", [DbmShape(3, 3, 2), DbmShape(6, 5, 0)], ids=str)
    def test_clamped_v_form_equals_plain_form(self, shape):
        params = random_params(shape, seed=8)
        V, H1, H2 = _split_rows(shape, oracle.spin_table(shape.total))
        e = model.energy_vhh(params, V, H1, H2)
        C = model.v_share(params, V)
        assert np.max(np.abs(model.energy_vhh(params, V, H1, H2, C) - e)) <= 1e-12
        v = V[5]  # one clamped v shared by every row
        c = model.v_share(params, v)
        plain = model.energy_vhh(params, np.tile(v, (len(H1), 1)), H1, H2)
        assert np.max(np.abs(model.energy_vhh(params, v, H1, H2, c) - plain)) <= 1e-12
        for row in (0, 9, len(H1) - 1):
            assert model.energy_vhh(params, V[row], H1[row], H2[row], C[row]) == \
                pytest.approx(e[row], abs=1e-12)

    def test_rbm_matches_oracle(self):
        params = random_params(DbmShape(4, 3, 0), seed=9)
        spins = oracle.spin_table(7)
        e = model.energy_vhh(params, *_split_rows(params.shape, spins))
        assert np.max(np.abs(e - oracle._joint_energies(params, spins))) <= 1e-12

    def test_one_state_returns_python_float(self, params_332, rng):
        v, h1, h2 = uniform_spins(3, rng), uniform_spins(3, rng), uniform_spins(2, rng)
        e = model.energy_vhh(params_332, v, h1, h2)
        assert type(e) is float
        assert type(model.energy_vhh(params_332, v, h1, h2, model.v_share(params_332, v))) \
            is float
        assert e == pytest.approx(scalar_loop_energy(params_332, JointState(v, h1, h2)),
                                  abs=1e-12)


class TestLocalFields:
    def test_zero_params_give_half_probability(self, rng):
        params = DbmParams.zeros(DbmShape(3, 3, 2))
        h1 = uniform_spins(3, rng)
        a_v, a_h2 = v_field(params, h1), h2_field(params, h1)
        assert np.all(a_v == 0) and np.all(a_h2 == 0)
        assert np.all(expit(2 * a_v) == 0.5)
        assert np.all(h1_field(params, uniform_spins(3, rng), uniform_spins(2, rng)) == 0)

    def test_single_unit_conditional_matches_enumeration(self):
        # 1-1-1 model, W1 = 3: P(v=+1 | h1=+1) from the two-state normalization
        params = DbmParams(np.array([[3.0]]), np.array([[1.0]]),
                           np.zeros(1), np.zeros(1), np.zeros(1))
        h1 = np.array([1.0])
        a_v = v_field(params, h1)
        assert a_v[0] == 3.0
        h2 = np.array([1.0])
        e_plus = energy(params, JointState(np.array([1.0]), h1, h2))
        e_minus = energy(params, JointState(np.array([-1.0]), h1, h2))
        p_enum = np.exp(-e_plus) / (np.exp(-e_plus) + np.exp(-e_minus))
        assert abs(expit(2 * a_v[0]) - p_enum) < 1e-12
        assert abs(p_enum - expit(6.0)) < 1e-12

    def test_odd_field_cancellation(self):
        params = DbmParams(np.array([[1.0]]), np.array([[1.0]]),
                           np.zeros(1), np.zeros(1), np.zeros(1))
        a = h1_field(params, np.array([1.0]), np.array([-1.0]))
        assert a[0] == 0.0

    def test_gibbs_consistency_exhaustive(self, params_332):
        # every unit's sigmoid(2 field) equals the exact conditional from energies
        shape = params_332.shape
        for x in all_states(shape):
            a_v, a_h2 = v_field(params_332, x.h1), h2_field(params_332, x.h1)
            a_h1 = h1_field(params_332, x.v, x.h2)
            for layer, fields in (("v", a_v), ("h1", a_h1), ("h2", a_h2)):
                vec = getattr(x, layer)
                for i in range(len(vec)):
                    up = JointState(x.v.copy(), x.h1.copy(), x.h2.copy())
                    getattr(up, layer)[i] = 1.0
                    dn = JointState(x.v.copy(), x.h1.copy(), x.h2.copy())
                    getattr(dn, layer)[i] = -1.0
                    e_up, e_dn = energy(params_332, up), energy(params_332, dn)
                    p_exact = np.exp(-e_up) / (np.exp(-e_up) + np.exp(-e_dn))
                    assert abs(expit(2 * fields[i]) - p_exact) < 1e-12


_KERNEL_SHAPES = [DbmShape(3, 3, 2), DbmShape(16, 16, 8), DbmShape(130, 40, 20),
                  DbmShape(6, 5, 0)]


def _free_rows(params, free):
    return (free, params.W1[free], params.b_v[free])


class TestFieldKernel:
    """model's field kernel: one state against the W'x form, rows against stacked states."""

    @pytest.mark.parametrize("shape", _KERNEL_SHAPES, ids=str)
    @pytest.mark.parametrize("kind", ["spins", "means"])
    def test_one_state_equals_transposed_form_bit_for_bit(self, shape, kind):
        params = random_params(shape, seed=3)
        r = np.random.default_rng(4)
        if kind == "spins":
            v, h1, h2 = (uniform_spins(n, r) for n in (shape.n_v, shape.n_h1, shape.n_h2))
        else:  # mean-field floats in (-1, 1)
            v, h1, h2 = (np.tanh(r.standard_normal(n))
                         for n in (shape.n_v, shape.n_h1, shape.n_h2))
        W1, W2, b_v, b_h1, b_h2 = params.arrays()
        c = W1.T @ v + b_h1
        assert np.array_equal(model.v_share(params, v), c)
        assert np.array_equal(model.h1_field(params, v, h2), W1.T @ v + W2 @ h2 + b_h1)
        assert np.array_equal(model.h1_field(params, v, h2, c), c + W2 @ h2)
        assert np.array_equal(model.v_field(params, h1), W1 @ h1 + b_v)
        assert np.array_equal(model.h2_field(params, h1), W2.T @ h1 + b_h2)
        contiguous = slice(1, shape.n_v - 1)
        scattered = np.arange(0, shape.n_v, 2)
        for free in (contiguous, scattered):
            assert np.array_equal(model.v_field(params, h1, _free_rows(params, free)),
                                  W1[free] @ h1 + b_v[free])

    @pytest.mark.parametrize("shape", _KERNEL_SHAPES, ids=str)
    def test_rows_equal_stacked_single_states(self, shape):
        params = random_params(shape, seed=5)
        r = np.random.default_rng(6)
        n_rows = 7
        V = np.where(r.random((n_rows, shape.n_v)) < 0.5, 1.0, -1.0)
        H1 = np.tanh(r.standard_normal((n_rows, shape.n_h1)))
        H2 = np.where(r.random((n_rows, shape.n_h2)) < 0.5, 1.0, -1.0)
        C = model.v_share(params, V)
        rows = _free_rows(params, np.arange(0, shape.n_v, 2))
        cases = [
            (C, [model.v_share(params, v) for v in V]),
            (model.h1_field(params, V, H2), [model.h1_field(params, v, h2)
                                             for v, h2 in zip(V, H2)]),
            (model.h1_field(params, V, H2, C), [model.h1_field(params, v, h2, c)
                                                for v, h2, c in zip(V, H2, C)]),
            (model.v_field(params, H1), [model.v_field(params, h1) for h1 in H1]),
            (model.v_field(params, H1, rows), [model.v_field(params, h1, rows) for h1 in H1]),
            (model.h2_field(params, H1), [model.h2_field(params, h1) for h1 in H1]),
        ]
        for batch, singles in cases:
            stacked = np.stack(singles)
            assert batch.shape == stacked.shape
            scale = np.max(np.abs(stacked), initial=0.0)
            assert np.max(np.abs(batch - stacked), initial=0.0) <= 1e-12 * scale


class TestGradients:
    def test_all_plus_one_gives_minus_one_blocks(self):
        params = DbmParams.zeros(DbmShape(3, 3, 2))
        x = JointState(np.ones(3), np.ones(3), np.ones(2))
        g = grad_energy_vhh(x.v, x.h1, x.h2)
        assert np.all(g.dW1 == -1.0)
        assert np.all(g.dW2 == -1.0)
        assert np.all(g.db_v == -1.0)

    def test_sign_product(self):
        g = grad_energy_vhh(np.array([1.0, -1.0]), np.array([-1.0]), np.zeros(0))
        assert g.dW1[0, 0] == 1.0   # (+1)(-1) flipped by the leading minus
        assert g.dW1[1, 0] == -1.0

    def test_zero_params_even_marginal_blocks(self, rng):
        params = DbmParams.zeros(DbmShape(3, 3, 2))
        v, h2 = uniform_spins(3, rng), uniform_spins(2, rng)
        g = grad_energy_even_marginal(params, v, h2)
        assert np.all(g.dW1 == 0)       # tanh(0) wipes the summed-out block
        assert np.all(g.dW2 == 0)
        assert np.all(g.db_h1 == 0)
        assert np.array_equal(g.db_v, -v)
        assert np.array_equal(g.db_h2, -h2)

    def test_joint_gradient_matches_finite_differences(self, rng):
        for seed in range(20):
            params = random_params(DbmShape(4, 3, 2), seed=seed)
            x = JointState(uniform_spins(4, rng), uniform_spins(3, rng), uniform_spins(2, rng))
            fd = central_diff(lambda p: energy(p, x), params)
            np.testing.assert_allclose(grad_energy_vhh(x.v, x.h1, x.h2).as_vector(), fd,
                                       rtol=1e-6, atol=1e-6)

    def test_marginal_gradients_match_finite_differences(self, rng):
        # references by brute-force sums over the summed-out block
        shape = DbmShape(4, 3, 2)
        for seed in range(20):
            params = random_params(shape, seed=seed)
            v = uniform_spins(4, rng)
            h1 = uniform_spins(3, rng)
            h2 = uniform_spins(2, rng)
            cases = [
                (grad_energy_even_marginal(params, v, h2),
                 lambda p: summed_out_energy(p, v=v, h2=h2)),
                (grad_energy_odd_marginal(params, h1),
                 lambda p: summed_out_energy(p, h1=h1)),
                (grad_energy_odd_posterior(params, v, h1),
                 lambda p: summed_out_energy(p, v=v, h1=h1)),
            ]
            for analytic, f in cases:
                np.testing.assert_allclose(analytic.as_vector(), central_diff(f, params),
                                           rtol=1e-6, atol=1e-6)

    def test_marginalized_expectation_identity(self, params_332):
        # the marginalized estimator's rows, averaged exactly over the
        # enumerated states, reproduce the plain log-likelihood gradient
        params = params_332
        v = np.array([1.0, -1.0, 1.0])
        marg = gradient_from_states(params, "marginalized", *enumerated_states(params, v))
        exact = oracle.exact_grad_loglik(params, v)
        np.testing.assert_allclose(marg.as_vector(), exact.as_vector(), atol=1e-10)


class TestGradEstimateArithmetic:
    def test_add_scaled_scale_norm(self):
        shape = DbmShape(2, 2, 1)
        a = GradEstimate.zeros(shape)
        a.vec[:] = 1.0
        c = a.copy().scale(2.0)
        assert np.all(c.vec == 2.0) and np.all(a.vec == 1.0)
        assert c.add_scaled(a) is c
        assert np.all(c.vec == 3.0)
        c.add_scaled(a, -2.0)
        assert np.all(c.vec == 1.0)
        c.add_scaled(a, 3.0)
        assert np.all(c.vec == 4.0)
        assert c.norm() == pytest.approx(4.0 * np.sqrt(len(c.vec)))

    def test_views_share_storage(self):
        g = GradEstimate.zeros(DbmShape(2, 3, 1))
        g.dW1[0, 0] = 5.0
        assert g.vec[0] == 5.0
        assert g.dW2.shape == (3, 1)
        assert g.db_v.shape == (2,)
        assert g.db_h1.shape == (3,)
        assert g.db_h2.shape == (1,)

    def test_from_parts_round_trip(self, rng):
        dW1 = rng.standard_normal((2, 3))
        dW2 = rng.standard_normal((3, 1))
        g = GradEstimate(dW1, dW2, np.ones(2), np.zeros(3), np.ones(1))
        assert np.array_equal(g.dW1, dW1)
        assert np.array_equal(g.dW2, dW2)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, params_332, tmp_path):
        path = tmp_path / "model.udbm"
        save_params(params_332, path)
        loaded = load_params(path)
        for a, b in zip(params_332.arrays(), loaded.arrays()):
            assert np.array_equal(a, b)
        save_params(loaded, tmp_path / "again.udbm")
        assert (tmp_path / "model.udbm").read_bytes() == (tmp_path / "again.udbm").read_bytes()

    def test_rejects_bad_magic(self, params_332, tmp_path):
        path = tmp_path / "model.udbm"
        save_params(params_332, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_rejects_bad_version(self, params_332, tmp_path):
        path = tmp_path / "model.udbm"
        save_params(params_332, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 9
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_rejects_truncated_file(self, params_332, tmp_path):
        path = tmp_path / "model.udbm"
        save_params(params_332, path)
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError):
            load_params(path)

    def test_failed_write_keeps_previous_file(self, params_332, tmp_path, monkeypatch):
        path = tmp_path / "model.udbm"
        save_params(params_332, path)
        before = path.read_bytes()

        class FailingFile:
            def __init__(self, f):
                self.f, self.writes = f, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, b):
                self.writes += 1
                if self.writes == 3:  # after the magic and the version byte
                    raise OSError("disk full")
                return self.f.write(b)

        monkeypatch.setattr(model, "open",
                            lambda *a, **kw: FailingFile(builtins.open(*a, **kw)),
                            raising=False)
        changed = params_332.copy()
        changed.W1 += 1.0
        with pytest.raises(OSError, match="disk full"):
            save_params(changed, path)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.udbm"]

    def test_layout_is_little_endian_f8(self, tmp_path):
        params = DbmParams(np.array([[2.0]]), np.array([[3.0]]),
                           np.array([5.0]), np.array([7.0]), np.array([11.0]))
        path = tmp_path / "tiny.udbm"
        save_params(params, path)
        blob = path.read_bytes()
        assert blob[:4] == b"UDBM" and blob[4] == 1
        assert np.frombuffer(blob, dtype="<u4", count=3, offset=5).tolist() == [1, 1, 1]
        assert np.frombuffer(blob, dtype="<f8", offset=17).tolist() == [2, 3, 5, 7, 11]

    def test_byte_layout_of_non_square_model(self, tmp_path):
        W1 = np.array([[1.5, -2.25, 3.0], [4.125, -5.0, 6.5]])
        W2 = np.array([[7.75], [-8.0], [9.0625]])
        b_v, b_h1, b_h2 = np.array([10.5, -11.0]), np.array([12.0, 13.25, -14.5]), np.array([15.0])
        expected = (b"UDBM" + bytes([1]) + struct.pack("<III", 2, 3, 1)
                    + struct.pack("<6d", 1.5, -2.25, 3.0, 4.125, -5.0, 6.5)
                    + struct.pack("<3d", 7.75, -8.0, 9.0625)
                    + struct.pack("<2d", 10.5, -11.0)
                    + struct.pack("<3d", 12.0, 13.25, -14.5)
                    + struct.pack("<d", 15.0))
        path = tmp_path / "m.udbm"
        save_params(DbmParams(W1, W2, b_v, b_h1, b_h2), path)
        assert path.read_bytes() == expected
        literal = tmp_path / "literal.udbm"
        literal.write_bytes(expected)
        loaded = load_params(literal)
        assert loaded.shape == DbmShape(2, 3, 1)
        for got, want in zip(loaded.arrays(), (W1, W2, b_v, b_h1, b_h2)):
            assert got.shape == want.shape and np.array_equal(got, want)

    def test_rejects_body_of_wrong_length(self, params_332, tmp_path):
        path = tmp_path / "model.udbm"
        save_params(params_332, path)
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(CheckpointError, match="length"):
            load_params(path)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CheckpointError):
            load_params(path)


def _made_by(how, tmp_path):
    """A 4-3-2 DbmParams made the way `how` names."""
    shape = DbmShape(4, 3, 2)
    base = random_params(shape, seed=3)
    grad = GradEstimate.from_vector(shape, np.linspace(-1.0, 1.0, len(base.vec)))
    if how == "constructor":
        return base
    if how == "init_params":
        return init_params(shape, np.random.default_rng(0))
    if how == "load_params":
        save_params(base, tmp_path / "m.udbm")
        return load_params(tmp_path / "m.udbm")
    if how == "from_vector":
        return DbmParams.from_vector(shape, base.as_vector())
    if how == "zeros":
        return DbmParams.zeros(shape)
    if how == "copy":
        return base.copy()
    if how == "sgd":
        return SgdOptimizer(0.1).update(base, grad)
    if how == "adam":
        return AdamOptimizer(0.1).update(base, grad)
    raise AssertionError(how)


class TestParamStorage:
    HOW = ("constructor", "init_params", "load_params", "from_vector", "zeros", "copy",
           "sgd", "adam")

    @pytest.mark.parametrize("how", HOW)
    def test_arrays_are_views_of_vec(self, how, tmp_path):
        p = _made_by(how, tmp_path)
        assert p.vec.shape == (4 * 3 + 3 * 2 + 4 + 3 + 2,) and p.vec.dtype == np.float64
        shapes = [(4, 3), (3, 2), (4,), (3,), (2,)]
        for a, want in zip(p.arrays(), shapes):
            assert a.shape == want
            assert np.shares_memory(a, p.vec)
        assert np.array_equal(np.concatenate([a.ravel() for a in p.arrays()]), p.vec)

    @pytest.mark.parametrize("how", HOW)
    def test_write_through_b_v_shows_in_vec(self, how, tmp_path):
        p = _made_by(how, tmp_path)
        p.b_v[:] = [21.0, 22.0, 23.0, 24.0]
        assert p.vec[18:22].tolist() == [21.0, 22.0, 23.0, 24.0]
        assert p.as_vector()[18:22].tolist() == [21.0, 22.0, 23.0, 24.0]

    def test_copy_shares_no_memory(self):
        p = random_params(DbmShape(4, 3, 2), seed=3)
        q = p.copy()
        assert not np.shares_memory(q.vec, p.vec)
        for a in q.arrays():
            for b in p.arrays():
                assert not np.shares_memory(a, b)
        q.W1[0, 0] += 1.0
        assert q.W1[0, 0] != p.W1[0, 0]

    def test_as_vector_is_a_copy(self):
        p = random_params(DbmShape(4, 3, 2), seed=3)
        assert not np.shares_memory(p.as_vector(), p.vec)

    def test_constructor_copies_its_inputs(self):
        W1 = np.ones((2, 1))
        p = DbmParams(W1, np.ones((1, 1)), np.ones(2), np.ones(1), np.ones(1))
        W1[0, 0] = 5.0
        assert p.W1[0, 0] == 1.0

    @pytest.mark.parametrize("parts", [
        ((3, 2), (3, 1), (3,), (2,), (1,)),   # W2 rows != n_h1
        ((3, 2), (2, 1), (2,), (2,), (1,)),   # b_v
        ((3, 2), (2, 1), (3,), (3,), (1,)),   # b_h1
        ((3, 2), (2, 1), (3,), (2,), (2,)),   # b_h2
        ((3, 2), (2, 1), (3, 1), (2,), (1,)),  # b_v not a vector
        ((6,), (2, 1), (3,), (2,), (1,)),     # W1 not a matrix
    ])
    def test_mismatched_shapes_raise_at_construction(self, parts):
        with pytest.raises(DimensionError):
            DbmParams(*(np.zeros(s) for s in parts))

    def test_from_vector_rejects_wrong_length(self):
        with pytest.raises(DimensionError):
            DbmParams.from_vector(DbmShape(2, 2, 1), np.zeros(10))

    def test_from_vector_wraps_without_copy(self):
        vec = np.arange(11.0)
        p = DbmParams.from_vector(DbmShape(2, 2, 1), vec)
        assert np.shares_memory(p.vec, vec)
        assert p.W2.tolist() == [[4.0], [5.0]] and p.b_h2.tolist() == [10.0]

    def test_gradients_are_views_of_vec(self, rng):
        shape = DbmShape(4, 3, 2)
        x = JointState(uniform_spins(4, rng), uniform_spins(3, rng), uniform_spins(2, rng))
        g = grad_energy_vhh(x.v, x.h1, x.h2)
        made = [g, GradEstimate.zeros(shape), g.copy(), GradEstimate(*g.arrays())]
        for e in made:
            assert isinstance(e, GradEstimate) and e.sizes == (4, 3, 2)
            for a in (e.dW1, e.dW2, e.db_v, e.db_h1, e.db_h2):
                assert np.shares_memory(a, e.vec)
        assert np.array_equal(g.dW1, -np.outer(x.v, x.h1))
        assert np.array_equal(g.db_h2, -x.h2)

    def test_rbm_layout_has_empty_second_layer(self):
        p = DbmParams.zeros(DbmShape(3, 2, 0))
        assert p.W2.shape == (2, 0) and p.b_h2.shape == (0,) and len(p.vec) == 11
