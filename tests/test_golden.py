"""Golden guard: the sampler's +-1 outputs and a short training run, pinned.

Every public search, Gibbs, MH, coupling, sampling and completion entry
point, and training's positive and negative stages at R = 1, which chain a
search, a sweep and an MH coupling, runs on fixed seeds and shapes (including
n_h2 = 0 and masks that observe all, some and none of the visible
units), and the sha256 of its spin outputs, iteration counts and
coupling times is compared with a recorded digest. Spins are exact, so
the digests do not depend on the BLAS build; a refactor that changes RNG
consumption or any accept/threshold decision fails here. The final
parameters of the 25-step TestTrainLoop run are pinned at rel 1e-12,
which leaves room for BLAS summation order.
"""

import hashlib

import numpy as np
import pytest

from spindbm import (DbmShape, HiddenState, JointState, TrainConfig,
                     block_minimize_joint, block_minimize_posterior, complete,
                     gibbs_couple_joint, gibbs_sweep_joint, gibbs_sweep_posterior,
                     init_params, local_search_clamped, local_search_joint,
                     local_search_posterior, mh_couple_joint, mh_couple_posterior,
                     mh_coupled_trajectory, mh_step, run_coupling_sweep, sample,
                     train, uniform_spins)
from spindbm.data import synthetic_patterns
from spindbm.training import _negative_rows, _positive_rows

from conftest import random_params

SHAPES = (DbmShape(4, 3, 2), DbmShape(6, 5, 0), DbmShape(10, 8, 6))


class _Digest:
    def __init__(self):
        self.h = hashlib.sha256()

    def spins(self, *arrays):
        for a in arrays:
            a = np.asarray(a)
            assert np.all(np.abs(a) == 1.0), "outputs must be +-1 spins"
            self.h.update(f"{a.shape}".encode())
            self.h.update((a > 0).astype(np.uint8).tobytes())

    def state(self, s):
        if isinstance(s, JointState):
            self.spins(s.v, s.h1, s.h2)
        else:
            self.spins(s.h1, s.h2)

    def ints(self, *values):
        self.h.update(repr(tuple(int(x) for x in values)).encode())

    def run(self, run):
        self.ints(run.tau, run.truncated, len(run.x_states), len(run.y_states))
        for s in run.x_states + run.y_states:
            self.state(s)

    def row_run(self, runs, sizes):
        """run, for the one run of a one-row RowRuns; sizes are its blocks'."""
        xs = [runs.x0[0]] + [X[0] for _, X, _ in runs.steps]
        ys = [Y[0] for _, _, Y in runs.steps]
        self.ints(runs.tau[0], runs.truncated[0], len(xs), len(ys))
        for a in xs + ys:
            self.spins(*np.split(a, np.cumsum(sizes[:-1])))


def _models():
    """(params, rng) pairs: Gaussian and orthogonal models over SHAPES."""
    for i, shape in enumerate(SHAPES):
        yield random_params(shape, seed=30 + i), np.random.default_rng(100 + i)
        yield (init_params(shape, np.random.default_rng(40 + i)),
               np.random.default_rng(200 + i))


def _joint(shape, rng):
    return JointState(uniform_spins(shape.n_v, rng), uniform_spins(shape.n_h1, rng),
                      uniform_spins(shape.n_h2, rng))


def _masks(n_v):
    some = np.zeros(n_v, dtype=bool)
    some[: n_v // 2] = True
    return (np.ones(n_v, dtype=bool), some, np.zeros(n_v, dtype=bool))


def g_local_search_joint(d):
    for params, rng in _models():
        for _ in range(20):
            trace = []
            r = local_search_joint(params, rng, trace=trace)
            d.ints(r.steps, len(trace))
            for s in [r.state] + trace:
                d.state(s)


def g_local_search_posterior(d):
    for params, rng in _models():
        for _ in range(20):
            v = uniform_spins(params.shape.n_v, rng)
            trace = []
            r = local_search_posterior(params, v, rng, trace=trace)
            d.ints(r.steps, len(trace))
            for s in [r.state] + trace:
                d.state(s)


def g_local_search_clamped(d):
    for params, rng in _models():
        for mask in _masks(params.shape.n_v):
            for _ in range(10):
                v = uniform_spins(params.shape.n_v, rng)
                trace = []
                r = local_search_clamped(params, v, mask, rng, trace=trace)
                d.ints(r.steps, len(trace))
                for s in [r.state] + trace:
                    d.state(s)


def g_block_minimize(d):
    for params, rng in _models():
        for even_first in (True, False):
            for _ in range(10):
                x = _joint(params.shape, rng)
                d.spins(*block_minimize_joint(params, x.v, x.h1, x.h2, even_first))
                d.spins(*block_minimize_posterior(params, x.v, x.h1, x.h2, even_first))


def g_gibbs_sweeps(d):
    for params, rng in _models():
        x = _joint(params.shape, rng)
        h = HiddenState(x.h1, x.h2)
        for _ in range(30):
            x = gibbs_sweep_joint(params, x, rng)
            h = gibbs_sweep_posterior(params, x.v, h, rng)
            d.state(x)
            d.state(h)


def g_mh_couple_joint(d):
    for params, rng in _models():
        for tau_max in (1, 3, 10_000):
            for keep in (True, False):
                for _ in range(10):
                    d.run(mh_couple_joint(params, _joint(params.shape, rng), tau_max,
                                          rng, keep_states=keep))


def g_mh_couple_posterior(d):
    for params, rng in _models():
        for tau_max in (1, 3, 10_000):
            for keep in (True, False):
                for _ in range(10):
                    x = _joint(params.shape, rng)
                    d.run(mh_couple_posterior(params, x.v, HiddenState(x.h1, x.h2),
                                              tau_max, rng, keep_states=keep))


def g_mh_coupled_trajectory(d):
    for params, rng in _models():
        for n_steps in (1, 2, 7):
            for _ in range(5):
                xs, ys = mh_coupled_trajectory(params, _joint(params.shape, rng),
                                               n_steps, rng)
                d.ints(len(xs), len(ys))
                for s in xs + ys:
                    d.state(s)


def g_mh_step(d):
    for params, rng in _models():
        x = _joint(params.shape, rng)
        for _ in range(50):
            x = mh_step(params, x, rng)
            d.state(x)


def g_gibbs_couple_joint(d):
    for params, rng in _models():
        for tau_max in (1, 4, 100_000):
            for keep in (True, False):
                for _ in range(5):
                    d.run(gibbs_couple_joint(params, _joint(params.shape, rng), tau_max,
                                             rng, keep_states=keep))


def g_sample(d):
    for params, rng in _models():
        for mh_steps in (0, 3):
            d.spins(*sample(params, 5, mh_steps=mh_steps, rng=rng))


def g_complete(d):
    for params, rng in _models():
        for mask in _masks(params.shape.n_v):
            for _ in range(5):
                d.spins(complete(params, uniform_spins(params.shape.n_v, rng), mask, rng))


def g_positive_phase_run(d):
    for params, rng in _models():
        s = params.shape
        for tau_max in (1, 3, 10_000):
            for _ in range(10):
                V = uniform_spins((1, s.n_v), rng)
                runs, steps = _positive_rows(params, V, tau_max, rng)
                d.ints(steps[0])
                d.row_run(runs, (s.n_h1, s.n_h2))


def g_negative_phase_run(d):
    for params, rng in _models():
        s = params.shape
        for tau_max in (1, 3, 10_000):
            for _ in range(10):
                runs, steps = _negative_rows(params, 1, tau_max, rng)
                d.ints(steps[0])
                d.row_run(runs, (s.n_v, s.n_h1, s.n_h2))


def g_bench_sweep(d):
    for r in run_coupling_sweep(dims=(1, 3, 6), replicates=4, seed=11):
        d.h.update(r.arm.label.encode())
        d.ints(r.dim, r.replicate, r.tau, r.T_search, r.truncated)


GROUPS = {
    "local_search_joint": (g_local_search_joint,
                           "deef87b8ff4cc4d24289359a3b26157324d10877beb60f56a3ebf515a8a91fa1"),
    "local_search_posterior": (g_local_search_posterior,
                               "af123232d54e84db22b360946297b0961b5d48cd1e3701284aba784732866d56"),
    "local_search_clamped": (g_local_search_clamped,
                             "69089563cd1cbefe10a77c29707666fe7847417aba691a541c857b358cadc2b2"),
    "block_minimize": (g_block_minimize,
                       "959265ee38bc396765574a0ed2a57afa79c29d7d1a6af1271641f823203d69e0"),
    "gibbs_sweeps": (g_gibbs_sweeps,
                     "5d01f4c35be6627f00b4e96261ac1816c806b5b8906b588cd01cb0b1da5b253f"),
    "mh_couple_joint": (g_mh_couple_joint,
                        "6c539d410acf8bc47577f29323f057144076165cd25719e61ce59c7f8335dbdb"),
    "mh_couple_posterior": (g_mh_couple_posterior,
                            "3cec4c4baf6a45215f1d756c95afa0c1161427f64d2f1e1e0e4621b581f80efb"),
    "mh_coupled_trajectory": (g_mh_coupled_trajectory,
                              "a73df5a05cd4a281df625f273c1ba9a21f2a820fe76ea3a159245b3b99057968"),
    "mh_step": (g_mh_step,
                "1ab3997cafa1738f734aa50cd8f907fd9a4a204f01ed03a5312596e3c005cfab"),
    "gibbs_couple_joint": (g_gibbs_couple_joint,
                           "51218bee02510d2149eec31e170b8474efcde236fae53df9a61607fe14df84d3"),
    "sample": (g_sample,
               "5efacd6e040333d106474daefe352d040c5b411065a2ff21f37b3ff0b67e61b5"),
    "complete": (g_complete,
                 "af52b4f581f72957207c795ae786a93f8fabdbeed9d03005e2ad5328673017db"),
    "positive_phase_run": (g_positive_phase_run,
                           "9cd3c7cf8fae8402d71a932df30e16734bdaf255c1bcf945915fe3730078576f"),
    "negative_phase_run": (g_negative_phase_run,
                           "28993d3854cedd44aef2f86d4eb41c9a7ddc342ae65114bd74efe18a4944408f"),
    "bench_sweep": (g_bench_sweep,
                    "0e85446fef09869f95b9480a5765047e913a919fb521f954e7f65466afecd834"),
}


def digest(group: str) -> str:
    d = _Digest()
    GROUPS[group][0](d)
    return d.h.hexdigest()


@pytest.mark.parametrize("group", sorted(GROUPS))
def test_spin_outputs_pinned(group):
    assert digest(group) == GROUPS[group][1]


def _train_cfg(**kw):
    base = dict(shape=DbmShape(4, 3, 2), steps=25, batch_size=2, seed=5,
                checkpoint_every=10, estimator="marginalized",
                optimizer="adam", learning_rate=1e-2, tau_max=100_000)
    base.update(kw)
    return TrainConfig(**base)


# Final parameter vectors (W1, W2, b_v, b_h1, b_h2 order) of the 25-step
# TestTrainLoop configuration, and of the same run with the plain estimator
# and SGD.
PINNED_PARAMS = {
    ("marginalized", "adam"): [
        0.7414519665455452, -0.013230881575766377, -0.5372651976679875,
        0.12229689532824227, 0.7342063485061295, -0.11603922945295081, 0.37931439405084433,
        -0.5198689756534913, 0.14115876296522933, -0.4722533240569993, -0.2618470595568598,
        -0.7848675865144216, 0.5695438868043635, -0.24449598132339326, -0.5040590958584756,
        -0.7738995319386206, -0.6574420765359196, 0.4145048006542531, 1.0286604089201383,
        -0.17826564152552024, -1.2388445976797497, -0.23854792561104854,
        0.33491015111147815, -0.15945762099515465, 0.39417754280740636,
        -0.01239104026433794, 0.7662470289955758,
    ],
    ("plain", "sgd"): [
        0.5973205305237106, -0.11205640549642855, -0.5186137725675838, 0.09555941076815666,
        0.5341086614396883, -0.20317159129017806, 0.2704508580839705, -0.5886827275351124,
        0.33558165668919804, -0.6965788269827623, -0.2885797701995183, -0.5752168265585034,
        0.6451289715209482, -0.2970686414113385, -0.7463233255718486, -0.8438948581918437,
        -0.3092529232976406, 0.3000365582449728, 0.9769868975343525, -0.18719145246952162,
        -1.1036767123171574, -0.265246602351157, 0.5328595059264334, -0.1253252603196887,
        0.21904235146041262, 0.42424959030430476, 0.554140100941693,
    ],
}


@pytest.mark.parametrize("estimator,optimizer", sorted(PINNED_PARAMS))
def test_train_params_pinned(estimator, optimizer):
    data = synthetic_patterns(3, 4, seed=2).spins()
    params, _ = train(_train_cfg(estimator=estimator, optimizer=optimizer), data)
    np.testing.assert_allclose(params.as_vector(), PINNED_PARAMS[estimator, optimizer],
                               rtol=1e-12, atol=0.0)
