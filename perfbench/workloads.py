"""The benchmark's three workloads, each a set-up step plus a repeatable round.

Every workload drives spindbm only through public library calls made as
module attributes (``training.train``, ``data.to_spin_dataset``, ...), so
the tracer's wrappers see them. Round ``r`` is a fixed amount of work whose
inputs depend only on the workload seed and ``r``; ``run_round`` times the
library calls alone, then checks the outputs and fingerprints them.

- train-6272: ``training.train`` at the paper's 28x28 8-bit scale.
- estimator-oracle: ``training.unbiasedness_report`` on the 3-3-2 oracle
  model for both estimators. The z-test is statistical, so ``finish``
  makes one per estimator over the draws of all rounds, not one per round.
- infer-6272: ``training.sample`` and ``training.complete`` on a seeded
  6272-500-500 model with the lower half of each image missing.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from spindbm import data, model, training

Z_THRESHOLD = 4.0  # the oracle z-test threshold of criterion 03 and oracle-check


@dataclass(frozen=True)
class Size:
    shape: tuple  # (n_v, n_h1, n_h2); n_v = height * width * 8
    image: tuple  # (height, width)
    train_steps: int  # training steps per round
    estimator_draws: int  # draws per estimator per round
    infer_rows: int  # sampled rows, and completed rows, per round


SIZES = {
    "paper": Size((6272, 500, 500), (28, 28), 2, 1000, 8),
    "desk": Size((16, 16, 8), (2, 1), 2, 1000, 8),
}

BATCH_SIZE = 4
IMAGE_POOL = 256  # images the training batches are drawn from, or completions cycle through
WARMUP_ROUND = 2**32  # a round index no measured round reaches


@dataclass
class RoundResult:
    seconds: float  # time inside the library calls
    digest: str  # sha256 of the round's outputs
    failures: list = field(default_factory=list)  # failed correctness checks
    split: dict = field(default_factory=dict)  # seconds per kind of operation


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def stroke_images(rng: np.random.Generator, n: int, height: int, width: int) -> np.ndarray:
    """n 8-bit images of 2-4 anti-aliased strokes on black, like handwriting.

    Stands in for MNIST, which is not in the repository: mostly-zero
    backgrounds with bright strokes give the bit planes the same skew.
    """
    yy, xx = np.mgrid[0:height, 0:width] + 0.5
    pix = np.stack([yy.ravel(), xx.ravel()], axis=1)
    scale = np.array([height, width], dtype=np.float64)
    images = np.zeros((n, height * width))
    for i in range(n):
        for _ in range(int(rng.integers(2, 5))):
            p, q = rng.uniform(0.15, 0.85, size=(2, 2)) * scale
            d = q - p
            t = np.clip((pix - p) @ d / max(float(d @ d), 1e-12), 0.0, 1.0)
            dist = np.linalg.norm(pix - (p + t[:, None] * d), axis=1)
            images[i] = np.maximum(images[i], np.clip(1.6 - dist, 0.0, 1.0))
    return np.round(images * 255).astype(np.uint8).reshape(n, height, width)


def _seeded_model(seed: int, size: Size) -> model.DbmParams:
    return training.init_params(model.DbmShape(*size.shape), np.random.default_rng([seed, 1]))


def _round_seed(seed: int, r: int) -> int:
    return int(np.random.SeedSequence([seed, 3, r]).generate_state(1)[0])


class Workload:
    name: str
    item_spans: tuple  # span names that each start one unit of work
    calibrate_with: tuple  # calibration parts that match where the time goes
    items_per_round: int

    def finish(self) -> tuple:
        """Checks over all rounds, after the last: (failures, summary)."""
        return [], {}


class TrainWorkload(Workload):
    """training.train with Adam and the marginalized estimator, batch 4."""

    name = "train-6272"
    item_spans = ("training.train_step",)
    calibrate_with = ("gemv", "stream", "python")

    def __init__(self, seed: int, size: Size, work_dir: str):
        self.seed, self.size, self.work_dir = seed, size, work_dir
        self.items_per_round = size.train_steps * BATCH_SIZE

    def setup(self):
        images = stroke_images(np.random.default_rng([self.seed, 0]), IMAGE_POOL,
                               *self.size.image)
        self.rows = data.to_spin_dataset(images, source="strokes").examples
        self.params = _seeded_model(self.seed, self.size)
        shutil.rmtree(self._train(WARMUP_ROUND, steps=1)[1])

    def _train(self, r: int, steps: int):
        # truncation_policy="error": a truncated coupling raises, failing the round
        cfg = training.TrainConfig(
            shape=self.params.shape, learning_rate=1e-3, optimizer="adam",
            batch_size=BATCH_SIZE, steps=steps, seed=_round_seed(self.seed, r),
            estimator="marginalized", truncation_policy="error", checkpoint_every=steps)
        out_dir = os.path.join(self.work_dir, "train")
        shutil.rmtree(out_dir, ignore_errors=True)  # left over if a round raised
        t0 = perf_counter()
        params, _ = training.train(cfg, self.rows, out_dir=out_dir,
                                   initial_params=self.params)
        return perf_counter() - t0, out_dir, cfg, params

    def run_round(self, r: int) -> RoundResult:
        seconds, out_dir, cfg, params = self._train(r, self.size.train_steps)
        failures = []
        vec = params.as_vector()
        if not np.all(np.isfinite(vec)):
            failures.append("final parameters are not finite")
        final = model.load_params(os.path.join(out_dir, f"ckpt-{cfg.steps:06d}.udbm"))
        if final.shape != cfg.shape or not np.array_equal(final.as_vector(), vec):
            failures.append("final checkpoint does not round-trip through load_params")
        shutil.rmtree(out_dir)
        return RoundResult(seconds, _sha256(vec), failures)


class EstimatorWorkload(Workload):
    """unbiasedness_report on default_check_model for plain and marginalized."""

    name = "estimator-oracle"
    item_spans = ("training.positive_phase_estimate",)
    calibrate_with = ("python",)
    estimators = ("plain", "marginalized")

    def __init__(self, seed: int, size: Size, work_dir: str):
        self.seed, self.size = seed, size
        self.items_per_round = size.estimator_draws * len(self.estimators)
        self.moments = {}  # round -> per estimator (mean, mean of squares, exact)

    def setup(self):
        self.params, self.v = training.default_check_model()
        for est in self.estimators:  # warm-up, including the oracle enumeration
            training.unbiasedness_report(self.params, self.v, 50, self.seed, estimator=est)

    def run_round(self, r: int) -> RoundResult:
        n = self.size.estimator_draws
        reports, split = [], {}
        for est in self.estimators:
            t0 = perf_counter()
            reports.append(training.unbiasedness_report(
                self.params, self.v, n, _round_seed(self.seed, r), estimator=est))
            split[est] = perf_counter() - t0
        # a traced twin re-runs round r with the same draws; keyed by r, it
        # overwrites rather than double-counts them
        self.moments[r] = [(rep["mean"], rep["se"] ** 2 * n + rep["mean"] ** 2, rep["exact"])
                           for rep in reports]
        failures = [f"{rep['estimator']}: non-finite mean" for rep in reports
                    if not np.all(np.isfinite(rep["mean"]))]
        return RoundResult(sum(split.values()), _sha256(*(rep["z"] for rep in reports)),
                           failures, split)

    def finish(self) -> tuple:
        """One oracle z-test per estimator over the draws of every round."""
        failures, max_abs_z = [], {}
        n = self.size.estimator_draws * len(self.moments)
        for i, est in enumerate(self.estimators):
            mean, square, exact = (np.mean([m[i][k] for m in self.moments.values()], axis=0)
                                   for k in range(3))
            se = np.sqrt(np.maximum(square - mean ** 2, 0.0) / n)
            off = np.abs(mean - exact)
            z = np.where(se > 0, off / np.where(se > 0, se, 1.0),
                         np.where(off > 1e-9, np.inf, 0.0))
            max_abs_z[est] = float(np.max(z))
            if not max_abs_z[est] <= Z_THRESHOLD:
                failures.append(f"{est}: max |z| {max_abs_z[est]:.3f} > {Z_THRESHOLD} "
                                f"over {n} draws")
        return failures, {"draws_per_estimator": n, "max_abs_z": max_abs_z}


class InferWorkload(Workload):
    """sample (mh_steps=0) and lower-half completion on a seeded model."""

    name = "infer-6272"
    item_spans = ("search.local_search_joint", "search.local_search_clamped")
    calibrate_with = ("gemv",)

    def __init__(self, seed: int, size: Size, work_dir: str):
        self.seed, self.size = seed, size
        self.items_per_round = 2 * size.infer_rows

    def setup(self):
        images = stroke_images(np.random.default_rng([self.seed, 0]), IMAGE_POOL,
                               *self.size.image)
        self.rows = data.to_spin_dataset(images, source="strokes").spins()
        self.observed = data.lower_half_mask(*self.size.image).observed
        self.params = _seeded_model(self.seed, self.size)
        rng = np.random.default_rng([self.seed, 3, WARMUP_ROUND])
        training.sample(self.params, 1, mh_steps=0, rng=rng)
        training.complete(self.params, self.rows[0], self.observed, rng)

    def run_round(self, r: int) -> RoundResult:
        k = self.size.infer_rows
        rng = np.random.default_rng([self.seed, 3, r])
        inputs = self.rows[np.arange(r * k, (r + 1) * k) % len(self.rows)]
        t0 = perf_counter()
        samples = np.array(training.sample(self.params, k, mh_steps=0, rng=rng))
        t1 = perf_counter()
        completions = np.array([training.complete(self.params, row, self.observed, rng)
                                for row in inputs])
        t2 = perf_counter()
        failures = []
        if not (np.all(np.abs(samples) == 1) and np.all(np.abs(completions) == 1)):
            failures.append("an inferred row is not +-1")
        if not np.array_equal(completions[:, self.observed], inputs[:, self.observed]):
            failures.append("a completion changed an observed position")
        return RoundResult(t2 - t0, _sha256(samples, completions), failures,
                           {"sample": t1 - t0, "complete": t2 - t1})


WORKLOADS = {w.name: w for w in (TrainWorkload, EstimatorWorkload, InferWorkload)}
