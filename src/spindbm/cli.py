"""Command-line entry point.

Subcommands: train, sample, complete, bench, oracle-check. Exit codes: 0 on
success, 2 on usage or configuration errors (among them a named file that
does not exist), 1 on any other failure.
Training is configured by a flat UTF-8 key=value file (# comments
allowed); command-line flags override the file, which overrides the
built-in defaults.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields

import numpy as np

from . import bench as bench_mod
from . import data as data_mod
from .coupling import DEFAULT_TAU_MAX_MH
from .model import DbmShape, load_params
from .training import (ESTIMATORS, Z_THRESHOLD, TrainConfig, default_check_model,
                       rng_for, sample, train, unbiasedness_report)
from .training import complete as complete_fn

# Every TrainConfig field but shape has a default of its own type (int,
# float or str), which parses its value; the shape's sizes are read first.
_PARSERS = {f.name: type(f.default) for f in fields(TrainConfig) if f.name != "shape"}
CONFIG_KEYS = (*(f.name for f in fields(DbmShape)), *_PARSERS)

ORACLE_MIN_SAMPLES = 1_000  # fewer oracle-check draws give the z-tests too little power


class ConfigError(ValueError):
    pass


def _seed(text: str) -> int:
    """The argparse type of every --seed: a non-negative integer."""
    try:
        if int(text) >= 0:
            return int(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")


def _existing(path: str, what: str) -> str:
    """path, or ConfigError when nothing exists there."""
    if not os.path.exists(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def parse_config_file(path) -> dict:
    """Flat key=value config; unknown keys are rejected."""
    values = {}
    with open(_existing(path, "config file"), encoding="utf-8") as f:
        for lineno, raw in enumerate(f, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key not in CONFIG_KEYS:
                raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
            if key in values:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            values[key] = val
    return values


def build_train_config(file_values: dict, overrides: dict) -> TrainConfig:
    vals = dict(file_values)
    vals.update({k: v for k, v in overrides.items() if v is not None})
    if "n_v" not in vals:
        raise ConfigError("n_v is required")
    try:
        n_v = int(vals["n_v"])
        n_h1 = int(vals.get("n_h1", n_v))   # hidden layers default to the visible size
        n_h2 = int(vals.get("n_h2", n_h1))
        kwargs = {key: parse(vals[key]) for key, parse in _PARSERS.items() if key in vals}
        return TrainConfig(shape=DbmShape(n_v, n_h1, n_h2), **kwargs).validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def load_training_data(spec: str, cfg: TrainConfig) -> np.ndarray:
    """Training rows from a path or a synthetic:<n>x<len> spec."""
    if not spec:
        raise ConfigError("no data source configured (key 'data')")
    if spec.startswith("synthetic:"):
        try:
            n, _, length = spec[len("synthetic:"):].partition("x")
            ds = data_mod.synthetic_patterns(int(n), int(length), cfg.seed)
        except ValueError as exc:
            raise ConfigError(f"bad synthetic spec {spec!r}: {exc}") from None
        return ds.spins()
    return data_mod.read_rows(_existing(spec, "data file"))[0]


def cmd_train(args) -> int:
    file_values = parse_config_file(args.config)
    overrides = {"steps": args.steps, "seed": args.seed, "data": args.data,
                 "out_dir": args.out_dir}
    cfg = build_train_config(file_values, overrides)
    if not cfg.out_dir:
        raise ConfigError("no output directory configured (key 'out_dir' or --out-dir)")
    rows = load_training_data(cfg.data, cfg)
    _check_some_rows(rows, cfg.data)
    if rows.shape[1] != cfg.shape.n_v:
        raise ConfigError(f"data width {rows.shape[1]} != n_v {cfg.shape.n_v}")
    initial = None
    if cfg.resume:
        initial = load_params(_existing(cfg.resume, "resume checkpoint"))
        if initial.shape != cfg.shape:
            raise ConfigError(f"resume checkpoint shape {initial.shape} does not match "
                              f"the config's {cfg.shape}")
    params, history = train(cfg, rows, out_dir=cfg.out_dir, initial_params=initial)
    print(f"trained {cfg.steps} steps; final checkpoint in {cfg.out_dir}")
    if history:
        last = history[-1]
        print(f"last step: tau_pos={last.mean_tau_pos:.2f} tau_neg={last.mean_tau_neg:.2f} "
              f"grad_norm={last.grad_norm:.4g}")
    return 0


def _check_some_rows(rows: np.ndarray, source: str):
    """An example file with no rows asks for no work, which is a usage error."""
    if len(rows) == 0:
        raise ConfigError(f"{source}: no examples in the file")


def _check_geometry(height: int, width: int, n_v: int, source: str):
    """The one image-geometry rule: height, width >= 1 and height*width*8 == n_v."""
    if min(height, width) < 1 or height * width * 8 != n_v:
        raise ConfigError(f"{source}: {height}x{width} images do not fit the model "
                          f"(need height, width >= 1 and height*width*8 = n_v = {n_v})")


def cmd_sample(args) -> int:
    if args.n < 1 or args.mh_steps < 0:
        raise ConfigError("--n must be >= 1 and --mh-steps >= 0")
    if (args.height is None) != (args.width is None):
        raise ConfigError("--height and --width must be given together")
    params = load_params(_existing(args.checkpoint, "checkpoint"))
    if args.height is not None:
        _check_geometry(args.height, args.width, params.shape.n_v, "--height/--width")
    draws = np.stack(sample(params, args.n, args.mh_steps, rng=rng_for(args.seed, 10)))
    os.makedirs(args.out, exist_ok=True)
    np.save(os.path.join(args.out, "samples.npy"), draws.astype(np.int8))
    if args.height is not None:
        for i, img in enumerate(data_mod.spins_to_images(draws, args.height, args.width)):
            data_mod.write_pgm(img, os.path.join(args.out, f"sample-{i:03d}.pgm"))
    print(f"wrote {len(draws)} samples to {args.out}")
    return 0


def _parse_mask_spec(spec: str, height: int, width: int) -> data_mod.Mask:
    if spec == "lower-half":
        return data_mod.lower_half_mask(height, width)
    if spec.startswith("rect:"):
        try:
            r0, r1, c0, c1 = map(int, spec[len("rect:"):].split(":"))
        except ValueError:
            raise ConfigError(f"bad rect mask spec {spec!r}; want rect:r0:r1:c0:c1") from None
        if not (0 <= r0 < r1 <= height and 0 <= c0 < c1 <= width):
            raise ConfigError(f"rect mask {spec!r} is empty or outside the "
                              f"{height}x{width} image")
        return data_mod.rectangle_mask(height, width, r0, r1, c0, c1)
    raise ConfigError(f"unknown mask spec {spec!r}")


def cmd_complete(args) -> int:
    """Complete images under --mask (None: lower-half) or spin rows under --mask-file."""
    params = load_params(_existing(args.checkpoint, "checkpoint"))
    n_v = params.shape.n_v
    rows, geometry = data_mod.read_rows(_existing(args.input, "input"))
    _check_some_rows(rows, args.input)
    if geometry is None:
        if args.mask is not None:
            raise ConfigError("--mask is for image inputs; spin-row inputs take --mask-file")
        if args.mask_file is None:
            raise ConfigError("spin-row input needs --mask-file")
        observed = np.load(_existing(args.mask_file, "mask file")).astype(bool)
        if rows.shape[1] != n_v or observed.shape != (n_v,):
            raise ConfigError("input/mask width does not match the model")
    else:
        if args.mask_file is not None:
            raise ConfigError("--mask-file is for spin-row inputs; image inputs take --mask")
        _check_geometry(*geometry, n_v, args.input)
        observed = _parse_mask_spec(args.mask or "lower-half", *geometry).observed
    rng = rng_for(args.seed, 11)
    done = np.stack([complete_fn(params, row, observed, rng) for row in rows])
    os.makedirs(args.out, exist_ok=True)
    if geometry is None:
        np.save(os.path.join(args.out, "completed.npy"), done.astype(np.int8))
    else:
        images = data_mod.spins_to_images(done, *geometry)
        for i, img in enumerate(images):
            data_mod.write_pgm(img, os.path.join(args.out, f"completed-{i:03d}.pgm"))
        np.save(os.path.join(args.out, "completed.npy"), images)
    print(f"completed {len(done)} inputs to {args.out}")
    return 0


def cmd_bench(args) -> int:
    try:
        dims = [int(d) for d in args.dims.split(",") if d]
        if args.arms == "all":
            arms = bench_mod.ALL_ARMS
        else:
            arms = tuple(bench_mod.BenchArm.parse(a) for a in args.arms.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad --dims or --arms: {exc}") from None
    if any(d < 1 for d in dims) or min(args.tau_max_mh, args.tau_max_gibbs,
                                       args.replicates, args.threads) < 1:
        raise ConfigError("--dims, --replicates, --tau-max-mh, --tau-max-gibbs and "
                          "--threads must be >= 1")
    records = bench_mod.run_coupling_sweep(
        dims, args.replicates, arms, seed=args.seed,
        tau_max_mh=args.tau_max_mh, tau_max_gibbs=args.tau_max_gibbs,
        threads=args.threads)
    bench_mod.emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    if args.summary:
        print(bench_mod.format_summary(bench_mod.summarize(records)))
    return 0


def cmd_oracle_check(args) -> int:
    if args.samples < ORACLE_MIN_SAMPLES:
        raise ConfigError(f"refusing to run: {args.samples} samples gives too little power "
                          f"(minimum {ORACLE_MIN_SAMPLES}); raise --samples")
    if args.tau_max < 1:
        raise ConfigError("--tau-max must be >= 1")
    params, v = default_check_model()
    failed = False
    for estimator in ESTIMATORS:
        rep = unbiasedness_report(params, v, args.samples, args.seed,
                                  estimator=estimator, tau_max=args.tau_max)
        verdict = "PASS" if rep["passed"] else "FAIL"
        print(f"{estimator:>13}: n={args.samples} max|z|={rep['max_abs_z']:.3f} "
              f"(threshold {Z_THRESHOLD}) {verdict}")
        z_text = np.array2string(rep["z"], precision=2, max_line_width=78,
                                 suppress_small=True)
        print("    per-component z: " + z_text.replace("\n", "\n    "))
        worst = np.argsort(-np.abs(rep["z"]))[:3]
        for j in worst:
            print(f"    component {j:3d}: mean={rep['mean'][j]:+.5f} "
                  f"exact={rep['exact'][j]:+.5f} z={rep['z'][j]:+.2f}")
        failed = failed or not rep["passed"]
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spindbm",
                                description="Spin Boltzmann machines with coupled-chain training")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="train a model from a config file")
    t.add_argument("--config", required=True)
    t.add_argument("--steps", type=int, default=None)
    t.add_argument("--seed", type=_seed, default=None)
    t.add_argument("--data", default=None)
    t.add_argument("--out-dir", default=None)
    t.set_defaults(func=cmd_train)

    s = sub.add_parser("sample", help="draw samples from a checkpoint")
    s.add_argument("--checkpoint", required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--mh-steps", type=int, default=0)
    s.add_argument("--out", required=True)
    s.add_argument("--seed", type=_seed, default=0)
    s.add_argument("--height", type=int, default=None)
    s.add_argument("--width", type=int, default=None)
    s.set_defaults(func=cmd_sample)

    c = sub.add_parser("complete", help="fill in masked inputs with a checkpoint")
    c.add_argument("--checkpoint", required=True)
    c.add_argument("--input", required=True,
                   help="IDX file, .npy uint8 images, or .npy +-1 spin rows")
    c.add_argument("--mask", default=None,
                   help="image inputs: 'lower-half' (the default) or 'rect:r0:r1:c0:c1' "
                        "(pixel rows/cols masked out)")
    c.add_argument("--mask-file", default=None,
                   help=".npy boolean observed-mask for spin-row inputs")
    c.add_argument("--out", required=True)
    c.add_argument("--seed", type=_seed, default=0)
    c.set_defaults(func=cmd_complete)

    b = sub.add_parser("bench", help="coupling-time sweep over dimensionality")
    b.add_argument("--dims", default=",".join(map(str, bench_mod.DEFAULT_DIMS)))
    b.add_argument("--replicates", type=int, default=bench_mod.DEFAULT_REPLICATES)
    b.add_argument("--arms", default="all",
                   help="'all' or comma list like mh+local_mode,gibbs+uniform")
    b.add_argument("--seed", type=_seed, default=0)
    b.add_argument("--out", default="bench.csv")
    b.add_argument("--tau-max-mh", type=int, default=bench_mod.DEFAULT_TAU_MAX_MH)
    b.add_argument("--tau-max-gibbs", type=int, default=bench_mod.DEFAULT_TAU_MAX_GIBBS)
    b.add_argument("--threads", type=int, default=os.cpu_count() or 1)
    b.add_argument("--summary", action="store_true")
    b.set_defaults(func=cmd_bench)

    o = sub.add_parser("oracle-check",
                       help="z-test the gradient estimators against exact enumeration")
    o.add_argument("--samples", type=int, default=20_000)
    o.add_argument("--seed", type=_seed, default=0)
    o.add_argument("--tau-max", type=int, default=DEFAULT_TAU_MAX_MH)
    o.set_defaults(func=cmd_oracle_check)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse has printed the usage error (2) or the help (0)
        return exc.code
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # data, checkpoint and runtime failures
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
