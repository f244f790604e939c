import struct
from dataclasses import fields

import numpy as np
import pytest

from spindbm import DbmParams, DbmShape, TrainConfig, load_params, save_params
from spindbm.cli import CONFIG_KEYS, ConfigError, build_train_config, main, parse_config_file
from spindbm.data import read_pgm

from conftest import random_params
from test_bench import record_pool
from test_data import idx_blob
from test_training import nan_at_step_3


def write_config(path, **kv):
    path.write_text("".join(f"{k} = {v}\n" for k, v in kv.items()), encoding="utf-8")
    return str(path)


def idx_file(path, images):
    path.write_bytes(idx_blob(images))
    return str(path)


def bias_only_checkpoint(path, b_v):
    n_v = len(b_v)
    params = DbmParams(np.zeros((n_v, 2)), np.zeros((2, 1)),
                       np.asarray(b_v, dtype=np.float64), np.zeros(2), np.zeros(1))
    save_params(params, path)
    return str(path)


class TestTrain:
    def test_missing_config_exits_2(self, capsys):
        assert main(["train", "--config", "/nonexistent/cfg.txt"]) == 2
        assert "not found" in capsys.readouterr().err

    def test_unknown_key_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", n_v=4, steps=1, data="synthetic:2x4",
                           wat=3)
        assert main(["train", "--config", cfg]) == 2
        assert "unknown key" in capsys.readouterr().err

    def test_pcd_k_is_an_unknown_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.txt", n_v=4, steps=1, data="synthetic:2x4",
                           out_dir=str(tmp_path / "out"), pcd_k=1)
        assert main(["train", "--config", cfg]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [
        ("steps", "many"), ("learning_rate", "nan"), ("learning_rate", "inf"),
        ("learning_rate", "0.0"), ("seed", "-1"), ("truncation_policy", "drop_sample")])
    def test_malformed_value_exits_2_and_writes_nothing(self, tmp_path, capsys, key, value):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", n_v=4, data="synthetic:2x4", out_dir=str(out),
                           **{"steps": 2, key: value})
        assert main(["train", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert value in err and (key == "steps" or f"{key} " in err)
        assert not out.exists()

    def test_missing_out_dir_exits_2_and_writes_nothing(self, tmp_path, tmp_path_factory,
                                                        monkeypatch, capsys):
        cfg = write_config(tmp_path_factory.mktemp("cfg") / "c.txt", n_v=4, steps=1,
                           data="synthetic:2x4")
        monkeypatch.chdir(tmp_path)
        assert main(["train", "--config", cfg]) == 2
        assert "out_dir" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_steps_zero_writes_initial_checkpoint_only(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", n_v=4, n_h1=3, n_h2=2, steps=0,
                           data="synthetic:2x4", out_dir=str(out))
        assert main(["train", "--config", cfg]) == 0
        assert (out / "ckpt-000000.udbm").exists()
        assert len(list(out.glob("ckpt-*.udbm"))) == 1

    def test_smoke_run_logs_every_step(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", n_v=4, n_h1=3, n_h2=2, steps=200,
                           batch_size=1, seed=11, optimizer="adam",
                           tau_max=100000, data="synthetic:4x4", out_dir=str(out))
        assert main(["train", "--config", cfg]) == 0
        lines = (out / "train_log.csv").read_text().splitlines()
        rows = [l for l in lines if l and not l.startswith("#")]
        assert rows[0] == ("step,mean_tau_pos,mean_tau_neg,mean_T_pos,mean_T_neg,grad_norm,"
                           "wall_ms")
        assert len(rows) == 201
        assert rows[-1].split(",")[0] == "200"

    def test_nonfinite_step_exits_1(self, tmp_path, capsys, monkeypatch):
        nan_at_step_3(monkeypatch)
        cfg = write_config(tmp_path / "c.txt", n_v=4, n_h1=3, n_h2=2, steps=5,
                           data="synthetic:2x4", out_dir=str(tmp_path / "out"))
        assert main(["train", "--config", cfg]) == 1
        assert "step 3" in capsys.readouterr().err

    def test_config_echoed_into_log_header(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", n_v=4, steps=1, seed=3,
                           data="synthetic:2x4", out_dir=str(out))
        assert main(["train", "--config", cfg, "--steps", "2"]) == 0
        header = [l for l in (out / "train_log.csv").read_text().splitlines()
                  if l.startswith("#")]
        effective = dict(l[2:].split("=", 1) for l in header)
        assert effective["steps"] == "2"       # flag overrode the file
        assert effective["seed"] == "3"
        assert effective["n_h1"] == "4"        # defaulted to n_v

    def test_flag_overrides_file(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", n_v=4, steps=5,
                           data="synthetic:2x4", out_dir=str(out))
        assert main(["train", "--config", cfg, "--steps", "1"]) == 0
        rows = [l for l in (out / "train_log.csv").read_text().splitlines()
                if l and not l.startswith("#")]
        assert len(rows) == 2  # header + 1 step

    def test_resume_checkpoint_missing_exits_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", n_v=4, n_h1=3, n_h2=2, steps=1,
                           data="synthetic:2x4", out_dir=str(out),
                           resume=str(tmp_path / "none.udbm"))
        assert main(["train", "--config", cfg]) == 2
        assert "resume checkpoint not found" in capsys.readouterr().err
        assert not out.exists()

    def test_resume_checkpoint_of_another_shape_exits_2(self, tmp_path, capsys):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [1.0, -1.0, 1.0, -1.0])  # 4-2-1
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", n_v=4, n_h1=3, n_h2=2, steps=1,
                           data="synthetic:2x4", out_dir=str(out), resume=ckpt)
        assert main(["train", "--config", cfg]) == 2
        assert "does not match" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_resume_checkpoint_exits_1(self, tmp_path, capsys):
        ckpt = tmp_path / "m.udbm"
        ckpt.write_bytes(b"UDBM\x01" + struct.pack("<III", 4, 3, 2) + b"\x00" * 12)
        cfg = write_config(tmp_path / "c.txt", n_v=4, n_h1=3, n_h2=2, steps=1,
                           data="synthetic:2x4", out_dir=str(tmp_path / "out"),
                           resume=str(ckpt))
        assert main(["train", "--config", cfg]) == 1
        assert "checkpoint length" in capsys.readouterr().err

    def test_resume_key_continues_from_checkpoint(self, tmp_path):
        out1, out2 = tmp_path / "one", tmp_path / "two"
        cfg1 = write_config(tmp_path / "c1.txt", n_v=4, n_h1=3, n_h2=2, steps=3,
                            data="synthetic:2x4", out_dir=str(out1))
        assert main(["train", "--config", cfg1]) == 0
        ckpt = out1 / "ckpt-000003.udbm"
        assert ckpt.exists()
        cfg2 = write_config(tmp_path / "c2.txt", n_v=4, n_h1=3, n_h2=2, steps=2,
                            data="synthetic:2x4", out_dir=str(out2),
                            resume=str(ckpt))
        assert main(["train", "--config", cfg2]) == 0
        # resumed run starts from the checkpoint, not a fresh init
        assert load_params(out2 / "ckpt-000000.udbm").as_vector().tolist() \
            == load_params(ckpt).as_vector().tolist()


    def test_npy_images_train_like_idx(self, tmp_path):
        images = np.random.default_rng(3).integers(0, 256, size=(3, 2, 1)).astype(np.uint8)
        np.save(tmp_path / "imgs.npy", images)
        sources = {"npy": str(tmp_path / "imgs.npy"),
                   "idx": idx_file(tmp_path / "imgs.idx", images)}
        for name, data in sources.items():
            cfg = write_config(tmp_path / f"{name}.txt", n_v=16, n_h1=4, n_h2=3, steps=4,
                               checkpoint_every=2, optimizer="adam", tau_max=100000,
                               seed=5, data=data, out_dir=str(tmp_path / name))
            assert main(["train", "--config", cfg]) == 0
        ckpts = sorted(p.name for p in (tmp_path / "idx").glob("ckpt-*.udbm"))
        assert ckpts == ["ckpt-000000.udbm", "ckpt-000002.udbm", "ckpt-000004.udbm"]
        assert sorted(p.name for p in (tmp_path / "npy").glob("ckpt-*.udbm")) == ckpts
        for name in ckpts:
            assert (tmp_path / "npy" / name).read_bytes() == \
                (tmp_path / "idx" / name).read_bytes()


    @pytest.mark.parametrize("fmt", ["npy", "idx"])
    def test_empty_data_file_exits_2_and_writes_nothing(self, tmp_path, capsys, fmt):
        if fmt == "npy":
            path = tmp_path / "rows.npy"
            np.save(path, np.zeros((0, 8), dtype=np.int8))
        else:
            path = idx_file(tmp_path / "rows.idx", np.zeros((0, 1, 1), dtype=np.uint8))
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", n_v=8, n_h1=3, n_h2=2, steps=1,
                           data=str(path), out_dir=str(out))
        assert main(["train", "--config", cfg]) == 2
        assert "no examples" in capsys.readouterr().err
        assert not out.exists()


class TestConfigKeys:
    def test_every_field_round_trips_through_a_config_file(self, tmp_path):
        cfg = TrainConfig(DbmShape(5, 4, 3), learning_rate=0.25, optimizer="amsgrad",
                          batch_size=3, steps=7, seed=11, tau_max=123, estimator="plain",
                          checkpoint_every=2, data="synthetic:2x5",
                          out_dir=str(tmp_path / "out"), resume=str(tmp_path / "c.udbm"))
        defaults = TrainConfig(DbmShape(1, 1, 1))
        # no field can come back equal by falling back to its default, but
        # truncation_policy, whose one value is its default
        assert all(getattr(cfg, f.name) != getattr(defaults, f.name)
                   for f in fields(TrainConfig) if f.name != "truncation_policy")
        assert [k for k, _ in cfg.items()] == list(CONFIG_KEYS)
        values = dict(cfg.items())
        path = write_config(tmp_path / "c.txt", **values)
        assert parse_config_file(path)["truncation_policy"] == "error"
        assert build_train_config(parse_config_file(path), {}) == cfg
        values["truncation_policy"] = "drop_sample"
        path = write_config(tmp_path / "c.txt", **values)
        with pytest.raises(ConfigError, match="drop_sample was removed"):
            build_train_config(parse_config_file(path), {})

    def test_log_header_lines(self, tmp_path):
        out = tmp_path / "out"
        cfg = write_config(tmp_path / "c.txt", n_v=4, steps=0, data="synthetic:2x4",
                           out_dir=str(out))
        assert main(["train", "--config", cfg]) == 0
        header = [l for l in (out / "train_log.csv").read_text().splitlines()
                  if l.startswith("#")]
        assert header == ["# n_v=4", "# n_h1=4", "# n_h2=4", "# learning_rate=0.01",
                          "# optimizer=sgd", "# batch_size=1", "# steps=0", "# seed=0",
                          "# tau_max=10000", "# estimator=marginalized",
                          "# truncation_policy=error", "# checkpoint_every=100",
                          "# data=synthetic:2x4", f"# out_dir={out}", "# resume="]


class TestSample:
    @pytest.mark.parametrize("flags", [["--n", "0"], ["--n", "-3"],
                                       ["--n", "2", "--mh-steps", "-1"]])
    def test_empty_or_negative_work_exits_2_and_writes_nothing(self, tmp_path, capsys,
                                                                flags):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [1.0, -1.0])
        out = tmp_path / "s"
        assert main(["sample", "--checkpoint", ckpt, *flags, "--out", str(out)]) == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    def test_deterministic_under_seed(self, tmp_path):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [0.5, -0.5, 1.5])
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["sample", "--checkpoint", ckpt, "--n", "7",
                         "--out", str(out), "--seed", "3"]) == 0
        assert (a / "samples.npy").read_bytes() == (b / "samples.npy").read_bytes()

    def test_bias_only_checkpoint_gives_sign_of_bias(self, tmp_path):
        # one 1x1 pixel = 8 visible units; biases pick the bit pattern of 123
        bits = np.array([0, 1, 1, 1, 1, 0, 1, 1]) * 2.0 - 1.0
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", bits * 3.0)
        out = tmp_path / "s"
        assert main(["sample", "--checkpoint", ckpt, "--n", "2", "--out", str(out),
                     "--height", "1", "--width", "1"]) == 0
        img = read_pgm(out / "sample-000.pgm")
        assert img[0, 0] == 123
        rows = np.load(out / "samples.npy")
        np.testing.assert_array_equal(rows[0], bits.astype(np.int8))

    def test_corrupt_checkpoint_exits_1(self, tmp_path, capsys):
        ckpt = tmp_path / "m.udbm"
        ckpt.write_bytes(b"UDBM\x01" + struct.pack("<III", 2, 2, 1) + b"\x00" * 12)
        assert main(["sample", "--checkpoint", str(ckpt), "--n", "1",
                     "--out", str(tmp_path / "s")]) == 1
        assert "checkpoint length" in capsys.readouterr().err

    def test_bad_geometry_exits_2(self, tmp_path):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [1.0, -1.0])
        assert main(["sample", "--checkpoint", ckpt, "--n", "1",
                     "--out", str(tmp_path / "s"), "--height", "2", "--width", "2"]) == 2
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("size", ["-1", "0"])
    def test_nonpositive_geometry_exits_2(self, tmp_path, capsys, size):
        # (-1)(-1)8 equals n_v = 8, so only the >= 1 rule catches it
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [1.0] * 8)
        assert main(["sample", "--checkpoint", ckpt, "--n", "1", "--out", str(tmp_path / "s"),
                     "--height", size, "--width", size]) == 2
        assert "--height/--width" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    @pytest.mark.parametrize("flag", ["--height", "--width"])
    def test_height_or_width_alone_exits_2(self, tmp_path, capsys, flag):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [1.0] * 8)
        assert main(["sample", "--checkpoint", ckpt, "--n", "1",
                     "--out", str(tmp_path / "s"), flag, "1"]) == 2
        assert "--height and --width" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        assert main(["sample", "--checkpoint", str(tmp_path / "none.udbm"), "--n", "1",
                     "--out", str(tmp_path / "s")]) == 2
        assert "checkpoint not found" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()


class TestComplete:
    def _image_checkpoint(self, path, img):
        # bias-dominated model whose visible biases reproduce one 8-bit image
        from spindbm.data import to_spin_dataset
        spins = to_spin_dataset(img[None, :, :]).spins()[0]
        return bias_only_checkpoint(path, spins * 4.0)

    def test_full_observation_mask_is_identity(self, tmp_path):
        # the biases pull every unit the other way, yet observed units never move
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [-3.0, 3.0, 3.0, -3.0])
        rows = np.array([[1, -1, -1, 1], [1, 1, -1, -1]], dtype=np.int8)
        np.save(tmp_path / "rows.npy", rows)
        np.save(tmp_path / "mask.npy", np.ones(4, dtype=bool))
        out = tmp_path / "c"
        assert main(["complete", "--checkpoint", ckpt, "--input", str(tmp_path / "rows.npy"),
                     "--mask-file", str(tmp_path / "mask.npy"), "--out", str(out)]) == 0
        np.testing.assert_array_equal(np.load(out / "completed.npy"), rows)

    @pytest.mark.parametrize("spec", ["rect:0:0:0:0", "rect:1:1:0:2", "rect:0:2:1:1",
                                      "rect:0:3:0:2", "rect:0:2:1:3", "rect:-1:1:0:2"])
    def test_empty_or_outside_rect_mask_exits_2(self, tmp_path, capsys, spec):
        img = np.zeros((2, 2), dtype=np.uint8)
        ckpt = self._image_checkpoint(tmp_path / "m.udbm", img)
        np.save(tmp_path / "in.npy", img[None, :, :])
        out = tmp_path / "c"
        assert main(["complete", "--checkpoint", ckpt, "--input", str(tmp_path / "in.npy"),
                     "--mask", spec, "--out", str(out)]) == 2
        assert "empty or outside the 2x2 image" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("missing", ["--checkpoint", "--input", "--mask-file"])
    def test_missing_path_exits_2(self, tmp_path, capsys, missing):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [3.0, -3.0])
        np.save(tmp_path / "rows.npy", np.array([[1, 1]], dtype=np.int8))
        np.save(tmp_path / "mask.npy", np.array([True, False]))
        paths = {"--checkpoint": ckpt, "--input": str(tmp_path / "rows.npy"),
                 "--mask-file": str(tmp_path / "mask.npy")}
        paths[missing] = str(tmp_path / "nowhere")
        out = tmp_path / "c"
        assert main(["complete", *(a for kv in paths.items() for a in kv),
                     "--out", str(out)]) == 2
        assert "not found: " + str(tmp_path / "nowhere") in capsys.readouterr().err
        assert not out.exists()

    def test_all_masked_still_valid_image(self, tmp_path):
        img = np.full((2, 2), 200, dtype=np.uint8)
        ckpt = self._image_checkpoint(tmp_path / "m.udbm", img)
        np.save(tmp_path / "in.npy", np.zeros((1, 2, 2), dtype=np.uint8))
        out = tmp_path / "c"
        assert main(["complete", "--checkpoint", ckpt, "--input", str(tmp_path / "in.npy"),
                     "--mask", "rect:0:2:0:2", "--out", str(out)]) == 0
        got = read_pgm(out / "completed-000.pgm")
        np.testing.assert_array_equal(got, img)  # bias-dominated fill

    def test_lower_half_mask_keeps_top_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.integers(0, 256, size=(4, 3)).astype(np.uint8)
        ckpt = self._image_checkpoint(tmp_path / "m.udbm", img)
        np.save(tmp_path / "in.npy", img[None, :, :])
        out = tmp_path / "c"
        assert main(["complete", "--checkpoint", ckpt, "--input", str(tmp_path / "in.npy"),
                     "--out", str(out)]) == 0
        got = read_pgm(out / "completed-000.pgm")
        np.testing.assert_array_equal(got[:2], img[:2])   # observed rows bit-exact

    def test_spin_rows_with_mask_file(self, tmp_path):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [3.0, -3.0, 3.0, -3.0])
        rows = np.array([[1, 1, 1, 1]], dtype=np.int8)
        np.save(tmp_path / "rows.npy", rows)
        np.save(tmp_path / "mask.npy", np.array([True, False, False, True]))
        out = tmp_path / "c"
        assert main(["complete", "--checkpoint", ckpt, "--input", str(tmp_path / "rows.npy"),
                     "--mask-file", str(tmp_path / "mask.npy"), "--out", str(out)]) == 0
        got = np.load(out / "completed.npy")
        np.testing.assert_array_equal(got[0], [1, -1, 1, 1])

    def test_spin_rows_file_is_loaded_once(self, tmp_path, monkeypatch):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [3.0, -3.0])
        np.save(tmp_path / "rows.npy", np.array([[1, 1]], dtype=np.int8))
        np.save(tmp_path / "mask.npy", np.array([True, False]))
        real, loaded = np.load, []

        def load(path, *args, **kwargs):
            loaded.append(str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(np, "load", load)
        assert main(["complete", "--checkpoint", ckpt, "--input", str(tmp_path / "rows.npy"),
                     "--mask-file", str(tmp_path / "mask.npy"),
                     "--out", str(tmp_path / "c")]) == 0
        assert loaded.count(str(tmp_path / "rows.npy")) == 1

    @pytest.mark.parametrize("fmt", ["npy", "idx"])
    def test_mask_file_with_image_input_exits_2(self, tmp_path, capsys, fmt):
        img = np.zeros((2, 2), dtype=np.uint8)
        ckpt = self._image_checkpoint(tmp_path / "m.udbm", img)
        if fmt == "npy":
            path = tmp_path / "in.npy"
            np.save(path, img[None, :, :])
        else:
            path = idx_file(tmp_path / "in.idx", img[None, :, :])
        np.save(tmp_path / "mask.npy", np.ones(32, dtype=bool))
        out = tmp_path / "c"
        assert main(["complete", "--checkpoint", ckpt, "--input", str(path),
                     "--mask-file", str(tmp_path / "mask.npy"), "--out", str(out)]) == 2
        assert "--mask-file is for spin-row inputs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mask", ["rect:0:1:0:1", "lower-half"])
    def test_mask_with_spin_rows_exits_2(self, tmp_path, capsys, mask):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [1.0] * 8)
        np.save(tmp_path / "rows.npy", np.ones((2, 8), dtype=np.int8))
        np.save(tmp_path / "mask.npy", np.ones(8, dtype=bool))
        out = tmp_path / "c"
        assert main(["complete", "--checkpoint", ckpt, "--input", str(tmp_path / "rows.npy"),
                     "--mask", mask, "--mask-file", str(tmp_path / "mask.npy"),
                     "--out", str(out)]) == 2
        assert "--mask is for image inputs" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["spin-rows", "images"])
    def test_input_without_rows_exits_2_and_writes_nothing(self, tmp_path, capsys, kind):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [1.0] * 8)
        flags = []
        if kind == "spin-rows":
            np.save(tmp_path / "in.npy", np.zeros((0, 8), dtype=np.int8))
            np.save(tmp_path / "mask.npy", np.ones(8, dtype=bool))
            flags = ["--mask-file", str(tmp_path / "mask.npy")]
        else:
            np.save(tmp_path / "in.npy", np.zeros((0, 1, 1), dtype=np.uint8))
        out = tmp_path / "c"
        assert main(["complete", "--checkpoint", ckpt, "--input", str(tmp_path / "in.npy"),
                     *flags, "--out", str(out)]) == 2
        assert "no examples" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("mask", [[], ["--mask", "rect:1:2:0:2"]])
    def test_npy_stack_and_idx_complete_identically(self, tmp_path, mask):
        images = np.random.default_rng(4).integers(0, 256, size=(3, 2, 2)).astype(np.uint8)
        params = random_params(DbmShape(32, 5, 3), seed=9)
        ckpt = str(tmp_path / "m.udbm")
        save_params(params, ckpt)
        np.save(tmp_path / "imgs.npy", images)
        inputs = {"npy": str(tmp_path / "imgs.npy"),
                  "idx": idx_file(tmp_path / "imgs.idx", images)}
        for name, path in inputs.items():
            assert main(["complete", "--checkpoint", ckpt, "--input", path, *mask,
                         "--out", str(tmp_path / name), "--seed", "2"]) == 0
        names = sorted(p.name for p in (tmp_path / "idx").iterdir())
        assert names == ["completed-000.pgm", "completed-001.pgm", "completed-002.pgm",
                         "completed.npy"]
        assert sorted(p.name for p in (tmp_path / "npy").iterdir()) == names
        for name in names:
            assert (tmp_path / "npy" / name).read_bytes() == \
                (tmp_path / "idx" / name).read_bytes()
        done = np.load(tmp_path / "idx" / "completed.npy")
        assert done.dtype == np.uint8 and done.shape == images.shape
        np.testing.assert_array_equal(done[:, :1], images[:, :1])  # observed row kept

    def test_malformed_idx_input_exits_1(self, tmp_path, capsys):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [1.0] * 8)
        idx = tmp_path / "imgs.idx"
        idx.write_bytes(struct.pack(">IIII", 0x00000801, 1, 1, 1) + b"\x07")
        assert main(["complete", "--checkpoint", ckpt, "--input", str(idx),
                     "--out", str(tmp_path / "c")]) == 1
        assert "bad magic" in capsys.readouterr().err

    def test_spin_rows_without_mask_file_exits_2(self, tmp_path):
        ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [3.0, -3.0])
        np.save(tmp_path / "rows.npy", np.array([[1, 1]], dtype=np.int8))
        assert main(["complete", "--checkpoint", ckpt, "--input", str(tmp_path / "rows.npy"),
                     "--out", str(tmp_path / "c")]) == 2


class TestBench:
    def test_single_dim_one_replicate_four_rows(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bench", "--dims", "1", "--replicates", "1",
                     "--out", str(out), "--threads", "1"]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 5  # header + 4 arms

    def test_seed_repeatability(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            assert main(["bench", "--dims", "2,3", "--replicates", "2",
                         "--seed", "7", "--out", str(path), "--threads", "1"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_summary_flag_prints_table(self, tmp_path, capsys):
        assert main(["bench", "--dims", "2", "--replicates", "2",
                     "--out", str(tmp_path / "b.csv"), "--summary", "--threads", "1"]) == 0
        assert "mh+local_mode" in capsys.readouterr().out

    def test_arm_subset(self, tmp_path):
        out = tmp_path / "b.csv"
        assert main(["bench", "--dims", "2", "--replicates", "3",
                     "--arms", "mh+local_mode", "--out", str(out), "--threads", "1"]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 4
        assert all(r.startswith("mh+local_mode") for r in rows[1:])

    @pytest.mark.parametrize("flags", [["--arms", "mh+nowhere"], ["--dims", "2,x"],
                                       ["--dims", "0"], ["--tau-max-mh", "0"],
                                       ["--replicates", "0"], ["--replicates", "-2"]])
    def test_bad_flag_values_exit_2(self, tmp_path, capsys, flags):
        assert main(["bench", "--dims", "2", "--replicates", "1", *flags,
                     "--out", str(tmp_path / "b.csv"), "--threads", "1"]) == 2
        assert "--dims" in capsys.readouterr().err
        assert not (tmp_path / "b.csv").exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_exit_2(self, tmp_path, capsys, monkeypatch, threads):
        started = record_pool(monkeypatch)
        assert main(["bench", "--dims", "2", "--replicates", "1",
                     "--out", str(tmp_path / "b.csv"), "--threads", threads]) == 2
        assert "--threads" in capsys.readouterr().err
        assert started == []
        assert not (tmp_path / "b.csv").exists()


class TestOracleCheck:
    def test_too_few_samples_exits_2(self, capsys):
        assert main(["oracle-check", "--samples", "100"]) == 2
        assert "power" in capsys.readouterr().err

    def test_bad_tau_max_exits_2(self, capsys):
        assert main(["oracle-check", "--samples", "1000", "--tau-max", "0"]) == 2
        assert "--tau-max" in capsys.readouterr().err

    def test_truncated_coupling_exits_1(self, capsys):
        # tau_max = 1 truncates every coupling whose x chain accepts its first
        # proposal; the report refuses to average such a draw
        assert main(["oracle-check", "--samples", "1000", "--tau-max", "1"]) == 1
        assert "truncated" in capsys.readouterr().err

    def test_passes_with_adequate_samples(self, capsys):
        assert main(["oracle-check", "--samples", "3000"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out


@pytest.mark.parametrize("command", ["train", "sample", "complete", "bench", "oracle-check"])
@pytest.mark.parametrize("seed", ["-1", "x"])
def test_bad_seed_flag_exits_2_and_writes_nothing(tmp_path, capsys, command, seed):
    # every subcommand's --seed takes one argparse type: a non-negative integer
    out = tmp_path / "out"
    ckpt = bias_only_checkpoint(tmp_path / "m.udbm", [1.0, -1.0])
    np.save(tmp_path / "rows.npy", np.array([[1, 1]], dtype=np.int8))
    np.save(tmp_path / "mask.npy", np.array([True, False]))
    args = {"train": ["--config", write_config(tmp_path / "c.txt", n_v=2, steps=1,
                                                 data="synthetic:2x2"), "--out-dir", str(out)],
            "sample": ["--checkpoint", ckpt, "--n", "1", "--out", str(out)],
            "complete": ["--checkpoint", ckpt, "--input", str(tmp_path / "rows.npy"),
                         "--mask-file", str(tmp_path / "mask.npy"), "--out", str(out)],
            "bench": ["--dims", "2", "--replicates", "1", "--threads", "1", "--out", str(out)],
            "oracle-check": ["--samples", "1000"]}[command]
    assert main([command, *args, "--seed", seed]) == 2
    assert f"--seed: expected a non-negative integer, got '{seed}'" in capsys.readouterr().err
    assert not out.exists()
