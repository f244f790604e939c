import gzip
import struct

import numpy as np
import pytest

from spindbm import (BinaryDataset, Mask, binarize_u8, debinarize_u8,
                     load_idx_images, lower_half_mask, rectangle_mask,
                     spins_to_images, synthetic_patterns, to_spin_dataset)
from spindbm.data import IdxFormatError, read_pgm, read_rows, write_pgm


def idx_blob(images):
    images = np.asarray(images, dtype=np.uint8)
    n, h, w = images.shape
    return struct.pack(">IIII", 0x00000803, n, h, w) + images.tobytes()


class TestBinarize:
    def test_123_pattern(self):
        np.testing.assert_array_equal(binarize_u8(123), [0, 1, 1, 1, 1, 0, 1, 1])

    def test_extremes(self):
        np.testing.assert_array_equal(binarize_u8(0), np.zeros(8))
        np.testing.assert_array_equal(binarize_u8(255), np.ones(8))

    def test_round_trip_all_bytes(self):
        for val in range(256):
            assert debinarize_u8(binarize_u8(val)) == val

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            binarize_u8(256)
        with pytest.raises(ValueError):
            binarize_u8(-1)
        with pytest.raises(ValueError):
            debinarize_u8([1, 0, 1])


class TestIdxLoader:
    def test_parses_crafted_fixture(self, tmp_path):
        images = np.arange(8, dtype=np.uint8).reshape(2, 2, 2) * 10
        path = tmp_path / "imgs.idx"
        path.write_bytes(idx_blob(images))
        got, meta = load_idx_images(path)
        np.testing.assert_array_equal(got, images)
        assert meta["count"] == 2 and meta["height"] == 2 and meta["width"] == 2

    def test_gzip_transparent(self, tmp_path):
        images = np.full((1, 3, 2), 7, dtype=np.uint8)
        path = tmp_path / "imgs.idx.gz"
        with gzip.open(path, "wb") as f:
            f.write(idx_blob(images))
        got, _ = load_idx_images(path)
        np.testing.assert_array_equal(got, images)

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000801, 1, 1, 1) + b"\x00")
        with pytest.raises(IdxFormatError):
            load_idx_images(path)

    def test_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.idx"
        path.write_bytes(b"")
        with pytest.raises(IdxFormatError):
            load_idx_images(path)

    def test_rejects_truncated_pixels(self, tmp_path):
        path = tmp_path / "short.idx"
        path.write_bytes(idx_blob(np.zeros((2, 2, 2), dtype=np.uint8))[:-3])
        with pytest.raises(IdxFormatError):
            load_idx_images(path)

    def test_rejects_absurd_header_counts(self, tmp_path):
        path = tmp_path / "huge.idx"
        path.write_bytes(struct.pack(">IIII", 0x00000803, 2 ** 30, 1000, 1000) + b"\x00" * 64)
        with pytest.raises(IdxFormatError):
            load_idx_images(path)


class TestSpinDataset:
    def test_all_zero_image_is_all_minus_one(self):
        ds = to_spin_dataset(np.zeros((1, 2, 2), dtype=np.uint8))
        assert ds.length == 2 * 2 * 8
        assert np.all(ds.examples == -1)

    def test_single_pixel_123(self):
        ds = to_spin_dataset(np.array([[[123]]], dtype=np.uint8))
        np.testing.assert_array_equal(ds.examples[0],
                                      np.array([0, 1, 1, 1, 1, 0, 1, 1]) * 2 - 1)

    def test_mnist_shape_gives_6272(self):
        ds = to_spin_dataset(np.zeros((1, 28, 28), dtype=np.uint8))
        assert ds.length == 6272

    def test_round_trip_to_images(self):
        rng = np.random.default_rng(0)
        images = rng.integers(0, 256, size=(5, 3, 4)).astype(np.uint8)
        ds = to_spin_dataset(images)
        back = spins_to_images(ds.examples, 3, 4)
        np.testing.assert_array_equal(back, images)

    def test_byte_order_pixel_major(self):
        # pixel 0 occupies the first 8 positions, MSB first
        images = np.array([[[0b10000000, 0b00000001]]], dtype=np.uint8).reshape(1, 1, 2)
        ds = to_spin_dataset(images)
        row = ds.examples[0]
        assert row[0] == 1 and np.all(row[1:8] == -1)
        assert np.all(row[8:15] == -1) and row[15] == 1

    def test_rejects_non_spin_rows(self):
        with pytest.raises(ValueError):
            BinaryDataset(np.array([[1, 0, -1]]))


class TestMasks:
    def test_two_by_two_lower_half(self):
        m = lower_half_mask(2, 2)
        assert m.observed.shape == (32,)
        assert np.all(m.observed[:16]) and not np.any(m.observed[16:])

    def test_odd_height_floor_division(self):
        m = lower_half_mask(3, 1)
        assert np.all(m.observed[:8]) and not np.any(m.observed[8:])

    def test_row_structure(self):
        h, w = 4, 3
        m = lower_half_mask(h, w)
        grid = m.observed.reshape(h, w, 8)
        for r in range(h):
            assert np.all(grid[r] == (r < h // 2))

    def test_rectangle_mask(self):
        m = rectangle_mask(4, 4, 1, 3, 0, 2)
        grid = (~m.observed).reshape(4, 4, 8)
        missing_pixels = grid.all(axis=2)
        want = np.zeros((4, 4), dtype=bool)
        want[1:3, 0:2] = True
        np.testing.assert_array_equal(missing_pixels, want)


class TestSyntheticPatterns:
    def test_distinct_and_reproducible(self):
        a = synthetic_patterns(6, 10, seed=3)
        b = synthetic_patterns(6, 10, seed=3)
        np.testing.assert_array_equal(a.examples, b.examples)
        assert len({r.tobytes() for r in a.examples}) == 6

    def test_singleton(self):
        ds = synthetic_patterns(1, 4, seed=0)
        assert ds.examples.shape == (1, 4)

    def test_too_many_patterns_rejected(self):
        with pytest.raises(ValueError):
            synthetic_patterns(5, 2, seed=0)


class TestPgm:
    def test_round_trip(self, tmp_path):
        img = np.arange(12, dtype=np.uint8).reshape(3, 4) * 20
        path = tmp_path / "x.pgm"
        write_pgm(img, path)
        np.testing.assert_array_equal(read_pgm(path), img)
        blob = path.read_bytes()
        assert blob.startswith(b"P5\n4 3\n255\n")


class TestReadRows:
    @pytest.mark.parametrize("dtype", [np.int8, np.float64])
    def test_reads_spin_rows(self, tmp_path, dtype):
        rows = np.array([[1, -1, 1], [-1, -1, 1]], dtype=dtype)
        np.save(tmp_path / "rows.npy", rows)
        got, geometry = read_rows(tmp_path / "rows.npy")
        assert geometry is None
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, rows.astype(np.float64))

    def test_one_spin_row_is_a_matrix(self, tmp_path):
        np.save(tmp_path / "row.npy", np.array([1, -1], dtype=np.int8))
        got, _ = read_rows(tmp_path / "row.npy")
        np.testing.assert_array_equal(got, [[1.0, -1.0]])

    @pytest.mark.parametrize("bad", [np.array([[0.5, 1.0]]), np.array([[1, 0, -1]]),
                                     np.ones((2, 2, 2))])
    def test_rejects_non_spin(self, tmp_path, bad):
        np.save(tmp_path / "bad.npy", bad)
        with pytest.raises(ValueError):
            read_rows(tmp_path / "bad.npy")

    @pytest.mark.parametrize("fmt", ["idx", "idx.gz", "npy", "npy-one-image"])
    def test_images_give_their_geometry(self, tmp_path, fmt):
        images = np.arange(2 * 3 * 2, dtype=np.uint8).reshape(2, 3, 2) * 9
        if fmt == "npy-one-image":
            images = images[:1]
            path = tmp_path / "img.npy"
            np.save(path, images[0])
        elif fmt == "npy":
            path = tmp_path / "imgs.npy"
            np.save(path, images)
        else:
            path = tmp_path / f"imgs.{fmt}"
            with (gzip.open if fmt.endswith(".gz") else open)(path, "wb") as f:
                f.write(idx_blob(images))
        rows, geometry = read_rows(path)
        assert geometry == (3, 2)
        assert rows.dtype == np.float64
        np.testing.assert_array_equal(rows, to_spin_dataset(images).spins())
