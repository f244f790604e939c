"""Dataset ingestion, bit-plane binarization, and masks.

Grayscale pixels are expanded losslessly into 8 binary units each (the
binary expansion of the byte, most significant bit first), and every bit
b is then cast to the spin 2b - 1. The layout of an encoded image is
pixel-major, bit-minor: pixel 0's bits MSB to LSB, then pixel 1's, and
so on, so a 28x28 8-bit image becomes a vector of 6272 spins. This
ordering is a fixed convention of the file formats here; checkpointed
models depend on it.
"""

from __future__ import annotations

import gzip
import struct
from dataclasses import dataclass

import numpy as np

IDX_IMAGES_MAGIC = 0x00000803


class IdxFormatError(ValueError):
    """Raised on malformed IDX image files."""


@dataclass
class BinaryDataset:
    """Rows of +-1 spins of uniform length, plus where they came from."""

    examples: np.ndarray  # (n, length) int8 in {-1, +1}
    source: str = ""

    def __post_init__(self):
        self.examples = np.asarray(self.examples, dtype=np.int8)
        if self.examples.ndim != 2:
            raise ValueError("examples must be a 2-d array")
        if not np.all(np.abs(self.examples) == 1):
            raise ValueError("examples must be +-1 valued")

    def __len__(self) -> int:
        return self.examples.shape[0]

    @property
    def length(self) -> int:
        return self.examples.shape[1]

    def spins(self) -> np.ndarray:
        """Examples as float64 rows (the dtype the model code works in)."""
        return self.examples.astype(np.float64)


@dataclass
class Mask:
    """Boolean vector marking which positions of an example are observed."""

    observed: np.ndarray

    def __post_init__(self):
        self.observed = np.asarray(self.observed, dtype=bool)
        if self.observed.ndim != 1:
            raise ValueError("mask must be a 1-d boolean vector")


def binarize_u8(value: int) -> np.ndarray:
    """Binary expansion of a byte, MSB first: 123 -> 0,1,1,1,1,0,1,1."""
    if not 0 <= int(value) <= 255:
        raise ValueError(f"value {value} outside 0..255")
    return np.unpackbits(np.array([value], dtype=np.uint8)).astype(np.int64)


def debinarize_u8(bits) -> int:
    """Inverse of binarize_u8."""
    bits = np.asarray(bits)
    if bits.shape != (8,):
        raise ValueError("need exactly 8 bits")
    return int(np.packbits(bits.astype(np.uint8))[0])


def load_idx_images(path) -> tuple[np.ndarray, dict]:
    """Parse an IDX image file (.gz accepted): returns (images, metadata).

    images has shape (count, height, width) and dtype uint8. The file must
    start with the big-endian magic 0x00000803 and contain exactly
    count * height * width pixel bytes.
    """
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as f:
        blob = f.read()
    if len(blob) < 16:
        raise IdxFormatError(f"{path}: too short for an IDX image header")
    magic, count, height, width = struct.unpack(">IIII", blob[:16])
    if magic != IDX_IMAGES_MAGIC:
        raise IdxFormatError(f"{path}: bad magic 0x{magic:08x}")
    expected = count * height * width
    if expected > len(blob):  # also catches absurd header values
        raise IdxFormatError(f"{path}: header promises {expected} pixels, "
                             f"file has {len(blob) - 16} bytes of data")
    if len(blob) - 16 != expected:
        raise IdxFormatError(f"{path}: trailing or missing pixel bytes")
    images = np.frombuffer(blob, dtype=np.uint8, offset=16).reshape(count, height, width)
    return images.copy(), {"path": str(path), "count": count,
                           "height": height, "width": width}


def to_spin_dataset(images: np.ndarray, source: str = "") -> BinaryDataset:
    """Expand uint8 images into +-1 bit-plane spin vectors.

    Output rows have length height * width * 8, pixel-major and MSB-first
    within each pixel.
    """
    images = np.asarray(images, dtype=np.uint8)
    if images.ndim == 2:
        images = images[None, :, :]
    if images.ndim != 3:
        raise ValueError("images must have shape (n, height, width)")
    n, h, w = images.shape
    bits = np.unpackbits(images.reshape(n, h * w), axis=1)  # MSB first per byte
    spins = (bits.astype(np.int8) * 2 - 1)
    return BinaryDataset(spins, source=source)


def spins_to_images(spins: np.ndarray, height: int, width: int) -> np.ndarray:
    """Inverse of to_spin_dataset: +-1 rows back to uint8 images."""
    spins = np.asarray(spins)
    if spins.ndim == 1:
        spins = spins[None, :]
    if spins.shape[1] != height * width * 8:
        raise ValueError("row length does not match height*width*8")
    bits = (spins > 0).astype(np.uint8)
    return np.packbits(bits, axis=1).reshape(-1, height, width)


def lower_half_mask(height: int, width: int) -> Mask:
    """Observe exactly the bit positions of pixel rows above the middle.

    Rows r < height // 2 are observed; the lower half is missing.
    """
    observed = np.zeros(height * width * 8, dtype=bool)
    observed[:(height // 2) * width * 8] = True
    return Mask(observed)


def rectangle_mask(height: int, width: int, r0: int, r1: int, c0: int, c1: int) -> Mask:
    """Mark the pixel rectangle [r0, r1) x [c0, c1) as missing."""
    missing = np.zeros((height, width), dtype=bool)
    missing[r0:r1, c0:c1] = True
    observed = ~np.repeat(missing.reshape(-1), 8)
    return Mask(observed)


def synthetic_patterns(n_patterns: int, length: int, seed: int) -> BinaryDataset:
    """n distinct uniform +-1 vectors, deterministic in the seed."""
    if n_patterns < 1 or length < 1:
        raise ValueError("need n_patterns >= 1 and length >= 1")
    if n_patterns > 2 ** min(length, 62):
        raise ValueError("more patterns than distinct vectors")
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x5D]))
    seen = set()
    rows = []
    for _ in range(200 * n_patterns):  # bounded retries for duplicates
        row = rng.integers(0, 2, size=length, dtype=np.int8) * 2 - 1
        key = row.tobytes()
        if key not in seen:
            seen.add(key)
            rows.append(row)
            if len(rows) == n_patterns:
                return BinaryDataset(np.stack(rows), source=f"synthetic:{n_patterns}x{length}")
    raise RuntimeError("could not draw enough distinct patterns")


def write_pgm(image: np.ndarray, path):
    """Write one uint8 image as a binary (P5) PGM file."""
    image = np.asarray(image, dtype=np.uint8)
    if image.ndim != 2:
        raise ValueError("PGM writer expects one 2-d image")
    h, w = image.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(image.tobytes())


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM file written by write_pgm."""
    with open(path, "rb") as f:
        if f.readline().strip() != b"P5":
            raise ValueError(f"{path}: not a binary PGM")
        w, h = map(int, f.readline().split())
        maxval = int(f.readline())
        if maxval != 255:
            raise ValueError(f"{path}: unsupported maxval {maxval}")
        return np.frombuffer(f.read(w * h), dtype=np.uint8).reshape(h, w).copy()


def read_rows(path) -> tuple[np.ndarray, tuple[int, int] | None]:
    """The one reader of example files: (float64 +-1 rows, (height, width) or None).

    An IDX image file (.gz accepted) or an .npy of uint8 images (one
    (height, width) image or a (count, height, width) stack) gives its
    bit-plane spin rows and the image geometry. Any other .npy must hold
    +-1 rows (int8 or float; one row or a matrix) and gives them with None.
    """
    path = str(path)
    if not path.endswith(".npy"):
        images = load_idx_images(path)[0]
    else:
        images = np.load(path)
        if images.dtype != np.uint8:
            rows = np.atleast_2d(images)
            if rows.ndim != 2 or not np.all(np.abs(rows) == 1):
                raise ValueError(f"{path}: spin rows must be a matrix of +-1 entries")
            return rows.astype(np.float64), None
    return to_spin_dataset(images, source=path).spins(), images.shape[-2:]
