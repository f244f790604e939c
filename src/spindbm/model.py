"""Two-hidden-layer Boltzmann machine on +-1 spins.

Every unit takes a value in {-1, +1}. The model is parameterized by two
weight matrices (visible to first hidden, first hidden to second hidden)
and one bias vector per layer. The layers form a bipartite structure:
the visible and second hidden layers (the "even" block) interact only
through the first hidden layer (the "odd" block), which makes block
conditionals, block-wise energy minimization, and single-block
marginalization all tractable.

This module holds the parameter and state containers, the joint energy,
the local fields that define the block conditionals, the three marginal
energies obtained by analytically summing out one block, and the exact
analytic gradients of every energy with respect to the parameters.
All functions are pure; arrays are float64 throughout.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"UDBM"
CHECKPOINT_VERSION = 1

LOG2 = float(np.log(2.0))


class DimensionError(ValueError):
    """Raised when array shapes do not match the model layout."""


class CheckpointError(ValueError):
    """Raised on malformed checkpoint files."""


@dataclass(frozen=True)
class DbmShape:
    """Layer sizes (visible, first hidden, second hidden).

    n_h2 = 0 is allowed and degenerates the model to a single-hidden-layer
    machine (an RBM): all second-layer terms vanish identically.
    """

    n_v: int
    n_h1: int
    n_h2: int

    def __post_init__(self):
        if self.n_v < 1 or self.n_h1 < 1 or self.n_h2 < 0:
            raise DimensionError(f"invalid layer sizes {self!r}")

    @property
    def total(self) -> int:
        return self.n_v + self.n_h1 + self.n_h2


@dataclass
class DbmParams:
    """Model parameters: weights W1 (n_v x n_h1), W2 (n_h1 x n_h2), biases."""

    W1: np.ndarray
    W2: np.ndarray
    b_v: np.ndarray
    b_h1: np.ndarray
    b_h2: np.ndarray

    @property
    def shape(self) -> DbmShape:
        return DbmShape(self.W1.shape[0], self.W1.shape[1], self.W2.shape[1])

    def validate(self):
        n_v, n_h1 = self.W1.shape
        if self.W2.shape[0] != n_h1:
            raise DimensionError("W1 and W2 disagree on the first hidden layer size")
        n_h2 = self.W2.shape[1]
        if self.b_v.shape != (n_v,) or self.b_h1.shape != (n_h1,) or self.b_h2.shape != (n_h2,):
            raise DimensionError("bias vector shapes do not match the weights")
        for a in (self.W1, self.W2, self.b_v, self.b_h1, self.b_h2):
            if not np.all(np.isfinite(a)):
                raise ValueError("parameters contain non-finite entries")
        return self

    def copy(self) -> "DbmParams":
        return DbmParams(self.W1.copy(), self.W2.copy(), self.b_v.copy(),
                         self.b_h1.copy(), self.b_h2.copy())

    def arrays(self):
        return (self.W1, self.W2, self.b_v, self.b_h1, self.b_h2)

    def as_vector(self) -> np.ndarray:
        """Flatten to a single parameter vector (W1, W2, b_v, b_h1, b_h2 order)."""
        return np.concatenate([a.ravel() for a in self.arrays()])

    @classmethod
    def from_vector(cls, shape: DbmShape, vec: np.ndarray) -> "DbmParams":
        n_v, n_h1, n_h2 = shape.n_v, shape.n_h1, shape.n_h2
        sizes = [n_v * n_h1, n_h1 * n_h2, n_v, n_h1, n_h2]
        if vec.shape != (sum(sizes),):
            raise DimensionError("parameter vector length does not match shape")
        parts = np.split(np.asarray(vec, dtype=np.float64), np.cumsum(sizes)[:-1])
        return cls(parts[0].reshape(n_v, n_h1), parts[1].reshape(n_h1, n_h2),
                   parts[2], parts[3], parts[4])

    @classmethod
    def zeros(cls, shape: DbmShape) -> "DbmParams":
        return cls(np.zeros((shape.n_v, shape.n_h1)), np.zeros((shape.n_h1, shape.n_h2)),
                   np.zeros(shape.n_v), np.zeros(shape.n_h1), np.zeros(shape.n_h2))


@dataclass
class JointState:
    """One configuration (v, h1, h2) of all units, each entry in {-1, +1}."""

    v: np.ndarray
    h1: np.ndarray
    h2: np.ndarray

    def concat(self) -> np.ndarray:
        return np.concatenate([self.v, self.h1, self.h2])

    def copy(self) -> "JointState":
        return JointState(self.v.copy(), self.h1.copy(), self.h2.copy())

    def equals(self, other: "JointState") -> bool:
        return (np.array_equal(self.v, other.v) and np.array_equal(self.h1, other.h1)
                and np.array_equal(self.h2, other.h2))


@dataclass
class HiddenState:
    """Configuration (h1, h2) of the hidden layers only."""

    h1: np.ndarray
    h2: np.ndarray

    def concat(self) -> np.ndarray:
        return np.concatenate([self.h1, self.h2])

    def copy(self) -> "HiddenState":
        return HiddenState(self.h1.copy(), self.h2.copy())

    def equals(self, other: "HiddenState") -> bool:
        return np.array_equal(self.h1, other.h1) and np.array_equal(self.h2, other.h2)


def is_spin(a: np.ndarray) -> bool:
    return bool(np.all(np.abs(a) == 1.0))


def uniform_spins(n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n independent uniform spins in {-1, +1} as float64."""
    return np.where(rng.random(n) < 0.5, 1.0, -1.0)


def split_state(shape: DbmShape, x: np.ndarray) -> JointState:
    """Split a concatenated (v, h1, h2) vector into a JointState (copies)."""
    n_v, n_h1 = shape.n_v, shape.n_h1
    return JointState(x[:n_v].copy(), x[n_v:n_v + n_h1].copy(), x[n_v + n_h1:].copy())


def logcosh(a):
    """log(cosh(a)), overflow-safe for large |a|."""
    a = np.abs(a)
    return a + np.log1p(np.exp(-2.0 * a)) - LOG2


class GradEstimate:
    """Parameter-shaped gradient accumulator.

    Backed by one flat float64 vector in (W1, W2, b_v, b_h1, b_h2) order so
    that the telescoping sums and optimizer arithmetic are single vector
    operations; dW1/dW2/db_v/db_h1/db_h2 are views into that vector.
    """

    __slots__ = ("sizes", "vec")

    def __init__(self, sizes: tuple, vec: np.ndarray):
        self.sizes = sizes  # (n_v, n_h1, n_h2)
        self.vec = vec

    @classmethod
    def zeros(cls, shape: DbmShape) -> "GradEstimate":
        n_v, n_h1, n_h2 = shape.n_v, shape.n_h1, shape.n_h2
        return cls((n_v, n_h1, n_h2), np.zeros(n_v * n_h1 + n_h1 * n_h2 + n_v + n_h1 + n_h2))

    @classmethod
    def from_parts(cls, dW1, dW2, db_v, db_h1, db_h2) -> "GradEstimate":
        n_v, n_h1 = dW1.shape
        n_h2 = dW2.shape[1]
        vec = np.concatenate([np.ravel(dW1), np.ravel(dW2), db_v, db_h1, db_h2])
        return cls((n_v, n_h1, n_h2), vec)

    @property
    def dW1(self) -> np.ndarray:
        n_v, n_h1, _ = self.sizes
        return self.vec[:n_v * n_h1].reshape(n_v, n_h1)

    @property
    def dW2(self) -> np.ndarray:
        n_v, n_h1, n_h2 = self.sizes
        o = n_v * n_h1
        return self.vec[o:o + n_h1 * n_h2].reshape(n_h1, n_h2)

    @property
    def db_v(self) -> np.ndarray:
        n_v, n_h1, n_h2 = self.sizes
        o = n_v * n_h1 + n_h1 * n_h2
        return self.vec[o:o + n_v]

    @property
    def db_h1(self) -> np.ndarray:
        n_v, n_h1, n_h2 = self.sizes
        o = n_v * n_h1 + n_h1 * n_h2 + n_v
        return self.vec[o:o + n_h1]

    @property
    def db_h2(self) -> np.ndarray:
        n_v, n_h1, n_h2 = self.sizes
        return self.vec[len(self.vec) - n_h2:] if n_h2 else self.vec[len(self.vec):]

    def arrays(self):
        return (self.dW1, self.dW2, self.db_v, self.db_h1, self.db_h2)

    def copy(self) -> "GradEstimate":
        return GradEstimate(self.sizes, self.vec.copy())

    def add_scaled(self, other: "GradEstimate", scale: float = 1.0) -> "GradEstimate":
        """In-place self += scale * other (telescoping sums, batch means)."""
        if scale == 1.0:
            self.vec += other.vec
        else:
            self.vec += scale * other.vec
        return self

    def scale(self, c: float) -> "GradEstimate":
        self.vec *= c
        return self

    def __add__(self, other: "GradEstimate") -> "GradEstimate":
        return GradEstimate(self.sizes, self.vec + other.vec)

    def __sub__(self, other: "GradEstimate") -> "GradEstimate":
        return GradEstimate(self.sizes, self.vec - other.vec)

    def __neg__(self) -> "GradEstimate":
        return GradEstimate(self.sizes, -self.vec)

    def __mul__(self, c) -> "GradEstimate":
        return GradEstimate(self.sizes, self.vec * float(c))

    __rmul__ = __mul__

    def as_vector(self) -> np.ndarray:
        return self.vec.copy()

    def norm(self) -> float:
        return float(np.sqrt(self.vec @ self.vec))


def grad_from_rows(V: np.ndarray, H1: np.ndarray, H2: np.ndarray, c: np.ndarray) -> GradEstimate:
    """sum_k c_k * grad E(V_k, H1_k, H2_k) over K stacked rows, one GEMM per weight.

    dW1 = -(c V)'H1 and dW2 = -(c H1)'H2 are written straight into the flat
    gradient vector; the biases are -c'V, -c'H1 and -c'H2. Rows may hold
    tanh-of-field expectations in place of spins (the marginalized
    integrands). K = 0 gives the zero gradient; one row with c = 1 is the
    plain energy gradient of that state.
    """
    n_v, n_h1, n_h2 = V.shape[1], H1.shape[1], H2.shape[1]
    o1 = n_v * n_h1
    o2 = o1 + n_h1 * n_h2
    o3 = o2 + n_v
    vec = np.empty(o3 + n_h1 + n_h2)
    nc = -np.asarray(c, dtype=np.float64)
    np.matmul((V * nc[:, None]).T, H1, out=vec[:o1].reshape(n_v, n_h1))
    np.matmul((H1 * nc[:, None]).T, H2, out=vec[o1:o2].reshape(n_h1, n_h2))
    np.matmul(nc, V, out=vec[o2:o3])
    np.matmul(nc, H1, out=vec[o3:o3 + n_h1])
    np.matmul(nc, H2, out=vec[o3 + n_h1:])
    return GradEstimate((n_v, n_h1, n_h2), vec)


_ONE = np.ones(1)


def _one_row(v_like: np.ndarray, h1_like: np.ndarray, h2_like: np.ndarray) -> GradEstimate:
    """Gradient of one (v, h1, h2)-like row: the K = 1 case of grad_from_rows."""
    return grad_from_rows(v_like[None, :], h1_like[None, :], h2_like[None, :], _ONE)


def _check_joint(params: DbmParams, v, h1, h2):
    n_v, n_h1 = params.W1.shape
    n_h2 = params.W2.shape[1]
    if len(v) != n_v or len(h1) != n_h1 or len(h2) != n_h2:
        raise DimensionError(
            f"state ({len(v)},{len(h1)},{len(h2)}) does not match model ({n_v},{n_h1},{n_h2})")


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy(params: DbmParams, x: JointState) -> float:
    """Joint energy -v'W1h1 - h1'W2h2 - b_v'v - b_h1'h1 - b_h2'h2."""
    _check_joint(params, x.v, x.h1, x.h2)
    return energy_vhh(params, x.v, x.h1, x.h2)


def energy_vhh(params: DbmParams, v, h1, h2) -> float:
    e = -float((v @ params.W1) @ h1)
    if params.W2.shape[1]:
        e -= float((h1 @ params.W2) @ h2)
        e -= float(params.b_h2 @ h2)
    e -= float(params.b_v @ v) + float(params.b_h1 @ h1)
    return e


def local_fields_even(params: DbmParams, h1: np.ndarray):
    """Fields of the even block given h1: (a_v, a_h2).

    Each even unit s with field a has conditional P(s = +1 | h1) = sigmoid(2a);
    the factor 2 comes from the +-1 spin encoding.
    """
    if len(h1) != params.W1.shape[1]:
        raise DimensionError("h1 length does not match W1")
    a_v = params.W1 @ h1 + params.b_v
    a_h2 = params.W2.T @ h1 + params.b_h2
    return a_v, a_h2


def local_fields_odd(params: DbmParams, v: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Field of the odd block (h1) given v and h2: W1'v + W2 h2 + b_h1."""
    if len(v) != params.W1.shape[0] or len(h2) != params.W2.shape[1]:
        raise DimensionError("v/h2 lengths do not match the weights")
    return params.W1.T @ v + params.W2 @ h2 + params.b_h1


def energy_even_marginal(params: DbmParams, v: np.ndarray, h2: np.ndarray) -> float:
    """Energy of (v, h2) with h1 summed out analytically.

    Equals -b_v'v - b_h2'h2 - sum_j logcosh(field of h1_j); the additive
    log(2) per summed-out unit is dropped (it cancels in acceptance ratios
    and vanishes under the gradient).
    """
    a = local_fields_odd(params, v, h2)
    e = -float(params.b_v @ v) - float(np.sum(logcosh(a)))
    if len(h2):
        e -= float(params.b_h2 @ h2)
    return e


def energy_odd_marginal(params: DbmParams, h1: np.ndarray) -> float:
    """Energy of h1 with both even blocks (v, h2) summed out analytically."""
    a_v, a_h2 = local_fields_even(params, h1)
    e = -float(params.b_h1 @ h1) - float(np.sum(logcosh(a_v)))
    if len(a_h2):
        e -= float(np.sum(logcosh(a_h2)))
    return e


def energy_odd_posterior(params: DbmParams, v: np.ndarray, h1: np.ndarray) -> float:
    """Energy of h1 given clamped v, with h2 summed out analytically."""
    if len(v) != params.W1.shape[0] or len(h1) != params.W1.shape[1]:
        raise DimensionError("v/h1 lengths do not match W1")
    e = -float((v @ params.W1) @ h1) - float(params.b_v @ v) - float(params.b_h1 @ h1)
    if params.W2.shape[1]:
        d = params.W2.T @ h1 + params.b_h2
        e -= float(np.sum(logcosh(d)))
    return e


# ---------------------------------------------------------------------------
# analytic gradients
# ---------------------------------------------------------------------------

def grad_energy(params: DbmParams, x: JointState) -> GradEstimate:
    """Gradient of the joint energy: dW1 = -v h1', dW2 = -h1 h2', db = -units."""
    _check_joint(params, x.v, x.h1, x.h2)
    return grad_energy_vhh(x.v, x.h1, x.h2)


def grad_energy_vhh(v, h1, h2) -> GradEstimate:
    return _one_row(v, h1, h2)


def grad_energy_even_marginal(params: DbmParams, v: np.ndarray, h2: np.ndarray) -> GradEstimate:
    """Gradient of energy_even_marginal: h1 is replaced by tanh of its field."""
    return _one_row(v, np.tanh(local_fields_odd(params, v, h2)), h2)


def grad_energy_odd_marginal(params: DbmParams, h1: np.ndarray) -> GradEstimate:
    """Gradient of energy_odd_marginal: v and h2 replaced by tanh of their fields."""
    a_v, a_h2 = local_fields_even(params, h1)
    return _one_row(np.tanh(a_v), h1, np.tanh(a_h2))


def grad_energy_odd_posterior(params: DbmParams, v: np.ndarray, h1: np.ndarray) -> GradEstimate:
    """Gradient of energy_odd_posterior: only h2 is replaced by tanh of its field."""
    if len(v) != params.W1.shape[0] or len(h1) != params.W1.shape[1]:
        raise DimensionError("v/h1 lengths do not match W1")
    return _one_row(v, h1, np.tanh(params.W2.T @ h1 + params.b_h2))


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
# Layout (little-endian): magic "UDBM", 1 version byte, n_v/n_h1/n_h2 as u32,
# then W1 (row-major), W2 (row-major), b_v, b_h1, b_h2 as consecutive f64.

def save_params(params: DbmParams, path):
    params.validate()
    s = params.shape
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(bytes([CHECKPOINT_VERSION]))
        f.write(struct.pack("<III", s.n_v, s.n_h1, s.n_h2))
        for a in params.arrays():
            f.write(np.ascontiguousarray(a, dtype="<f8").tobytes())


def load_params(path) -> DbmParams:
    with open(path, "rb") as f:
        blob = f.read()
    if len(blob) < 17:
        raise CheckpointError("checkpoint file truncated before header")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}")
    if blob[4] != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {blob[4]}")
    n_v, n_h1, n_h2 = struct.unpack("<III", blob[5:17])
    shape = DbmShape(n_v, n_h1, n_h2)
    sizes = [n_v * n_h1, n_h1 * n_h2, n_v, n_h1, n_h2]
    need = 17 + 8 * sum(sizes)
    if len(blob) != need:
        raise CheckpointError(f"checkpoint length {len(blob)} != expected {need}")
    flat = np.frombuffer(blob, dtype="<f8", offset=17).astype(np.float64)
    return DbmParams.from_vector(shape, flat).validate()
