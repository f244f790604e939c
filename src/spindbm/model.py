"""Two-hidden-layer Boltzmann machine on +-1 spins.

Every unit takes a value in {-1, +1}. The model is parameterized by two
weight matrices (visible to first hidden, first hidden to second hidden)
and one bias vector per layer. The layers form a bipartite structure:
the visible and second hidden layers (the "even" block) interact only
through the first hidden layer (the "odd" block), which makes block
conditionals, block-wise energy minimization, and single-block
marginalization all tractable.

This module holds the parameter and state containers, the joint energy,
the local fields that define the block conditionals (one kernel for one
state or a stack of rows), the gradient kernel that turns weighted
stacked rows into one parameter-shaped gradient, and the checkpoint
format.
All functions are pure; arrays are float64 throughout.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

CHECKPOINT_MAGIC = b"UDBM"
CHECKPOINT_VERSION = 1


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


def param_layout(n_v: int, n_h1: int, n_h2: int, vec: np.ndarray | None = None):
    """The one parameter layout: (vec, W1, W2, b_v, b_h1, b_h2).

    vec is flat float64 in W1 (n_v x n_h1, row-major), W2 (n_h1 x n_h2,
    row-major), b_v, b_h1, b_h2 order, and the five arrays are views into it.
    Gradients, optimizer moments and the checkpoint body use the same order.
    vec=None allocates a zero vector; a vec of the wrong length raises
    DimensionError. A (K, length) vec holds K flat vectors as rows, and the
    views then carry the leading K axis.
    """
    o1 = n_v * n_h1
    o2 = o1 + n_h1 * n_h2
    o3 = o2 + n_v
    o4 = o3 + n_h1
    if vec is None:
        vec = np.zeros(o4 + n_h2)
    elif vec.shape[-1:] != (o4 + n_h2,):
        raise DimensionError(f"parameter vector of shape {vec.shape} does not fit "
                             f"({n_v}, {n_h1}, {n_h2}), which needs {o4 + n_h2} entries")
    lead = vec.shape[:-1]
    return (vec, vec[..., :o1].reshape(*lead, n_v, n_h1),
            vec[..., o1:o2].reshape(*lead, n_h1, n_h2), vec[..., o2:o3], vec[..., o3:o4],
            vec[..., o4:])


class DbmParams:
    """Model parameters: weights W1 (n_v x n_h1), W2 (n_h1 x n_h2), biases.

    All five arrays are views into one flat vector, vec (see param_layout),
    however the parameters were made. Write through the views (W1[...] = ...,
    W1 += ...) to change vec; rebinding an attribute detaches it.
    """

    __slots__ = ("sizes", "vec", "W1", "W2", "b_v", "b_h1", "b_h2")

    def __init__(self, W1, W2, b_v, b_h1, b_h2):
        parts = [np.asarray(a, dtype=np.float64) for a in (W1, W2, b_v, b_h1, b_h2)]
        if parts[0].ndim != 2 or parts[1].ndim != 2:
            raise DimensionError("W1 and W2 must be matrices")
        self._bind((*parts[0].shape, parts[1].shape[1]))
        for view, a in zip(self.arrays(), parts):
            if view.shape != a.shape:
                raise DimensionError(f"parameter shapes {[a.shape for a in parts]} "
                                     f"do not fit the layout {self.sizes}")
            view[...] = a

    def _bind(self, sizes: tuple, vec: np.ndarray | None = None):
        self.sizes = sizes  # (n_v, n_h1, n_h2)
        self.vec, self.W1, self.W2, self.b_v, self.b_h1, self.b_h2 = param_layout(*sizes, vec)

    @classmethod
    def _of(cls, sizes: tuple, vec: np.ndarray | None = None):
        self = object.__new__(cls)
        self._bind(sizes, vec)
        return self

    @property
    def shape(self) -> DbmShape:
        return DbmShape(*self.sizes)

    def validate(self):
        if not np.all(np.isfinite(self.vec)):
            raise ValueError("parameters contain non-finite entries")
        return self

    def copy(self):
        return self._of(self.sizes, self.vec.copy())

    def arrays(self):
        return (self.W1, self.W2, self.b_v, self.b_h1, self.b_h2)

    def as_vector(self) -> np.ndarray:
        """A copy of vec (W1, W2, b_v, b_h1, b_h2 order)."""
        return self.vec.copy()

    @classmethod
    def from_vector(cls, shape: DbmShape, vec: np.ndarray):
        """Parameters whose arrays are views into vec (no copy if it is contiguous float64)."""
        return cls._of((shape.n_v, shape.n_h1, shape.n_h2),
                       np.ascontiguousarray(vec, dtype=np.float64))

    @classmethod
    def zeros(cls, shape: DbmShape):
        return cls._of((shape.n_v, shape.n_h1, shape.n_h2))


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


class GradEstimate(DbmParams):
    """Parameter-shaped gradient accumulator.

    A DbmParams whose arrays are read as dW1/dW2/db_v/db_h1/db_h2, so the
    telescoping sums and optimizer arithmetic are single operations on vec.
    """

    __slots__ = ()

    # the parent's slots under gradient names: same storage, no extra lookup
    dW1, dW2, db_v, db_h1, db_h2 = (DbmParams.W1, DbmParams.W2, DbmParams.b_v,
                                    DbmParams.b_h1, DbmParams.b_h2)

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
    g = GradEstimate._of((V.shape[1], H1.shape[1], H2.shape[1]))
    nc = -np.asarray(c, dtype=np.float64)
    np.matmul((V * nc[:, None]).T, H1, out=g.dW1)
    np.matmul((H1 * nc[:, None]).T, H2, out=g.dW2)
    np.matmul(nc, V, out=g.db_v)
    np.matmul(nc, H1, out=g.db_h1)
    np.matmul(nc, H2, out=g.db_h2)
    return g


def grad_rows(V: np.ndarray, H1: np.ndarray, H2: np.ndarray, c: np.ndarray) -> np.ndarray:
    """c_k * grad E(V_k, H1_k, H2_k) for each of K stacked rows: a (K, dim) array.

    Row k is a flat gradient in param_layout order; grad_from_rows is the
    sum of the rows. Rows may hold tanh-of-field expectations in place of
    spins, as there.
    """
    nc = -np.asarray(c, dtype=np.float64)[:, None]
    G = np.empty((len(nc), V.shape[1] * H1.shape[1] + H1.shape[1] * H2.shape[1]
                  + V.shape[1] + H1.shape[1] + H2.shape[1]))
    _, dW1, dW2, db_v, db_h1, db_h2 = param_layout(V.shape[1], H1.shape[1], H2.shape[1], G)
    np.multiply(nc, V, out=db_v)
    np.multiply(nc, H1, out=db_h1)
    np.multiply(nc, H2, out=db_h2)
    np.multiply(db_v[:, :, None], H1[:, None, :], out=dW1)
    np.multiply(db_h1[:, :, None], H2[:, None, :], out=dW2)
    return G


_ONE = np.ones(1)


def _one_row(v_like: np.ndarray, h1_like: np.ndarray, h2_like: np.ndarray) -> GradEstimate:
    """Gradient of one (v, h1, h2)-like row: the K = 1 case of grad_from_rows."""
    return grad_from_rows(v_like[None, :], h1_like[None, :], h2_like[None, :], _ONE)


def check_visible(params: DbmParams, v):
    """Raise DimensionError unless v (one state or stacked rows) has the model's visible size."""
    if np.shape(v)[-1] != params.W1.shape[0]:
        raise DimensionError("v length does not match W1")


def check_joint(params: DbmParams, v, h1, h2):
    """Raise DimensionError unless (v, h1, h2), one state or stacked rows, has the
    model's layer sizes."""
    n_v, n_h1, n_h2 = params.sizes
    sizes = tuple(np.shape(a)[-1] for a in (v, h1, h2))
    if sizes != (n_v, n_h1, n_h2):
        raise DimensionError(f"state {sizes} does not match model ({n_v},{n_h1},{n_h2})")


# ---------------------------------------------------------------------------
# local fields
# ---------------------------------------------------------------------------
# The one place the block fields are written. Each function takes one state
# (1-D) or R states stacked as rows (R, n) and returns its field(s) in the
# same layout. The row-vector products are the same BLAS calls on a 1-D
# state as the W'x form, so a state gives the same bits either way.

def v_share(params: DbmParams, V: np.ndarray) -> np.ndarray:
    """v's share of the h1 field, V W1 + b_h1; hoisted while v is clamped."""
    return V @ params.W1 + params.b_h1


def h1_field(params: DbmParams, V, H2: np.ndarray, c=None) -> np.ndarray:
    """Field of h1 given v and h2: V W1 + H2 W2' + b_h1, or c + H2 W2' with c = v_share(V)."""
    if c is None:
        return V @ params.W1 + H2 @ params.W2.T + params.b_h1
    return c + H2 @ params.W2.T


def v_field(params: DbmParams, H1: np.ndarray, rows=None) -> np.ndarray:
    """Field of v given h1: H1 W1' + b_v.

    rows = (free, W1[free], b_v[free]) gives the field of the free units only.
    """
    if rows is None:
        return H1 @ params.W1.T + params.b_v
    return H1 @ rows[1].T + rows[2]


def h2_field(params: DbmParams, H1: np.ndarray) -> np.ndarray:
    """Field of h2 given h1: H1 W2 + b_h2."""
    return H1 @ params.W2 + params.b_h2


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def energy(params: DbmParams, x: JointState) -> float:
    """Joint energy -v'W1h1 - h1'W2h2 - b_v'v - b_h1'h1 - b_h2'h2."""
    check_joint(params, x.v, x.h1, x.h2)
    return energy_vhh(params, x.v, x.h1, x.h2)


def energy_vhh(params: DbmParams, V, H1, H2, c=None) -> float | np.ndarray:
    """The one joint energy kernel: -h1'a_h1 - b_v'v - b_h2'h2, a_h1 = h1_field(V, H2, c).

    One state (1-D) gives a float; R states stacked as rows give an (R,)
    array (a 1-D V is shared by every row), each row's entry bit for bit the
    energy of that row as one state. c = v_share(V), when given, is
    v's hoisted share of the h1 field: a posterior chain is the joint chain
    at a clamped v. The MH couplers' acceptance energy.
    """
    a = h1_field(params, V, H2, c)
    # one dot product per row, so a row gets the same bits as the 1-D state
    e = -(np.matmul(H1[..., None, :], a[..., :, None])[..., 0, 0] + V @ params.b_v
          + H2 @ params.b_h2)
    return float(e) if H1.ndim == 1 else e


# ---------------------------------------------------------------------------
# analytic gradients
# ---------------------------------------------------------------------------
# One-state forms of training.gradient_from_states' rows. Training does not
# call them; they stay while perfbench's tracer wraps them by name.

def grad_energy_vhh(v, h1, h2) -> GradEstimate:
    """Gradient of the joint energy at one state: dW1 = -v h1', dW2 = -h1 h2', db = -units."""
    return _one_row(v, h1, h2)


def grad_energy_even_marginal(params: DbmParams, v: np.ndarray, h2: np.ndarray) -> GradEstimate:
    """Gradient of E(v, h2) with h1 summed out: h1 is replaced by tanh of its field."""
    if len(v) != params.W1.shape[0] or len(h2) != params.W2.shape[1]:
        raise DimensionError("v/h2 lengths do not match the weights")
    return _one_row(v, np.tanh(h1_field(params, v, h2)), h2)


def grad_energy_odd_marginal(params: DbmParams, h1: np.ndarray) -> GradEstimate:
    """Gradient of E(h1) with v and h2 summed out: both replaced by tanh of their fields."""
    if len(h1) != params.W1.shape[1]:
        raise DimensionError("h1 length does not match W1")
    return _one_row(np.tanh(v_field(params, h1)), h1, np.tanh(h2_field(params, h1)))


def grad_energy_odd_posterior(params: DbmParams, v: np.ndarray, h1: np.ndarray) -> GradEstimate:
    """Gradient of E(h1 | v) with h2 summed out: h2 is replaced by tanh of its field."""
    if len(v) != params.W1.shape[0] or len(h1) != params.W1.shape[1]:
        raise DimensionError("v/h1 lengths do not match W1")
    return _one_row(v, h1, np.tanh(h2_field(params, h1)))


# ---------------------------------------------------------------------------
# checkpoint format
# ---------------------------------------------------------------------------
# Layout (little-endian): magic "UDBM", 1 version byte, n_v/n_h1/n_h2 as u32,
# then W1 (row-major), W2 (row-major), b_v, b_h1, b_h2 as consecutive f64.

def save_params(params: DbmParams, path):
    """Write a checkpoint atomically: to a temporary file beside path, then os.replace.

    A failed write leaves whatever was at path untouched and removes the
    temporary file.
    """
    params.validate()
    s = params.shape
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(CHECKPOINT_MAGIC)
            f.write(bytes([CHECKPOINT_VERSION]))
            f.write(struct.pack("<III", s.n_v, s.n_h1, s.n_h2))
            f.write(params.vec.astype("<f8", copy=False))  # the raw bytes of vec
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
    try:  # a body that is not whole f8s, or too few or too many of them
        flat = np.frombuffer(blob, dtype="<f8", offset=17).astype(np.float64)
        params = DbmParams.from_vector(shape, flat)
    except ValueError as exc:
        raise CheckpointError(f"checkpoint length {len(blob)}: {exc}") from None
    return params.validate()
