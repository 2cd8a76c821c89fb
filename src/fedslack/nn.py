"""Minimal dense-network engine: MLP forward/backward, softmax cross-entropy,
SGD with momentum, flat parameter vectors, and a binary checkpoint format.

A model keeps all of its parameters in one contiguous float64 ParamVector,
`model.params`, laid out as dense0.W, dense0.b, dense1.W, ...; every
`weights[i]` and `biases[i]` is a reshaped view into that buffer.  The
optimizer updates the buffer in place, `to_vector` copies it and
`load_vector` overwrites it, so there is one copy of the parameters and no
conversion between per-layer arrays and the flat vector.

A model may also stack M clients' models along a leading client axis: its
buffer is then (M, P), one row per client (a slice of the round's upload
matrix), `weights[i]` is (M, fan_in, fan_out) and `biases[i]` (M, fan_out).
Every function below takes the same leading axis on its batches, labels and
gradients ((M, n, d), (M, n), (M, P)) and computes each client's slice
exactly as it would alone: one `(M, n, .) @ (M, fan_in, fan_out)` matmul per
layer runs the same BLAS call per slice, and every reduction runs over the
sample or class axis of one client only.  The layout always describes one
row.

Gradients and the SGD velocity are plain float64 arrays in the order of
`model.params.values`; only the model's parameters carry a layout.

Each backward pass computes only the gradients its caller reads:
`backprop` returns the flat parameter gradient alone, and `input_backprop`
the per-sample input gradient alone (the attacks' path, with no
weight-gradient matmul).  `sgd_step` updates the velocity it owns and the
parameter buffer in place.

Everything is float64 and pure given explicit inputs.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, LabelError, ShapeError

Layout = tuple[tuple[str, tuple[int, ...]], ...]

CHECKPOINT_MAGIC = b"FSLK"
CHECKPOINT_VERSION = 1


@dataclass
class ParamVector:
    """Flat ordered view of model parameters plus the layout mapping it back."""

    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        # (M, P) is one row per stacked client; anything else is one flat vector.
        self.values = values if values.ndim == 2 else values.ravel()
        expected = sum(int(np.prod(shape)) for _, shape in self.layout)
        if self.values.shape[-1] != expected:
            raise ShapeError(
                f"param vector has {self.values.shape[-1]} values, layout needs {expected}")

    def copy(self) -> "ParamVector":
        return ParamVector(self.values.copy(), self.layout)


def _split(values: np.ndarray, layout: Layout) -> list[np.ndarray]:
    """One reshaped view into `values` (P,) or (M, P) per layout entry."""
    views, off = [], 0
    lead = values.shape[:-1]
    for _, shape in layout:
        n = math.prod(shape)
        views.append(values[..., off:off + n].reshape(lead + shape))
        off += n
    return views


class Model:
    """MLP with ReLU hidden activations and linear output logits.

    `weights[i]` (fan_in, fan_out) and `biases[i]` (fan_out,) are views into
    `params.values`; the constructor copies the given arrays into it.  That
    buffer is `out` when given (a contiguous float64 array of the right
    size, such as one row of an upload matrix), else a fresh array.  An
    (M, P) `out`, such as M consecutive rows of an upload matrix, gets the
    arrays in every row and makes a stacked model of M clients (see above).
    """

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray],
                 out: np.ndarray | None = None):
        shapes = [(np.shape(w), np.shape(b)) for w, b in zip(weights, biases)]
        if (not weights or len(weights) != len(biases)
                or any(len(ws) != 2 or bs != ws[1:] for ws, bs in shapes)
                or any(ws[1] != nxt[0] for (ws, _), (nxt, _) in zip(shapes, shapes[1:]))):
            raise ShapeError("weights and biases do not form an MLP")
        layout = tuple(entry for i, (ws, bs) in enumerate(shapes)
                       for entry in ((f"dense{i}.W", ws), (f"dense{i}.b", bs)))
        size = sum(math.prod(shape) for _, shape in layout)
        if out is not None and (out.dtype != np.float64 or out.shape[-1:] != (size,)
                                or out.ndim > 2 or not out.flags.c_contiguous):
            raise ShapeError(f"out must be a contiguous float64 array of shape "
                             f"({size},) or (M, {size})")
        first = np.concatenate([np.ravel(a) for wb in zip(weights, biases) for a in wb],
                               out=out if out is None or out.ndim == 1 else out[0])
        if out is not None and out.ndim == 2:
            out[1:] = first
        self.params = ParamVector(first if out is None else out, layout)
        views = _split(self.params.values, layout)
        self.weights, self.biases = views[0::2], views[1::2]

    @classmethod
    def init(cls, dims: list[int], rng: np.random.Generator) -> "Model":
        """Glorot-uniform initialization: uniform(-a, a), a = sqrt(6/(fi+fo))."""
        if len(dims) < 2:
            raise ShapeError("need at least input and output dims")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            a = np.sqrt(6.0 / (fan_in + fan_out))
            weights.append(rng.uniform(-a, a, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(weights, biases)

    @classmethod
    def from_vector(cls, vec: ParamVector, out: np.ndarray | None = None) -> "Model":
        """A model holding a copy of `vec` in `out` (see the class docstring);
        the layout must be dense0.W, dense0.b, ..."""
        parts = _split(vec.values, vec.layout)
        model = cls(parts[0::2], parts[1::2], out=out)
        if model.layout != vec.layout:
            raise ShapeError("param vector layout is not a dense<i>.W/.b MLP")
        return model

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[-2]

    @property
    def num_classes(self) -> int:
        return self.weights[-1].shape[-1]

    @property
    def layout(self) -> Layout:
        return self.params.layout

    def to_vector(self) -> ParamVector:
        return self.params.copy()

    def load_vector(self, vec: ParamVector) -> None:
        if vec.layout != self.layout:
            raise ShapeError("param vector layout does not match model")
        self.params.values[:] = vec.values


def forward(model: Model, x: np.ndarray) -> np.ndarray:
    """Logits for a single feature vector."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size != model.input_dim:
        raise ShapeError(f"input has shape {x.shape}, expected ({model.input_dim},)")
    return forward_batch(model, x[None, :])[0]


def _check_batch(model: Model, X: np.ndarray) -> np.ndarray:
    """`X` as float64, shaped (n, input_dim), or (M, n, input_dim) for a stacked model."""
    X = np.asarray(X, dtype=np.float64)
    lead = model.weights[0].shape[:-2]
    if X.ndim != len(lead) + 2 or X.shape[:-2] != lead or X.shape[-1] != model.input_dim:
        rows = "".join(f"{m}, " for m in lead)
        raise ShapeError(f"batch has shape {X.shape}, expected ({rows}n, {model.input_dim})")
    return X


def forward_batch(model: Model, X: np.ndarray) -> np.ndarray:
    """Logits for a batch, shape (n, C), or (M, n, C) for a stacked model."""
    h = _check_batch(model, X)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b[..., None, :]
        if i != last:
            h = np.maximum(h, 0.0)
    return h


def _forward_cache(model: Model, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass keeping the post-activation of every layer (acts[0] = X)."""
    acts = [X]
    h = X
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b[..., None, :]
        if i != last:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return h, acts


def backprop(model: Model, acts: list[np.ndarray], dlogits: np.ndarray) -> np.ndarray:
    """Backpropagate d(loss)/d(logits) through the cached forward pass.

    Returns the flat parameter gradient, summed over each client's batch, in
    `model.params` order ((P,), or (M, P) for a stacked model); the layer-0
    `delta @ W.T` is never computed.
    """
    grads = np.empty_like(model.params.values)
    views = _split(grads, model.layout)
    delta = dlogits
    for i in range(len(model.weights) - 1, -1, -1):
        np.matmul(acts[i].swapaxes(-1, -2), delta, out=views[2 * i])
        delta.sum(axis=-2, out=views[2 * i + 1])
        if i > 0:
            delta = delta @ model.weights[i].swapaxes(-1, -2)
            delta *= acts[i] > 0.0
    return grads


def input_backprop(model: Model, acts: list[np.ndarray], dlogits: np.ndarray) -> np.ndarray:
    """Per-sample input gradients, shaped like `acts[0]`, alone: `backprop`'s
    `delta @ W.T` / ReLU-mask chain, in the same order, with no parameter
    gradients."""
    delta = dlogits
    for i in range(len(model.weights) - 1, -1, -1):
        delta = delta @ model.weights[i].swapaxes(-1, -2)
        if i > 0:
            delta *= acts[i] > 0.0
    return delta


def softmax(logits: np.ndarray) -> np.ndarray:
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def _at_labels(y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index of each sample's label logit in logits of shape y.shape + (C,)."""
    if y.ndim == 1:
        return np.arange(len(y)), y
    return np.arange(len(y))[:, None], np.arange(y.shape[1]), y


def cross_entropy(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample softmax cross-entropy; logits (n, C), y (n,), or (M, n, C), (M, n)."""
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    return lse - z[_at_labels(y)]


def _check_labels(y: np.ndarray, num_classes: int) -> np.ndarray:
    y = np.asarray(y)
    if y.ndim == 0:
        y = y[None]
    if np.any(y < 0) or np.any(y >= num_classes):
        raise LabelError(f"labels must lie in [0, {num_classes})")
    return y.astype(np.intp)


def loss_and_grads(model: Model, x: np.ndarray,
                   y: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Cross-entropy loss, parameter gradients, and input gradient for one sample."""
    X = np.asarray(x, dtype=np.float64)[None, :]
    loss, pgrads = batch_loss_and_grads(model, X, np.array([y]))
    return loss, pgrads, input_grads_ce(model, X, _check_labels(y, model.num_classes))[0]


def batch_loss_and_grads(model: Model, X: np.ndarray,
                         y: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy over a batch and the mean parameter gradients.

    For a stacked model both are per client: losses (M,) and gradients (M, P).
    """
    X = _check_batch(model, X)
    y = _check_labels(y, model.num_classes)
    logits, acts = _forward_cache(model, X)
    loss = cross_entropy(logits, y).mean(axis=-1)
    dlogits = softmax(logits)
    dlogits[_at_labels(y)] -= 1.0
    dlogits /= X.shape[-2]
    return loss, backprop(model, acts, dlogits)


def input_grads_ce(model: Model, X: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample input gradients of the cross-entropy loss (used by attacks).

    `y` must already be checked by `_check_labels`; the attacks check their
    labels once per call, not once per step.
    """
    logits, acts = _forward_cache(model, np.asarray(X, dtype=np.float64))
    dlogits = softmax(logits)
    dlogits[_at_labels(y)] -= 1.0
    return input_backprop(model, acts, dlogits)


@dataclass
class SgdState:
    """SGD with momentum and weight decay; velocity lives per round."""

    lr: float
    momentum: float = 0.0
    weight_decay: float = 0.0
    velocity: np.ndarray | None = None

    def __post_init__(self):
        if self.lr <= 0:
            raise ValueError("learning rate must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must lie in [0, 1)")
        if self.weight_decay < 0:
            raise ValueError("weight decay must be non-negative")


def sgd_step(model: Model, grads: np.ndarray, state: SgdState) -> Model:
    """v <- m*v + g + wd*theta; theta <- theta - lr*v.

    Updates `state.velocity` and `model.params` in place, in that order of
    association, so the rounding equals the out-of-place formula.  For a
    stacked model each op runs once over all the clients' rows.
    """
    theta = model.params.values
    if np.shape(grads) != theta.shape:
        raise ShapeError(f"gradient has shape {np.shape(grads)}, model needs {theta.shape}")
    if state.velocity is None:
        state.velocity = np.zeros_like(theta)
    v = state.velocity
    v *= state.momentum
    v += grads
    v += state.weight_decay * theta
    theta -= state.lr * v
    return model


def save_checkpoint(model: Model, path) -> None:
    """Binary checkpoint: magic, version, layer entries, row-major float64 LE."""
    layout = model.layout
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(layout)))
        for name, shape in layout:
            raw = name.encode("utf-8")
            f.write(struct.pack("<I", len(raw)))
            f.write(raw)
            f.write(struct.pack("<I", len(shape)))
            for d in shape:
                f.write(struct.pack("<I", d))
        f.write(model.params.values.astype("<f8").tobytes())


def _read(f, n: int) -> bytes:
    """Exactly `n` bytes of the checkpoint, or FormatError if the file ends first."""
    raw = f.read(n)
    if len(raw) != n:
        raise FormatError(f"checkpoint truncated: wanted {n} bytes, got {len(raw)}")
    return raw


def _read_u32(f) -> int:
    return struct.unpack("<I", _read(f, 4))[0]


def load_checkpoint(path) -> Model:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"bad checkpoint magic {magic!r}")
        version = _read_u32(f)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"unsupported checkpoint version {version}")
        layout = []
        for _ in range(_read_u32(f)):
            name = _read(f, _read_u32(f)).decode("utf-8")
            shape = tuple(_read_u32(f) for _ in range(_read_u32(f)))
            layout.append((name, shape))
        total = sum(math.prod(s) for _, s in layout)
        values = np.frombuffer(_read(f, total * 8), dtype="<f8").astype(np.float64)
    try:
        return Model.from_vector(ParamVector(values, tuple(layout)))
    except ShapeError as exc:
        raise FormatError(f"checkpoint layer entries inconsistent: {exc}") from exc
