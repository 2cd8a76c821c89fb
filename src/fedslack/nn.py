"""Minimal dense-network engine: MLP forward/backward, softmax cross-entropy,
SGD with momentum, flat parameter vectors, and a binary checkpoint format.

A model is its layer widths and one float64 buffer: `Model(dims, values)`
keeps `values`, not a copy, laid out by `mlp_layout(dims)` as dense0.W,
dense0.b, dense1.W, ... (`model.params`), and every `weights[i]` and
`biases[i]` is a reshaped view into it.  The optimizer updates the buffer in
place and callers write into it in place, so there is one copy of the
parameters and no conversion between per-layer arrays and the flat vector.

Every function takes a batch, (n, d) inputs and (n,) labels; one sample is
a batch of one.

A model may also stack M clients' models along a leading client axis: its
buffer is then (M, P), one contiguous row per client (a slice of the
round's upload matrix, whose rows need not be adjacent), `weights[i]` is
(M, fan_in, fan_out) and `biases[i]` (M, fan_out).  Local training always
uses this form, a lone client being a stack of one; the global model and
evaluation use the plain one.
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
weight-gradient matmul).  A batch's loss and its logits' gradient come from
one softmax pass (`_softmax_ce`).  `sgd_step` updates the velocity and the
parameter buffer in place; its caller, `local.train_client`, owns the
velocity, the gradients and the scratch the step computes in.

Everything is float64 and pure given explicit inputs.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass

import numpy as np

from .data import read_declared
from .errors import FormatError, LabelError, ShapeError

Layout = tuple[tuple[str, tuple[int, ...]], ...]

CHECKPOINT_MAGIC = b"FSLK"
CHECKPOINT_VERSION = 1


@dataclass
class ParamVector:
    """A model's float64 parameter buffer, (P,) or (M, P) with one row per
    stacked client, plus the layout mapping one row back."""

    values: np.ndarray
    layout: Layout

    def __post_init__(self):
        expected = _size(self.layout)
        if self.values.shape[-1] != expected:
            raise ShapeError(
                f"param vector has {self.values.shape[-1]} values, layout needs {expected}")


def _size(layout: Layout) -> int:
    """The number of values `layout` lays out."""
    return sum(math.prod(shape) for _, shape in layout)


def _split(values: np.ndarray, layout: Layout) -> list[np.ndarray]:
    """One reshaped view into `values` (P,) or (M, P) per layout entry."""
    views, off = [], 0
    lead = values.shape[:-1]
    for _, shape in layout:
        n = math.prod(shape)
        views.append(values[..., off:off + n].reshape(lead + shape))
        off += n
    return views


def mlp_layout(dims: list[int] | tuple[int, ...]) -> Layout:
    """The layout of an MLP of layer widths `dims`: dense{i}.W (fan_in, fan_out),
    then dense{i}.b (fan_out,), layer after layer."""
    if len(dims) < 2 or min(dims) < 1:
        raise ShapeError(f"an MLP needs at least two widths, each >= 1, got {list(dims)}")
    return tuple(entry for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:]))
                 for entry in ((f"dense{i}.W", (fan_in, fan_out)), (f"dense{i}.b", (fan_out,))))


class Model:
    """MLP of layer widths `dims` with ReLU hidden activations and linear
    output logits, its parameters in `values`.

    `values` is the model's one buffer, kept as given, not copied: a (P,)
    float64 vector laid out by `mlp_layout(dims)`, or (M, P) with contiguous
    rows (such as M evenly spaced rows of an upload matrix) for a stacked
    model of M clients (see above).  `weights[i]` (fan_in, fan_out) and
    `biases[i]` (fan_out,) are views into it.
    """

    def __init__(self, dims: list[int] | tuple[int, ...], values: np.ndarray):
        self.dims = tuple(dims)
        if values.dtype != np.float64 or values.ndim not in (1, 2) or values.strides[-1] != 8:
            raise ShapeError(f"values must be float64, (P,) or (M, P) with contiguous rows, "
                             f"got {values.dtype} {values.shape}")
        self.params = ParamVector(values, mlp_layout(self.dims))   # checks the size
        views = _split(values, self.layout)
        self.weights, self.biases = views[0::2], views[1::2]

    @classmethod
    def init(cls, dims: list[int], rng: np.random.Generator) -> "Model":
        """Glorot-uniform initialization: uniform(-a, a), a = sqrt(6/(fi+fo)),
        zero biases, in one fresh buffer."""
        model = cls(dims, np.zeros(_size(mlp_layout(dims))))
        for w in model.weights:
            a = np.sqrt(6.0 / sum(w.shape))
            w[...] = rng.uniform(-a, a, size=w.shape)
        return model

    @property
    def input_dim(self) -> int:
        return self.dims[0]

    @property
    def num_classes(self) -> int:
        return self.dims[-1]

    @property
    def layout(self) -> Layout:
        return self.params.layout


def _check_batch(model: Model, X: np.ndarray) -> np.ndarray:
    """`X` as float64, shaped (n, input_dim), or (M, n, input_dim) for a stacked model."""
    X = np.asarray(X, dtype=np.float64)
    lead = model.weights[0].shape[:-2]
    if X.ndim != len(lead) + 2 or X.shape[:-2] != lead or X.shape[-1] != model.input_dim:
        rows = "".join(f"{m}, " for m in lead)
        raise ShapeError(f"batch has shape {X.shape}, expected ({rows}n, {model.input_dim})")
    return X


def _forward(model: Model, h: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """The forward loop: logits and the post-activation of every layer (acts[0] = h)."""
    acts = [h]
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w + b[..., None, :]
        if i != last:
            h = np.maximum(h, 0.0)
        acts.append(h)
    return h, acts


def forward_batch(model: Model, X: np.ndarray) -> np.ndarray:
    """Logits for a batch, shape (n, C), or (M, n, C) for a stacked model."""
    return _forward(model, _check_batch(model, X))[0]


def _forward_cache(model: Model, X: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Forward pass keeping the post-activation of every layer (acts[0] = X)."""
    return _forward(model, X)


def backprop(model: Model, acts: list[np.ndarray], dlogits: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """Backpropagate d(loss)/d(logits) through the cached forward pass.

    Returns the flat parameter gradient, summed over each client's batch, in
    `model.params` order ((P,), or (M, P) for a stacked model), written into
    `out` (C-contiguous, of that shape) when given; the layer-0
    `delta @ W.T` is never computed.
    """
    grads = np.empty_like(model.params.values) if out is None else out
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


# Rows per class column from which the class max of C classes is taken as
# C - 1 column `np.maximum` calls rather than one reduce over the class axis.
# On a 2-core x86 host the reduce costs about 1.5 us plus 35-55 ns per row
# (C = 2, 5 and 10), a column call 1.2-2.5 us up to 1000 rows; the columns
# cost 1.00x the reduce at 25 rows per column for C = 3, 5 and 10 and 0.86-
# 0.94x at 30.  So an 8-16-5 MLP's 1000-row eval logits take the columns,
# and 10-class logits of at most 160 rows keep the reduce.
COLUMN_MAX_ROWS = 30


def _class_max(logits: np.ndarray) -> np.ndarray:
    """The max over the class (last) axis, keepdims.  A column maximum can
    differ from the reduce only in the sign of a zero or the payload of a
    NaN, and `_softmax_ce` reads it only through exp(logits - max), where
    exp(+-0) = 1, and log(s) - (logits - max) with log(s) >= +0."""
    C = logits.shape[-1]
    if logits.size < COLUMN_MAX_ROWS * (C - 1) * C:
        return logits.max(axis=-1, keepdims=True)
    m = logits[..., :1]
    for j in range(1, C):
        m = np.maximum(m, logits[..., j:j + 1])
    return m


def _softmax_ce(logits: np.ndarray, at: tuple[np.ndarray, ...] | None = None
                ) -> tuple[np.ndarray, np.ndarray | None]:
    """The softmax p = e / s of `logits` and, given `at` (`_at_labels` of
    checked labels), the per-sample cross-entropy log(s) - z[at], from one
    pass: z = logits - the class max, e = exp(z), s = e's class sum."""
    z = logits - _class_max(logits)
    p = np.exp(z)
    s = p.sum(axis=-1, keepdims=True)
    ce = None if at is None else np.log(s[..., 0]) - z[at]
    p /= s
    return p, ce


def softmax(logits: np.ndarray) -> np.ndarray:
    return _softmax_ce(logits)[0]


def _at_labels(y: np.ndarray) -> tuple[np.ndarray, ...]:
    """Index of each sample's label logit in logits of shape y.shape + (C,)."""
    if y.ndim == 1:
        return np.arange(len(y)), y
    return np.arange(len(y))[:, None], np.arange(y.shape[1]), y


def _check_labels(y: np.ndarray, num_classes: int, batch_shape: tuple[int, ...]) -> np.ndarray:
    """`y` as intp; ShapeError unless `y`'s shape is `batch_shape` without its
    last axis, and LabelError if a label is outside [0, num_classes)."""
    y = np.asarray(y)
    if y.shape != batch_shape[:-1]:
        raise ShapeError(f"labels have shape {y.shape}, a batch of shape {batch_shape} "
                         f"needs {batch_shape[:-1]}")
    if np.any(y < 0) or np.any(y >= num_classes):
        raise LabelError(f"labels must lie in [0, {num_classes})")
    return y.astype(np.intp)


def one_hot(y: np.ndarray, num_classes: int, batch_shape: tuple[int, ...]) -> np.ndarray:
    """The float64 one-hot of labels y, shape y.shape + (C,), checked as
    `_check_labels(y, num_classes, batch_shape)` checks them."""
    y = _check_labels(y, num_classes, batch_shape)
    return (y[..., None] == np.arange(num_classes)).astype(np.float64)


def batch_loss_and_grads(
        model: Model, X: np.ndarray, y: np.ndarray,
        out: np.ndarray | None = None) -> tuple[float | np.ndarray, np.ndarray]:
    """Mean cross-entropy over a batch and the mean parameter gradients, the
    latter in `out` when given (see `backprop`).

    For a stacked model both are per client: losses (M,) and gradients (M, P).
    """
    X = _check_batch(model, X)
    y = _check_labels(y, model.num_classes, X.shape)
    logits, acts = _forward_cache(model, X)
    at = _at_labels(y)
    dlogits, ce = _softmax_ce(logits, at)
    loss = ce.mean(axis=-1)
    dlogits[at] -= 1.0
    dlogits /= X.shape[-2]
    return loss, backprop(model, acts, dlogits, out)


def input_grads_ce(model: Model, X: np.ndarray, onehot: np.ndarray) -> np.ndarray:
    """Per-sample input gradients of the cross-entropy loss (used by attacks).

    `onehot` is `one_hot` of the labels: the attacks build it once per call,
    not once per step.  Subtracting it from the softmax changes only the
    label logits (p - 0.0 is p), so this is the usual gradient bit for bit.
    """
    logits, acts = _forward_cache(model, np.asarray(X, dtype=np.float64))
    dlogits = softmax(logits)
    dlogits -= onehot
    return input_backprop(model, acts, dlogits)


def sgd_step(model: Model, grads: np.ndarray, velocity: np.ndarray, scratch: np.ndarray,
             lr: float, momentum: float, weight_decay: float) -> None:
    """v <- m*v + g + wd*theta; theta <- theta - lr*v.

    Updates `velocity` and `model.params` in place, in that order of
    association, so the rounding equals the out-of-place formula; the step's
    products go to `scratch`, and `grads` is not modified.  All three are
    shaped like the parameters.  For a stacked model each op runs once over
    all the clients' rows.
    """
    theta = model.params.values
    if np.shape(grads) != theta.shape:
        raise ShapeError(f"gradient has shape {np.shape(grads)}, model needs {theta.shape}")
    velocity *= momentum
    velocity += grads
    velocity += np.multiply(weight_decay, theta, scratch)
    theta -= np.multiply(lr, velocity, scratch)


def save_checkpoint(model: Model, path) -> None:
    """Binary checkpoint: magic, version, layer entries, row-major float64 LE;
    ShapeError, and no file written, for a stack of more than one row."""
    layout = model.layout
    if model.params.values.size != _size(layout):
        raise ShapeError(f"a checkpoint holds one model, got values of shape "
                         f"{model.params.values.shape}")
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


def _read_u32(f) -> int:
    return struct.unpack("<I", read_declared(f, 4, "checkpoint"))[0]


def load_checkpoint(path) -> Model:
    """The model `save_checkpoint` wrote; FormatError unless the file holds an
    MLP's layer entries and exactly their values."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise FormatError(f"{path}: bad checkpoint magic {magic!r}")
        version = _read_u32(f)
        if version != CHECKPOINT_VERSION:
            raise FormatError(f"{path}: unsupported checkpoint version {version}")
        layout = []
        for _ in range(_read_u32(f)):
            # a name that is not UTF-8 is no layer's name: the layout check rejects it
            name = read_declared(f, _read_u32(f), "checkpoint").decode("utf-8", "replace")
            shape = tuple(_read_u32(f) for _ in range(_read_u32(f)))
            layout.append((name, shape))
        values = np.frombuffer(read_declared(f, _size(layout) * 8, "checkpoint"),
                               dtype="<f8").astype(np.float64)
        extra = os.fstat(f.fileno()).st_size - f.tell()
        if extra:
            raise FormatError(f"{path}: checkpoint has {extra} bytes after its values")
    # the widths: the first weight's fan_in, then every weight's fan_out
    shapes = [shape for _, shape in layout[0::2] if shape]
    dims = [shape[0] for shape in shapes[:1]] + [shape[-1] for shape in shapes]
    try:
        if tuple(layout) != mlp_layout(dims):
            raise ShapeError(f"they are not the layout of widths {dims}")
    except ShapeError as exc:
        raise FormatError(f"{path}: checkpoint layer entries inconsistent: {exc}") from exc
    return Model(dims, values)
