from __future__ import annotations

import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslack import attacks, nn
from fedslack.errors import FormatError, LabelError, ShapeError
from fedslack.streams import stream
from oracles import cross_entropy_two_pass, softmax_two_pass


def manual_mlp_forward(model, x):
    # independent dense-matmul oracle: plain loops, no shared code path
    h = list(x)
    n_layers = len(model.weights)
    for li in range(n_layers):
        w, b = model.weights[li], model.biases[li]
        out = []
        for j in range(w.shape[1]):
            s = b[j]
            for i in range(w.shape[0]):
                s += h[i] * w[i, j]
            out.append(s)
        if li != n_layers - 1:
            out = [max(v, 0.0) for v in out]
        h = out
    return np.array(h)


# A single sample is a batch of one: (1, d) inputs and (1,) labels.

def test_forward_zero_weights():
    m = nn.Model([3, 2], np.zeros(8))
    assert np.array_equal(nn.forward_batch(m, np.array([[0.3, 0.7, 0.1]]))[0], np.zeros(2))


def test_forward_identity_layer():
    m = nn.Model([2, 2], np.array([1.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    out = nn.forward_batch(m, np.array([[1.0, 2.0]]))[0]
    assert np.array_equal(out, np.array([1.0, 2.0]))


def test_forward_matches_manual_oracle():
    m = nn.Model.init([3, 4, 2], stream(7, "init"))
    x = np.array([1.0, 0.0, 0.0])
    np.testing.assert_allclose(nn.forward_batch(m, x[None, :])[0], manual_mlp_forward(m, x),
                               rtol=1e-12, atol=1e-15)


def test_forward_shape_error():
    m = nn.Model.init([3, 2], stream(0, "init"))
    with pytest.raises(ShapeError):
        nn.forward_batch(m, np.array([[1.0, 2.0]]))


def test_loss_uniform_logits_is_ln2():
    m = nn.Model([3, 2], np.zeros(8))
    loss, _ = nn.batch_loss_and_grads(m, np.array([[0.5, 0.5, 0.5]]), np.array([0]))
    assert loss == pytest.approx(np.log(2.0), abs=1e-15)


def test_loss_decreases_with_margin():
    # growing correct-class margin drives the loss monotonically toward 0
    losses = []
    for margin in [0.0, 1.0, 2.0, 5.0, 10.0]:
        logits = np.array([[margin, 0.0]])
        losses.append(float(cross_entropy_two_pass(logits, np.array([0]))[0]))
    assert all(a > b for a, b in zip(losses, losses[1:]))
    assert losses[-1] < 1e-4


def test_label_out_of_range():
    m = nn.Model.init([3, 2], stream(0, "init"))
    with pytest.raises(LabelError):
        nn.batch_loss_and_grads(m, np.array([[0.1, 0.2, 0.3]]), np.array([2]))


def finite_diff_param_grads(model, x, y, h=1e-5):
    theta = model.params.values
    vec = theta.copy()
    grads = np.zeros_like(vec)
    for i in range(len(vec)):
        vp = vec.copy()
        vp[i] += h
        theta[:] = vp
        lp, _ = nn.batch_loss_and_grads(model, x, y)
        vm = vec.copy()
        vm[i] -= h
        theta[:] = vm
        lm, _ = nn.batch_loss_and_grads(model, x, y)
        grads[i] = (lp - lm) / (2 * h)
    theta[:] = vec
    return grads


def finite_diff_input_grads(model, x, y, h=1e-5):
    grads = np.zeros_like(x)
    for i in range(x.shape[1]):
        xp, xm = x.copy(), x.copy()
        xp[0, i] += h
        xm[0, i] -= h
        lp, _ = nn.batch_loss_and_grads(model, xp, y)
        lm, _ = nn.batch_loss_and_grads(model, xm, y)
        grads[0, i] = (lp - lm) / (2 * h)
    return grads


@pytest.mark.parametrize("seed", range(5))
def test_gradients_match_finite_differences(seed):
    rng = stream(seed, "fd-test")
    m = nn.Model.init([3, 4, 2], rng)
    # keep inputs away from ReLU kinks to make central differences clean
    x = rng.uniform(0.1, 0.9, size=(1, 3))
    y = rng.integers(2, size=1)
    _, pgrads = nn.batch_loss_and_grads(m, x, y)
    xgrad = nn.input_grads_ce(m, x, nn.one_hot(y, 2, x.shape))
    fd_p = finite_diff_param_grads(m, x, y)
    fd_x = finite_diff_input_grads(m, x, y)
    np.testing.assert_allclose(pgrads, fd_p, rtol=1e-4, atol=1e-8)
    np.testing.assert_allclose(xgrad, fd_x, rtol=1e-4, atol=1e-8)


def test_batch_loss_is_mean_of_singles():
    rng = stream(3, "batch-test")
    m = nn.Model.init([4, 5, 3], rng)
    X = rng.uniform(size=(6, 4))
    y = rng.integers(3, size=6)
    loss, pgrads = nn.batch_loss_and_grads(m, X, y)
    xgrads = nn.input_grads_ce(m, X, nn.one_hot(y, 3, X.shape))
    singles = [nn.batch_loss_and_grads(m, X[i:i + 1], y[i:i + 1]) for i in range(6)]
    single_xgrads = [nn.input_grads_ce(m, X[i:i + 1], nn.one_hot(y[i:i + 1], 3, (1, 4)))[0]
                     for i in range(6)]
    assert loss == pytest.approx(np.mean([s[0] for s in singles]), rel=1e-12)
    np.testing.assert_allclose(pgrads,
                               np.mean([s[1] for s in singles], axis=0),
                               rtol=1e-10, atol=1e-14)
    for i in range(6):
        np.testing.assert_allclose(xgrads[i], single_xgrads[i], rtol=1e-10, atol=1e-14)


def reference_backprop(model, acts, dlogits):
    # the plain per-layer form: weight grad, bias sum, then delta @ W.T and the
    # ReLU mask, concatenated in params order
    gw, gb = [None] * len(model.weights), [None] * len(model.weights)
    delta = dlogits
    for i in range(len(model.weights) - 1, -1, -1):
        gw[i] = acts[i].T @ delta
        gb[i] = delta.sum(axis=0)
        delta = delta @ model.weights[i].T
        if i > 0:
            delta = delta * (acts[i] > 0.0)
    return np.concatenate([a.ravel() for wb in zip(gw, gb) for a in wb]), delta


@pytest.mark.parametrize("hidden", [[5], [6, 4], [7, 5, 3]])
def test_backward_variants_equal_the_full_backprop_bitwise(hidden):
    rng = stream(len(hidden), "backward-test")
    m = nn.Model.init([4, *hidden, 3], rng)
    X = rng.uniform(size=(9, 4))
    _, acts = nn._forward_cache(m, X)
    dlogits = rng.normal(size=(9, 3))
    pgrads = nn.backprop(m, acts, dlogits)
    xgrads = nn.input_backprop(m, acts, dlogits)
    ref_p, ref_x = reference_backprop(m, acts, dlogits)
    assert np.array_equal(pgrads, ref_p) and np.array_equal(xgrads, ref_x)
    y = rng.integers(3, size=9)
    loss, full = nn.batch_loss_and_grads(m, X, y)
    dl = nn.softmax(nn.forward_batch(m, X))
    dl[np.arange(9), y] -= 1.0
    dl /= 9
    assert loss == cross_entropy_two_pass(nn.forward_batch(m, X), y).mean()
    assert np.array_equal(full, reference_backprop(m, acts, dl)[0])


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def gate_shapes(C: int) -> list[tuple[str, tuple[int, ...]]]:
    """Logits shapes, 2-D and stacked (M = 3), with the fewest rows that take
    the column max and, where there is one, the most that keep the reduce."""
    gate = nn.COLUMN_MAX_ROWS * (C - 1)
    shapes = [("columns", (max(gate, 5),)), ("columns", (3, max(-(-gate // 3), 5)))]
    if gate > 5:
        shapes += [("reduce", (gate - 1,)), ("reduce", (3, (gate - 1) // 3))]
    return [(side, rows + (C,)) for side, rows in shapes]


def special_logits(shape: tuple[int, ...], seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Random logits and labels whose first rows (along the last row axis)
    tie +0 and -0 at the max, at the label, and are all -inf, all NaN and
    finite but for one NaN."""
    rng = stream(seed, "softmax-gate")
    C = shape[-1]
    logits = 3.0 * rng.normal(size=shape)
    y = rng.integers(C, size=shape[:-1])
    rows = logits.reshape(-1, shape[-2], C).swapaxes(0, 1)    # (n, M, C) view
    labels = y.reshape(-1, shape[-2]).T
    rows[0] = -np.abs(rows[0]) - 1.0
    rows[0, :, 0], rows[0, :, C // 2] = -0.0, 0.0
    rows[1] = -np.abs(rows[1]) - 1.0
    rows[1, :, 0], rows[1, :, C - 1] = 0.0, -0.0
    labels[0], labels[1] = 0, C - 1
    rows[2] = -np.inf
    rows[3] = np.nan
    rows[4, :, C // 2] = np.nan
    return logits, y


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("C", [1, 2, 5, 10])
def test_one_softmax_pass_equals_the_two_pass_oracle_bitwise(C, monkeypatch):
    sides = set()
    for i, (side, shape) in enumerate(gate_shapes(C)):
        sides.add(side)
        logits, y = special_logits(shape, 10 * C + i)
        ce_ref = cross_entropy_two_pass(logits, y)
        p_ref = softmax_two_pass(logits)
        assert same_bits(nn.softmax(logits), p_ref)
        assert same_bits(nn._softmax_ce(logits, nn._at_labels(y))[1], ce_ref)
        # the loss and both gradients from these logits, through a real model
        lead, n = shape[:-2], shape[-2]
        model = nn.Model.init([4, 3, C], stream(C, "init"))
        if lead:
            model = nn.Model(model.dims, np.tile(model.params.values, (lead[0], 1)))
        X = stream(i, "softmax-gate-x").uniform(size=lead + (n, 4))
        acts = nn._forward_cache(model, X)[1]
        dl = p_ref.copy()
        np.put_along_axis(dl, y[..., None], np.take_along_axis(dl, y[..., None], -1) - 1.0, -1)
        dl /= n
        onehot = nn.one_hot(y, C, X.shape)
        with monkeypatch.context() as mp:
            mp.setattr(nn, "_forward_cache", lambda m, x: (logits.copy(), acts))
            loss, grads = nn.batch_loss_and_grads(model, X, y)
            xgrads = nn.input_grads_ce(model, X, onehot)
        assert same_bits(loss, ce_ref.mean(axis=-1))
        assert same_bits(grads, nn.backprop(model, acts, dl))
        assert same_bits(xgrads, nn.input_backprop(model, acts, p_ref - onehot))
    assert sides == ({"columns"} if C == 1 else {"columns", "reduce"})


class CountingReduces(np.ndarray):
    reduces = 0

    def max(self, *args, **kwargs):
        CountingReduces.reduces += 1
        return super().max(*args, **kwargs)


@pytest.mark.parametrize("C", [1, 2, 5, 10])
def test_the_class_max_takes_columns_from_the_gate_rows_on(C):
    for side, shape in gate_shapes(C):
        logits = stream(C, "gate").normal(size=shape)
        CountingReduces.reduces = 0
        m = nn._class_max(logits.view(CountingReduces))
        assert CountingReduces.reduces == (side == "reduce"), (side, shape)
        assert np.array_equal(m, logits.max(axis=-1, keepdims=True))


@pytest.mark.parametrize("batch, labels", [((25, 8), (24,)), ((25, 8), (26,)),
                                           ((3, 25, 8), (25,)), ((25, 8), (25, 1))])
def test_labels_that_are_not_the_batch_shape_are_a_shape_error(batch, labels):
    # (24,) used to raise numpy's broadcast ValueError, the others an IndexError
    model = nn.Model.init([8, 4, 5], stream(0, "init"))
    if len(batch) == 3:
        model = nn.Model(model.dims, np.tile(model.params.values, (batch[0], 1)))
    X, y = np.full(batch, 0.5), np.zeros(labels, dtype=int)
    message = (f"labels have shape {labels}, a batch of shape {batch} "
               f"needs {batch[:-1]}")
    with pytest.raises(ShapeError, match=re.escape(message)):
        nn.batch_loss_and_grads(model, X, y)
    with pytest.raises(ShapeError, match=re.escape(message)):
        attacks.fgsm(model, X, y, attacks.AttackSpec(0.1, 0.1))


def test_sgd_plain_step():
    m = nn.Model([2, 2], np.array([1.0] * 4 + [0.0] * 2))
    g = np.full_like(m.params.values, 0.5)
    nn.sgd_step(m, g, np.zeros(6), np.empty(6), 1.0, 0.0, 0.0)
    np.testing.assert_allclose(m.params.values, np.array([0.5] * 4 + [-0.5] * 2))


def test_sgd_zero_grads_fixed_point():
    m = nn.Model.init([2, 2], stream(1, "init"))
    before = m.params.values.copy()
    zero = np.zeros_like(m.params.values)
    nn.sgd_step(m, zero, zero.copy(), np.empty_like(zero), 0.1, 0.9, 0.0)
    np.testing.assert_array_equal(m.params.values, before)


def test_sgd_two_step_momentum_recurrence():
    # independent recurrence: v1 = g, v2 = 0.9 g + g = 1.9 g
    # so total decrease is 0.1*g + 0.1*1.9*g
    m = nn.Model([1, 1], np.zeros(2))
    g = np.array([1.0, 1.0])
    velocity, scratch = np.zeros(2), np.empty(2)
    nn.sgd_step(m, g, velocity, scratch, 0.1, 0.9, 0.0)
    nn.sgd_step(m, g, velocity, scratch, 0.1, 0.9, 0.0)
    expected = -(0.1 * 1.0 + 0.1 * 1.9)
    np.testing.assert_allclose(m.params.values, [expected, expected], rtol=1e-15)


def test_sgd_step_in_place_equals_the_formula_bitwise():
    m = nn.Model.init([4, 5, 3], stream(2, "init"))
    theta = m.params.values.copy()
    v = np.zeros_like(theta)
    velocity, scratch = np.zeros_like(theta), np.empty_like(theta)
    rng = stream(2, "grads")
    for _ in range(4):
        g = rng.normal(size=theta.shape)
        g0 = g.copy()
        nn.sgd_step(m, g, velocity, scratch, 0.07, 0.9, 3e-4)
        v = 0.9 * v + g + 3e-4 * theta
        theta = theta - 0.07 * v
        assert np.array_equal(g, g0)
    assert np.array_equal(m.params.values, theta) and np.array_equal(velocity, v)


def test_sgd_layout_mismatch():
    m = nn.Model.init([2, 2], stream(1, "init"))
    other = nn.Model.init([3, 2], stream(1, "init"))
    with pytest.raises(ShapeError):
        nn.sgd_step(m, other.params.values, np.zeros(6), np.empty(6), 0.1, 0.0, 0.0)


def test_param_vector_roundtrip_bit_exact():
    m = nn.Model.init([3, 5, 4, 2], stream(9, "init"))
    vec = m.params
    m2 = nn.Model(m.dims, vec.values.copy())
    assert np.array_equal(m2.params.values, vec.values)


def test_param_vector_length_validation():
    with pytest.raises(ShapeError):
        nn.ParamVector(np.zeros(3), (("dense0.W", (2, 2)),))


def test_checkpoint_roundtrip(tmp_path):
    m = nn.Model.init([4, 6, 3], stream(11, "init"))
    path = tmp_path / "model.bin"
    nn.save_checkpoint(m, path)
    m2 = nn.load_checkpoint(path)
    assert m2.layout == m.layout
    assert np.array_equal(m2.params.values, m.params.values)


def test_a_stack_of_models_is_not_checkpointed(tmp_path):
    # a 2-row stack used to write a file that load_checkpoint rejects for
    # the 408 bytes of its second row
    m = nn.Model.init([4, 6, 3], stream(11, "init"))
    path = tmp_path / "model.bin"
    nn.save_checkpoint(nn.Model(m.dims, m.params.values[None, :].copy()), path)
    assert np.array_equal(nn.load_checkpoint(path).params.values, m.params.values)
    path.unlink()
    stack = nn.Model(m.dims, np.tile(m.params.values, (2, 1)))
    with pytest.raises(ShapeError, match=re.escape("got values of shape (2, 51)")):
        nn.save_checkpoint(stack, path)
    assert not path.exists()


def test_checkpoint_bad_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(FormatError):
        nn.load_checkpoint(path)


def test_checkpoint_cut_anywhere_is_format_error(tmp_path):
    m = nn.Model.init([2, 3, 2], stream(5, "init"))
    path = tmp_path / "model.bin"
    nn.save_checkpoint(m, path)
    raw = path.read_bytes()
    for cut in range(4, len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(FormatError):
            nn.load_checkpoint(path)


def test_forward_deterministic_across_runs():
    results = []
    for _ in range(2):
        m = nn.Model.init([3, 4, 2], stream(7, "init"))
        results.append(nn.forward_batch(m, np.array([[0.2, 0.5, 0.9]])))
    assert np.array_equal(results[0], results[1])


def test_weights_and_biases_are_views_of_params():
    m = nn.Model.init([3, 4, 2], stream(2, "init"))
    assert all(np.shares_memory(a, m.params.values) for a in m.weights + m.biases)
    g = np.ones_like(m.params.values)
    w0 = m.weights[1].copy()
    nn.sgd_step(m, g, np.zeros_like(g), np.empty_like(g), 0.5, 0.0, 0.0)
    np.testing.assert_array_equal(m.weights[1], w0 - 0.5)
    assert np.array_equal(m.params.values,
                          np.concatenate([a.ravel() for wb in zip(m.weights, m.biases)
                                          for a in wb]))


def test_model_keeps_its_values_and_reads_its_dims():
    values = nn.Model.init([3, 5, 2], stream(4, "init")).params.values.copy()
    m = nn.Model((3, 5, 2), values)
    assert m.params.values is values and m.dims == (3, 5, 2)
    assert m.layout == nn.mlp_layout([3, 5, 2]) and (m.input_dim, m.num_classes) == (3, 2)
    stack = np.empty((4, 2 * values.size))[::2, :values.size]
    stack[:] = values
    s = nn.Model([3, 5, 2], stack)
    assert s.params.values is stack and s.weights[0].shape == (2, 3, 5)


@pytest.mark.parametrize("values", [
    np.zeros(31),                                   # one value short
    np.zeros((2, 33)),                              # one value over, per row
    np.zeros((2, 32), dtype=np.float32),            # a stack, not float64
    np.zeros((2, 64))[:, ::2],                      # rows strided, not contiguous
    np.zeros((1, 1, 32)),                           # neither a vector nor a stack
])
def test_model_rejects_values_it_cannot_lay_out(values):
    with pytest.raises(ShapeError):
        nn.Model([3, 5, 2], values)


def write_checkpoint(path, layout, values, tail=b""):
    # independent encoder of the checkpoint format, for files save_checkpoint never writes
    raw = b"FSLK" + struct.pack("<II", 1, len(layout))
    for name, shape in layout:
        raw += struct.pack("<I", len(name)) + name.encode() + struct.pack("<I", len(shape))
        raw += b"".join(struct.pack("<I", d) for d in shape)
    path.write_bytes(raw + np.asarray(values, dtype="<f8").tobytes() + tail)


def test_load_checkpoint_checks_the_mlp_layout(tmp_path):
    path = tmp_path / "model.bin"
    layout = nn.mlp_layout([3, 5, 2])
    write_checkpoint(path, layout, np.arange(32.0))
    m = nn.load_checkpoint(path)
    assert m.layout == layout and (m.input_dim, m.num_classes) == (3, 2)
    renamed = (("fc.W", (3, 5)),) + layout[1:]
    unchained = layout[:2] + (("dense1.W", (3, 3)), ("dense1.b", (3,)))
    short = layout[:1]
    zero_width = (("dense0.W", (3, 0)), ("dense0.b", (0,)),
                  ("dense1.W", (0, 2)), ("dense1.b", (2,)))
    for bad in (renamed, unchained, short, zero_width, ()):
        write_checkpoint(path, bad, np.ones(sum(math.prod(shape) for _, shape in bad)))
        with pytest.raises(FormatError):
            nn.load_checkpoint(path)


def test_load_checkpoint_rejects_bytes_after_the_values(tmp_path):
    m = nn.Model.init([3, 5, 2], stream(4, "init"))
    path = tmp_path / "model.bin"
    write_checkpoint(path, m.layout, m.params.values)
    assert np.array_equal(nn.load_checkpoint(path).params.values, m.params.values)
    write_checkpoint(path, m.layout, m.params.values, tail=b"\0" * 8)
    with pytest.raises(FormatError, match="8 bytes after its values"):
        nn.load_checkpoint(path)


def test_a_checkpoint_layer_name_that_is_not_utf8_is_a_format_error_naming_it(tmp_path):
    # used to raise UnicodeDecodeError, naming no file
    path = tmp_path / "model.bin"
    nn.save_checkpoint(nn.Model.init([3, 5, 2], stream(4, "init")), path)
    path.write_bytes(path.read_bytes().replace(b"dense0.W", b"dense0.\xff", 1))
    with pytest.raises(FormatError, match=re.escape(f"{path}: checkpoint layer entries")):
        nn.load_checkpoint(path)


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(st.lists(st.integers(1, 9), min_size=3, max_size=6), st.integers(0, 2**32 - 1))
def test_checkpoint_roundtrip_keeps_dims_layout_and_bytes(dims, seed):
    # 2 to 5 dense layers of widths 1 to 9
    m = nn.Model.init(dims, stream(seed, "init"))
    with tempfile.TemporaryDirectory() as tmp:
        nn.save_checkpoint(m, Path(tmp) / "model.bin")
        back = nn.load_checkpoint(Path(tmp) / "model.bin")
    assert back.dims == m.dims == tuple(dims) and back.layout == m.layout
    assert back.params.values.tobytes() == m.params.values.tobytes()
