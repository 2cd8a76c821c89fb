from __future__ import annotations

import re

import numpy as np
import pytest

from fedslack import nn
from fedslack.attacks import AttackSpec, fgsm, pgd, pgd_core, pgd_kl
from fedslack.errors import ConfigError, LabelError, ShapeError
from fedslack.streams import stream
from oracles import cross_entropy_two_pass, fgsm_clip


def make_model(seed=0, dims=(3, 4, 2)):
    return nn.Model.init(list(dims), stream(seed, "init"))


# A single sample is a batch of one: (1, d) inputs and (1,) labels.

def test_fgsm_zero_epsilon_identity():
    m = make_model()
    x = np.array([[0.2, 0.5, 0.8]])
    out = fgsm(m, x, np.array([0]), AttackSpec(0.0, 0.1))
    np.testing.assert_array_equal(out, x)


def test_fgsm_scalar_sign_step():
    # single linear unit driving loss up in +x direction
    m = nn.Model([1, 2], np.array([1.0, -1.0, 0.0, 0.0]))
    x = np.array([[0.5]])
    # label 0: loss grad w.r.t. x is negative, so attack moves x down;
    # label 1 moves it up
    out_up = fgsm(m, x, np.array([0]), AttackSpec(0.1, 0.1))[0]
    out_dn = fgsm(m, x, np.array([1]), AttackSpec(0.1, 0.1))[0]
    assert out_up[0] == pytest.approx(0.4)
    assert out_dn[0] == pytest.approx(0.6)


def test_fgsm_clip_boundary():
    m = nn.Model([1, 2], np.array([1.0, -1.0, 0.0, 0.0]))
    out = fgsm(m, np.array([[0.05]]), np.array([0]), AttackSpec(0.1, 0.1))[0]
    assert out[0] == 0.0


def test_pgd_single_step_equals_fgsm():
    m = make_model(seed=4)
    rng = stream(1, "x")
    X = rng.uniform(size=(32, 3))
    y = rng.integers(2, size=32)
    X0 = X.copy()
    for eps in (0.07, 0.0):
        spec = AttackSpec(eps, 0.07, steps=1, random_start=False)
        ref = fgsm_clip(m, X, y, eps).tobytes()
        assert pgd(m, X, y, spec).tobytes() == ref
        assert fgsm(m, X, y, spec).tobytes() == ref
        np.testing.assert_array_equal(pgd(m, X, y, spec), fgsm(m, X, y, spec))
    # the first step reads the clean batch itself: it must come back untouched
    assert not np.shares_memory(pgd(m, X, y, spec), X)
    assert np.array_equal(X, X0)


def test_pgd_ball_containment_default_budget():
    m = make_model(seed=2)
    rng = stream(2, "x")
    X = rng.uniform(size=(256, 3))
    y = rng.integers(2, size=256)
    spec = AttackSpec(8 / 255, 2 / 255, steps=10, random_start=True)
    adv = pgd(m, X, y, spec, stream(0, "attack"))
    assert np.max(np.abs(adv - X)) <= 8 / 255 + 1e-12
    assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_pgd_quadratic_surrogate_matches_projection_oracle():
    # maximizing -||x - x*||^2 ... we ascend toward x*, so use loss
    # l(x) = -0.5||x - x*||^2 whose gradient is (x* - x); PGD should land on
    # the L-inf projection of x* onto the ball around x0
    x0 = np.full((1, 4), 0.5)
    x_star = np.array([[0.9, 0.1, 0.52, 0.45]])
    eps = 0.1
    spec = AttackSpec(eps, 0.01, steps=200, random_start=False)
    adv = pgd_core(x0, lambda z: x_star - z, spec)
    oracle = np.clip(np.clip(x_star, x0 - eps, x0 + eps), 0.0, 1.0)
    np.testing.assert_allclose(adv, oracle, atol=0.011)


def test_pgd_deterministic_given_stream():
    m = make_model(seed=3)
    X = stream(5, "x").uniform(size=(8, 3))
    y = np.zeros(8, dtype=int)
    spec = AttackSpec(0.05, 0.01, steps=5, random_start=True)
    a = pgd(m, X, y, spec, stream(9, "attack"))
    b = pgd(m, X, y, spec, stream(9, "attack"))
    assert np.array_equal(a, b)


def test_pgd_random_start_requires_rng():
    m = make_model()
    spec = AttackSpec(0.1, 0.02, steps=2, random_start=True)
    with pytest.raises(ValueError):
        pgd(m, np.array([[0.5, 0.5, 0.5]]), np.array([0]), spec)


def test_attack_strength_monotone_trend():
    # on a briefly trained model: PGD-10 loss >= 1-step loss >= natural loss
    rng = stream(6, "data")
    X = rng.uniform(size=(256, 3))
    y = (X[:, 0] > 0.5).astype(int)
    m = make_model(seed=6)
    velocity, scratch = np.zeros_like(m.params.values), np.empty_like(m.params.values)
    for _ in range(100):
        _, g = nn.batch_loss_and_grads(m, X, y)
        nn.sgd_step(m, g, velocity, scratch, 0.5, 0.0, 0.0)
    nat = cross_entropy_two_pass(nn.forward_batch(m, X), y).mean()
    one = AttackSpec(0.08, 0.08, steps=1)
    ten = AttackSpec(0.08, 0.02, steps=10)
    l1 = cross_entropy_two_pass(nn.forward_batch(m, pgd(m, X, y, one)), y).mean()
    l10 = cross_entropy_two_pass(nn.forward_batch(m, pgd(m, X, y, ten)), y).mean()
    assert l10 >= l1 >= nat


def test_pgd_kl_stays_in_ball():
    m = make_model(seed=8)
    X = stream(8, "x").uniform(size=(16, 3))
    spec = AttackSpec(0.06, 0.015, steps=10, random_start=True)
    log_ref = np.log(np.clip(nn.softmax(nn.forward_batch(m, X)), 1e-300, None))
    adv = pgd_kl(m, X, spec, stream(8, "attack"), log_ref)
    assert np.max(np.abs(adv - X)) <= 0.06 + 1e-12
    assert adv.min() >= 0.0 and adv.max() <= 1.0


def test_spec_validation():
    with pytest.raises(ConfigError):
        AttackSpec(-0.1, 0.01)
    with pytest.raises(ConfigError):
        AttackSpec(0.1, 0.0)
    with pytest.raises(ConfigError):
        AttackSpec(0.1, 0.01, steps=0)


def test_pgd_rejects_inputs_outside_clip_range():
    m = make_model()
    spec = AttackSpec(0.1, 0.02, steps=2)
    for bad in ([0.5, 1.5, 0.5], [-0.1, 0.5, 0.5], [0.5, np.nan, 0.5]):
        for attack in (pgd, fgsm):
            with pytest.raises(ValueError, match=re.escape("attack inputs must lie in [0, 1]")):
                attack(m, np.array([bad]), np.array([0]), spec)


@pytest.mark.parametrize("rows, batch", [(2, (5, 4)), (None, (2, 5, 4)), (None, (5, 3)),
                                         (2, (2, 5, 3))])
def test_attacks_reject_a_batch_that_is_not_the_models(rows, batch):
    # the first two used to return a (2, 5, 4) array, the last two raised
    # numpy's matmul ValueError
    model = make_model(dims=(4, 6, 3))
    if rows:
        model = nn.Model(model.dims, np.tile(model.params.values, (rows, 1)))
    X, y = np.full(batch, 0.5), np.zeros(batch[:-1], dtype=int)
    log_ref = np.zeros(batch[:-1] + (3,))
    spec = AttackSpec(0.1, 0.02, steps=2)
    expected = "(2, n, 4)" if rows else "(n, 4)"
    message = re.escape(f"batch has shape {batch}, expected {expected}")
    for attack in (lambda: fgsm(model, X, y, spec), lambda: pgd(model, X, y, spec),
                   lambda: pgd_kl(model, X, spec, None, log_ref)):
        with pytest.raises(ShapeError, match=message):
            attack()


def test_pgd_kl_rejects_a_reference_that_is_not_the_batch_logits_shape():
    # a (5, 3) reference used to broadcast over the stacked (2, 5, 4) batch
    model = make_model(dims=(4, 6, 3))
    model = nn.Model(model.dims, np.tile(model.params.values, (2, 1)))
    X = stream(2, "x").uniform(size=(2, 5, 4))
    message = "log_ref has shape (5, 3), a batch of shape (2, 5, 4) needs (2, 5, 3)"
    with pytest.raises(ShapeError, match=re.escape(message)):
        pgd_kl(model, X, AttackSpec(0.1, 0.02, steps=2), None, np.zeros((5, 3)))


def test_attacks_check_labels_once_per_call(monkeypatch):
    m = make_model()
    X = stream(3, "x").uniform(size=(5, 3))
    y = np.array([0, 1, 1, 0, 1])
    for attack in (lambda yb: pgd(m, X, yb, AttackSpec(0.1, 0.02, steps=6)),
                   lambda yb: fgsm(m, X, yb, AttackSpec(0.1, 0.02))):
        with pytest.raises(LabelError):
            attack(np.array([0, 1, 2, 0, 1]))
        checked = []
        original = nn._check_labels
        monkeypatch.setattr(nn, "_check_labels",
                            lambda *a: checked.append(1) or original(*a))
        attack(y)
        monkeypatch.undo()
        assert len(checked) == 1


def test_pgd_evaluation_runs_no_parameter_backprop(monkeypatch):
    from fedslack.data import Dataset
    from fedslack.metrics import EvalAttack, evaluate
    m = make_model(seed=5)
    rng = stream(5, "x")
    test_set = Dataset(rng.uniform(size=(20, 3)), rng.integers(2, size=20), 2)
    calls = []
    original = nn.backprop
    monkeypatch.setattr(nn, "backprop", lambda *a, **k: calls.append(1) or original(*a, **k))
    evaluate(m, test_set, EvalAttack.PGD, AttackSpec(0.1, 0.02, steps=20))
    evaluate(m, test_set, EvalAttack.FGSM, AttackSpec(0.1, 0.02))
    assert calls == []
