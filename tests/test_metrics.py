from __future__ import annotations

import re

import numpy as np
import pytest

from fedslack import nn, threads
from fedslack.aggregation import client_drift, gradient_variance
from fedslack.attacks import AttackSpec
from fedslack.data import Dataset
from fedslack.errors import ShapeError
from fedslack.metrics import ClientRecord, EvalAttack, RoundReport, evaluate, trace_topk
from fedslack.streams import stream

LAYOUT = (("dense0.W", (1, 1)), ("dense0.b", (1,)))


def pv(values):
    return nn.ParamVector(np.asarray(values, dtype=float), LAYOUT)


def rows(*pvs):
    """The upload matrix of the given parameter vectors, one row each."""
    return np.stack([p.values for p in pvs])


def test_drift_zero_for_identical_params():
    th = pv([1.0, 2.0])
    drifts, mean = client_drift(rows(th, pv(th.values.copy())), th.values)
    assert drifts == [0.0, 0.0] and mean == 0.0


def test_drift_three_four_five():
    drifts, _ = client_drift(rows(pv([3.0, 4.0])), pv([0.0, 0.0]).values)
    assert drifts[0] == pytest.approx(5.0, rel=1e-15)


def test_mean_drift_matches_independent_norm_oracle():
    rng = np.random.default_rng(0)
    thetas = [pv(rng.normal(size=2)) for _ in range(6)]
    center = pv(rng.normal(size=2))
    _, mean = client_drift(rows(*thetas), center.values)
    # oracle: explicit sqrt-of-sum-of-squares accumulation
    acc = 0.0
    for th in thetas:
        s = 0.0
        for a, b in zip(th.values, center.values):
            s += (a - b) ** 2
        acc += s ** 0.5
    assert mean == pytest.approx(acc / 6, rel=1e-12)


def test_gradient_variance_identical_updates():
    start = pv([0.5, 0.5])
    assert gradient_variance(rows(pv([1.0, 1.0]), pv([1.0, 1.0])), start.values) == 0.0


def test_gradient_variance_hand_case():
    start = pv([0.0, 0.0])
    # pseudo-gradients (+1, 0) and (-1, 0): mean 0, mean squared norm 1
    assert gradient_variance(rows(pv([1.0, 0.0]), pv([-1.0, 0.0])), start.values) == \
        pytest.approx(1.0, rel=1e-15)


def test_gradient_variance_of_one_row_is_zero():
    # a lone pseudo-gradient is its own mean
    assert gradient_variance(rows(pv([1.0, -2.5])), pv([0.3, 0.0]).values) == 0.0


def round_report(counts, marked):
    """A round's report over clients with these sample counts, the rows at
    the indices in `marked` being the top set the server marked."""
    recs = [ClientRecord(i, n, 0.0, 0.0, 0.0, i in marked) for i, n in enumerate(counts)]
    return RoundReport(1, recs, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("counts, marked, xi", [
    ([10] * 5, {0}, 10 - 40),
    ([7] * 4, {0, 1}, 0),
    ([5, 1, 1], {0}, 5 - 2),
    ([1, 1, 5], {2}, 5 - 2),         # re_sfat marks the largest losses, last in order
    ([6, 10, 20, 36], {1, 3}, 46 - 26),
    ([8, 16, 24, 32], set(), 0),     # fat, alpha 0 or k_hat 0 marks no client
    ([], set(), 0)],
    ids=["top1_equal_n", "half_split_equal_n", "unequal_hand_count", "top_set_last",
         "two_of_four_unequal", "none_marked", "no_clients"])
def test_xi_is_the_marked_samples_minus_the_rest(counts, marked, xi):
    got = round_report(counts, marked).xi
    assert got == xi and type(got) is int


def test_xi_bounds():
    rng = np.random.default_rng(1)
    for _ in range(50):
        ns = rng.integers(1, 30, size=int(rng.integers(2, 9))).tolist()
        total = sum(ns)
        for k_hat in range(len(ns) // 2 + 1):
            marked = set(rng.choice(len(ns), size=k_hat, replace=False).tolist())
            xi = round_report(ns, marked).xi
            assert -total <= xi <= total
            if 0 < k_hat < len(ns) / 2 and len(set(ns)) == 1:
                assert xi < 0


def const_model(c=2, dim=3):
    # constant logits: always predicts class 0
    return nn.Model([dim, c], np.zeros(dim * c + c))


def balanced_dataset(n_per_class=10, c=2, dim=3, seed=0):
    rng = stream(seed, "eval-data")
    X = rng.uniform(size=(n_per_class * c, dim))
    y = np.repeat(np.arange(c), n_per_class)
    return Dataset(X, y, c)


def test_constant_model_accuracy_one_over_c():
    ds = balanced_dataset(c=4)
    assert evaluate(const_model(c=4), ds) == pytest.approx(0.25)


def test_attack_cannot_change_constant_argmax():
    ds = balanced_dataset()
    m = const_model()
    spec = AttackSpec(0.1, 0.02, steps=5)
    nat = evaluate(m, ds, EvalAttack.NONE)
    adv = evaluate(m, ds, EvalAttack.PGD, spec)
    assert nat == adv


@pytest.mark.parametrize("attack", [EvalAttack.FGSM, EvalAttack.PGD])
def test_evaluate_rejects_a_random_start_before_splitting_the_test_set(monkeypatch, attack):
    # eval draws no noise: a random-start spec is an error, not a score
    chunked = []
    monkeypatch.setattr(threads, "for_each", lambda fn, items: chunked.append(items))
    spec = AttackSpec(0.1, 0.02, steps=5, random_start=True)
    with pytest.raises(ValueError, match="draws no random start"):
        evaluate(const_model(), balanced_dataset(), attack, spec)
    assert chunked == []


def test_evaluate_empty_set_errors():
    with pytest.raises(ValueError):
        evaluate(const_model(), Dataset(np.zeros((0, 3)), np.zeros(0, dtype=int), 2))


@pytest.mark.parametrize("attack", list(EvalAttack))
def test_evaluate_rejects_labels_not_shaped_like_the_batch(monkeypatch, attack):
    # (n, 1) labels would broadcast `argmax(axis=1) == y` to (n, n): a 3-4-2
    # model scored 0.5 with (6,) labels and 3.0 with the same labels as (6, 1);
    # they are rejected once, before the test set is split
    chunked = []
    monkeypatch.setattr(threads, "for_each", lambda fn, items: chunked.append(items))
    m = nn.Model.init([3, 4, 2], stream(2, "init"))
    ds = balanced_dataset(n_per_class=3, seed=2)
    ds.labels = ds.labels[:, None]
    spec = None if attack is EvalAttack.NONE else AttackSpec(0.05, 0.01, steps=3)
    with pytest.raises(ShapeError, match=re.escape("labels have shape (6, 1), a batch of "
                                                   "shape (6, 3) needs (6,)")):
        evaluate(m, ds, attack, spec)
    assert chunked == []


def test_accuracy_in_unit_interval():
    ds = balanced_dataset(seed=2)
    m = nn.Model.init([3, 4, 2], stream(2, "init"))
    for attack, spec in [(EvalAttack.NONE, None),
                         (EvalAttack.FGSM, AttackSpec(0.05, 0.05)),
                         (EvalAttack.PGD, AttackSpec(0.05, 0.01, steps=20))]:
        acc = evaluate(m, ds, attack, spec)
        assert 0.0 <= acc <= 1.0


def report(round_idx, top_ids, client_ids=range(5)):
    """The `load_metrics` rows of one round: a row per client, then the aggregate."""
    rows = [{"round": round_idx, "client_id": cid, "is_top": cid in top_ids}
            for cid in client_ids]
    return rows + [{"round": round_idx, "client_id": -1, "is_top": None}]


def test_trace_topk_single_round():
    counts, rounds = trace_topk(report(1, [2]))
    assert list(counts.values()) == [0, 0, 1, 0, 0]
    assert rounds == 1


def test_trace_topk_counts_sum():
    reports = [row for t in range(1, 11) for row in report(t, [t % 3, 3])]
    counts, rounds = trace_topk(reports)
    assert sum(counts.values()) == 2 * 10 and rounds == 10


def test_trace_topk_lists_only_the_clients_that_took_part_in_id_order():
    rows = report(1, [4], client_ids=[4, 1]) + report(2, [], client_ids=[7, 1])
    assert trace_topk(rows) == ({1: 0, 4: 1, 7: 0}, 2)
