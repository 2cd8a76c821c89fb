from __future__ import annotations

import numpy as np
import pytest

from fedslack.aggregation import (AggregationMode, AggregationPolicy, alpha_slack_loss,
                                  scaffold_server_update, slack_aggregate, slack_weights,
                                  sort_by_weighted_loss)
from fedslack.errors import AggregationError, ConfigError
from oracles import RoundArrays, fedavg_aggregate, server_weights

LAYOUT = (("dense0.W", (1, 1)), ("dense0.b", (1,)))


def scalar_updates(thetas, losses, ns):
    """A round whose client i uploads (thetas[i], 0)."""
    uploads = np.array([[v, 0.0] for v in thetas]).reshape(len(thetas), 2)
    return RoundArrays(uploads, losses, ns, LAYOUT)


def brute_force_weighted_mean(values, weights):
    # oracle: plain python accumulation
    out = [0.0] * len(values[0])
    for v, w in zip(values, weights):
        for i in range(len(v)):
            out[i] += w * v[i]
    return np.array(out)


def test_fedavg_idempotent_on_identical_params():
    ups = scalar_updates([3.5, 3.5, 3.5], [0.1, 0.2, 0.3], [5, 7, 2])
    agg = fedavg_aggregate(ups)
    assert agg.values[0] == pytest.approx(3.5, rel=1e-15)


def test_fedavg_matches_oracle():
    ups = scalar_updates([0.0, 4.0], [0.1, 0.2], [1, 3])
    agg = fedavg_aggregate(ups)
    oracle = brute_force_weighted_mean([[0.0, 0.0], [4.0, 0.0]], [0.25, 0.75])
    np.testing.assert_allclose(agg.values, oracle, atol=1e-12)
    assert agg.values[0] == pytest.approx(3.0)


def test_fedavg_equal_n_is_mean():
    ups = scalar_updates([1.0, 2.0, 6.0], [0.1, 0.2, 0.3], [1, 1, 1])
    assert fedavg_aggregate(ups).values[0] == pytest.approx(3.0, rel=1e-15)


def test_fedavg_empty_errors():
    with pytest.raises(AggregationError):
        fedavg_aggregate(scalar_updates([], [], []))


def test_sort_by_weighted_loss():
    ups = scalar_updates([0, 0, 0], [0.3, 0.1, 0.2], [1, 1, 1])
    assert sort_by_weighted_loss(ups.weighted_losses, ups.client_ids) == [1, 2, 0]


def test_sort_tie_broken_by_client_id():
    ups = scalar_updates([0, 0, 0], [0.2, 0.2, 0.2], [1, 1, 1])
    assert sort_by_weighted_loss(ups.weighted_losses, ups.client_ids) == [0, 1, 2]
    # rows 0..2 hold clients 7, 3, 5: equal losses sort by client id, not row
    assert sort_by_weighted_loss(ups.weighted_losses, [7, 3, 5]) == [1, 2, 0]


def test_sort_uses_sample_weighting():
    # N=(10,1), L=(0.1,0.5): weighted losses 10/11*0.1=0.0909 vs 1/11*0.5=0.0454
    ups = scalar_updates([0, 0], [0.1, 0.5], [10, 1])
    assert sort_by_weighted_loss(ups.weighted_losses, ups.client_ids) == [1, 0]


def test_sort_rejects_nan():
    ups = scalar_updates([0, 0], [np.nan, 0.1], [1, 1])
    with pytest.raises(AggregationError, match="client 4 "):
        sort_by_weighted_loss(ups.weighted_losses, [4, 9])


def test_slack_weights_equal_n_pattern():
    # K=5 equal N, alpha=1/6 -> ratio 1.4; client 2 smallest loss
    # weights (1,1,1.4,1,1)/5.4
    ups = scalar_updates([0] * 5, [0.5, 0.4, 0.1, 0.3, 0.2], [10] * 5)
    policy = AggregationPolicy(AggregationMode.SFAT, alpha=1 / 6, k_hat=1)
    order = sort_by_weighted_loss(ups.weighted_losses, ups.client_ids)
    weights, is_top = slack_weights(ups.n_k, order, policy, policy.alpha)
    expected = np.array([1, 1, 1.4, 1, 1]) / 5.4
    np.testing.assert_allclose(weights, expected, atol=1e-9)
    np.testing.assert_allclose(
        weights, [0.18519, 0.18519, 0.25926, 0.18519, 0.18519], atol=1e-5)
    assert np.flatnonzero(is_top).tolist() == [2]


def test_slack_weights_takes_the_given_order():
    # slack_weights does not sort again: the top set is the head (SFAT) or the
    # tail (RE_SFAT) of the order it is given, marked row for row
    n_k, ids = np.array([10, 10, 10, 10]), np.array([4, 7, 1, 9])
    for mode, top in ((AggregationMode.SFAT, [1, 9]), (AggregationMode.RE_SFAT, [4, 7])):
        weights, is_top = slack_weights(n_k, [2, 3, 0, 1], AggregationPolicy(mode, 0.1, 2), 1 / 3)
        assert ids[is_top].tolist() == top
        assert np.array_equal(weights > 0.25, np.isin(ids, top))


def test_slack_weights_alpha_zero_is_fedavg():
    ups = scalar_updates([0] * 4, [0.4, 0.1, 0.3, 0.2], [3, 5, 2, 10])
    policy = AggregationPolicy(AggregationMode.SFAT, alpha=0.0, k_hat=2)
    weights, _ = server_weights(ups, policy)
    n = np.array([3, 5, 2, 10], dtype=float)
    assert np.array_equal(weights, n / n.sum())


def test_re_sfat_mirrors_top_choice():
    ups = scalar_updates([0] * 5, [0.5, 0.4, 0.1, 0.3, 0.2], [10] * 5)
    policy = AggregationPolicy(AggregationMode.RE_SFAT, alpha=1 / 6, k_hat=1)
    weights, is_top = server_weights(ups, policy)
    assert np.flatnonzero(is_top).tolist() == [0]  # largest loss
    expected = np.array([1.4, 1, 1, 1, 1]) / 5.4
    np.testing.assert_allclose(weights, expected, atol=1e-9)


def test_slack_weights_khat_constraint():
    ups = scalar_updates([0] * 4, [0.1, 0.2, 0.3, 0.4], [1] * 4)
    policy = AggregationPolicy(AggregationMode.SFAT, alpha=0.2, k_hat=3)
    with pytest.raises(AggregationError):
        server_weights(ups, policy)


def test_effective_k_hat_is_at_most_half_the_participants():
    for k_hat in range(9):
        for m in range(1, 21):
            got = AggregationPolicy(AggregationMode.SFAT, 0.2, k_hat).effective_k_hat(m)
            assert got == (0 if k_hat == 0 or m < 2 else min(k_hat, m // 2)), (k_hat, m)


def test_invalid_alpha():
    with pytest.raises(ConfigError):
        AggregationPolicy(AggregationMode.SFAT, alpha=1.0, k_hat=1)
    ups = scalar_updates([0, 0], [0.1, 0.2], [1, 1])
    policy = AggregationPolicy(AggregationMode.SFAT, alpha=0.2, k_hat=1)
    with pytest.raises(AggregationError):
        server_weights(ups, policy, alpha=-0.1)


def test_slack_aggregate_hand_case():
    # two clients equal N, theta (0, 10), alpha=1/3 -> r=2, client 0 smaller loss
    ups = scalar_updates([0.0, 10.0], [0.1, 0.9], [1, 1])
    policy = AggregationPolicy(AggregationMode.SFAT, alpha=1 / 3, k_hat=1)
    agg = slack_aggregate(ups.uploads, server_weights(ups, policy)[0])
    assert agg[0] == pytest.approx(10.0 / 3.0, rel=1e-12)
    oracle = brute_force_weighted_mean([[0.0, 0.0], [10.0, 0.0]], [2 / 3, 1 / 3])
    np.testing.assert_allclose(agg, oracle, atol=1e-12)


def test_slack_aggregate_alpha_zero_equals_fedavg_bitwise():
    rng = np.random.default_rng(0)
    for _ in range(50):
        k = int(rng.integers(2, 8))
        ns = rng.integers(1, 50, size=k).tolist()
        ups = scalar_updates(rng.normal(size=k).tolist(),
                             rng.uniform(size=k).tolist(), ns)
        base = fedavg_aggregate(ups)
        for policy in [AggregationPolicy(AggregationMode.FAT, 0.0, 0),
                       AggregationPolicy(AggregationMode.SFAT, 0.0, k // 2),
                       AggregationPolicy(AggregationMode.SFAT, 0.3, 0)]:
            agg = slack_aggregate(ups.uploads, server_weights(ups, policy)[0])
            assert np.array_equal(agg, base.values)


def test_slack_aggregate_idempotent():
    ups = scalar_updates([2.0, 2.0, 2.0, 2.0], [0.4, 0.3, 0.2, 0.1], [1, 2, 3, 4])
    policy = AggregationPolicy(AggregationMode.SFAT, alpha=0.5, k_hat=2)
    agg = slack_aggregate(ups.uploads, server_weights(ups, policy)[0])
    assert agg[0] == pytest.approx(2.0, rel=1e-15)


def test_alpha_slack_loss_hand_values():
    # (0.5, 1.5), alpha=0.5, k_hat=1 -> 1.5*0.5 + 0.5*1.5 = 1.5
    assert alpha_slack_loss([0.5, 1.5], 0.5, 1) == pytest.approx(1.5, abs=1e-12)
    assert alpha_slack_loss([0.5, 1.5], 0.0, 1) == pytest.approx(2.0, abs=1e-12)
    assert alpha_slack_loss([0.5, 1.5], 0.25, 1) == pytest.approx(1.75, abs=1e-12)
    # order independence: same result for both input orderings
    assert alpha_slack_loss([1.5, 0.5], 0.5, 1) == pytest.approx(1.5, abs=1e-12)
    # Re-SFAT weighs the largest loss: 0.5*0.5 + 1.5*1.5 = 2.5, above the plain sum
    for wl in ([0.5, 1.5], [1.5, 0.5]):
        assert alpha_slack_loss(wl, 0.5, 1, AggregationMode.RE_SFAT) == pytest.approx(2.5,
                                                                                     abs=1e-12)
    # FAT marks no row: (1-a) * the sum, SFAT's k_hat 0 value
    assert alpha_slack_loss([0.5, 1.5], 0.5, 1, AggregationMode.FAT) == \
        alpha_slack_loss([0.5, 1.5], 0.5, 0) == 1.0


def test_alpha_slack_loss_reads_the_server_top_set():
    # in every mode the relaxed loss weighs by (1+a) the rows the server step
    # marks as its top set, and by (1-a) the rest, bit for bit
    rng = np.random.default_rng(6)
    for _ in range(300):
        k = int(rng.integers(2, 13))
        ups = scalar_updates([0.0] * k, rng.uniform(0.01, 2, size=k).tolist(),
                             rng.integers(1, 60, size=k).tolist())
        wl = ups.weighted_losses
        alpha = float(rng.uniform(0, 0.95))
        k_hat = int(rng.integers(0, k // 2 + 1))
        for mode in AggregationMode:
            _, is_top = server_weights(ups, AggregationPolicy(mode, alpha, k_hat))
            assert alpha_slack_loss(wl, alpha, k_hat, mode) == \
                (1 + alpha) * wl[is_top].sum() + (1 - alpha) * wl[~is_top].sum()


def test_alpha_slack_loss_lower_bound_property():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        k = int(rng.integers(2, 13))
        wl = rng.uniform(0, 2, size=k)
        alpha = float(rng.uniform(0, 0.999))
        k_hat = int(rng.integers(0, k // 2 + 1))
        assert alpha_slack_loss(wl, alpha, k_hat) <= wl.sum() + 1e-12
        assert alpha_slack_loss(wl, 0.0, k_hat) == pytest.approx(wl.sum(), abs=1e-12)


def test_alpha_slack_loss_monotone_in_alpha():
    rng = np.random.default_rng(2)
    for _ in range(200):
        k = int(rng.integers(2, 13))
        wl = rng.uniform(0.01, 2, size=k)
        alphas = np.arange(0.0, 1.0, 0.1)
        for k_hat in range(k // 2 + 1):
            vals = [alpha_slack_loss(wl, a, k_hat) for a in alphas]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
            if k_hat > 0:
                # distinct positive losses make the decrease strict
                assert all(a > b for a, b in zip(vals, vals[1:]))


def test_alpha_slack_loss_khat_tightens_the_bound():
    # for non-negative losses, a larger top set moves mass into the (1+a)
    # group, so the relaxed value climbs back toward the plain sum while
    # always staying a lower bound
    rng = np.random.default_rng(5)
    for _ in range(200):
        k = int(rng.integers(2, 13))
        wl = rng.uniform(0.01, 2, size=k)
        for alpha in (0.3, 0.7):
            vals = [alpha_slack_loss(wl, alpha, kh) for kh in range(k // 2 + 1)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert all(v <= wl.sum() + 1e-12 for v in vals)


def test_slack_weights_simplex_and_ratio():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 10))
        ns = rng.integers(1, 100, size=k).tolist()
        ups = scalar_updates(rng.normal(size=k).tolist(),
                             rng.uniform(size=k).tolist(), ns)
        alpha = float(rng.uniform(0.01, 0.95))
        k_hat = int(rng.integers(1, k // 2 + 1)) if k >= 2 else 0
        mode = AggregationMode.SFAT if rng.random() < 0.5 else AggregationMode.RE_SFAT
        weights, is_top = server_weights(ups, AggregationPolicy(mode, alpha, k_hat))
        assert weights.sum() == pytest.approx(1.0, abs=1e-9)
        per_sample = weights / np.array(ns, dtype=float)
        for i in range(k):
            for j in range(k):
                if is_top[i] and not is_top[j]:
                    assert per_sample[i] / per_sample[j] == pytest.approx(
                        (1 + alpha) / (1 - alpha), abs=1e-9)


def test_permutation_equivariance():
    rng = np.random.default_rng(4)
    thetas = rng.normal(size=5).tolist()
    losses = [0.5, 0.1, 0.4, 0.2, 0.3]
    ns = [4, 9, 2, 7, 5]
    ups = scalar_updates(thetas, losses, ns)
    policy = AggregationPolicy(AggregationMode.SFAT, alpha=0.25, k_hat=2)
    weights, is_top = server_weights(ups, policy)
    perm = [3, 0, 4, 1, 2]
    ups_p = ups.rows(perm)
    weights_p, is_top_p = server_weights(ups_p, policy)
    np.testing.assert_allclose(weights_p, weights[perm], atol=1e-15)
    top = sorted(np.asarray(ups.client_ids)[is_top])
    assert sorted(np.asarray(ups_p.client_ids)[is_top_p]) == top


def test_scaffold_server_update():
    def server_step(c, deltas, K):
        """(c_global, c_locals) after the in-place step, with K zero client
        variates and uploads whose variate changes are the rows of `deltas`:
        at steps*lr = 1, delta_i = -c + (0 - upload_i), so upload_i = -(delta_i + c)."""
        out, c_locals = c.copy(), np.zeros((K, len(c)))
        m = len(deltas)
        scaffold_server_update(out, c_locals, list(range(m)), -(deltas + c), np.zeros(len(c)),
                               [2] * m, 0.5)
        assert np.array_equal(c_locals[:m], deltas) and not c_locals[m:].any()
        return out

    c = np.array([1.0, 2.0])
    zero = np.zeros(2)
    out = server_step(c, np.stack([zero, zero]), 4)
    assert np.array_equal(out, c)

    d = np.array([4.0, -2.0])
    out = server_step(c, np.stack([d]), 1)
    np.testing.assert_allclose(out, [5.0, 0.0])

    neg = -d
    out = server_step(c, np.stack([d, neg]), 4)
    np.testing.assert_allclose(out, c)
