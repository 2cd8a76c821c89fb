"""The round matrices: clients train in rows of one upload matrix, and the
server step reads it in place, bit-equal to the per-client list formulas."""

from __future__ import annotations

import numpy as np
import pytest

from fedslack import aggregation, metrics, nn
from fedslack.aggregation import (AggregationMode, AggregationPolicy, scaffold_server_update,
                                  slack_aggregate, update_client_variates)
from fedslack.attacks import AttackSpec
from fedslack.data import ClientShard, Dataset, PartitionSpec
from fedslack.errors import ShapeError
from fedslack.local import Cohort, LocalConfig, Trainer, train_client, update_scaffold_client
from fedslack.metrics import client_drift, gradient_variance
from fedslack.runner import DatasetSpec, ExperimentConfig, run
from fedslack.streams import stream
from oracles import (RoundArrays, client_drift_list, gradient_variance_list, scaffold_delta,
                     scaffold_server_update_list, server_weights, slack_aggregate_list,
                     update_client_variates_dict)

DIMS = [20, 64, 10]
MS = [1, 2, 7]


def random_round(m: int, seed: int):
    """m uploads of a DIMS model around a random theta, as a matrix and as a round."""
    rng = np.random.default_rng(seed)
    theta = nn.Model.init(DIMS, rng).params
    uploads = theta.values + rng.normal(scale=0.1, size=(m, theta.values.size))
    ns = rng.integers(1, 60, size=m)
    losses = rng.uniform(0.01, 2.0, size=m)
    updates = RoundArrays(uploads, losses, ns, theta.layout)
    return rng, theta, uploads, updates


@pytest.mark.parametrize("m", MS)
def test_slack_aggregate_matches_the_list_oracle_bitwise(m):
    for seed in range(5):
        rng, theta, uploads, updates = random_round(m, seed)
        alpha = float(rng.uniform(0.0, 0.9))
        for mode in AggregationMode:
            policy = AggregationPolicy(mode, alpha, m // 2)
            agg = slack_aggregate(uploads, server_weights(updates, policy), theta.layout)
            ref = slack_aggregate_list(updates, policy)
            assert agg.layout == ref.layout
            assert np.array_equal(agg.values, ref.values)


@pytest.mark.parametrize("m", MS)
def test_client_drift_matches_the_list_oracle_bitwise(m):
    for seed in range(5):
        rng, theta, uploads, _ = random_round(m, seed)
        center = theta.values + rng.normal(scale=0.05, size=theta.values.size)
        assert client_drift(uploads, center) == client_drift_list(list(uploads), center)


@pytest.mark.parametrize("m", MS)
def test_gradient_variance_matches_the_list_oracle_bitwise(m):
    for seed in range(5):
        _, theta, uploads, _ = random_round(m, seed)
        if m < 2:
            with pytest.raises(ValueError):
                gradient_variance(uploads, theta.values)
            continue
        got = gradient_variance(uploads, theta.values)
        assert got == gradient_variance_list(list(uploads), theta.values)


@pytest.mark.parametrize("m", MS)
def test_scaffold_updates_match_the_list_oracles_bitwise(m):
    K = 2 * m + 1
    for seed in range(5):
        rng = np.random.default_rng(seed)
        P = 300
        deltas = rng.normal(scale=0.01, size=(m, P))
        c_global = rng.normal(scale=0.01, size=P)
        got = scaffold_server_update(c_global, deltas, m, K)
        assert np.array_equal(got, scaffold_server_update_list(c_global, list(deltas), m, K))

        ids = sorted(rng.choice(K, size=m, replace=False).tolist())
        c_locals = rng.normal(scale=0.01, size=(K, P))
        by_id = {cid: row.copy() for cid, row in enumerate(c_locals)}
        update_client_variates(c_locals, ids, deltas)
        update_client_variates_dict(by_id, ids, list(deltas))
        assert all(np.array_equal(c_locals[cid], by_id[cid]) for cid in range(K))

        theta_g, theta_l, c_local = rng.normal(size=(3, P))
        row = np.empty(P)
        out = update_scaffold_client(theta_g, theta_l, 3, 0.05, c_local, c_global, out=row)
        out -= c_local
        assert out is row
        assert np.array_equal(row, scaffold_delta(theta_g, theta_l, 3, 0.05, c_local, c_global))


def test_matrix_calls_reject_mismatched_shapes():
    _, theta, uploads, updates = random_round(3, 0)
    sw = server_weights(updates, AggregationPolicy())
    with pytest.raises(ShapeError):
        slack_aggregate(uploads[:2], sw, theta.layout)
    with pytest.raises(ShapeError):
        client_drift(uploads, theta.values[:-1])
    with pytest.raises(ShapeError):
        gradient_variance(uploads[:, :-1], theta.values)
    with pytest.raises(ShapeError):
        nn.Model.from_vector(theta, out=np.empty(theta.values.size, dtype=np.float32))
    with pytest.raises(ShapeError):
        nn.Model.from_vector(theta, out=np.empty(theta.values.size + 1))


def toy_client():
    rng = np.random.default_rng(0)
    X = rng.uniform(0.2, 0.8, size=(40, 3))
    y = np.arange(40) % 2
    ds = Dataset(X, y, 2)
    return ds, ClientShard(0, np.arange(len(ds))), nn.Model.init([3, 6, 2], rng).params


@pytest.mark.parametrize("trainer", [Trainer.AT, Trainer.TRADES])
def test_training_in_a_row_equals_training_in_a_fresh_array(trainer):
    ds, shard, theta = toy_client()
    rng = stream(2, "variates")
    c_global = rng.normal(scale=0.01, size=theta.values.shape)
    c_local = rng.normal(scale=0.01, size=theta.values.shape)
    cfg = LocalConfig(epochs=2, batch_size=16, trainer=trainer, fedprox_mu=0.1,
                      attack=AttackSpec(0.05, 0.0125, steps=3, random_start=True), lr=0.1)
    before = [a.copy() for a in (theta.values, c_global, c_local, ds.features, ds.labels)]
    cohort = Cohort.of([shard])
    fresh, fresh_delta = np.empty((1, theta.values.size)), np.empty((1, theta.values.size))
    (fresh_loss,) = train_client(cohort, ds, theta, cfg, 1, 1, out=fresh, c_global=c_global,
                                 c_local=c_local[None], delta_out=fresh_delta)
    uploads, deltas = np.full((3, theta.values.size), np.nan), np.empty((3, theta.values.size))
    (loss,) = train_client(cohort, ds, theta, cfg, 1, 1, c_global=c_global,
                           c_local=c_local[None], out=uploads[1:2], delta_out=deltas[1:2])
    after = (theta.values, c_global, c_local, ds.features, ds.labels)
    assert all(np.array_equal(a, b) for a, b in zip(after, before))
    assert np.array_equal(uploads[1], fresh[0])
    assert np.array_equal(deltas[1], fresh_delta[0])
    assert loss == fresh_loss and type(loss) is float
    assert np.isnan(uploads[[0, 2]]).all()


def test_scaffold_run_stacks_nothing_on_the_server(monkeypatch):
    stacked = []

    class NoStack:
        def __getattr__(self, attr):
            return getattr(np, attr)

        def stack(self, arrays, *args, **kwargs):
            stacked.append(len(arrays))
            return np.stack(arrays, *args, **kwargs)

    for module in (aggregation, metrics):
        monkeypatch.setattr(module, "np", NoStack())
    cfg = ExperimentConfig(
        dataset=DatasetSpec(n_per_class=40, num_classes=5, dim=3, separation=0.8),
        partition=PartitionSpec(6, skew=4.0, seed=0), hidden_dims=[8],
        local=LocalConfig(epochs=1, batch_size=16, trainer="standard", lr=0.1),
        policy=AggregationPolicy(AggregationMode.SFAT, 0.2, 1), optimizer="scaffold",
        rounds=3, participation=0.5, eval_every=3, seed=0)
    art = run(cfg)
    assert len(art.reports) == 3 and art.reports[-1].grad_variance > 0
    assert stacked == []
