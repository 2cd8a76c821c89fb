from __future__ import annotations


import numpy as np
import pytest

from fedslack import nn
from fedslack.aggregation import AggregationPolicy
from fedslack.attacks import AttackSpec, pgd
from fedslack.data import ClientShard, Dataset, PartitionSpec
from fedslack.local import (LocalConfig, Trainer, apply_fedprox, apply_scaffold, cohorts,
                            train_client, update_scaffold_client)
from fedslack.runner import DatasetSpec, ExperimentConfig, load_metrics, run
from fedslack.streams import stream
from oracles import cross_entropy_two_pass

def toy_dataset(n=40, seed=0):
    rng = stream(seed, "toy-data")
    X = rng.uniform(size=(n, 3))
    y = (X[:, 0] + X[:, 1] > 1.0).astype(int)
    return Dataset(X, y, 2)


def toy_config(**kw):
    defaults = dict(epochs=1, batch_size=8, trainer=Trainer.AT,
                    attack=AttackSpec(0.05, 0.01, steps=3, random_start=True),
                    lr=0.1, momentum=0.9, weight_decay=0.0)
    defaults.update(kw)
    return LocalConfig(**defaults)


def global_theta(seed=0, dims=(3, 4, 2)):
    return nn.Model.init(list(dims), stream(seed, "init"))


def train(shard, ds, theta, cfg, master_seed=0, round_idx=0, **kwargs):
    """`train_client` on a cohort of one in a fresh upload row: (uploaded
    parameters, mean loss); per-client variates become that cohort's row."""
    out = np.empty((1, theta.params.values.size))
    rows = {k: v[None] for k, v in kwargs.items() if k == "c_local"}
    (cohort,) = cohorts([shard], theta.params.values.size, master_seed, round_idx)
    (loss,) = train_client(cohort, ds, theta, cfg, out=out, **{**kwargs, **rows})
    return out[0], loss


def test_fedprox_mu_zero_noop():
    """apply_fedprox updates `grads` in place, so compare with a copy taken before."""
    g = np.array([1.0, 2.0])
    g0 = g.copy()
    out = apply_fedprox(g, np.array([3.0, 4.0]), np.array([0.0, 0.0]), 0.0, np.empty(2))
    assert np.array_equal(out, g0)


def test_fedprox_zero_drift_noop():
    """apply_fedprox updates `grads` in place, so compare with a copy taken before."""
    g = np.array([1.0, 2.0])
    g0 = g.copy()
    th = np.array([3.0, 4.0])
    out = apply_fedprox(g, th, th, 5.0, np.empty(2))
    assert np.array_equal(out, g0)


def test_fedprox_default_mu_arithmetic():
    g = np.array([0.0, 0.0])
    out = apply_fedprox(g, np.array([1.0, -2.0]), np.array([0.0, 0.0]), 0.01, np.empty(2))
    np.testing.assert_allclose(out, [0.01, -0.02], rtol=1e-15)


def test_scaffold_zero_variates_noop():
    """apply_scaffold updates `grads` in place, so compare with a copy taken before."""
    g = np.array([1.0, 2.0])
    g0 = g.copy()
    zero = np.array([0.0, 0.0])
    assert np.array_equal(apply_scaffold(g, zero, zero), g0)


def test_scaffold_equal_variates_noop():
    """apply_scaffold updates `grads` in place, so compare with a copy taken before."""
    g = np.array([1.0, 2.0])
    g0 = g.copy()
    c = np.array([0.3, -0.7])
    assert np.array_equal(apply_scaffold(g, c, c), g0)


def test_scaffold_client_variate_update():
    c_new = update_scaffold_client(np.array([1.0, 1.0]), np.array([0.0, 0.0]), n_steps=5,
                                   lr=0.1, c_local=np.array([0.2, 0.2]),
                                   c_global=np.array([0.1, 0.1]), out=np.empty(2),
                                   scratch=np.empty(2))
    # c_local - c_global + (1 - 0)/(5*0.1) = 0.1 + 2.0
    np.testing.assert_allclose(c_new, [2.1, 2.1], rtol=1e-12)


def test_scaffold_mean_identity_two_client_toy():
    # with full participation, the server step moves each variate to the
    # client's c_new, and c_global by the mean of c_new - c_local
    ds = toy_dataset()
    shards = [ClientShard(0, np.arange(20)), ClientShard(1, np.arange(20, 40))]
    theta = global_theta()
    cfg = toy_config()
    rng = stream(4, "variates")
    P = theta.params.values.size
    c_g, c_ls = rng.normal(scale=0.01, size=P), rng.normal(scale=0.01, size=(2, P))
    uploads = np.empty((2, P))
    (cohort,) = cohorts(shards, P, seed=1, round_idx=1)
    train_client(cohort, ds, theta, cfg, out=uploads, c_global=c_g, c_local=c_ls)
    steps = [cfg.steps(20)] * 2
    c_new = [update_scaffold_client(theta.params.values, up, n, cfg.lr, c_l, c_g,
                                    np.empty(P), np.empty(P))
             for up, n, c_l in zip(uploads, steps, c_ls)]
    from fedslack.aggregation import scaffold_server_update
    c_g2, c_ls2 = c_g.copy(), c_ls.copy()
    scaffold_server_update(c_g2, c_ls2, [0, 1], uploads, theta.params.values, steps, cfg.lr)
    np.testing.assert_allclose(c_ls2, c_new, atol=1e-15)
    np.testing.assert_allclose(c_g2, c_g + np.mean(np.subtract(c_new, c_ls), axis=0),
                               atol=1e-15)


def test_scaffold_needs_both_variates():
    ds = toy_dataset()
    shard = ClientShard(0, np.arange(10))
    theta = global_theta()
    c = np.zeros_like(theta.params.values)
    for kwargs in ({"c_global": c}, {"c_local": c}):
        with pytest.raises(ValueError):
            train(shard, ds, theta, toy_config(), master_seed=0, **kwargs)


@pytest.mark.parametrize("epochs", [1, 3])
def test_train_client_takes_steps_n_sgd_steps(monkeypatch, epochs):
    # the server divides each variate change by `steps(n)`, so it must be the
    # count of SGD steps a client of n samples takes: epochs * ceil(n / B)
    batch = 5
    ds = toy_dataset(n=2 * (2 * batch + 3))
    cfg = toy_config(epochs=epochs, batch_size=batch)
    original, calls = nn.sgd_step, []
    monkeypatch.setattr(nn, "sgd_step", lambda *a: calls.append(1) or original(*a))
    theta = global_theta()
    for n in (1, batch - 1, batch, batch + 1, 2 * batch + 3):
        shards = [ClientShard(0, np.arange(n)), ClientShard(1, np.arange(n, 2 * n))]
        (cohort,) = cohorts(shards, theta.params.values.size, 1, 1)
        calls.clear()
        train_client(cohort, ds, theta, cfg, out=np.empty((2, theta.params.values.size)))
        assert len(calls) == cfg.steps(n) == epochs * -(-n // batch)
    assert [cfg.steps(n) for n in (1, 4, 5, 6, 13)] == [epochs * k for k in (1, 1, 1, 2, 3)]


def test_train_client_builds_one_param_vector(monkeypatch):
    # gradients, momentum and corrections are plain arrays: the only layout
    # built in a round is the local model's, by Model(dims, out)
    ds = toy_dataset()
    shard = ClientShard(0, np.arange(len(ds)))
    theta = global_theta()
    original = nn.ParamVector.__post_init__
    for batch_size, steps in ((8, 3), (5, 7)):
        made = []

        def counted(self):
            made.append(self)
            original(self)

        monkeypatch.setattr(nn.ParamVector, "__post_init__", counted)
        cfg = toy_config(epochs=2, batch_size=batch_size,
                         attack=AttackSpec(0.05, 0.01, steps=steps, random_start=True))
        up, _ = train(shard, ds, theta, cfg, master_seed=1, round_idx=1)
        assert len(made) == 1 and np.shares_memory(made[0].values, up)


def test_at_epsilon_zero_equals_standard_bitwise():
    ds = toy_dataset()
    shard = ClientShard(0, np.arange(len(ds)))
    theta = global_theta()
    cfg_at = toy_config(attack=AttackSpec(0.0, 0.01, steps=3))
    up_at, loss_at = train(shard, ds, theta, cfg_at, master_seed=2, round_idx=1)
    up_std, loss_std = train(shard, ds, theta, toy_config(trainer=Trainer.STANDARD),
                             master_seed=2, round_idx=1)
    assert np.array_equal(up_at, up_std)
    assert loss_at == loss_std


def test_at_single_step_replay_oracle():
    # one batch, one epoch: resulting theta must equal one hand-applied SGD
    # step on the PGD batch generated with the same stream
    ds = toy_dataset(n=8)
    shard = ClientShard(0, np.arange(8))
    theta = global_theta()
    cfg = toy_config(epochs=1, batch_size=8, momentum=0.0)
    up, up_loss = train(shard, ds, theta, cfg, master_seed=3, round_idx=2)

    model = nn.Model(theta.dims, theta.params.values.copy())
    order = stream(3, "batch-order", 2, 0).permutation(8)
    xb, yb = ds.features[order], ds.labels[order]
    rng = stream(3, "attack", 2, 0)
    x_adv = pgd(model, xb, yb, cfg.attack, rng)
    loss, grads = nn.batch_loss_and_grads(model, x_adv, yb)
    nn.sgd_step(model, grads, np.zeros_like(grads), np.empty_like(grads), 0.1, 0.0, 0.0)
    assert np.array_equal(up, model.params.values)
    assert up_loss == pytest.approx(loss, abs=1e-15)


def test_at_multi_batch_replay_draws_each_purposes_stream_in_order():
    # 2 epochs of 3 batches (8, 8, 4): the client permutes its shard from one
    # batch-order stream at each epoch and draws every batch's random start
    # from one attack stream, both for the whole round, in order
    ds = toy_dataset(n=20)
    shard = ClientShard(4, np.arange(20))
    theta = global_theta()
    cfg = toy_config(epochs=2, batch_size=8)
    up, up_loss = train(shard, ds, theta, cfg, master_seed=3, round_idx=2)

    model = nn.Model(theta.dims, theta.params.values.copy())
    velocity, scratch = np.zeros_like(model.params.values), np.empty_like(model.params.values)
    orders, attacks = stream(3, "batch-order", 2, 4), stream(3, "attack", 2, 4)
    for _ in range(cfg.epochs):
        order = orders.permutation(20)
        loss_sum = 0.0
        for start in range(0, 20, 8):
            idx = order[start:start + 8]
            xb, yb = ds.features[idx], ds.labels[idx]
            loss, grads = nn.batch_loss_and_grads(model, pgd(model, xb, yb, cfg.attack, attacks),
                                                  yb)
            nn.sgd_step(model, grads, velocity, scratch, cfg.lr, cfg.momentum, cfg.weight_decay)
            loss_sum = loss_sum + loss * len(idx)
    assert np.array_equal(up, model.params.values)
    assert up_loss == loss_sum / 20


def test_weighted_loss_contract(tmp_path):
    # every client row of metrics.csv carries weighted_loss == n_k/N * loss_k,
    # bit for bit, with N the training-set size
    cfg = ExperimentConfig(
        dataset=DatasetSpec(n_per_class=20, num_classes=4, dim=3),
        partition=PartitionSpec(5, mode="iid", sample_counts=[8, 12, 16, 20, 14]),
        hidden_dims=[4], local=toy_config(batch_size=16),
        policy=AggregationPolicy("sfat", 0.2, 2), rounds=2, participation=0.8,
        eval_every=0, out_dir=str(tmp_path))
    art = run(cfg)
    rows = [r for r in load_metrics(tmp_path / "metrics.csv") if r["client_id"] >= 0]
    assert len(rows) == 2 * 4
    for row in rows:
        assert row["weighted_loss"] == row["n_k"] / 80 * row["loss_k"]
        assert row["loss_k"] >= 0.0
    assert [c.weighted_loss for r in art.reports for c in r.clients] == \
        [r["weighted_loss"] for r in rows]


def test_isolation_from_other_clients_data():
    # permuting data outside the client's shard leaves its update unchanged
    ds = toy_dataset()
    shard = ClientShard(0, np.arange(10))
    theta = global_theta()
    cfg = toy_config()
    up1, loss1 = train(shard, ds, theta, cfg, master_seed=5, round_idx=3)
    perm = np.arange(len(ds))
    perm[10:] = perm[10:][::-1]
    ds2 = Dataset(ds.features[perm], ds.labels[perm], 2)
    # shard indices still address the same rows because only rows >= 10 moved
    up2, loss2 = train(shard, ds2, theta, cfg, master_seed=5, round_idx=3)
    assert np.array_equal(up1, up2)
    assert loss1 == loss2


def test_empty_shard_errors():
    ds = toy_dataset()
    with pytest.raises(ValueError):
        train(ClientShard(0, np.array([], dtype=int)), ds, global_theta(),
              toy_config(), master_seed=0)


def test_trades_beta_zero_equals_standard():
    ds = toy_dataset()
    shard = ClientShard(0, np.arange(len(ds)))
    theta = global_theta()
    up_tr, _ = train(shard, ds, theta, toy_config(trainer=Trainer.TRADES, trades_beta=0.0),
                     master_seed=6, round_idx=1)
    up_std, _ = train(shard, ds, theta, toy_config(trainer=Trainer.STANDARD),
                      master_seed=6, round_idx=1)
    assert np.array_equal(up_tr, up_std)


def test_trades_loss_grows_with_beta():
    ds = toy_dataset(n=16)
    shard = ClientShard(0, np.arange(16))
    theta = global_theta()
    losses = []
    for beta in (1.0, 6.0, 30.0):
        cfg = toy_config(trainer=Trainer.TRADES, trades_beta=beta, epochs=1,
                         batch_size=16, lr=1e-9)  # tiny lr: loss reflects the start
        _, loss = train(shard, ds, theta, cfg, master_seed=7, round_idx=1)
        losses.append(loss)
    assert losses[0] < losses[1] < losses[2]


def test_trades_recorded_loss_matches_direct_evaluation():
    # single batch, tiny lr: the recorded loss is the full TRADES objective of
    # the initial model on the stream-matched adversarial batch
    ds = toy_dataset(n=8)
    shard = ClientShard(0, np.arange(8))
    theta = global_theta()
    cfg = toy_config(trainer=Trainer.TRADES, trades_beta=2.0, epochs=1,
                     batch_size=8, lr=1e-12, momentum=0.0)
    _, up_loss = train(shard, ds, theta, cfg, master_seed=8, round_idx=1)

    model = nn.Model(theta.dims, theta.params.values.copy())
    order = stream(8, "batch-order", 1, 0).permutation(8)
    xb, yb = ds.features[order], ds.labels[order]
    from fedslack.attacks import pgd_kl
    logits_nat = nn.forward_batch(model, xb)
    log_ref = np.log(np.clip(nn.softmax(logits_nat), 1e-300, None))
    x_adv = pgd_kl(model, xb, cfg.attack, stream(8, "attack", 1, 0), log_ref)
    logits_adv = nn.forward_batch(model, x_adv)
    p = nn.softmax(logits_nat)
    q = nn.softmax(logits_adv)
    kl = (q * (np.log(q) - np.log(p))).sum(axis=1)
    direct = cross_entropy_two_pass(logits_nat, yb).mean() + 2.0 * kl.mean()
    assert up_loss == pytest.approx(direct, rel=1e-12)


def test_trades_param_grads_match_finite_differences():
    ds = toy_dataset(n=6)
    theta = global_theta(seed=9)
    model = nn.Model(theta.dims, theta.params.values.copy())
    cfg = toy_config(trainer=Trainer.TRADES, trades_beta=3.0,
                     attack=AttackSpec(0.0, 0.01))  # eps 0: x_adv == x, loss smooth
    from fedslack.local import _trades_objective
    X, y = ds.features, ds.labels
    rng = stream(1, "na")
    P = model.params.values.size
    loss, grads = _trades_objective(model, X, y, cfg, rng, np.empty(P), np.empty(P))
    vec = model.params.values.copy()
    h = 1e-6
    for i in range(0, len(vec), 5):
        for sign in (1.0, -1.0):
            v = vec.copy()
            v[i] += sign * h
            model.params.values[:] = v
            l, _ = _trades_objective(model, X, y, cfg, rng, np.empty(P), np.empty(P))
            if sign > 0:
                lp = l
            else:
                lm = l
        model.params.values[:] = vec
        fd = (lp - lm) / (2 * h)
        assert grads[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)


@pytest.mark.parametrize("trainer, per_batch", [(Trainer.AT, 1), (Trainer.TRADES, 2)])
def test_backprop_runs_only_for_the_training_gradient(monkeypatch, trainer, per_batch):
    # attack steps take the input-only backward: backprop runs once per batch
    # for AT (the CE gradient) and twice for TRADES (clean and adversarial)
    ds = toy_dataset()
    shard = ClientShard(0, np.arange(len(ds)))
    calls = []
    original = nn.backprop

    def counted(*args, **kwargs):
        calls.append(args[2].shape[-2])
        return original(*args, **kwargs)

    monkeypatch.setattr(nn, "backprop", counted)
    cfg = toy_config(trainer=trainer, epochs=2, batch_size=16)
    train(shard, ds, global_theta(), cfg, master_seed=1, round_idx=1)
    batches = [16, 16, 8] * 2  # 40 samples in batches of 16, two epochs
    assert calls == [n for n in batches for _ in range(per_batch)]


@pytest.mark.parametrize("trainer", [Trainer.AT, Trainer.TRADES])
def test_train_client_leaves_its_inputs_unchanged(trainer):
    # gradients and corrections are updated in place; none of that may reach
    # the downloaded parameters, the control variates or the dataset
    ds = toy_dataset()
    shard = ClientShard(0, np.arange(len(ds)))
    theta = global_theta()
    rng = stream(2, "variates")
    c_global = rng.normal(scale=0.01, size=theta.params.values.shape)
    c_local = rng.normal(scale=0.01, size=theta.params.values.shape)
    before = [a.tobytes() for a in (theta.params.values, c_global, c_local, ds.features,
                                    ds.labels)]
    cfg = toy_config(trainer=trainer, epochs=2, fedprox_mu=0.1)
    up, _ = train(shard, ds, theta, cfg, master_seed=1, round_idx=1, c_global=c_global,
                  c_local=c_local)
    after = (theta.params.values, c_global, c_local, ds.features, ds.labels)
    assert [a.tobytes() for a in after] == before
    assert not np.array_equal(up, theta.params.values)
