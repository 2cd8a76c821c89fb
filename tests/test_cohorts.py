"""Cohort training: which clients train together, and that training them
together changes nothing but the number of numpy calls."""

from __future__ import annotations

import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedslack import local, nn, runner
from fedslack.aggregation import scaffold_server_update
from fedslack.attacks import AttackSpec
from fedslack.data import ClientShard, Dataset, PartitionSpec
from fedslack.errors import DivergenceError
from fedslack.local import LocalConfig, cohorts, train_client
from fedslack.runner import DatasetSpec, ExperimentConfig
from fedslack.streams import stream


def row_ids(cohort):
    """The upload rows of a cohort's `rows` slice, as a tuple."""
    return tuple(range(cohort.rows.stop)[cohort.rows])


def shards_of(sizes, first_id=0):
    """Consecutive shards of the given sizes over one dataset, ids from first_id."""
    bounds = np.cumsum([0] + list(sizes))
    return [ClientShard(first_id + k, np.arange(lo, hi))
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


def toy_dataset(n, seed=0):
    rng = stream(seed, "cohort-data")
    X = rng.uniform(size=(n, 3))
    return Dataset(X, (X[:, 0] + X[:, 1] > 1.0).astype(int), 2)


CFG = LocalConfig(epochs=2, batch_size=5,
                  attack=AttackSpec(0.05, 0.01, steps=2, random_start=True))


def test_cohorts_group_equal_sizes_up_to_the_cap(monkeypatch):
    # equal sizes join one cohort wherever their rows are, as long as the rows
    # stay evenly spaced; cohorts come in order of their first row
    shards = shards_of([4, 5, 4, 5, 4, 4, 6], first_id=3)
    groups = cohorts(shards, 10, 0, 1)
    assert [row_ids(c) for c in groups] == [(0, 2, 4), (1, 3), (5,), (6,)]
    assert [c.client_ids for c in groups] == [(3, 5, 7), (4, 6), (8,), (9,)]
    assert [c.n_samples for c in groups] == [12, 10, 4, 6]
    assert np.array_equal(groups[1].indices, np.stack([shards[1].indices, shards[3].indices]))
    assert groups[0].rows == slice(0, 5, 2)
    monkeypatch.setattr(local, "COHORT_BYTES", 2 * 8 * 10 + 7)    # room for two clients
    assert [row_ids(c) for c in cohorts(shards, 10, 0, 1)] == [(0, 2), (1, 3), (4, 5), (6,)]
    monkeypatch.setattr(local, "COHORT_BYTES", 1)                 # room for none: one each
    assert [row_ids(c) for c in cohorts(shards, 10, 0, 1)] == [(k,) for k in range(7)]


@pytest.mark.parametrize("n_params, sizes", [(229, [3]), (50_826, [2, 1]), (203_530, [1, 1, 1])])
def test_cohort_cap_at_the_benchmark_model_sizes(n_params, sizes):
    # 8-16-5 (desk) stacks, 64-256-128-10 (fleet) pairs, 784-256-10 (wide) trains alone
    assert [len(c) for c in cohorts(shards_of([6, 6, 6]), n_params, 0, 1)] == sizes


def state(rng):
    return rng.bit_generator.state


@pytest.mark.parametrize("random_start", [True, False])
def test_a_cohort_holds_each_clients_keyed_streams(monkeypatch, random_start):
    # shards of 7 and 12: one stream per client and purpose for the round,
    # keyed by (round, client) only, so the same in any cohort
    cfg = LocalConfig(epochs=2, batch_size=5,
                      attack=AttackSpec(0.05, 0.01, steps=2, random_start=random_start))
    ds = toy_dataset(26)
    theta = nn.Model.init([3, 4, 2], stream(0, "init"))
    P = theta.params.values.size
    made = []

    def spy(*key):
        rng = stream(*key)
        made.append((key, state(rng)))
        return rng

    def derived(c):
        """Each stream that training `c` derives: its key and its initial state."""
        made.clear()
        train_client(c, ds, theta, cfg, out=np.empty((len(c), P)))
        return dict(made)

    monkeypatch.setattr(local, "stream", spy)
    groups = cohorts(shards_of([7, 12, 7], first_id=3), P, 9, 4)
    assert [(row_ids(c), c.client_ids, c.round_idx)
            for c in groups] == [((0, 2), (3, 5), 4), ((1,), (4,), 4)]
    monkeypatch.setattr(local, "COHORT_BYTES", 1)
    singles = {c.client_ids: c for c in cohorts(shards_of([7, 12, 7], first_id=3), P, 9, 4)}
    purposes = ["batch-order"] + (["attack"] if random_start else [])
    for c in groups:
        streams = derived(c)
        assert list(streams) == [(9, p, 4, cid) for p in purposes for cid in c.client_ids]
        for cid in c.client_ids:
            alone = derived(singles[(cid,)])
            for p in purposes:
                key = (9, p, 4, cid)
                assert streams[key] == alone[key] == state(stream(*key))


def train_rows(groups, ds, theta, cfg, c_global=None, c_locals=None):
    """Train each cohort in a strided view of its rows, as the runner does:
    (uploads, variates, losses), row i for shard i; under SCAFFOLD the
    variates are the (c_global, c_locals) that the server step makes of
    copies of the given ones, else None."""
    m = sum(len(c) for c in groups)
    uploads = np.full((m, theta.params.values.size), np.nan)
    losses, steps = np.full(m, np.nan), np.zeros(m, dtype=int)
    for c in groups:
        kwargs = {} if c_locals is None else dict(c_global=c_global,
                                                  c_local=c_locals[c.rows])
        losses[c.rows] = train_client(c, ds, theta, cfg, out=uploads[c.rows], **kwargs)
        steps[c.rows] = cfg.steps(c.indices.shape[1])
    assert not np.isnan(uploads).any() and not np.isnan(losses).any()
    variates = None
    if c_locals is not None:
        variates = c_global.copy(), c_locals.copy()
        scaffold_server_update(*variates, list(range(m)), uploads, theta.params.values,
                               steps.tolist(), cfg.lr)
    return uploads, variates, losses.tolist()


@settings(derandomize=True, max_examples=40, deadline=None)
@given(trainer=st.sampled_from(["at", "trades", "standard"]),
       optimizer=st.sampled_from(["fedavg", "fedprox", "scaffold"]),
       hidden=st.lists(st.integers(2, 6), min_size=1, max_size=2),
       epochs=st.integers(1, 2),
       sizes=st.lists(st.sampled_from([5, 7, 12]), min_size=2,
                      max_size=6).flatmap(st.permutations),
       cap=st.integers(1, 4),
       random_start=st.booleans())
@example(trainer="at", optimizer="scaffold", hidden=[4], epochs=2, sizes=[7, 7, 7, 7],
         cap=3, random_start=True)
@example(trainer="at", optimizer="scaffold", hidden=[4], epochs=2,
         sizes=[7, 12, 7, 5, 12, 7], cap=2, random_start=True)
@example(trainer="trades", optimizer="scaffold", hidden=[4], epochs=2,
         sizes=[7, 12, 7, 5, 7, 7], cap=4, random_start=True)
def test_cohorts_train_bit_for_bit_like_cohorts_of_one(trainer, optimizer, hidden, epochs,
                                                       sizes, cap, random_start):
    # batches of 5: shards of 7 and 12 end on a short batch
    ds = toy_dataset(sum(sizes), seed=len(sizes))
    shards = shards_of(sizes, first_id=3)
    theta = nn.Model.init([3] + hidden + [2], stream(cap, "init"))
    P = theta.params.values.size
    cfg = LocalConfig(epochs=epochs, batch_size=5, trainer=trainer,
                      fedprox_mu=0.05 if optimizer == "fedprox" else 0.0,
                      attack=AttackSpec(0.05, 0.0125, steps=2, random_start=random_start),
                      lr=0.1, momentum=0.9, weight_decay=1e-4)
    variates = {}
    if optimizer == "scaffold":
        rng = stream(cap, "variates")
        variates = dict(c_global=rng.normal(scale=0.01, size=P),
                        c_locals=rng.normal(scale=0.01, size=(len(sizes), P)))
    with mock.patch.object(local, "COHORT_BYTES", cap * 8 * P):
        groups = cohorts(shards, P, 11, 2)
    with mock.patch.object(local, "COHORT_BYTES", 1):
        singles = cohorts(shards, P, 11, 2)
    assert max(len(c) for c in groups) <= cap and len(singles) == len(shards)
    assert sorted(row for c in groups for row in row_ids(c)) == list(range(len(sizes)))
    assert all(len({sizes[row] for row in row_ids(c)}) == 1 for c in groups)
    together = train_rows(groups, ds, theta, cfg, **variates)
    alone = train_rows(singles, ds, theta, cfg, **variates)
    assert np.array_equal(together[0], alone[0])
    if optimizer == "scaffold":
        assert all(np.array_equal(a, b) for a, b in zip(together[1], alone[1]))
    assert together[2] == alone[2]


@pytest.mark.parametrize("trainer", ["at", "trades"])
def test_a_cohort_trains_twice_to_the_same_bits(trainer):
    # a cohort is a plain value: its streams are derived anew by each call,
    # so a second training with random starts replays the first bit for bit
    ds = toy_dataset(24)
    theta = nn.Model.init([3, 4, 2], stream(0, "init"))
    P = theta.params.values.size
    cfg = LocalConfig(epochs=2, batch_size=5, trainer=trainer,
                      attack=AttackSpec(0.05, 0.01, steps=2, random_start=True))
    (cohort,) = cohorts(shards_of([12, 12], first_id=4), P, 5, 3)
    first, second = np.empty((2, P)), np.empty((2, P))
    first_losses = train_client(cohort, ds, theta, cfg, out=first)
    second_losses = train_client(cohort, ds, theta, cfg, out=second)
    assert np.array_equal(first, second) and first_losses == second_losses


def test_a_run_trains_non_adjacent_cohorts_like_cohorts_of_one(monkeypatch):
    # the runner trains each cohort in a strided view of its rows of the
    # upload and variate matrices: rows 0, 2, 4 (size 8), 1, 5 (size 12) and
    # 3, 6 (size 16); row 7 (size 12) would break 1, 5's spacing
    cfg = ExperimentConfig(
        dataset=DatasetSpec(n_per_class=30, num_classes=4, dim=3),
        partition=PartitionSpec(8, mode="iid", sample_counts=[8, 12, 8, 16, 8, 12, 16, 12]),
        hidden_dims=[6], optimizer="scaffold", rounds=2, eval_every=0, seed=1,
        local=LocalConfig(epochs=2, batch_size=8, lr=0.1,
                          attack=AttackSpec(0.05, 0.0125, steps=2, random_start=True)))
    trained, views = [], []
    original = runner.train_client

    def spy(cohort, *a, **kw):
        trained.append((cohort.round_idx, row_ids(cohort)))
        views.append(not kw["out"].flags.owndata and not kw["c_local"].flags.owndata)
        return original(cohort, *a, **kw)

    monkeypatch.setattr(runner, "train_client", spy)
    together = runner.run(cfg)
    # a round's cohorts may train on several threads, so compare each round's set
    assert len(trained) == 8
    assert ({t: {rows for r, rows in trained if r == t} for t in (1, 2)}
            == {t: {(0, 2, 4), (1, 5), (3, 6), (7,)} for t in (1, 2)})
    assert all(views)
    monkeypatch.setattr(local, "COHORT_BYTES", 1)
    alone = runner.run(cfg)
    assert np.array_equal(together.model.params.values, alone.model.params.values)
    # equal reports, but for their wall-clock times
    assert ([replace(r, wall_clock=0.0) for r in together.reports]
            == [replace(r, wall_clock=0.0) for r in alone.reports])


def test_a_cohort_builds_one_param_vector_and_one_backprop_per_batch(monkeypatch):
    ds = toy_dataset(36)
    theta = nn.Model.init([3, 4, 2], stream(0, "init"))
    cfg = LocalConfig(epochs=2, batch_size=5, attack=AttackSpec(0.05, 0.01, steps=3,
                                                                 random_start=True))
    (cohort,) = cohorts(shards_of([12, 12, 12]), theta.params.values.size, 1, 1)
    made, rows = [], []
    original_init, original_backprop = nn.ParamVector.__post_init__, nn.backprop
    monkeypatch.setattr(nn.ParamVector, "__post_init__",
                        lambda self: made.append(1) or original_init(self))
    monkeypatch.setattr(nn, "backprop",
                        lambda *a: rows.append(a[2].shape[:-1]) or original_backprop(*a))
    train_client(cohort, ds, theta, cfg, out=np.empty((3, theta.params.values.size)))
    assert len(made) == 1
    assert rows == [(3, 5), (3, 5), (3, 2)] * 2


@pytest.mark.parametrize("trainer, random_start, epsilon, beta, draws", [
    ("at", True, 0.05, 6.0, True), ("at", False, 0.05, 6.0, False),
    ("at", True, 0.0, 6.0, False), ("trades", True, 0.05, 6.0, True),
    ("trades", False, 0.05, 6.0, False), ("trades", True, 0.05, 0.0, False),
    ("standard", True, 0.05, 6.0, False)])
def test_attack_streams_are_derived_only_when_an_attack_reads_them(
        monkeypatch, trainer, random_start, epsilon, beta, draws):
    calls = []
    monkeypatch.setattr(local, "stream", lambda *key: calls.append(key) or stream(*key))
    ds = toy_dataset(24)
    theta = nn.Model.init([3, 4, 2], stream(0, "init"))
    cfg = LocalConfig(epochs=2, batch_size=5, trainer=trainer, trades_beta=beta,
                      attack=AttackSpec(epsilon, 0.01, steps=2, random_start=random_start))
    (cohort,) = cohorts(shards_of([12, 12]), theta.params.values.size, 1, 1)
    train_client(cohort, ds, theta, cfg, out=np.empty((2, theta.params.values.size)))
    # one stream per client and purpose for the round, over its 2 epochs of 3 batches
    assert [key[1] for key in calls] == ["batch-order"] * 2 + ["attack"] * (2 if draws else 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("trainer, what", [("at", "attack gradient"), ("standard", "loss")])
@pytest.mark.parametrize("sizes, client", [([10, 10], 8), ([10], 7)])
def test_divergence_names_the_round_client_epoch_and_batch(trainer, what, sizes, client):
    # only the last client's variate is huge: its first step blows up its
    # parameters, so its second batch diverges while any other client's does not
    ds = toy_dataset(20)
    theta = nn.Model.init([3, 4, 2], stream(0, "init"))
    P = theta.params.values.size
    m = len(sizes)
    c_local = np.zeros((m, P))
    c_local[-1] = 1e300
    cfg = LocalConfig(epochs=1, batch_size=5, trainer=trainer, lr=1.0,
                      attack=AttackSpec(0.05, 0.01, steps=2, random_start=True))
    message = f"round 4, client {client}, epoch 0, batch 1: non-finite {what}"
    (cohort,) = cohorts(shards_of(sizes, first_id=7), P, 1, 4)
    with pytest.raises(DivergenceError, match=re.escape(message)):
        train_client(cohort, ds, theta, cfg, out=np.empty((m, P)), c_global=np.zeros(P),
                     c_local=c_local)


def test_non_finite_parameters_name_the_last_epoch_and_batch(monkeypatch):
    # the last SGD step (epoch 1, batch 0) leaves the second client an inf
    original, steps = nn.sgd_step, []

    def poisoned(model, grads, *buffers_and_rates):
        original(model, grads, *buffers_and_rates)
        steps.append(1)
        if len(steps) == 2:
            model.params.values[1, 0] = np.inf

    monkeypatch.setattr(nn, "sgd_step", poisoned)
    ds = toy_dataset(20)
    theta = nn.Model.init([3, 4, 2], stream(0, "init"))
    cfg = LocalConfig(epochs=2, batch_size=10, trainer="standard")
    (cohort,) = cohorts(shards_of([10, 10], first_id=5), theta.params.values.size, 1, 2)
    with pytest.raises(DivergenceError,
                       match="round 2, client 6, epoch 1, batch 0: non-finite parameters"):
        train_client(cohort, ds, theta, cfg, out=np.empty((2, theta.params.values.size)))
