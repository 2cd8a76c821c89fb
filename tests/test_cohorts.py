"""Cohort training: which clients train together, and that training them
together changes nothing but the number of numpy calls."""

from __future__ import annotations

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedslack import local, nn
from fedslack.attacks import AttackSpec
from fedslack.data import ClientShard, Dataset
from fedslack.errors import DivergenceError
from fedslack.local import Cohort, LocalConfig, cohorts, train_client
from fedslack.streams import stream


def shards_of(sizes, first_id=0):
    """Consecutive shards of the given sizes over one dataset, ids from first_id."""
    bounds = np.cumsum([0] + list(sizes))
    return [ClientShard(first_id + k, np.arange(lo, hi))
            for k, (lo, hi) in enumerate(zip(bounds, bounds[1:]))]


def toy_dataset(n, seed=0):
    rng = stream(seed, "cohort-data")
    X = rng.uniform(size=(n, 3))
    return Dataset(X, (X[:, 0] + X[:, 1] > 1.0).astype(int), 2)


def test_cohorts_are_runs_of_equal_sizes_up_to_the_cap(monkeypatch):
    shards = shards_of([4, 4, 4, 5, 5, 4, 4])
    groups = cohorts(shards, n_params=10)
    assert [c.client_ids for c in groups] == [(0, 1, 2), (3, 4), (5, 6)]
    assert [c.n_samples for c in groups] == [12, 10, 8]
    assert np.array_equal(groups[1].indices, np.stack([shards[3].indices, shards[4].indices]))
    monkeypatch.setattr(local, "COHORT_BYTES", 2 * 8 * 10 + 7)    # room for two clients
    assert [c.client_ids for c in cohorts(shards, 10)] == [(0, 1), (2,), (3, 4), (5, 6)]
    monkeypatch.setattr(local, "COHORT_BYTES", 1)                 # room for none: one each
    assert [c.client_ids for c in cohorts(shards, 10)] == [(k,) for k in range(7)]


@pytest.mark.parametrize("n_params, sizes", [(229, [3]), (50_826, [2, 1]), (203_530, [1, 1, 1])])
def test_cohort_cap_at_the_benchmark_model_sizes(n_params, sizes):
    # 8-16-5 (desk) stacks, 64-256-128-10 (fleet) pairs, 784-256-10 (wide) trains alone
    assert [len(c) for c in cohorts(shards_of([6, 6, 6]), n_params)] == sizes


def train_rows(groups, ds, theta, cfg, c_global=None, c_locals=None):
    """Train the cohorts in consecutive rows: (uploads, deltas, losses)."""
    m = sum(len(c) for c in groups)
    uploads = np.full((m, theta.values.size), np.nan)
    deltas = np.full_like(uploads, np.nan)
    losses, a = [], 0
    for c in groups:
        b = a + len(c)
        kwargs = {} if c_locals is None else dict(
            c_global=c_global, c_local=c_locals[a:b], delta_out=deltas[a:b])
        losses += train_client(c, ds, theta, cfg, 11, 2, out=uploads[a:b], **kwargs)
        a = b
    return uploads, deltas, losses


@settings(derandomize=True, max_examples=40, deadline=None)
@given(trainer=st.sampled_from(["at", "trades", "standard"]),
       optimizer=st.sampled_from(["fedavg", "fedprox", "scaffold"]),
       hidden=st.lists(st.integers(2, 6), min_size=1, max_size=2),
       epochs=st.integers(1, 2),
       sizes=st.lists(st.sampled_from([5, 7, 12]), min_size=2, max_size=6),
       cap=st.integers(1, 4),
       random_start=st.booleans())
@example(trainer="at", optimizer="scaffold", hidden=[4], epochs=2, sizes=[7, 7, 7, 7],
         cap=3, random_start=True)
def test_cohorts_train_bit_for_bit_like_cohorts_of_one(trainer, optimizer, hidden, epochs,
                                                       sizes, cap, random_start):
    # batches of 5: shards of 7 and 12 end on a short batch
    ds = toy_dataset(sum(sizes), seed=len(sizes))
    shards = shards_of(sizes, first_id=3)
    theta = nn.Model.init([3] + hidden + [2], stream(cap, "init")).to_vector()
    P = theta.values.size
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
        groups = cohorts(shards, P)
    assert max(len(c) for c in groups) <= cap
    together = train_rows(groups, ds, theta, cfg, **variates)
    alone = train_rows([Cohort.of([s]) for s in shards], ds, theta, cfg, **variates)
    assert np.array_equal(together[0], alone[0])
    if optimizer == "scaffold":
        assert np.array_equal(together[1], alone[1])
    assert together[2] == alone[2]


def test_a_cohort_builds_one_param_vector_and_one_backprop_per_batch(monkeypatch):
    ds = toy_dataset(36)
    cohort = Cohort.of(shards_of([12, 12, 12]))
    theta = nn.Model.init([3, 4, 2], stream(0, "init")).to_vector()
    made, rows = [], []
    original_init, original_backprop = nn.ParamVector.__post_init__, nn.backprop
    monkeypatch.setattr(nn.ParamVector, "__post_init__",
                        lambda self: made.append(1) or original_init(self))
    monkeypatch.setattr(nn, "backprop",
                        lambda *a: rows.append(a[2].shape[:-1]) or original_backprop(*a))
    cfg = LocalConfig(epochs=2, batch_size=5, attack=AttackSpec(0.05, 0.01, steps=3,
                                                                 random_start=True))
    train_client(cohort, ds, theta, cfg, 1, 1, out=np.empty((3, theta.values.size)))
    assert len(made) == 1
    assert rows == [(3, 5), (3, 5), (3, 2)] * 2


@pytest.mark.parametrize("trainer, random_start, epsilon, beta, draws", [
    ("at", True, 0.05, 6.0, True), ("at", False, 0.05, 6.0, False),
    ("at", True, 0.0, 6.0, False), ("trades", True, 0.05, 6.0, True),
    ("trades", False, 0.05, 6.0, False), ("trades", True, 0.05, 0.0, False),
    ("standard", True, 0.05, 6.0, False)])
def test_attack_streams_are_derived_only_when_an_attack_reads_them(
        monkeypatch, trainer, random_start, epsilon, beta, draws):
    purposes = []
    monkeypatch.setattr(local, "stream", lambda *key: purposes.append(key[1]) or stream(*key))
    ds = toy_dataset(24)
    theta = nn.Model.init([3, 4, 2], stream(0, "init")).to_vector()
    cfg = LocalConfig(epochs=2, batch_size=5, trainer=trainer, trades_beta=beta,
                      attack=AttackSpec(epsilon, 0.01, steps=2, random_start=random_start))
    train_client(Cohort.of(shards_of([12, 12])), ds, theta, cfg, 1, 1,
                 out=np.empty((2, theta.values.size)))
    # 2 clients x 2 epochs; 3 batches of a 12-sample shard in each
    assert purposes.count("batch-order") == 4
    assert purposes.count("attack") == (12 if draws else 0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("trainer, what", [("at", "attack gradient"), ("standard", "loss")])
@pytest.mark.parametrize("sizes, client", [([10, 10], 8), ([10], 7)])
def test_divergence_names_the_round_client_epoch_and_batch(trainer, what, sizes, client):
    # only the last client's variate is huge: its first step blows up its
    # parameters, so its second batch diverges while any other client's does not
    ds = toy_dataset(20)
    theta = nn.Model.init([3, 4, 2], stream(0, "init")).to_vector()
    P = theta.values.size
    m = len(sizes)
    c_local = np.zeros((m, P))
    c_local[-1] = 1e300
    cfg = LocalConfig(epochs=1, batch_size=5, trainer=trainer, lr=1.0,
                      attack=AttackSpec(0.05, 0.01, steps=2, random_start=True))
    message = f"round 4, client {client}, epoch 0, batch 1: non-finite {what}"
    with pytest.raises(DivergenceError, match=re.escape(message)):
        train_client(Cohort.of(shards_of(sizes, first_id=7)), ds, theta, cfg, 1, 4,
                     out=np.empty((m, P)), c_global=np.zeros(P), c_local=c_local,
                     delta_out=np.empty((m, P)))


def test_non_finite_parameters_name_the_last_epoch_and_batch(monkeypatch):
    # the last SGD step (epoch 1, batch 0) leaves the second client an inf
    original, steps = nn.sgd_step, []

    def poisoned(model, grads, state):
        original(model, grads, state)
        steps.append(1)
        if len(steps) == 2:
            model.params.values[1, 0] = np.inf

    monkeypatch.setattr(nn, "sgd_step", poisoned)
    ds = toy_dataset(20)
    theta = nn.Model.init([3, 4, 2], stream(0, "init")).to_vector()
    cfg = LocalConfig(epochs=2, batch_size=10, trainer="standard")
    with pytest.raises(DivergenceError,
                       match="round 2, client 6, epoch 1, batch 0: non-finite parameters"):
        train_client(Cohort.of(shards_of([10, 10], first_id=5)), ds, theta, cfg, 1, 2,
                     out=np.empty((2, theta.values.size)))
