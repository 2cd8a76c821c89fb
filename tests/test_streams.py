"""Stream derivation: the key layout every run's bits rest on."""

from __future__ import annotations

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedslack import nn
from fedslack.data import ClientShard, Dataset
from fedslack.local import LocalConfig, cohorts, train_client
from fedslack.streams import stream

PURPOSES = ["attack", "batch-order", "participation", "", "ünïcode"]
# one-word, two-word (>= 2**32) and three-word (>= 2**64) coordinates
coordinate = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                       st.integers(2**64, 2**80))


def state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


@pytest.mark.parametrize("coordinates", [
    dict(master_seed=-1), dict(round_idx=-2), dict(client_id=-3)])
def test_a_negative_coordinate_raises_on_both_paths(coordinates):
    # directly, and through the per-client streams training a cohort derives
    key = {"master_seed": 1, "round_idx": 1, "client_id": 0, **coordinates}
    with pytest.raises(ValueError, match="non-negative"):
        stream(purpose="attack", **key)
    shard = ClientShard(key["client_id"], np.arange(4))
    ds = Dataset(np.full((4, 2), 0.5), np.array([0, 1, 0, 1]), 2)
    theta = nn.Model.init([2, 2], stream(0, "init"))
    (cohort,) = cohorts([shard], theta.params.values.size, key["master_seed"], key["round_idx"])
    with pytest.raises(ValueError, match="non-negative"):
        train_client(cohort, ds, theta, LocalConfig(), out=np.empty((1, theta.params.values.size)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=coordinate, purpose=st.sampled_from(PURPOSES), round_idx=coordinate,
       client=coordinate)
def test_a_stream_is_the_pcg64_of_its_seed_sequence_key(seed, purpose, round_idx, client):
    # the key layout every run's bits rest on: moving it moves every golden
    key = [seed, zlib.crc32(purpose.encode("utf-8")), round_idx, client, 0]
    expected = np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
    assert state(stream(seed, purpose, round_idx, client)) == state(expected)
