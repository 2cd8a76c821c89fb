"""Stream derivation: the batched form equals the scalar form bit for bit."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedslack.streams import stream

PURPOSES = ["attack", "batch-order", "participation", "", "ünïcode"]
# one-word, two-word (>= 2**32) and three-word (>= 2**64) coordinates
coordinate = st.one_of(st.integers(0, 2**32 - 1), st.integers(2**32, 2**64 - 1),
                       st.integers(2**64, 2**80))


def state(rng: np.random.Generator) -> dict:
    return rng.bit_generator.state


@settings(derandomize=True, max_examples=60, deadline=None)
@given(seed=coordinate, round_idx=coordinate,
       purposes=st.lists(st.sampled_from(PURPOSES), min_size=1, max_size=3),
       clients=st.lists(coordinate, min_size=1, max_size=3),
       batches=st.lists(coordinate, min_size=1, max_size=3))
@example(seed=3, round_idx=7, purposes=["attack"], clients=[0, 1], batches=[0, 100001])
def test_batched_streams_equal_scalar_streams(seed, round_idx, purposes, clients, batches):
    # purposes (P, 1, 1), clients (C, 1) and batches (B,) broadcast to (P, C, B)
    p = np.array(purposes)[:, None, None]
    c = np.array(clients, dtype=object if max(clients) >= 2**63 else np.int64)[:, None]
    b = np.array(batches, dtype=object if max(batches) >= 2**63 else np.int64)
    rngs = stream(seed, p, round_idx, c, b)
    keys = [(seed, pu, round_idx, cl, ba) for pu in purposes for cl in clients for ba in batches]
    assert len(rngs) == len(keys)
    for rng, key in zip(rngs, keys):
        scalar = stream(*key)
        assert state(rng) == state(scalar)
        assert np.array_equal(rng.integers(0, 2**63, size=4), scalar.integers(0, 2**63, size=4))


def test_a_scalar_purpose_broadcasts_over_client_and_batch_arrays():
    rngs = stream(5, "attack", 2, np.array([[4], [9]]), np.array([0, 1, 2]))
    keys = [(c, b) for c in (4, 9) for b in (0, 1, 2)]
    assert [state(r) for r in rngs] == [state(stream(5, "attack", 2, c, b)) for c, b in keys]


@pytest.mark.parametrize("coordinates", [
    dict(master_seed=-1), dict(round_idx=-2), dict(client_id=-3), dict(batch_idx=-4)])
def test_a_negative_coordinate_raises_on_both_paths(coordinates):
    key = {"master_seed": 1, "purpose": "attack", "round_idx": 1, "client_id": 0,
           "batch_idx": 0, **coordinates}
    with pytest.raises(ValueError, match="non-negative"):
        stream(**key)
    batched = {**key, "client_id": np.array([key["client_id"], 0])}
    with pytest.raises(ValueError, match="non-negative"):
        stream(**batched)
