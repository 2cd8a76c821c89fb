"""Property tests of the server step's weighting and of the partitioners, over
random rounds and datasets (hypothesis, derandomized)."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedslack.aggregation import AggregationMode, AggregationPolicy
from fedslack.data import Dataset, PartitionMode, PartitionSpec, partition, partition_unequal
from oracles import RoundArrays, server_weights

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)
LAYOUT = (("dense0.W", (1, 1)),)


def round_of(ids, n_k, losses) -> RoundArrays:
    """A round of the given clients; the weighting reads no upload."""
    return RoundArrays(np.zeros((len(ids), 1)), losses, n_k, LAYOUT, list(ids))


@st.composite
def rounds(draw):
    """One round's server-step inputs (client ids, n_k, losses), a policy and alpha."""
    m = draw(st.integers(2, 12))
    ids = draw(st.lists(st.integers(0, 99), min_size=m, max_size=m, unique=True))
    n_k = draw(st.lists(st.integers(1, 100), min_size=m, max_size=m))
    # a few repeated values, so that weighted losses tie and the tie-break by id counts
    loss = st.one_of(st.sampled_from([0.0, 0.25, 1.0]), st.floats(0.0, 5.0))
    losses = draw(st.lists(loss, min_size=m, max_size=m))
    mode = draw(st.sampled_from(AggregationMode))
    alpha = draw(st.floats(0.0, 0.95))
    k_hat = draw(st.integers(0, m // 2))
    return round_of(ids, n_k, losses), AggregationPolicy(mode, alpha, k_hat), alpha


@PROPERTY
@given(rounds())
def test_weights_lie_on_the_simplex(r):
    ups, policy, alpha = r
    weights, is_top = server_weights(*r)
    assert weights.shape == is_top.shape == (len(ups.n_k),) and is_top.dtype == bool
    assert np.all(weights > 0.0) and abs(weights.sum() - 1.0) <= 1e-12
    upweighted = policy.mode is not AggregationMode.FAT and alpha > 0.0
    assert is_top.sum() == (policy.k_hat if upweighted else 0)


@PROPERTY
@given(rounds())
def test_top_over_rest_per_sample_ratio_is_one_plus_alpha_over_one_minus_alpha(r):
    ups, policy, alpha = r
    weights, is_top = server_weights(*r)
    per_sample = weights / ups.n_k
    ratio = np.divide.outer(per_sample[is_top], per_sample[~is_top])
    np.testing.assert_allclose(ratio, (1 + alpha) / (1 - alpha), rtol=1e-12)


@st.composite
def permuted_rounds(draw):
    r = draw(rounds())
    return r, draw(st.permutations(range(len(r[0].n_k))))


# three rows tie at loss 0 and the top set takes one of them: the lowest id, whatever its row
TIED = (round_of([7, 3, 5, 1], [10] * 4, [0.0, 0.0, 0.0, 1.0]),
        AggregationPolicy(AggregationMode.SFAT, 0.2, 1), 0.2)


@PROPERTY
@given(permuted_rounds())
@example((TIED, [3, 2, 1, 0]))
def test_permuting_rows_with_their_ids_permutes_weights_and_top_mask(r_perm):
    (ups, policy, alpha), perm = r_perm
    weights, is_top = server_weights(ups, policy, alpha)
    weights_p, is_top_p = server_weights(ups.rows(perm), policy, alpha)
    np.testing.assert_allclose(weights_p, weights[perm], rtol=1e-12)
    assert np.array_equal(is_top_p, is_top[perm])


@st.composite
def datasets(draw):
    """A class-balanced dataset, its client count K (at most its class count),
    a partition mode and a skew that leaves every owner its majority."""
    k = draw(st.integers(2, 5))
    classes = draw(st.integers(k, k + 3))
    per_class = draw(st.integers(10, 30))
    n = classes * per_class
    ds = Dataset(np.zeros((n, 1)), np.arange(n) % classes, classes)
    mode = draw(st.sampled_from(PartitionMode))
    skew = draw(st.floats(0.0, 0.99)) * 50.0 / k
    return ds, k, mode, skew, per_class


@PROPERTY
@given(datasets(), st.integers(0, 1000))
def test_equal_split_partitions_are_disjoint_and_cover_the_dataset(d, seed):
    ds, k, mode, skew, _ = d
    shards = partition(ds, PartitionSpec(k, mode, skew, seed=seed))
    assert [s.client_id for s in shards] == list(range(k))
    assert np.array_equal(np.sort(np.concatenate([s.indices for s in shards])),
                          np.arange(len(ds)))


@PROPERTY
@given(datasets(), st.data())
def test_sample_count_partitions_are_disjoint_with_exactly_the_requested_sizes(d, data):
    # sum(counts) + K <= the per-class pool, so no client can exhaust a pool
    ds, k, mode, skew, per_class = d
    counts = data.draw(st.lists(st.integers(1, (per_class - k) // k), min_size=k, max_size=k))
    seed = data.draw(st.integers(0, 1000))
    shards = partition_unequal(ds, PartitionSpec(k, mode, skew, sample_counts=counts,
                                                 seed=seed))
    assert [s.n_samples for s in shards] == counts
    taken = np.concatenate([s.indices for s in shards])
    assert len(np.unique(taken)) == len(taken) == sum(counts)
