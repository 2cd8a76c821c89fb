from __future__ import annotations

import hashlib
import struct

import numpy as np
import pytest

from fedslack import data
from fedslack.errors import FormatError, PartitionError
from fedslack.streams import stream
from oracles import class_groups


def write_idx_pair(tmp_path, images, labels):
    # independent encoder: big-endian headers written by hand
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    with open(img_path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, n, rows, cols))
        f.write(bytes(images.astype(np.uint8).ravel().tolist()))
    with open(lbl_path, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, n))
        f.write(bytes(int(v) for v in labels))
    return img_path, lbl_path


def test_synthetic_counts_balanced():
    ds = data.make_synthetic(10, 2, 2, 0.5, seed=0)
    assert len(ds) == 20
    assert np.sum(ds.labels == 0) == 10
    assert np.sum(ds.labels == 1) == 10
    assert ds.features.min() >= 0.0 and ds.features.max() <= 1.0


def test_synthetic_zero_separation_means_coincide():
    ds = data.make_synthetic(400, 2, 3, 0.0, seed=2, spread=0.05)
    m0 = ds.features[ds.labels == 0].mean(axis=0)
    m1 = ds.features[ds.labels == 1].mean(axis=0)
    assert np.all(np.abs(m0 - m1) < 3 * 0.05 / np.sqrt(400) * 2)


def test_synthetic_deterministic():
    a = data.make_synthetic(50, 3, 4, 0.7, seed=1)
    b = data.make_synthetic(50, 3, 4, 0.7, seed=1)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_idx_zero_image(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    ds = data.load_idx(img, lbl)
    assert np.array_equal(ds.features, np.zeros((1, 4)))


def test_idx_scaling_endpoint(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.full((1, 1, 1), 255, dtype=np.uint8), [1])
    ds = data.load_idx(img, lbl)
    assert ds.features[0, 0] == 1.0


def test_idx_three_image_fixture(tmp_path):
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(3, 4, 4)).astype(np.uint8)
    labels = [2, 0, 1]
    img, lbl = write_idx_pair(tmp_path, images, labels)
    ds = data.load_idx(img, lbl)
    assert len(ds) == 3
    np.testing.assert_array_equal(ds.labels, labels)
    np.testing.assert_allclose(ds.features,
                               images.reshape(3, 16).astype(np.float64) / 255.0)


def test_idx_bad_magic(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), dtype=np.uint8), [0])
    raw = bytearray(img.read_bytes())
    raw[3] = 0x99
    img.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        data.load_idx(img, lbl)


def test_idx_count_mismatch(tmp_path):
    img, _ = write_idx_pair(tmp_path, np.zeros((2, 2, 2), dtype=np.uint8), [0, 0])
    lbl = tmp_path / "short_labels.idx"
    with open(lbl, "wb") as f:
        f.write(struct.pack(">II", 0x00000801, 1))
        f.write(bytes([0]))
    with pytest.raises(FormatError):
        data.load_idx(img, lbl)


def test_csv_roundtrip(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("label,f0,f1\n0,0.25,0.5\n1,1.0,0.0\n")
    ds = data.load_csv(path)
    assert ds.num_classes == 2
    np.testing.assert_allclose(ds.features, [[0.25, 0.5], [1.0, 0.0]])


@pytest.mark.parametrize("body, message", [
    (b"label,f0\n0,0.5\xff\n", "is not UTF-8 text"),
    (b"label,f0\n0,1.5\n", "features must be finite and lie in [0, 1]"),
    (b"label\n0\n1\n", "csv has no feature columns after `label`")],
    ids=["not_utf8", "out_of_range", "no_features"])
def test_a_malformed_csv_is_a_format_error_naming_it(tmp_path, body, message):
    # a byte that is not UTF-8 used to raise UnicodeDecodeError, a feature out
    # of range named no file, and a csv of labels alone loaded as (n, 0)
    path = tmp_path / "data.csv"
    path.write_bytes(body)
    with pytest.raises(FormatError) as info:
        data.load_csv(path)
    assert str(info.value).startswith(str(path)) and message in str(info.value)


def make_uniform_dataset(samples_per_class, num_classes, seed=0):
    labels = np.repeat(np.arange(num_classes), samples_per_class)
    feats = np.random.default_rng(seed).uniform(size=(len(labels), 2))
    return data.Dataset(feats, labels, num_classes)


def test_partition_skew_two_percent_case():
    # K=5, s=2, 10 classes, 1000/class: majority keeps 920 per owned class,
    # every other client gets 20
    ds = make_uniform_dataset(1000, 10)
    spec = data.PartitionSpec(5, mode=data.PartitionMode.NONIID, skew=2.0, seed=3)
    shards = data.partition(ds, spec)
    table = data.class_counts(ds, shards)
    groups = class_groups(10, 5)
    for k in range(5):
        for c in range(10):
            expected = 920 if c in groups[k] else 20
            assert abs(table[k, c] - expected) <= 1
    all_idx = np.concatenate([s.indices for s in shards])
    assert len(all_idx) == len(ds)
    assert len(np.unique(all_idx)) == len(ds)


def test_partition_iid_proportions():
    ds = make_uniform_dataset(8000, 4)
    spec = data.PartitionSpec(4, mode=data.PartitionMode.IID, seed=1)
    shards = data.partition(ds, spec)
    sizes = [s.n_samples for s in shards]
    assert max(sizes) - min(sizes) <= 1
    table = data.class_counts(ds, shards)
    for k in range(4):
        props = table[k] / table[k].sum()
        assert np.all(np.abs(props - 0.25) < 0.02)


def test_partition_full_skew():
    ds = make_uniform_dataset(100, 2)
    spec = data.PartitionSpec(2, skew=0.0, seed=0)
    shards = data.partition(ds, spec)
    table = data.class_counts(ds, shards)
    assert table[0, 0] == 100 and table[0, 1] == 0
    assert table[1, 1] == 100 and table[1, 0] == 0


def test_partition_invalid_skew():
    with pytest.raises(PartitionError):
        data.PartitionSpec(5, skew=30.0)  # majority 100-4*30 < 0


def test_partition_deterministic():
    ds = make_uniform_dataset(200, 4)
    spec = data.PartitionSpec(4, skew=5.0, seed=7)
    a = data.partition(ds, spec)
    b = data.partition(ds, spec)
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.indices, sb.indices)


def test_partition_unequal_exact_counts():
    ds = make_uniform_dataset(200, 5)
    counts = [60, 80, 100, 110, 130]
    spec = data.PartitionSpec(5, skew=5.0, sample_counts=counts, seed=2)
    shards = data.partition_unequal(ds, spec)
    assert [s.n_samples for s in shards] == counts
    all_idx = np.concatenate([s.indices for s in shards])
    assert len(np.unique(all_idx)) == len(all_idx)


def test_partition_unequal_two_clients_minimal():
    ds = make_uniform_dataset(1, 2)
    spec = data.PartitionSpec(2, skew=10.0, sample_counts=[1, 1], seed=0)
    shards = data.partition_unequal(ds, spec)
    assert shards[0].n_samples == 1 and shards[1].n_samples == 1
    assert shards[0].indices[0] != shards[1].indices[0]


def test_partition_unequal_infeasible():
    ds = make_uniform_dataset(10, 2)
    spec = data.PartitionSpec(2, skew=5.0, sample_counts=[15, 15], seed=0)
    with pytest.raises(PartitionError):
        data.partition_unequal(ds, spec)


def test_partition_unequal_preserves_bias():
    ds = make_uniform_dataset(500, 4)
    counts = [300, 300, 300, 300]
    spec = data.PartitionSpec(4, skew=5.0, sample_counts=counts, seed=4)
    shards = data.partition_unequal(ds, spec)
    table = data.class_counts(ds, shards)
    for k in range(4):
        # owned class dominates the shard
        assert table[k, k] > table[k].sum() * 0.5


@pytest.mark.parametrize("feature, label", [(1.5, 0), (-0.01, 0), (np.nan, 0),
                                            (np.inf, 0), (0.5, -1), (0.5, 2)])
def test_dataset_rejects_out_of_range_features_and_labels(feature, label):
    with pytest.raises(FormatError):
        data.Dataset([[0.2, 0.3], [feature, 0.4]], [1, label], 2)


def test_synthetic_points_equal_per_class_reference_draws():
    # reference: one noise draw per class, in class order, clipped per class
    ds = data.make_synthetic(7, 3, 4, 0.6, seed=5, noise_seed=9)
    rng_means, rng = stream(5, "synthetic-means"), stream(9, "synthetic-points")
    dirs = rng_means.normal(size=(3, 4))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = 0.5 + 0.5 * 0.6 * dirs
    ref = [np.clip(means[c] + 0.08 * rng.normal(size=(7, 4)), 0.0, 1.0) for c in range(3)]
    assert np.array_equal(ds.features, np.concatenate(ref))
    assert np.array_equal(ds.labels, np.repeat(np.arange(3), 7))


# Seven classes of unequal size, labels in shuffled order.
CLASS_SIZES = [37, 52, 41, 60, 29, 45, 33]
UNEVEN_LABELS = np.random.default_rng(11).permutation(
    np.repeat(np.arange(len(CLASS_SIZES)), CLASS_SIZES))


def shard_digest(shards) -> str:
    h = hashlib.sha256()
    for shard in shards:
        h.update(np.int64(shard.client_id).tobytes())
        h.update(np.int64(shard.n_samples).tobytes())
        h.update(shard.indices.astype("<i8").tobytes())
    return h.hexdigest()


# Digests recorded from the partitioners as first written: a rewrite must
# give the same shards, index for index.
@pytest.mark.parametrize("split, spec, expected", [
    pytest.param(data.partition, dict(num_clients=3, mode="iid", seed=4),
                 "1af9558d52877b2ba06953110e71dad22b0df5c88cbe24aa75b5ded627bba0c2",
                 id="equal-iid"),
    pytest.param(data.partition, dict(num_clients=3, skew=10.0, seed=4),
                 "bb480e9c455e60e9caa96fddbc094a5be3cc4428e40eddcc3cea48ef0cc6e175",
                 id="equal-noniid"),
    pytest.param(data.partition, dict(num_clients=9, skew=4.0, seed=1),
                 "88e8bab9bfea1319040d210f37d6c3c608b1148a9bc4d2437b1034ca8ec95638",
                 id="equal-noniid-more-clients-than-classes"),
    pytest.param(data.partition_unequal,
                 dict(num_clients=3, mode="iid", seed=4, sample_counts=[40, 95, 61]),
                 "21b7709996d5afd1956a011e3a57d42170206e29752a2f4e4ac04cae37cf31b3",
                 id="unequal-iid"),
    pytest.param(data.partition_unequal,
                 dict(num_clients=3, skew=10.0, seed=4, sample_counts=[40, 95, 61]),
                 "93669d34eb2d0b2aa40b94e6f416293c85d3776fc84dd1c84231909429f9eae6",
                 id="unequal-noniid"),
    pytest.param(data.partition_unequal,
                 dict(num_clients=9, skew=4.0, seed=1,
                      sample_counts=[12, 30, 7, 25, 18, 40, 9, 22, 31]),
                 "7f95ba944b6a6f9676b7e2046f29a1f7f91f00d96702e7f42ebcf4430c97b0c4",
                 id="unequal-noniid-more-clients-than-classes"),
])
def test_partitioners_give_their_recorded_shards(split, spec, expected):
    ds = data.Dataset(np.full((len(UNEVEN_LABELS), 1), 0.5), UNEVEN_LABELS,
                      len(CLASS_SIZES))
    assert shard_digest(split(ds, data.PartitionSpec(**spec))) == expected
