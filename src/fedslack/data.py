"""Datasets, synthetic generators, IDX/CSV loaders, and the skew-based
IID / Non-IID client partitioner with equal or unequal splits.
"""

from __future__ import annotations

import csv
import os
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterator, TextIO

import numpy as np

from .errors import (AT_LEAST_2, NON_NEGATIVE, ConfigError, FormatError, PartitionError,
                     check_bounds)
from .streams import stream

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801


@dataclass
class Dataset:
    """Finite feature vectors in [0,1] with integer class labels in [0, C)."""

    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int
    num_classes: int

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.intp)
        if len(self.features) != len(self.labels):
            raise FormatError("features and labels length mismatch")
        if self.features.size and not (self.features.min() >= 0.0
                                       and self.features.max() <= 1.0):
            raise FormatError("features must be finite and lie in [0, 1]")
        if len(self.labels) and not 0 <= self.labels.min() <= self.labels.max() < self.num_classes:
            raise FormatError(f"labels must lie in [0, {self.num_classes})")

    def __len__(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


class PartitionMode(Enum):
    IID = "iid"
    NONIID = "noniid"


class Placement(Enum):
    RANDOM = "random"
    ORTHOGONAL = "orthogonal"


@dataclass
class PartitionSpec:
    """How to split a dataset across K clients.

    In NONIID mode client c mod K owns class c and keeps (100 - (K-1)*s)%
    of it; every other client gets s%.
    """

    num_clients: int = field(metadata=AT_LEAST_2)
    mode: PartitionMode = PartitionMode.NONIID
    skew: float = field(default=0.0, metadata=NON_NEGATIVE)     # percent
    sample_counts: list[int] | None = None
    seed: int = field(default=0, metadata=NON_NEGATIVE)

    def __post_init__(self):
        check_bounds(self)
        if self.sample_counts is not None:
            if len(self.sample_counts) != self.num_clients:
                raise ConfigError(
                    f"sample_counts must have one entry per client, "
                    f"got {len(self.sample_counts)} for {self.num_clients} clients")
            if min(self.sample_counts) < 1:
                raise ConfigError(f"sample_counts must be >= 1 each, "
                                  f"got {min(self.sample_counts)}")
        if self.mode is PartitionMode.NONIID:
            majority = 100.0 - (self.num_clients - 1) * self.skew
            if majority <= self.skew:
                raise PartitionError(
                    f"skew {self.skew} leaves majority share {majority}% <= minority share")


@dataclass
class ClientShard:
    """A client's slice of the parent dataset, by index."""

    client_id: int
    indices: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.intp)
        if len(np.unique(self.indices)) != len(self.indices):
            raise PartitionError(f"duplicate indices in shard {self.client_id}")

    @property
    def n_samples(self) -> int:
        return len(self.indices)


def make_synthetic(n_per_class: int, num_classes: int, dim: int,
                   separation: float, seed: int, spread: float = 0.08,
                   noise_seed: int | None = None,
                   placement: Placement = Placement.RANDOM) -> Dataset:
    """Gaussian clusters per class, centered around 0.5, clipped to [0,1].

    The cluster geometry depends only on `seed`; `noise_seed` (default: seed)
    controls the sample noise, so a held-out set drawn with a different
    noise_seed shares the same class distribution.  ORTHOGONAL placement
    puts class means on orthonormal directions (equally hard classes,
    requires dim >= num_classes); RANDOM draws directions uniformly.
    """
    if n_per_class < 1 or num_classes < 2 or dim < 1:
        raise ValueError("need n_per_class >= 1, num_classes >= 2, dim >= 1")
    rng_means = stream(seed, "synthetic-means")
    rng = stream(seed if noise_seed is None else noise_seed, "synthetic-points")
    if placement is Placement.ORTHOGONAL:
        if dim < num_classes:
            raise ValueError("orthogonal placement needs dim >= num_classes")
        q, _ = np.linalg.qr(rng_means.normal(size=(dim, num_classes)))
        dirs = q.T[:num_classes]
    else:
        dirs = rng_means.normal(size=(num_classes, dim))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    means = 0.5 + 0.5 * separation * dirs
    # one (C, n, dim) draw takes the same values from the stream as one
    # (n, dim) draw per class in class order
    pts = means[:, None, :] + spread * rng.normal(size=(num_classes, n_per_class, dim))
    return Dataset(np.clip(pts, 0.0, 1.0).reshape(-1, dim),
                   np.repeat(np.arange(num_classes), n_per_class), num_classes)


def read_declared(f, n: int, what: str) -> bytes:
    """The `n` bytes a binary file's header declares (an IDX file's or a
    checkpoint's), or FormatError naming the file and `what` it is if fewer
    are left in it; checked before anything is read."""
    left = os.fstat(f.fileno()).st_size - f.tell()
    if n > left:
        raise FormatError(f"{f.name}: {what} truncated: its header declares {n} bytes, "
                          f"{left} follow it")
    return f.read(n)


@contextmanager
def open_utf8(path) -> Iterator[TextIO]:
    """`path` opened as UTF-8 text for the csv module; FormatError naming it
    if it is not UTF-8."""
    with open(path, newline="", encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path} is not UTF-8 text: {exc}") from exc


def _idx_header(f, kind: str, magic: int, n_dims: int) -> list[int]:
    """The `n_dims` sizes after the magic of an IDX `kind` ("image" or
    "label") file, the sample count first; FormatError naming the file if
    its header is truncated, its magic is not `magic` or it holds no samples."""
    header = f.read(4 + 4 * n_dims)
    if len(header) != 4 + 4 * n_dims:
        raise FormatError(f"{f.name}: {kind} file header truncated")
    found, *dims = struct.unpack(f">{1 + n_dims}I", header)
    if found != magic:
        raise FormatError(f"{f.name}: bad {kind} magic 0x{found:08x}")
    if dims[0] == 0:
        raise FormatError(f"{f.name}: {kind} file contains no samples")
    return dims


def load_idx(images_path, labels_path) -> Dataset:
    """Load an MNIST-style IDX image/label pair; pixels scaled to [0,1]."""
    with open(images_path, "rb") as f:
        count, rows, cols = _idx_header(f, "image", IDX_IMAGE_MAGIC, 3)
        raw = read_declared(f, count * rows * cols, "image file")
        features = np.frombuffer(raw, dtype=np.uint8).reshape(count, rows * cols)
    with open(labels_path, "rb") as f:
        (label_count,) = _idx_header(f, "label", IDX_LABEL_MAGIC, 1)
        labels = np.frombuffer(read_declared(f, label_count, "label file"), dtype=np.uint8)
    if count != label_count:
        raise FormatError(f"image count {count} in {images_path} != label count "
                          f"{label_count} in {labels_path}")
    return Dataset(features.astype(np.float64) / 255.0, labels.astype(np.intp),
                   max(int(labels.max()) + 1, 2))


def load_csv(path) -> Dataset:
    """CSV with header `label,f0,f1,...`; features are floats in [0,1]."""
    with open_utf8(path) as f:
        reader = csv.reader(f)
        header = next(reader, None)
        if not header or header[0] != "label":
            raise FormatError(f"{path}: csv must start with a `label` column")
        labels, feats = [], []
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise FormatError(f"{path}: line {line} has {len(row)} fields, "
                                  f"the header has {len(header)}")
            try:
                labels.append(int(row[0]))
                feats.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise FormatError(
                    f"{path}: line {line} has a field that is not a number ({exc})") from exc
    if not labels:
        raise FormatError(f"{path}: csv contains no samples")
    labels = np.asarray(labels)
    try:
        return Dataset(np.asarray(feats), labels, int(labels.max()) + 1)
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def partition(dataset: Dataset, spec: PartitionSpec) -> list[ClientShard]:
    """Equal-split partition: disjoint shards covering the whole dataset."""
    K = spec.num_clients
    if K > len(dataset):
        raise PartitionError(f"partition.num_clients {K} exceeds the {len(dataset)} "
                             f"training samples")
    rng = stream(spec.seed, "partition")
    if spec.mode is PartitionMode.IID:
        parts = np.array_split(rng.permutation(len(dataset)), K)
        return [ClientShard(k, np.sort(parts[k])) for k in range(K)]

    per_client: list[list[np.ndarray]] = [[] for _ in range(K)]
    for c in range(dataset.num_classes):
        order = rng.permutation(np.flatnonzero(dataset.labels == c))
        minority = int(np.floor(len(order) * spec.skew / 100.0 + 0.5))
        if len(order) < K * minority:
            raise PartitionError(
                f"partition.skew {spec.skew} leaves the majority client under-represented")
        # every other client, in client order, gets `minority`; the owner the rest
        for i, k in enumerate([k for k in range(K) if k != c % K]):
            per_client[k].append(order[i * minority:(i + 1) * minority])
        per_client[c % K].append(order[(K - 1) * minority:])
    return [ClientShard(k, np.sort(np.concatenate(per_client[k]))) for k in range(K)]


def partition_unequal(dataset: Dataset, spec: PartitionSpec) -> list[ClientShard]:
    """Partition with exact per-client sample counts, preserving the skew bias.

    Client k's per-class targets are its share of each class's starting pool
    size; clients take their samples in order, each from the ends of the
    classes' shuffled pools.
    """
    if spec.sample_counts is None:
        raise PartitionError("sample_counts required for unequal partition")
    counts = [int(c) for c in spec.sample_counts]   # PartitionSpec: one per client, >= 1
    K = spec.num_clients
    if sum(counts) > len(dataset):
        raise PartitionError("sample counts exceed dataset size")

    rng = stream(spec.seed, "partition-unequal")
    C = dataset.num_classes
    pools = [rng.permutation(np.flatnonzero(dataset.labels == c)) for c in range(C)]
    ends = np.array([len(p) for p in pools])      # what is left: pools[c][:ends[c]]
    pool_sizes = ends.astype(np.float64)

    if spec.mode is PartitionMode.IID:
        share = np.ones((K, C))
    else:
        share = np.full((K, C), spec.skew / 100.0)
        share[np.arange(C) % K, np.arange(C)] = (100.0 - (K - 1) * spec.skew) / 100.0

    shards = []
    for k in range(K):
        weights = share[k] * pool_sizes
        if weights.sum() <= 0:
            raise PartitionError(f"client {k} has no feasible class mass")
        target = weights / weights.sum() * counts[k]
        want = np.floor(target).astype(int)
        # the rounding remainder goes to the largest fractional parts
        want[np.argsort(-(target - want))[:counts[k] - int(want.sum())]] += 1
        short = np.flatnonzero(want > ends)
        if short.size:
            c = short[0]
            raise PartitionError(f"client {k} needs {want[c]} samples of class {c}, "
                                 f"pool has {ends[c]}")
        taken = [pool[end - n:end] for pool, end, n in zip(pools, ends, want)]
        ends -= want
        shards.append(ClientShard(k, np.sort(np.concatenate(taken))))
    return shards


def class_counts(dataset: Dataset, shards: list[ClientShard]) -> np.ndarray:
    """Per-client per-class sample counts, shape (K, C)."""
    table = np.zeros((len(shards), dataset.num_classes), dtype=int)
    for shard in shards:
        for c, n in zip(*np.unique(dataset.labels[shard.indices], return_counts=True)):
            table[shard.client_id, c] = n
    return table
