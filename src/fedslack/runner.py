"""End-to-end federated simulation loop: configuration, participation
sampling, per-round training and aggregation, diagnostics, and persistence.

Everything is deterministic given (config, master seed): client streams are
keyed by (seed, purpose, round, client), and the round's rows are always
ordered by client id.

Every round has the same number m of participants, so a run's `RunState`
fixes the effective k_hat and allocates the round's matrices once.  A round
is three phases on it.  `train_round`: participant i (in client-id order)
trains in row i of the (m, P) float64 upload matrix and writes its mean loss
into row i of the (m,) `losses`, and under SCAFFOLD its variate change into
row i of an (m, P) delta matrix; the control variates are a (K, P) matrix
indexed by client id.  The participants train in cohorts (see `local`):
evenly spaced rows with equal shard sizes, each cohort trained by one
`train_client` call in a strided view of its rows, on up to one thread per
core, started by the round's `threads.for_each` call; `run` keeps BLAS on
one thread throughout (see `threads`).  `server_step`, once every cohort
has finished, sorts the rows once by weighted loss n_k/N*loss and reads
these arrays in place, in blocks on every core once they are large (see
`metrics.server_blocks`): nothing is stacked or kept per client.  Its (P,)
aggregate is written into the global model's buffer, the one copy of the
global parameters, which the next round's clients download.
`evaluate_round` then scores that model through the same work queue, in row
chunks whose height comes from the model's size (see `metrics.evaluate`).

Eval reads only the global model and the test set, and so does the next
round's training, but both hold the interpreter lock between numpy calls.
So, given a second core, `run` forks an eval child (a `threads.Child`)
before round 1, with BLAS already pinned, and sends it each eval round's
global parameters but the last's; it scores them with the same `evaluate`
calls while the parent trains the next round, and the parent collects the
three accuracies before it closes that round.  The last round, and every
eval round of a run without the child, is scored in-process.
"""

from __future__ import annotations

import csv
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, is_dataclass, replace
from enum import Enum, EnumMeta
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import nn, threads
from .aggregation import (AggregationPolicy, scaffold_server_update,
                          slack_aggregate, slack_weights, sort_by_weighted_loss)
from .data import (ClientShard, Dataset, PartitionSpec, Placement, load_csv, load_idx,
                   make_synthetic, open_utf8, partition, partition_unequal)
from .errors import (ABOVE_0_TO_1, AT_LEAST_1, AT_LEAST_2, FINITE, NON_NEGATIVE, POSITIVE,
                     ConfigError, DivergenceError, FormatError, PartitionError,
                     check_bounds)
from .local import Cohort, LocalConfig, _rows, cohorts, train_client
from .metrics import (ClientRecord, EvalAttack, RoundReport, client_drift, evaluate,
                      gradient_variance)
from .streams import stream


def _zero_or_one(text: str) -> bool:
    if text not in ("0", "1"):
        raise ValueError(f"must be 0, 1 or empty, got {text!r}")
    return text == "1"


# metrics.csv's columns, each with how `load_metrics` reads a non-empty field
# and the rows on which `report_rows` always writes it, so that it may not be
# empty there: a client's, a round's aggregate row (client_id -1), or both
METRICS_COLUMNS = {
    "round": (int, "client aggregate"), "client_id": (int, "client aggregate"),
    "n_k": (int, "client aggregate"), "loss_k": (float, "client"),
    "weighted_loss": (float, "client"), "drift": (float, "client aggregate"),
    "is_top": (_zero_or_one, "client"), "alpha": (float, "client aggregate"),
    "xi": (int, "aggregate"), "grad_var": (float, "aggregate"), "nat_acc": (float, ""),
    "fgsm_acc": (float, ""), "pgd20_acc": (float, "")}


class FedOptimizer(Enum):
    FEDAVG = "fedavg"
    FEDPROX = "fedprox"
    SCAFFOLD = "scaffold"


class DataKind(Enum):
    SYNTHETIC = "synthetic"
    CSV = "csv"
    IDX = "idx"


@dataclass
class DatasetSpec:
    """Where the training/test data comes from."""

    kind: DataKind = DataKind.SYNTHETIC
    n_per_class: int = field(default=200, metadata=AT_LEAST_1)
    num_classes: int = field(default=5, metadata=AT_LEAST_2)
    dim: int = field(default=4, metadata=AT_LEAST_1)
    separation: float = field(default=0.8, metadata=FINITE)
    placement: Placement = Placement.RANDOM
    test_fraction: float = field(default=0.25, metadata=POSITIVE)
    train_path: str | None = None      # csv path, or idx images path
    train_labels_path: str | None = None
    test_path: str | None = None
    test_labels_path: str | None = None

    def __post_init__(self):
        check_bounds(self)
        # an n_per_class beyond float64 fails where the data is built
        if self.n_per_class <= sys.float_info.max \
                and math.isinf(self.n_per_class * self.test_fraction):
            raise ConfigError(f"test_fraction {self.test_fraction} times n_per_class "
                              f"{self.n_per_class} overflows a float64")
        if self.kind is DataKind.SYNTHETIC and self.placement is Placement.ORTHOGONAL \
                and self.dim < self.num_classes:
            raise ConfigError(f"placement orthogonal needs dim >= num_classes, "
                              f"got {self.dim} < {self.num_classes}")


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partition: PartitionSpec = field(default_factory=lambda: PartitionSpec(5, skew=5.0))
    hidden_dims: list[int] = field(default_factory=lambda: [16])
    local: LocalConfig = field(default_factory=LocalConfig)
    policy: AggregationPolicy = field(default_factory=AggregationPolicy)
    optimizer: FedOptimizer = FedOptimizer.FEDAVG
    rounds: int = field(default=30, metadata=AT_LEAST_1)
    participation: float = field(default=1.0, metadata=ABOVE_0_TO_1)
    eval_every: int = field(default=5, metadata=NON_NEGATIVE)     # 0: no eval
    seed: int = field(default=0, metadata=NON_NEGATIVE)
    out_dir: str | None = None

    def __post_init__(self):
        check_bounds(self)
        self.hidden_dims = list(self.hidden_dims)
        if not all(isinstance(d, int) and d >= 1 for d in self.hidden_dims):
            raise ConfigError(f"hidden_dims must be positive integers, got {self.hidden_dims}")
        if self.local.fedprox_mu > 0.0 and self.optimizer is not FedOptimizer.FEDPROX:
            raise ConfigError("local.fedprox_mu > 0 needs optimizer fedprox")
        if self.optimizer is FedOptimizer.FEDPROX and self.local.fedprox_mu == 0.0:
            self.local = replace(self.local, fedprox_mu=0.01)   # FedProx's default pull


def load_config(path) -> ExperimentConfig:
    """Parse a JSON config file into an ExperimentConfig."""
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    # ValueError: not UTF-8, not JSON, or an integer of too many digits;
    # RecursionError: arrays or objects nested too deep
    except (OSError, ValueError, RecursionError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


def _has_type(value, hint) -> bool:
    """Whether a JSON value fits a field annotation (a bool is no int; an enum takes a str)."""
    if isinstance(hint, EnumMeta):
        hint = str
    if get_origin(hint) is list:
        return isinstance(value, list) and all(_has_type(v, get_args(hint)[0]) for v in value)
    if get_args(hint):                  # a union such as `str | None`
        return any(_has_type(value, h) for h in get_args(hint))
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _merged(default, raw: dict, prefix: str = ""):
    """`default`, a config dataclass, with the values `raw` sets, each of a
    field that fits it; a section given as an object is merged the same way
    into the default's section.  `replace` runs every `__post_init__`, whose
    errors name a field bare: this prefixes the section's key path."""
    hints = get_type_hints(type(default))
    unknown = sorted(prefix + str(k) for k in set(raw) - set(hints))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    values = {}
    for name, value in raw.items():
        hint, key = hints[name], prefix + name
        if is_dataclass(hint) and isinstance(value, dict):
            value = _merged(getattr(default, name), value, key + ".")
        elif not _has_type(value, hint):
            raise ConfigError(f"{key} must be of type "
                              f"{getattr(hint, '__name__', hint)}, got {value!r}")
        elif hint is float and isinstance(value, int):
            try:
                value = float(value)
            except OverflowError:
                raise ConfigError(f"{key} must fit a float64, got an integer beyond "
                                  f"{sys.float_info.max:.4g} in magnitude") from None
        values[name] = value
    try:
        return replace(default, **values)
    except (ConfigError, PartitionError) as exc:
        raise type(exc)(f"{prefix}{exc}") from exc


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Config from parsed JSON (`raw` is unchanged): every key it sets, in its
    sections too, replaces that value of the default `ExperimentConfig()`."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return _merged(ExperimentConfig(), raw)


def config_to_dict(config: ExperimentConfig) -> dict:
    """The JSON form of a config, enums as their values."""
    return asdict(config, dict_factory=lambda items: {
        k: v.value if isinstance(v, Enum) else v for k, v in items})


@contextmanager
def _allocating(sizes: str):
    """ConfigError naming `sizes`, the config values that size the arrays
    made inside, if numpy cannot allocate one (MemoryError) or give it so
    many elements (ValueError)."""
    try:
        yield
    except (MemoryError, ValueError) as exc:
        raise ConfigError(f"{sizes} size arrays numpy cannot allocate: {exc}") from exc


def build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Training set plus a held-out test set the partitioner never touches; the
    test set must match the training set's feature count and classes."""
    ds = config.dataset
    if ds.kind is DataKind.SYNTHETIC:
        with _allocating(f"dataset.n_per_class {ds.n_per_class}, num_classes "
                         f"{ds.num_classes}, dim {ds.dim} and test_fraction {ds.test_fraction}"):
            train = make_synthetic(ds.n_per_class, ds.num_classes, ds.dim, ds.separation,
                                   seed=config.seed, placement=ds.placement)
            n_test = max(ds.num_classes, int(ds.n_per_class * ds.test_fraction))
            test = make_synthetic(n_test, ds.num_classes, ds.dim, ds.separation,
                                  seed=config.seed, noise_seed=config.seed + 1_000_003,
                                  placement=ds.placement)
    elif ds.kind is DataKind.CSV:
        if not ds.train_path or not ds.test_path:
            raise ConfigError("csv datasets need train_path and test_path")
        train, test = load_csv(ds.train_path), load_csv(ds.test_path)
    else:                               # idx; `DatasetSpec` admits no other kind
        if not all([ds.train_path, ds.train_labels_path, ds.test_path,
                    ds.test_labels_path]):
            raise ConfigError("idx datasets need train/test image and label paths")
        train = load_idx(ds.train_path, ds.train_labels_path)
        test = load_idx(ds.test_path, ds.test_labels_path)
    if test.dim != train.dim:
        raise ConfigError(f"the test set has {test.dim} features, the training set {train.dim}")
    if len(test) and test.labels.max() >= train.num_classes:
        raise ConfigError(f"the test set has label {test.labels.max()}, beyond the "
                          f"training set's {train.num_classes} classes")
    return train, test


def build_shards(config: ExperimentConfig, train_set: Dataset) -> list[ClientShard]:
    """Exact-count shards if `sample_counts` is set, else equal splits; shards[k],
    client k's, is never empty."""
    split = partition if config.partition.sample_counts is None else partition_unequal
    shards = split(train_set, config.partition)
    for s in shards:
        if not s.n_samples:
            raise PartitionError(f"the partition leaves client {s.client_id} no samples")
    return shards


def participants_per_round(num_clients: int, ratio: float) -> int:
    """max(1, round(ratio*K)): how many clients every round samples."""
    return max(1, round(ratio * num_clients))


def sample_participants(num_clients: int, ratio: float, round_idx: int,
                        seed: int) -> list[int]:
    """Uniform without-replacement draw of max(1, round(ratio*K)) client ids."""
    size = participants_per_round(num_clients, ratio)
    if size >= num_clients:
        return list(range(num_clients))
    rng = stream(seed, "participation", round_idx)
    return sorted(rng.choice(num_clients, size=size, replace=False).tolist())


class _MetricsWriter:
    """Appends rows round by round so a killed run leaves a valid CSV prefix."""

    def __init__(self, path: Path):
        self.path = path
        self._file = open(path, "w", newline="")
        self._writer = csv.writer(self._file)
        self._writer.writerow(list(METRICS_COLUMNS))
        self._file.flush()

    def write_round(self, rep: RoundReport) -> None:
        self._writer.writerows(report_rows(rep))
        self._file.flush()

    def close(self) -> None:
        self._file.close()


def report_rows(rep: RoundReport) -> list[list]:
    """A row per client, then the round's aggregate row (client_id -1), of Python
    ints, floats and None, which the csv module writes as str, repr and ""."""
    rows = [[rep.round_idx, c.client_id, c.n_samples, c.loss, c.weighted_loss, c.drift,
             int(c.is_top), rep.alpha, None, None, None, None, None] for c in rep.clients]
    rows.append([rep.round_idx, -1, sum(c.n_samples for c in rep.clients), None, None,
                 rep.mean_drift, None, rep.alpha, rep.xi, rep.grad_variance, rep.nat_acc,
                 rep.fgsm_acc, rep.pgd20_acc])
    return rows


class RunState:
    """One run's data, shards, model, round matrices, SCAFFOLD variates,
    policy, reports and writer, set up from its config (with `config.json`
    and the `metrics.csv` header written, given an `out_dir`)."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self.train_set, self.test_set = build_datasets(config)
        self.shards = build_shards(config, self.train_set)
        self.sizes = np.array([s.n_samples for s in self.shards])
        dims = [self.train_set.dim] + list(config.hidden_dims) + [self.train_set.num_classes]
        K = config.partition.num_clients
        m = participants_per_round(K, config.participation)
        self.policy = replace(config.policy, k_hat=config.policy.effective_k_hat(m))
        self.scaffold = config.optimizer is FedOptimizer.SCAFFOLD
        with _allocating(f"hidden_dims {config.hidden_dims} (between the data's {dims[0]} "
                         f"features and {dims[-1]} classes) and partition.num_clients {K}"):
            self.model = nn.Model.init(dims, stream(config.seed, "init"))
            P = self.model.params.values.size
            self.uploads = np.empty((m, P))
            self.losses = np.empty(m)
            if self.scaffold:
                self.deltas = np.empty_like(self.uploads)
                self.c_global = np.zeros(P)
                self.c_locals = np.zeros((K, P))
        self.reports: list[RoundReport] = []
        self.out_dir = Path(config.out_dir) if config.out_dir else None
        self.writer = None
        if self.out_dir:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            (self.out_dir / "config.json").write_text(
                json.dumps(config_to_dict(config), indent=2) + "\n")
            self.writer = _MetricsWriter(self.out_dir / "metrics.csv")

    def train_round(self, t: int) -> list[int]:
        """Sample round t's participants and train their cohorts into the upload
        matrix on every core (see `threads.for_each`); returns their client ids."""
        config = self.config
        participants = sample_participants(config.partition.num_clients,
                                           config.participation, t, config.seed)
        threads.for_each(self._train, cohorts([self.shards[cid] for cid in participants],
                                              self.model.params.values.size, config.seed, t))
        return participants

    def _train(self, cohort: Cohort) -> None:
        rows = cohort.rows
        kwargs = {"out": self.uploads[rows]}
        if self.scaffold:
            kwargs.update(c_global=self.c_global, delta_out=self.deltas[rows],
                          c_local=self.c_locals[_rows(cohort.client_ids)])
        self.losses[rows] = train_client(cohort, self.train_set, self.model,
                                         self.config.local, **kwargs)

    def server_step(self, t: int, participants: list[int]) -> RoundReport:
        """Aggregate round t's uploads into the global model; the report's
        accuracies are left for `evaluate_round`."""
        policy, uploads, losses = self.policy, self.uploads, self.losses
        alpha = policy.alpha_at(t)
        n_k = self.sizes[participants]
        wl = n_k / len(self.train_set) * losses
        order = sort_by_weighted_loss(wl, participants)
        weights, is_top = slack_weights(n_k, order, policy, alpha)
        theta_new = slack_aggregate(uploads, weights)
        if not np.all(np.isfinite(theta_new)):
            raise DivergenceError(f"round {t}: non-finite aggregate")
        if self.scaffold:
            scaffold_server_update(self.c_global, self.c_locals, participants, self.deltas)
        drifts, mean_drift = client_drift(uploads, theta_new)
        gvar = gradient_variance(uploads, self.model.params.values)
        self.model.params.values[:] = theta_new
        # tolist() gives Python bools, which `report_rows` writes as 1/0
        recs = [ClientRecord(cid, int(n), float(loss), float(w), d, top)
                for cid, n, loss, w, d, top in
                zip(participants, n_k, losses, wl, drifts, is_top.tolist())]
        return RoundReport(t, recs, mean_drift, gvar, alpha)

    def is_eval_round(self, t: int) -> bool:
        """Whether round t is scored: every `eval_every`-th round and the last."""
        every = self.config.eval_every
        return bool(every) and (t % every == 0 or t == self.config.rounds)

    def scores(self) -> tuple[float, float, float]:
        """The global model's natural, FGSM and PGD-20 accuracies."""
        model, test_set, spec = self.model, self.test_set, self.config.local.attack
        nat = evaluate(model, test_set, EvalAttack.NONE)
        if spec.epsilon > 0:
            return (nat, evaluate(model, test_set, EvalAttack.FGSM, spec.evaluation(1)),
                    evaluate(model, test_set, EvalAttack.PGD, spec.evaluation(20)))
        return nat, nat, nat

    def evaluate_round(self, rep: RoundReport) -> None:
        """On an eval round, fill the report's accuracies of the global model."""
        if self.is_eval_round(rep.round_idx):
            rep.nat_acc, rep.fgsm_acc, rep.pgd20_acc = self.scores()

    def record(self, rep: RoundReport) -> None:
        """Keep a closed round's report, and write its rows."""
        self.reports.append(rep)
        if self.writer:
            self.writer.write_round(rep)


def run(config: ExperimentConfig) -> RunState:
    """Run every round of `config`; returns the run's state: its `reports`, final `model`.

    An eval round scored in the child is collected once the next round has
    trained, aggregated and, if it is the last, been scored in-process, so
    that round's `wall_clock` covers any wait for it, and its rows are
    written after that round's stamp, just before that round's rows.  If the
    next round diverges, the scored round is collected and written first, so
    `metrics.csv` and `checkpoint.bin` are what an in-process run leaves."""
    state = RunState(config)
    child = scoring = None      # `scoring`: the eval round the child is scoring

    def collect(rep: RoundReport) -> None:
        rep.nat_acc, rep.fgsm_acc, rep.pgd20_acc = child.result()

    try:
        with threads.one_blas_thread():
            if config.eval_every and config.eval_every < config.rounds \
                    and threads.cores() > 1 and hasattr(os, "fork"):
                try:
                    child = threads.Child(state.scores, state.model.params.values)
                except OSError:         # no process to spare: eval stays in-process
                    pass
            for t in range(1, config.rounds + 1):
                t0 = time.perf_counter()
                rep = state.server_step(t, state.train_round(t))
                in_child = child is not None and t < config.rounds and state.is_eval_round(t)
                if not in_child:
                    state.evaluate_round(rep)
                done, scoring = scoring, None
                if done:
                    collect(done)
                if in_child:
                    child.submit()
                    scoring = rep
                rep.wall_clock = time.perf_counter() - t0
                for closed in (done, rep):
                    if closed is not None and closed is not scoring:
                        state.record(closed)
    except DivergenceError:
        try:
            if scoring:     # the child was scoring the round before the one that diverged
                collect(scoring)
                state.record(scoring)
        finally:
            if state.out_dir:
                nn.save_checkpoint(state.model, state.out_dir / "checkpoint.bin")
        raise
    finally:
        if child:
            child.close()
        if state.writer:
            state.writer.close()

    if state.out_dir:
        nn.save_checkpoint(state.model, state.out_dir / "checkpoint.bin")
    return state


def load_metrics(path) -> list[dict]:
    """Parse metrics.csv back into typed row dicts (round-trip of report_rows);
    FormatError naming the file, and the line and column of a bad field."""
    rows = []
    with open_utf8(path) as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != list(METRICS_COLUMNS):
            raise FormatError(f"{path}: unexpected metrics header {reader.fieldnames}")
        for raw in reader:
            line = reader.line_num
            if None in raw or None in raw.values():
                raise FormatError(f"{path}: line {line} does not have the header's "
                                  f"{len(METRICS_COLUMNS)} fields")
            row = {}
            for key, text in raw.items():
                try:
                    row[key] = METRICS_COLUMNS[key][0](text) if text else None
                except ValueError as exc:
                    raise FormatError(f"{path}: line {line}, column {key}: {exc}") from exc
            kind = "aggregate" if row["client_id"] == -1 else "client"
            for key, (_, written_on) in METRICS_COLUMNS.items():
                if row[key] is None and kind in written_on.split():
                    raise FormatError(f"{path}: line {line}, column {key}: must not be "
                                      f"empty on a {kind} row")
            rows.append(row)
    return rows
