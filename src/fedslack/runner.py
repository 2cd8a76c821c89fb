"""End-to-end federated simulation loop: configuration, participation
sampling, per-round training and aggregation, diagnostics, and persistence.

Everything is deterministic given (config, master seed): client streams are
keyed by (seed, purpose, round, client), and aggregation always consumes
updates ordered by client id.

`run` allocates the round matrices once per run.  Every round has the same
number m of participants, and participant i (in client-id order) trains in
row i of the (m, P) float64 upload matrix; under SCAFFOLD it writes its
variate change into row i of an (m, P) delta matrix, and the control
variates are one (K, P) matrix indexed by client id.  Aggregation, the
variate updates, drift and gradient variance read these matrices in place,
so nothing is stacked; a round's uploads are row views, valid only until the
next round's training overwrites them.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import asdict, dataclass, field, fields, replace
from enum import Enum
from pathlib import Path

import numpy as np

from . import nn
from .aggregation import (AggregationMode, AggregationPolicy, scaffold_server_update,
                          slack_aggregate, slack_weights, sort_by_weighted_loss,
                          update_client_variates)
from .data import (ClientShard, Dataset, PartitionSpec, load_csv,
                   load_idx, make_synthetic, partition, partition_unequal)
from .errors import ConfigError, DivergenceError
from .local import LocalConfig, train_client
from .metrics import (ClientRecord, EvalAttack, RoundReport, client_drift, evaluate,
                      gradient_variance, xi_count)
from .streams import stream

METRICS_COLUMNS = ["round", "client_id", "n_k", "loss_k", "weighted_loss", "drift",
                   "is_top", "alpha", "xi", "grad_var", "nat_acc", "fgsm_acc",
                   "pgd20_acc"]


class FedOptimizer(Enum):
    FEDAVG = "fedavg"
    FEDPROX = "fedprox"
    SCAFFOLD = "scaffold"


@dataclass
class DatasetSpec:
    """Where the training/test data comes from."""

    kind: str = "synthetic"            # synthetic | csv | idx
    n_per_class: int = 200
    num_classes: int = 5
    dim: int = 4
    separation: float = 0.8
    placement: str = "random"
    test_fraction: float = 0.25
    train_path: str | None = None      # csv path, or idx images path
    train_labels_path: str | None = None
    test_path: str | None = None
    test_labels_path: str | None = None


@dataclass
class ExperimentConfig:
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    partition: PartitionSpec = field(default_factory=lambda: PartitionSpec(5, skew=5.0))
    hidden_dims: list[int] = field(default_factory=lambda: [16])
    local: LocalConfig = field(default_factory=LocalConfig)
    policy: AggregationPolicy = field(default_factory=AggregationPolicy)
    optimizer: FedOptimizer = FedOptimizer.FEDAVG
    rounds: int = 30
    participation: float = 1.0
    eval_every: int = 5
    seed: int = 0
    out_dir: str | None = None
    k_hat_absolute: bool = False       # if set, never shrink k_hat under partial participation

    def __post_init__(self):
        if isinstance(self.optimizer, str):
            self.optimizer = FedOptimizer(self.optimizer.lower())
        self.hidden_dims = list(self.hidden_dims)
        if not all(isinstance(d, int) and d >= 1 for d in self.hidden_dims):
            raise ConfigError(f"hidden_dims must be positive integers, got {self.hidden_dims}")
        if self.rounds < 1:
            raise ConfigError("rounds must be >= 1")
        if not 0.0 < self.participation <= 1.0:
            raise ConfigError("participation must lie in (0, 1]")
        if self.local.fedprox_mu > 0.0 and self.optimizer is not FedOptimizer.FEDPROX:
            raise ConfigError("local.fedprox_mu > 0 needs optimizer fedprox")
        m = participants_per_round(self.partition.num_clients, self.participation)
        if (self.k_hat_absolute and self.policy.mode is not AggregationMode.FAT
                and self.policy.k_hat > m // 2):
            raise ConfigError(f"policy.k_hat {self.policy.k_hat} exceeds half of the {m} "
                              f"clients per round, and k_hat_absolute forbids capping it")


@dataclass
class RunArtifact:
    config: ExperimentConfig
    reports: list[RoundReport]
    final_model: nn.Model


def load_config(path) -> ExperimentConfig:
    """Parse a JSON config file into an ExperimentConfig."""
    try:
        raw = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return config_from_dict(raw)


_SECTIONS = {"dataset": DatasetSpec, "partition": PartitionSpec, "local": LocalConfig,
             "policy": AggregationPolicy}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Config from parsed JSON (`raw` is unchanged); omitted keys keep the defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    unknown = sorted(map(str, set(raw) - {f.name for f in fields(ExperimentConfig)}))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    try:
        sections = {key: make(**raw[key]) for key, make in _SECTIONS.items() if key in raw}
        return ExperimentConfig(**{**raw, **sections})
    except (TypeError, ValueError, KeyError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def config_to_dict(config: ExperimentConfig) -> dict:
    d = asdict(config)
    d["partition"]["mode"] = config.partition.mode.value
    d["local"]["trainer"] = config.local.trainer.value
    d["policy"]["mode"] = config.policy.mode.value
    d["policy"]["schedule"] = config.policy.schedule.value
    d["optimizer"] = config.optimizer.value
    return d


def build_datasets(config: ExperimentConfig) -> tuple[Dataset, Dataset]:
    """Training set plus a held-out test set the partitioner never touches."""
    ds = config.dataset
    if ds.kind == "synthetic":
        train = make_synthetic(ds.n_per_class, ds.num_classes, ds.dim, ds.separation,
                               seed=config.seed, placement=ds.placement)
        n_test = max(ds.num_classes, int(ds.n_per_class * ds.test_fraction))
        test = make_synthetic(n_test, ds.num_classes, ds.dim, ds.separation,
                              seed=config.seed, noise_seed=config.seed + 1_000_003,
                              placement=ds.placement)
        return train, test
    if ds.kind == "csv":
        if not ds.train_path or not ds.test_path:
            raise ConfigError("csv datasets need train_path and test_path")
        return load_csv(ds.train_path), load_csv(ds.test_path)
    if ds.kind == "idx":
        if not all([ds.train_path, ds.train_labels_path, ds.test_path,
                    ds.test_labels_path]):
            raise ConfigError("idx datasets need train/test image and label paths")
        return (load_idx(ds.train_path, ds.train_labels_path),
                load_idx(ds.test_path, ds.test_labels_path))
    raise ConfigError(f"unknown dataset kind {ds.kind!r}")


def build_shards(config: ExperimentConfig, train_set: Dataset) -> list[ClientShard]:
    """Exact-count shards when `sample_counts` is set, equal splits otherwise."""
    if config.partition.sample_counts is not None:
        return partition_unequal(train_set, config.partition)
    return partition(train_set, config.partition)


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
        self._writer.writerow(METRICS_COLUMNS)
        self._file.flush()

    def write_round(self, rep: RoundReport) -> None:
        for row in report_rows(rep):
            self._writer.writerow(row)
        self._file.flush()

    def close(self) -> None:
        self._file.close()


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def report_rows(rep: RoundReport) -> list[list[str]]:
    rows = []
    for c in rep.clients:
        rows.append([_fmt(v) for v in
                     [rep.round_idx, c.client_id, c.n_samples, c.loss, c.weighted_loss,
                      c.drift, c.is_top, rep.alpha, None, None, None, None, None]])
    total = sum(c.n_samples for c in rep.clients)
    rows.append([_fmt(v) for v in
                 [rep.round_idx, -1, total, None, None, rep.mean_drift, None, rep.alpha,
                  rep.xi, rep.grad_variance, rep.nat_acc, rep.fgsm_acc, rep.pgd20_acc]])
    return rows


def run(config: ExperimentConfig) -> RunArtifact:
    """Execute the full communication loop and return the artifact."""
    train_set, test_set = build_datasets(config)
    shards = build_shards(config, train_set)
    shard_by_id = {s.client_id: s for s in shards}

    dims = [train_set.dim] + list(config.hidden_dims) + [train_set.num_classes]
    model = nn.Model.init(dims, stream(config.seed, "init"))
    theta = model.to_vector()

    local_cfg = config.local
    if config.optimizer is FedOptimizer.FEDPROX and local_cfg.fedprox_mu == 0.0:
        local_cfg = replace(local_cfg, fedprox_mu=0.01)
    K = config.partition.num_clients
    m = participants_per_round(K, config.participation)
    uploads = np.empty((m, theta.values.size))
    use_scaffold = config.optimizer is FedOptimizer.SCAFFOLD
    if use_scaffold:
        deltas = np.empty_like(uploads)
        c_global = np.zeros_like(theta.values)
        c_locals = np.zeros((K, theta.values.size))

    out_dir = Path(config.out_dir) if config.out_dir else None
    writer = None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "config.json").write_text(
            json.dumps(config_to_dict(config), indent=2) + "\n")
        writer = _MetricsWriter(out_dir / "metrics.csv")

    reports: list[RoundReport] = []
    try:
        for t in range(1, config.rounds + 1):
            t0 = time.perf_counter()
            alpha = config.policy.alpha_at(t)
            participants = sample_participants(K, config.participation, t, config.seed)
            updates = []
            for i, cid in enumerate(participants):
                kwargs = {"out": uploads[i]}
                if use_scaffold:
                    kwargs.update(c_global=c_global, c_local=c_locals[cid],
                                  delta_out=deltas[i])
                try:
                    updates.append(train_client(shard_by_id[cid], train_set, theta,
                                                local_cfg, config.seed, t, **kwargs))
                except DivergenceError as exc:
                    raise DivergenceError(f"round {t}: {exc}") from exc

            if config.k_hat_absolute:
                k_hat_eff = config.policy.k_hat
            else:
                k_hat_eff = config.policy.effective_k_hat(m)
            policy_eff = replace(config.policy, k_hat=k_hat_eff)

            order = sort_by_weighted_loss(updates)
            sorted_updates = [updates[i] for i in order]
            xi = xi_count(sorted_updates, k_hat_eff) if k_hat_eff else 0
            sw = slack_weights(updates, policy_eff, alpha)
            theta_new = slack_aggregate(uploads, sw, theta.layout)
            if not np.all(np.isfinite(theta_new.values)):
                raise DivergenceError(f"round {t}: non-finite aggregate")

            if use_scaffold:
                update_client_variates(c_locals, participants, deltas)
                c_global = scaffold_server_update(c_global, deltas, m, K)

            drifts, mean_drift = client_drift(uploads, theta_new.values)
            gvar = gradient_variance(uploads, theta.values) if m >= 2 else 0.0
            theta = theta_new
            model.load_vector(theta)

            top_set = set(sw.top_ids)
            recs = [ClientRecord(u.client_id, u.n_samples, u.loss, u.weighted_loss,
                                 d, u.client_id in top_set)
                    for u, d in zip(updates, drifts)]
            nat = fg = pg = None
            if config.eval_every and (t % config.eval_every == 0 or t == config.rounds):
                spec = local_cfg.attack
                nat = evaluate(model, test_set, EvalAttack.NONE)
                if spec.epsilon > 0:
                    fg = evaluate(model, test_set, EvalAttack.FGSM, spec.evaluation(1))
                    pg = evaluate(model, test_set, EvalAttack.PGD, spec.evaluation(20),
                                  stream(config.seed, "eval-attack", t))
                else:
                    fg = pg = nat
            rep = RoundReport(t, recs, mean_drift, gvar, xi, sw.top_ids, alpha,
                              nat, fg, pg, wall_clock=time.perf_counter() - t0)
            reports.append(rep)
            if writer:
                writer.write_round(rep)
    except DivergenceError:
        if out_dir:
            nn.save_checkpoint(model, out_dir / "checkpoint.bin")
        raise
    finally:
        if writer:
            writer.close()

    if out_dir:
        nn.save_checkpoint(model, out_dir / "checkpoint.bin")
    return RunArtifact(config, reports, model)


def load_metrics(path) -> list[dict]:
    """Parse metrics.csv back into typed row dicts (round-trip of report_rows)."""
    rows = []
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != METRICS_COLUMNS:
            raise ConfigError(f"unexpected metrics header in {path}")
        for raw in reader:
            row = {}
            for key, val in raw.items():
                if val == "":
                    row[key] = None
                elif key in ("round", "client_id", "n_k", "xi"):
                    row[key] = int(val)
                elif key == "is_top":
                    row[key] = val == "1"
                else:
                    row[key] = float(val)
            rows.append(row)
    return rows
