"""Deterministic federated adversarial training simulator with slack-weighted
aggregation, drift diagnostics, and a minimal dense-network engine."""

from .aggregation import (AggregationMode, AggregationPolicy, AlphaSchedule,
                          alpha_slack_loss, client_drift, gradient_variance,
                          scaffold_server_update, slack_aggregate, slack_weights,
                          sort_by_weighted_loss)
from .attacks import AttackSpec, fgsm, pgd
from .data import (ClientShard, Dataset, PartitionMode, PartitionSpec, Placement,
                   load_csv, load_idx, make_synthetic, partition, partition_unequal)
from .local import (LocalConfig, Trainer, apply_fedprox, apply_scaffold, cohorts,
                    train_client, update_scaffold_client)
from .metrics import EvalAttack, RoundReport, evaluate, trace_topk
from .nn import Model, ParamVector, load_checkpoint, save_checkpoint, sgd_step
from .runner import (DatasetSpec, ExperimentConfig, FedOptimizer, RunState,
                     build_shards, load_config, load_metrics, participants_per_round,
                     run, sample_participants)

__version__ = "0.1.0"
