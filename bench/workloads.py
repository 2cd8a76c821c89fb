"""The benchmark's workloads, each a fedslack JSON config derived from a seed.

The seed picks the data, partition, shard-size order, participants, model
initialisation and every attack draw; the amount of work per run is fixed
by the workload (in `fleet_scaffold` up to which clients a round samples).
Each workload stresses a different layer:

* desk_sfat: the acceptance suite's desk SFAT config.  A tiny MLP makes it
  bound by numpy call overhead; local AT training with PGD is ~98% of it.
* wide_trades: a 784->256->10 MLP under TRADES and FedProx.  The same
  training layers, but the time goes to BLAS flops and the PGD-KL attack.
* fleet_scaffold: 100 clients with unequal one-batch shards, half sampled
  per round, SCAFFOLD, and nat/FGSM/PGD-20 eval every round.  The server
  side (aggregation, control variates, diagnostics) and eval take about
  half of it.

Data, epsilon and test-set sizes are chosen so the final accuracies sit
well above chance and vary little across seeds: at the acceptance suite's
epsilon 0.10 the desk PGD-20 accuracy varies by ~20% between seeds.  The
desk config evaluates every 5 rounds, not 10, so that eval rounds are 20%
of all rounds and the pooled round-time p90 falls among them rather than on
the edge between eval and training rounds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    config: Callable[[int], dict]
    nat_floor: float      # final natural accuracy must reach this
    pgd20_floor: float    # final PGD-20 accuracy must reach this
    probe_reps: int       # passes per speed probe (see probe.py): ~1-6 ms of work
    probe_ref_s: float    # probe seconds at the reference speed


def desk_sfat(seed: int) -> dict:
    return {
        "dataset": {"kind": "synthetic", "n_per_class": 100, "num_classes": 5, "dim": 8,
                    "separation": 0.9, "placement": "random", "test_fraction": 2.0},
        "partition": {"num_clients": 5, "mode": "noniid", "skew": 5.0, "seed": seed},
        "hidden_dims": [16],
        "local": {"epochs": 2, "batch_size": 25, "trainer": "at",
                  "attack": {"epsilon": 0.04, "step_size": 0.01, "steps": 7,
                             "random_start": True},
                  "lr": 0.05, "momentum": 0.9, "weight_decay": 1e-4},
        "policy": {"mode": "sfat", "alpha": 1 / 6, "k_hat": 1},
        "optimizer": "fedavg",
        "rounds": 80, "participation": 1.0, "eval_every": 5, "seed": seed,
    }


def wide_trades(seed: int) -> dict:
    return {
        "dataset": {"kind": "synthetic", "n_per_class": 60, "num_classes": 10, "dim": 784,
                    "separation": 5.0, "placement": "random", "test_fraction": 0.5},
        "partition": {"num_clients": 5, "mode": "noniid", "skew": 15.0, "seed": seed},
        "hidden_dims": [256],
        "local": {"epochs": 1, "batch_size": 25, "trainer": "trades", "trades_beta": 6.0,
                  "attack": {"epsilon": 0.015, "step_size": 0.00375, "steps": 3,
                             "random_start": True},
                  "lr": 0.02, "momentum": 0.9, "weight_decay": 1e-4},
        "policy": {"mode": "re_sfat", "alpha": 1 / 3, "k_hat": 1},
        "optimizer": "fedprox",
        "rounds": 10, "participation": 1.0, "eval_every": 5, "seed": seed,
    }


FLEET_CLIENTS = 100


def fleet_scaffold(seed: int) -> dict:
    # The same spread of shard sizes (8 to 32 samples) in every seed, dealt
    # out in a seed-dependent order, so total work does not vary with the seed.
    counts = [8 + 24 * k // (FLEET_CLIENTS - 1) for k in range(FLEET_CLIENTS)]
    random.Random(seed).shuffle(counts)
    return {
        "dataset": {"kind": "synthetic", "n_per_class": 320, "num_classes": 10, "dim": 64,
                    "separation": 4.0, "placement": "orthogonal", "test_fraction": 0.1},
        "partition": {"num_clients": FLEET_CLIENTS, "mode": "noniid", "skew": 0.5,
                      "sample_counts": counts, "seed": seed},
        "hidden_dims": [256, 128],
        "local": {"epochs": 1, "batch_size": 32, "trainer": "standard",
                  "attack": {"epsilon": 0.05, "step_size": 0.0125, "steps": 1,
                             "random_start": False},
                  "lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4},
        "policy": {"mode": "sfat", "alpha": 1 / 6, "k_hat": 5},
        "optimizer": "scaffold",
        "rounds": 16, "participation": 0.5, "eval_every": 1, "seed": seed,
    }


# Probe reference times: the probe's time in the fast state of a 2-vCPU
# Xeon (Sapphire Rapids) KVM guest, so reported times are that host's
# unloaded times.  They only scale the figures; changing them would make
# figures before and after incomparable.
WORKLOADS = {
    "desk_sfat": Workload(desk_sfat, nat_floor=0.5, pgd20_floor=0.3,
                          probe_reps=50, probe_ref_s=0.0010),
    "wide_trades": Workload(wide_trades, nat_floor=0.5, pgd20_floor=0.3,
                            probe_reps=5, probe_ref_s=0.0058),
    "fleet_scaffold": Workload(fleet_scaffold, nat_floor=0.5, pgd20_floor=0.3,
                               probe_reps=10, probe_ref_s=0.0032),
}
