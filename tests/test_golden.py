"""Golden trajectories: bit-exact replay of seven tiny runs.

Each golden is the SHA-256 of a run's `metrics.csv` followed by its
`checkpoint.bin` (the same digest `bench/run_bench.py` prints).  Together
the configs cover every trainer (at, trades, standard), every optimizer
(fedavg, fedprox, scaffold) and every policy (fat, sfat, re_sfat), plus
partial participation, the `linear_anneal` alpha schedule and exact
`sample_counts` shards, including equal-size shards at non-adjacent rows,
which train in one cohort, a strided view of the upload matrix (see
`local.cohorts`): rows 0, 2 and 1, 4 and 5, 7.

The digests were recorded with float64 numpy 2.4.6 on OpenBLAS 0.3.31's
`SkylakeX` kernel (x86-64, `DYNAMIC_ARCH`; a run pins OpenBLAS to one thread,
see `fedslack.threads`); another BLAS build, kernel or CPU may round
differently.  Regenerate them only for a deliberate change of the
trajectory, and name the reason and the kernel in CHANGES.md.  A refactor or
speed-up must leave every digest as it is.  Each test also checks that every
round's `xi` in `metrics.csv` reads the client rows the server marked.
"""

from __future__ import annotations

import copy
import hashlib

import pytest

from fedslack.runner import config_from_dict, load_metrics, run
from oracles import marked_xi


def base(**top):
    cfg = {
        "dataset": {"kind": "synthetic", "n_per_class": 40, "num_classes": 4, "dim": 3,
                    "separation": 0.8},
        "partition": {"num_clients": 4, "mode": "noniid", "skew": 5.0, "seed": 0},
        "hidden_dims": [6],
        "local": {"epochs": 1, "batch_size": 16, "trainer": "at",
                  "attack": {"epsilon": 0.05, "step_size": 0.0125, "steps": 3,
                             "random_start": True},
                  "lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4},
        "policy": {"mode": "fat"},
        "optimizer": "fedavg",
        "rounds": 3,
        "eval_every": 3,
        "seed": 0,
    }
    for key, value in top.items():
        if isinstance(value, dict):
            cfg[key] = {**cfg[key], **value}
        else:
            cfg[key] = value
    return cfg


GOLDEN = {
    "at_fedavg_fat": (
        base(),
        "1d4b09fb5707436eb451fcc309ded4275c7904cb0b45ae7360a2548a5938da5a"),
    "at_fedprox_sfat_anneal": (
        base(optimizer="fedprox", rounds=4, eval_every=2,
             policy={"mode": "sfat", "alpha": 0.2, "k_hat": 1,
                     "schedule": "linear_anneal", "alpha_end": 0.05,
                     "anneal_rounds": 3}),
        "9e3bb3cbbc3bc009a906849b2f9e101a35326f2656a4729748ca2ea953dd31c3"),
    "trades_fedavg_re_sfat_partial": (
        base(partition={"num_clients": 5}, participation=0.6, rounds=4, eval_every=4,
             local={"trainer": "trades", "trades_beta": 3.0},
             policy={"mode": "re_sfat", "alpha": 1 / 6, "k_hat": 1}, seed=3),
        "51fa98a0b04ccf5e02680d2a46f3f333066fd3a0cfe2e7fa017f0fe3502998f6"),
    "standard_scaffold_sfat_counts": (
        base(optimizer="scaffold",
             partition={"sample_counts": [8, 16, 24, 32]},
             local={"trainer": "standard", "batch_size": 8},
             policy={"mode": "sfat", "alpha": 0.25, "k_hat": 2}, seed=1),
        "59160710cfcd4df7205508b33aef0cdbe21c728898ba9a6525dce528a872fab4"),
    "at_scaffold_sfat_partial": (
        base(optimizer="scaffold", partition={"num_clients": 6, "skew": 4.0},
             participation=0.5, rounds=4, eval_every=2,
             local={"epochs": 2, "batch_size": 12},
             policy={"mode": "sfat", "alpha": 1 / 6, "k_hat": 1}, seed=2),
        "e2ac43fa9886de7c315e4f7179cfc2bc51d80a60d5ef880f8c180b6469b5a0d7"),
    "trades_fedprox_sfat_counts": (
        base(optimizer="fedprox",
             partition={"mode": "iid", "sample_counts": [20, 12, 30, 10]},
             local={"trainer": "trades", "trades_beta": 6.0, "fedprox_mu": 0.05,
                    "momentum": 0.0},
             policy={"mode": "sfat", "alpha": 0.3, "k_hat": 2}, seed=4),
        "02104a2cce7b96f05f196f045482aaf760f9e822ab4b618d871e0e2afcdb7b7d"),
    "at_scaffold_sfat_interleaved_counts": (
        base(optimizer="scaffold",
             partition={"num_clients": 8, "sample_counts": [8, 12, 8, 8, 12, 16, 12, 16]},
             local={"epochs": 2, "batch_size": 8},
             policy={"mode": "sfat", "alpha": 0.2, "k_hat": 2}, seed=5),
        "f6ea4e2c556527557bfea80aa91c9581fcc14ad93a3ecf8fa5228d29ebd8df97"),
}


def run_digest(raw: dict, out_dir) -> str:
    config = config_from_dict({**copy.deepcopy(raw), "out_dir": str(out_dir)})
    run(config)
    h = hashlib.sha256()
    for name in ("metrics.csv", "checkpoint.bin"):
        h.update((out_dir / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_trajectory(name, tmp_path):
    raw, expected = GOLDEN[name]
    got = run_digest(raw, tmp_path)
    assert got == expected, f"{name}: digest {got}, golden {expected}"
    rows = load_metrics(tmp_path / "metrics.csv")
    assert {r["round"]: r["xi"] for r in rows if r["client_id"] == -1} == marked_xi(rows)
