"""Fuzzed configs through `fedslack run`: whatever the value or type of a
documented config key, the CLI exits with a documented code, and a config
error (exit 2) leaves no metrics.csv behind."""

from __future__ import annotations

import copy
import json
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedslack import cli

# A tiny run (1 round, 3 clients, 18 training samples) that exits 0.
BASE = {
    "dataset": {"kind": "synthetic", "n_per_class": 6, "num_classes": 3, "dim": 2,
                "separation": 0.8, "placement": "random", "test_fraction": 0.5},
    "partition": {"num_clients": 3, "mode": "noniid", "skew": 5.0, "seed": 0},
    "hidden_dims": [3],
    "local": {"epochs": 1, "batch_size": 4, "trainer": "at", "trades_beta": 6.0,
              "fedprox_mu": 0.0,
              "attack": {"epsilon": 0.05, "step_size": 0.02, "steps": 2,
                         "random_start": True},
              "lr": 0.05, "momentum": 0.9, "weight_decay": 0.0001},
    "policy": {"mode": "sfat", "alpha": 0.2, "k_hat": 1, "schedule": "constant",
               "alpha_end": 0.0, "anneal_rounds": 0},
    "optimizer": "fedavg",
    "rounds": 1, "participation": 1.0, "eval_every": 1, "seed": 0,
}

# Every key of the README's config block, as a path into BASE.
KEYS = [(key,) for key, value in BASE.items() if not isinstance(value, dict)] + [
    (section, key) for section, value in BASE.items() if isinstance(value, dict)
    for key in value if key != "attack"] + [
    ("local", "attack", key) for key in BASE["local"]["attack"]] + [
    ("partition", "sample_counts")]

# Small values of every JSON type, so that no accepted value makes a run big.
VALUES = [None, True, False, 0, 1, 2, 3, -1, 0.5, 1.5, 2.5, -0.5, 0.999, 1.0, 2.0,
          float("nan"), float("inf"), float("-inf"), "", "x", "2", [], [2], [0], [6, 6, 6],
          {}, "fat", "sfat", "re_sfat", "iid", "noniid", "at", "trades", "standard",
          "linear_anneal", "fedprox", "scaffold", "orthogonal", "csv"]


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)),
                min_size=1, max_size=3))
# Once a TypeError traceback after a header-only metrics.csv, and once an
# empty-shard error in round 1, after metrics.csv was written.
@example([(("rounds",), 1.5)])
@example([(("dataset", "num_classes"), 2)])
def test_fuzzed_config_exits_with_a_documented_code(edits):
    raw = copy.deepcopy(BASE)
    for path, value in edits:
        section = raw
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "config.json", Path(tmp) / "out"
        config.write_text(json.dumps(raw))
        code = cli.main(["run", "--config", str(config), "--out", str(out)])
        assert code in (0, 2, 3, 4), (edits, code)
        if code == cli.EXIT_CONFIG:
            assert not (out / "metrics.csv").exists(), edits
