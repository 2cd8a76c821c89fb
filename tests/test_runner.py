from __future__ import annotations

import json
import math
import os
import re
import struct
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace
from enum import EnumMeta
from typing import get_args, get_type_hints

import numpy as np
import pytest

from fedslack import aggregation, cli, nn, runner, threads
from fedslack.aggregation import AggregationMode, AggregationPolicy
from fedslack.attacks import AttackSpec
from fedslack.data import PartitionSpec
from fedslack.errors import ConfigError, DivergenceError, FormatError
from fedslack.local import LocalConfig, Trainer
from fedslack.runner import (DataKind, DatasetSpec, ExperimentConfig, Placement,
                             config_from_dict, config_to_dict, load_config, load_metrics,
                             run, sample_participants)
from fedslack.streams import stream
from oracles import marked_xi
from test_golden import GOLDEN


def tiny_config(**kw):
    defaults = dict(
        dataset=DatasetSpec(n_per_class=40, num_classes=5, dim=3, separation=0.8),
        partition=PartitionSpec(5, skew=5.0, seed=0),
        hidden_dims=[8],
        local=LocalConfig(epochs=1, batch_size=16,
                          attack=AttackSpec(0.05, 0.0125, steps=4, random_start=True),
                          lr=0.1),
        policy=AggregationPolicy(AggregationMode.FAT),
        rounds=3,
        eval_every=3,
        seed=0,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_single_client_identity(tmp_path):
    cfg = tiny_config(partition=PartitionSpec(2, skew=5.0, seed=0),
                      dataset=DatasetSpec(n_per_class=20, num_classes=2, dim=3),
                      rounds=1, participation=0.5, out_dir=str(tmp_path))
    art = run(cfg)
    assert len(art.reports) == 1
    # only one participant: aggregate equals its upload, so drift is zero,
    # and its pseudo-gradient is its own mean, so the variance is zero
    assert art.reports[0].mean_drift == 0.0
    agg = [r for r in load_metrics(tmp_path / "metrics.csv") if r["client_id"] == -1]
    assert [r["grad_var"] for r in agg] == [0.0]


def test_sfat_alpha_zero_equals_fat_bitwise():
    fat = run(tiny_config())
    sfat = run(tiny_config(policy=AggregationPolicy(AggregationMode.SFAT,
                                                    alpha=0.0, k_hat=1)))
    a = fat.model.params.values
    b = sfat.model.params.values
    assert np.array_equal(a, b)
    for ra, rb in zip(fat.reports, sfat.reports):
        assert ra.mean_drift == rb.mean_drift


def test_rerun_bit_identical_metrics(tmp_path):
    cfg = tiny_config(policy=AggregationPolicy(AggregationMode.SFAT,
                                               alpha=1 / 6, k_hat=1))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    run(replace(cfg, out_dir=str(out_a)))
    run(replace(cfg, out_dir=str(out_b)))
    assert (out_a / "metrics.csv").read_text() == (out_b / "metrics.csv").read_text()
    assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()


def test_sample_participants_full():
    assert sample_participants(7, 1.0, 1, 0) == list(range(7))


def test_sample_participants_ratio():
    ids = sample_participants(20, 0.2, 3, 0)
    assert len(ids) == 4
    assert len(set(ids)) == 4
    assert all(0 <= i < 20 for i in ids)


def test_sample_participants_frequency():
    counts = np.zeros(10)
    rounds = 4000
    for t in range(rounds):
        for i in sample_participants(10, 0.3, t, 1):
            counts[i] += 1
    freq = counts / rounds
    assert np.all(np.abs(freq - 0.3) < 0.02)


def test_metrics_roundtrip(tmp_path):
    cfg = tiny_config(policy=AggregationPolicy(AggregationMode.SFAT,
                                               alpha=1 / 6, k_hat=1))
    art = run(replace(cfg, out_dir=str(tmp_path)))
    rows = load_metrics(tmp_path / "metrics.csv")
    agg_rows = [r for r in rows if r["client_id"] == -1]
    assert [r["round"] for r in agg_rows] == [1, 2, 3]
    for rep, row in zip(art.reports, agg_rows):
        assert row["drift"] == rep.mean_drift
        assert row["grad_var"] == rep.grad_variance
        assert row["xi"] == rep.xi
        assert row["alpha"] == rep.alpha
        assert row["nat_acc"] == rep.nat_acc
    client_rows = [r for r in rows if r["round"] == 1 and r["client_id"] >= 0]
    assert len(client_rows) == 5
    for row in client_rows:
        rec = art.reports[0].clients[row["client_id"]]
        assert row["loss_k"] == rec.loss
        assert row["weighted_loss"] == rec.weighted_loss
        assert row["is_top"] == rec.is_top


@pytest.mark.parametrize("mode, alpha, k_hat", [
    (AggregationMode.FAT, 0.0, 2), (AggregationMode.SFAT, 0.25, 2),
    (AggregationMode.RE_SFAT, 0.25, 2), (AggregationMode.SFAT, 0.0, 2),
    (AggregationMode.SFAT, 0.25, 0)],
    ids=["fat_k_hat_2", "sfat", "re_sfat", "sfat_alpha_0", "k_hat_0"])
def test_xi_reads_the_clients_the_server_marks(mode, alpha, k_hat, tmp_path):
    # xi used to count the k_hat smallest-loss clients whenever k_hat > 0, though
    # re_sfat marks the largest and fat and alpha 0 mark none; shards of unequal
    # size, no two of which together hold half the samples, tell the sets apart
    run(tiny_config(partition=PartitionSpec(4, mode="iid", sample_counts=[6, 10, 20, 36]),
                    policy=AggregationPolicy(mode, alpha=alpha, k_hat=k_hat),
                    out_dir=str(tmp_path)))
    rows = load_metrics(tmp_path / "metrics.csv")
    assert {r["round"]: r["xi"] for r in rows if r["client_id"] == -1} == marked_xi(rows)
    marks = mode is not AggregationMode.FAT and alpha > 0 and k_hat > 0
    assert {r["is_top"] for r in rows if r["client_id"] >= 0} == ({False, True} if marks
                                                                   else {False})


def test_alpha_schedule_in_reports():
    from fedslack.aggregation import AlphaSchedule
    policy = AggregationPolicy(AggregationMode.SFAT, alpha=1 / 6, k_hat=1,
                               schedule=AlphaSchedule.LINEAR_ANNEAL,
                               alpha_end=0.0, anneal_rounds=3)
    art = run(tiny_config(policy=policy))
    alphas = [r.alpha for r in art.reports]
    assert alphas[0] == pytest.approx(1 / 6)
    assert alphas[-1] == pytest.approx(0.0)
    assert alphas[0] > alphas[1] > alphas[2]


def test_partial_participation_caps_khat():
    cfg = tiny_config(policy=AggregationPolicy(AggregationMode.SFAT,
                                               alpha=1 / 6, k_hat=2),
                      participation=0.6, rounds=2)  # 3 participants -> k_hat 1
    art = run(cfg)
    for rep in art.reports:
        assert sum(c.is_top for c in rep.clients) == 1


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_config(policy=AggregationPolicy(AggregationMode.SFAT,
                                               alpha=1 / 6, k_hat=1))
    d = config_to_dict(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(d))
    loaded = load_config(path)
    assert loaded == cfg


def test_invalid_config_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(rounds=0)
    with pytest.raises(ConfigError):
        ExperimentConfig(participation=0.0)
    with pytest.raises(ConfigError):
        config_from_dict({"rounds": "not a number"})


def test_fedprox_and_scaffold_optimizers_run():
    for opt in ("fedprox", "scaffold"):
        art = run(tiny_config(optimizer=opt, rounds=2, eval_every=0))
        assert len(art.reports) == 2
        assert np.all(np.isfinite(art.model.params.values))


def write_config(tmp_path, **kw):
    cfg = tiny_config(**kw)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return path


def test_cli_run_and_trace(tmp_path, capsys):
    path = write_config(tmp_path,
                        policy=AggregationPolicy(AggregationMode.SFAT,
                                                 alpha=1 / 6, k_hat=1))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "metrics.csv").exists()
    assert cli.main(["trace-topk", "--run", str(out)]) == 0
    text = capsys.readouterr().out
    assert "top-set selections" in text


# the fleet benchmark's shapes: 50 of 100 one-batch clients a round, a
# 64-256-128-10 MLP (50,826 parameters) and SCAFFOLD, so that the server
# step splits its work over the cores; two rounds and no eval
FLEET_STEP = {
    "dataset": {"kind": "synthetic", "n_per_class": 320, "num_classes": 10, "dim": 64,
                "separation": 4.0, "placement": "orthogonal", "test_fraction": 0.1},
    "partition": {"num_clients": 100, "mode": "noniid", "skew": 0.5,
                  "sample_counts": [8 + 24 * k // 99 for k in range(100)], "seed": 0},
    "hidden_dims": [256, 128],
    "local": {"epochs": 1, "batch_size": 32, "trainer": "standard", "lr": 0.1,
              "momentum": 0.9},
    "policy": {"mode": "sfat", "alpha": 1 / 6, "k_hat": 5},
    "optimizer": "scaffold", "rounds": 2, "participation": 0.5, "eval_every": 0, "seed": 0,
}


def test_a_non_finite_aggregate_stops_its_round_before_the_scaffold_update(
        monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(threads, "cores", lambda: 2)
    aggregate, calls = runner.slack_aggregate, []

    def poisoned(uploads, weights):     # every second call's aggregate has a NaN
        out = aggregate(uploads, weights)
        calls.append(None)
        if len(calls) % 2 == 0:
            out[7] = np.nan
        return out

    monkeypatch.setattr(runner, "slack_aggregate", poisoned)
    state = runner.RunState(config_from_dict(FLEET_STEP))
    assert len(threads.halves(len(state.uploads), state.uploads.size)) == 2
    state.server_step(1, state.train_round(1))
    kept = [a.copy() for a in (state.model.params.values, state.c_global, state.c_locals)]
    participants = state.train_round(2)
    with pytest.raises(DivergenceError, match=r"^round 2: non-finite aggregate$"):
        state.server_step(2, participants)
    now = (state.model.params.values, state.c_global, state.c_locals)
    assert all(np.array_equal(a, b) for a, b in zip(now, kept))

    path, out = tmp_path / "config.json", tmp_path / "out"
    path.write_text(json.dumps(FLEET_STEP))
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_DIVERGED
    assert "round 2: non-finite aggregate" in capsys.readouterr().err
    assert np.array_equal(nn.load_checkpoint(out / "checkpoint.bin").params.values, kept[0])
    assert {row["round"] for row in load_metrics(out / "metrics.csv")} == {1}


def test_cli_partition_inspect(tmp_path, capsys):
    path = write_config(tmp_path)
    assert cli.main(["partition", "inspect", "--config", str(path)]) == 0
    text = capsys.readouterr().out
    assert "client" in text


def test_cli_eval(tmp_path, capsys):
    path = write_config(tmp_path)
    out = tmp_path / "out"
    cli.main(["run", "--config", str(path), "--out", str(out)])
    # build a small csv test set
    from fedslack.data import make_synthetic
    ds = make_synthetic(10, 5, 3, 0.8, seed=0)
    csv_path = tmp_path / "test.csv"
    lines = ["label," + ",".join(f"f{i}" for i in range(3))]
    for x, y in zip(ds.features, ds.labels):
        lines.append(f"{y}," + ",".join(repr(float(v)) for v in x))
    csv_path.write_text("\n".join(lines) + "\n")
    for attack in ("none", "fgsm", "pgd20"):
        assert cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                         "--test", str(csv_path), "--attack", attack]) == 0
    assert "accuracy" in capsys.readouterr().out


def test_cli_sweep(tmp_path, capsys):
    path = write_config(tmp_path, rounds=2, eval_every=2,
                        policy=AggregationPolicy(AggregationMode.SFAT,
                                                 alpha=1 / 6, k_hat=1))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--param", "alpha",
                     "--values", "0.0", "0.2", "--out", str(out)]) == 0
    results = json.loads((out / "sweep.json").read_text())
    assert [r["value"] for r in results] == [0.0, 0.2]


def test_cli_bad_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["run", "--config", str(bad)]) == cli.EXIT_CONFIG


def test_cli_unknown_flag_exit_code():
    assert cli.main(["run", "--nope"]) == cli.EXIT_CONFIG


def test_crash_leaves_valid_prefix(tmp_path, monkeypatch):
    # kill the run mid-way: the csv must still parse and contain whole rounds
    cfg = tiny_config(rounds=5, eval_every=0, out_dir=str(tmp_path / "out"))
    calls = {"n": 0}
    orig = runner.slack_aggregate

    def boom(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 3:
            raise KeyboardInterrupt
        return orig(*args, **kwargs)

    monkeypatch.setattr(runner, "slack_aggregate", boom)
    with pytest.raises(KeyboardInterrupt):
        run(cfg)
    rows = load_metrics(tmp_path / "out" / "metrics.csv")
    rounds = {r["round"] for r in rows}
    assert rounds == {1, 2}
    assert all(len([r for r in rows if r["round"] == t]) == 6 for t in rounds)


def test_config_from_dict_leaves_its_input_unchanged():
    raw = {"local": {"attack": {"epsilon": 0.1, "step_size": 0.02, "steps": 3}},
           "rounds": 2}
    snapshot = json.loads(json.dumps(raw))
    first = config_from_dict(raw)
    second = config_from_dict(raw)
    assert raw == snapshot
    assert first == second
    assert second.local.attack.epsilon == 0.1


def test_cli_run_rejects_unknown_top_level_key(tmp_path, capsys):
    path = tmp_path / "typo.json"
    path.write_text(json.dumps({"round": 3}))
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "round" in capsys.readouterr().err


def test_omitted_config_sections_take_experiment_defaults():
    assert config_from_dict({}) == ExperimentConfig()
    assert config_from_dict({}).partition.skew == 5.0


@pytest.mark.parametrize("section", [{"num_clients": 5}, {"num_clients": 10},
                                     {"mode": "iid"}, {"seed": 3, "sample_counts": None}])
def test_a_partial_partition_section_takes_the_default_partition_for_omitted_keys(section):
    # such a section used to be built from PartitionSpec's own defaults: skew 0.0,
    # and a TypeError naming no key when it left out num_clients
    config = config_from_dict({"partition": section})
    assert config.partition == replace(ExperimentConfig().partition, **section)
    assert config.partition.skew == 5.0


def test_cli_runs_a_partition_section_that_sets_only_num_clients(tmp_path):
    # at skew 0.0 clients 5 to 9 owned no class, and the run exited 2 with
    # "the partition leaves client 5 no samples"
    raw = {"rounds": 1, "eval_every": 0, "hidden_dims": [4],
           "dataset": {"n_per_class": 20, "num_classes": 5, "dim": 2},
           "partition": {"num_clients": 10}}
    assert run_cli_on(tmp_path, raw) == (0, True)
    written = json.loads((tmp_path / "out" / "config.json").read_text())
    assert written["partition"]["skew"] == 5.0


ENUM_CHOICES = [("local.trainer", "standard, at, trades"), ("policy.mode", "fat, sfat, re_sfat"),
                ("policy.schedule", "constant, linear_anneal"),
                ("partition.mode", "iid, noniid"), ("optimizer", "fedavg, fedprox, scaffold"),
                ("dataset.kind", "synthetic, csv, idx"),
                ("dataset.placement", "random, orthogonal")]


def test_dataset_kind_and_placement_are_read_without_regard_to_case(tmp_path):
    # both were the only choice keys read with regard to case: "CSV" exited 2
    raw = {"rounds": 1, "eval_every": 0, "hidden_dims": [4],
           "dataset": {"kind": "Synthetic", "placement": "ORTHOGONAL", "n_per_class": 10,
                       "num_classes": 3, "dim": 3}}
    config = config_from_dict(raw)
    assert (config.dataset.kind, config.dataset.placement) == (DataKind.SYNTHETIC,
                                                               Placement.ORTHOGONAL)
    assert config_from_dict({"dataset": {"kind": "CSV"}}).dataset.kind is DataKind.CSV
    assert run_cli_on(tmp_path, raw) == (0, True)
    written = json.loads((tmp_path / "out" / "config.json").read_text())["dataset"]
    assert (written["kind"], written["placement"]) == ("synthetic", "orthogonal")


@pytest.mark.parametrize("path, choices", [pytest.param(*pc, id=pc[0]) for pc in ENUM_CHOICES])
def test_an_unknown_enum_value_names_its_key_and_choices(tmp_path, capsys, path, choices):
    # each used to print "invalid config: 'xyz' is not a valid <Enum>", naming no key
    *sections, name = path.split(".")
    raw = section = {}
    for key in sections:
        section = section.setdefault(key, {})
    section[name] = "xyz"
    message = f"{path} must be one of {choices}, got 'xyz'"
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(raw)
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("path, choices", [pytest.param(*pc, id=pc[0]) for pc in ENUM_CHOICES])
def test_a_section_given_an_unknown_enum_value_names_its_bare_field(path, choices):
    # constructing a section so used to raise ValueError: 'xyz' is not a valid <Enum>
    *sections, name = path.split(".")
    section = ExperimentConfig()
    for key in sections:
        section = getattr(section, key)
    message = f"{name} must be one of {choices}, got 'xyz'"
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        replace(section, **{name: "xyz"})
    last = choices.split(", ")[-1]
    fits = {"dim": 5} if last == "orthogonal" else {}   # as many dims as the 5 classes
    assert getattr(replace(section, **{name: last.upper()}, **fits), name).value == last


def test_every_choice_field_declares_its_choices():
    # `check_bounds` reads an enum field's choices off its default; a str
    # field that names no path is a choice key declared as no enum
    free = {"train_path", "train_labels_path", "test_path", "test_labels_path", "out_dir"}
    sections = [DatasetSpec, ExperimentConfig, LocalConfig, AggregationPolicy, PartitionSpec,
                AttackSpec]
    named = set()
    for section in sections:
        hints = get_type_hints(section)
        for f in fields(section):
            hint, where = hints[f.name], f"{section.__name__}.{f.name}"
            if isinstance(hint, EnumMeta):
                assert isinstance(f.default, hint), f"{where}'s default is no {hint.__name__}"
            else:
                assert str not in (hint, *get_args(hint)) or f.name in free, \
                    f"{where} declares no choices"
            named |= {f.name} & free
    assert named == free


def test_enum_values_are_read_case_insensitively():
    config = config_from_dict({"local": {"trainer": "TRADES"}, "optimizer": "FedProx"})
    assert config.local.trainer is Trainer.TRADES
    assert config.optimizer is runner.FedOptimizer.FEDPROX


def test_cli_run_rejects_fedprox_mu_without_fedprox(tmp_path, capsys):
    raw = config_to_dict(tiny_config())
    raw["local"]["fedprox_mu"] = 0.05
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "fedprox_mu" in capsys.readouterr().err


@pytest.mark.parametrize("mu, expected", [(0.0, 0.01), (0.05, 0.05)])
def test_config_json_records_the_fedprox_mu_a_run_trains_with(tmp_path, mu, expected):
    # a fedprox_mu of 0 under fedprox trains with 0.01, which config.json used to record as 0.0
    raw = config_to_dict(tiny_config(rounds=1, eval_every=0))
    raw["optimizer"] = "fedprox"
    raw["local"]["fedprox_mu"] = mu
    assert config_from_dict(raw).local.fedprox_mu == expected
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_OK, True)
    written = json.loads((tmp_path / "out" / "config.json").read_text())
    assert written["local"]["fedprox_mu"] == expected
    assert replace(config_from_dict(written), out_dir=None) == config_from_dict(raw)


def test_a_float_key_given_as_an_integer_writes_the_bytes_of_the_float(tmp_path):
    # "alpha": 0 used to write 0 in config.json and metrics.csv, "alpha": 0.0 wrote 0.0
    written = []
    for alpha in (0, 0.0):
        raw = config_to_dict(tiny_config(rounds=1, eval_every=0))
        raw["policy"] = {"mode": "sfat", "alpha": alpha, "k_hat": 1}
        assert run_cli_on(tmp_path, raw) == (cli.EXIT_OK, True)
        written.append([(tmp_path / "out" / name).read_bytes()
                        for name in ("config.json", "metrics.csv")])
    assert written[0] == written[1]


@pytest.mark.parametrize("raw, message", [
    ({"policy": {"alpha": 1.5}}, "policy.alpha must be in [0, 1), got 1.5"),
    ({"policy": {"k_hat": -1}}, "policy.k_hat must be >= 0, got -1"),
    ({"partition": {"skew": 60.0}},
     "partition.skew 60.0 leaves majority share -140.0% <= minority share"),
    # 3 samples per class: 19% of them rounds to 1 for each of 4 minority clients
    ({"dataset": {"n_per_class": 3}, "partition": {"skew": 19.0}},
     "partition.skew 19.0 leaves the majority client under-represented"),
], ids=["alpha", "k_hat", "skew", "under-represented"])
def test_policy_and_partition_errors_name_their_full_key(tmp_path, capsys, raw, message):
    assert run_cli_on(tmp_path, {"rounds": 1, "eval_every": 0, **raw}) == (
        cli.EXIT_CONFIG, False)
    assert message in capsys.readouterr().err


def test_cli_run_rejects_local_scaffold_flag(tmp_path, capsys):
    raw = config_to_dict(tiny_config())
    raw["local"]["scaffold"] = True
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "scaffold" in capsys.readouterr().err


def test_cli_eval_rejects_truncated_checkpoint_header(tmp_path):
    ckpt = tmp_path / "cut.bin"
    ckpt.write_bytes(b"FSLK\x01\x00")
    csv_path = tmp_path / "test.csv"
    csv_path.write_text("label,f0,f1,f2\n0,0.1,0.2,0.3\n")
    assert cli.main(["eval", "--checkpoint", str(ckpt),
                     "--test", str(csv_path)]) == cli.EXIT_CONFIG


def write_csv(path, rows):
    """A `label,f0,...` CSV of (label, features) rows; returns its path."""
    lines = ["label," + ",".join(f"f{i}" for i in range(len(rows[0][1])))]
    lines += [f"{y}," + ",".join(repr(float(v)) for v in x) for y, x in rows]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def eval_on_csv(tmp_path, rows, attack, *flags):
    """Exit code of `fedslack eval` of a 3-feature, 2-class checkpoint on a CSV of `rows`."""
    ckpt = tmp_path / "model.bin"
    nn.save_checkpoint(nn.Model.init([3, 4, 2], stream(0, "init")), ckpt)
    csv_path = write_csv(tmp_path / "test.csv", rows)
    return cli.main(["eval", "--checkpoint", str(ckpt), "--test", csv_path,
                     "--attack", attack, *flags])


def test_cli_eval_rejects_feature_outside_unit_interval(tmp_path):
    rows = [(0, (0.2, 1.5, 0.3)), (1, (0.1, 0.4, 0.9))]
    assert eval_on_csv(tmp_path, rows, "pgd20") == cli.EXIT_CONFIG


def test_cli_eval_rejects_negative_label(tmp_path):
    rows = [(-1, (0.2, 0.5, 0.3)), (1, (0.1, 0.4, 0.9))]
    assert eval_on_csv(tmp_path, rows, "none") == cli.EXIT_CONFIG


def test_cli_eval_rejects_label_beyond_checkpoint_classes(tmp_path):
    rows = [(4, (0.2, 0.5, 0.3)), (1, (0.1, 0.4, 0.9))]
    assert eval_on_csv(tmp_path, rows, "none") == cli.EXIT_CONFIG


@pytest.mark.parametrize("rows, error", [
    ([(0, (0.2, 0.5)), (1, (0.1, 0.4))], "batch has shape (2, 2), expected (n, 4)"),
    ([(7, (0.2, 0.5, 0.3, 0.1)), (1, (0.1, 0.4, 0.9, 0.6))], "labels must lie in [0, 3)")])
def test_cli_eval_names_both_files_when_the_test_set_does_not_fit(tmp_path, capsys, rows,
                                                                  error):
    # the error used to name neither file
    ckpt = tmp_path / "model.bin"
    nn.save_checkpoint(nn.Model.init([4, 5, 3], stream(0, "init")), ckpt)
    csv_path = write_csv(tmp_path / "test.csv", rows)
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--test", csv_path]) == cli.EXIT_CONFIG
    assert f"{csv_path} does not fit checkpoint {ckpt}: {error}" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--step-size", "0"), ("--epsilon", "-0.1")])
def test_cli_eval_names_the_attack_flag(tmp_path, capsys, flag, value):
    # used to name the field ("step_size must be ..."), not the flag
    assert eval_on_csv(tmp_path, [(0, (0.2, 0.5, 0.3))], "fgsm", flag, value) == cli.EXIT_CONFIG
    assert f"{flag}: {flag[2:].replace('-', '_')} must be" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("hidden_dims", [0]), ("lr", -1), ("momentum", 1.0),
                                        ("weight_decay", -1e-4), ("fedprox_mu", -0.1)])
def test_cli_run_rejects_bad_values_before_writing(tmp_path, capsys, key, value):
    # rejected when the config is parsed: no config.json, no header-only metrics.csv
    raw = config_to_dict(tiny_config(optimizer="fedprox"))
    (raw if key == "hidden_dims" else raw["local"])[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("section, key, value", [
    (None, "seed", -1), ("partition", "seed", -3), ("dataset", "separation", math.nan),
    ("dataset", "separation", math.inf), ("dataset", "separation", -math.inf),
    ("local", "lr", math.inf), ("local", "weight_decay", math.inf),
    ("local", "fedprox_mu", math.inf)])
def test_cli_run_names_a_negative_seed_or_non_finite_separation(tmp_path, capsys, section,
                                                                key, value):
    raw = config_to_dict(tiny_config())
    (raw[section] if section else raw)[key] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"{section + '.' if section else ''}{key} must be" in capsys.readouterr().err
    assert not out.exists()


def test_cli_run_names_a_negative_seed_flag(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(tiny_config())))
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--seed", "-1",
                     "--out", str(out)]) == cli.EXIT_CONFIG
    assert "seed must be >= 0, got -1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("bad_row", ["1,0.1,0.4", "1,0.1,0.4,0.9,0.5", "1,0.1,x,0.9"])
def test_cli_eval_names_the_line_of_a_malformed_csv_row(tmp_path, capsys, bad_row):
    ckpt = tmp_path / "model.bin"
    nn.save_checkpoint(nn.Model.init([3, 4, 2], stream(0, "init")), ckpt)
    csv_path = tmp_path / "test.csv"
    csv_path.write_text(f"label,f0,f1,f2\n0,0.2,0.5,0.3\n{bad_row}\n")
    assert cli.main(["eval", "--checkpoint", str(ckpt),
                     "--test", str(csv_path)]) == cli.EXIT_CONFIG
    assert "line 3" in capsys.readouterr().err


def run_cli_on(tmp_path, raw):
    """Exit code of `fedslack run` on `raw`, and whether it left a metrics.csv."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(path), "--out", str(out)])
    return code, (out / "metrics.csv").exists()


@pytest.mark.parametrize("key, value", [("epsilon", float("nan")), ("epsilon", float("inf")),
                                        ("epsilon", float("-inf")),
                                        ("step_size", float("nan")),
                                        ("step_size", float("inf"))])
def test_cli_run_rejects_non_finite_attack_values(tmp_path, capsys, key, value):
    # NaN epsilon used to train STANDARD silently, inf epsilon to end in an
    # OverflowError traceback, and NaN step size to be reported as a divergence
    raw = config_to_dict(tiny_config())
    raw["local"]["attack"][key] = value
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert f"attack.{key}" in capsys.readouterr().err


@pytest.mark.parametrize("path", [("dataset", "separation"), ("local", "lr"),
                                  ("local", "attack", "epsilon")])
def test_cli_run_rejects_an_integer_beyond_float64_for_a_float_key(tmp_path, capsys, path):
    # json reads 1 followed by 400 zeros as an int, which float() cannot hold:
    # it used to end in an OverflowError traceback (exit 1)
    raw = config_to_dict(tiny_config())
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = 10 ** 400
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert f"{'.'.join(path)} must fit a float64" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [("alpha_end", 1.5), ("alpha_end", float("nan")),
                                        ("alpha_end", -0.1), ("anneal_rounds", -1)])
def test_cli_run_rejects_bad_alpha_schedule_before_writing(tmp_path, capsys, key, value):
    raw = config_to_dict(tiny_config(
        policy=AggregationPolicy(AggregationMode.SFAT, 0.2, 1, schedule="linear_anneal",
                                 alpha_end=0.1, anneal_rounds=3)))
    raw["policy"][key] = value
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert f"policy.{key}" in capsys.readouterr().err


def test_cli_run_rejects_the_removed_k_hat_absolute_key(tmp_path, capsys):
    # k_hat is capped at half the participants; the key that once forbade the
    # cap is gone, and a config that still sets it names it and exits 2
    raw = config_to_dict(tiny_config(policy=AggregationPolicy(AggregationMode.SFAT, 0.2, 2),
                                     participation=0.6))
    assert "k_hat_absolute" not in raw
    raw["k_hat_absolute"] = True
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert "k_hat_absolute" in capsys.readouterr().err


# Every bounded config key, its bound as the message states it (an integer n
# for ">= n"), and the values just past it; a float key also takes NaN and
# the infinities its bound excludes.
TINY = math.nextafter(0.0, -1.0)      # the negative float nearest 0
ABOVE_ONE = math.nextafter(1.0, 2.0)
NON_FINITE = [math.nan, math.inf, -math.inf]
BOUNDS = [
    ("dataset.n_per_class", 1, [0]), ("dataset.num_classes", 2, [1]),
    ("dataset.dim", 1, [0]), ("dataset.separation", "finite", NON_FINITE),
    ("dataset.test_fraction", "finite and > 0", [0.0, *NON_FINITE]),
    ("rounds", 1, [0]), ("participation", "in (0, 1]", [0.0, ABOVE_ONE, *NON_FINITE]),
    ("eval_every", 0, [-1]), ("seed", 0, [-1]),
    ("local.epochs", 1, [0]), ("local.batch_size", 1, [0]),
    ("local.trades_beta", "finite and >= 0", [TINY, *NON_FINITE]),
    ("local.fedprox_mu", "finite and >= 0", [TINY, *NON_FINITE]),
    ("local.lr", "finite and > 0", [0.0, *NON_FINITE]),
    ("local.momentum", "in [0, 1)", [TINY, 1.0, *NON_FINITE]),
    ("local.weight_decay", "finite and >= 0", [TINY, *NON_FINITE]),
    ("local.attack.epsilon", "finite and >= 0", [TINY, *NON_FINITE]),
    ("local.attack.step_size", "finite and > 0", [0.0, *NON_FINITE]),
    ("local.attack.steps", 1, [0]),
    ("policy.alpha", "in [0, 1)", [TINY, 1.0, *NON_FINITE]),
    ("policy.k_hat", 0, [-1]),
    ("policy.alpha_end", "in [0, 1)", [TINY, 1.0, *NON_FINITE]),
    ("policy.anneal_rounds", 0, [-1]),
    ("partition.num_clients", 2, [0, 1]),
    ("partition.skew", 0, [TINY, math.nan, -math.inf]),    # +inf stays legal
    ("partition.seed", 0, [-1])]


@pytest.mark.parametrize("key, value, bound", [
    (key, value, bound) for key, bound, values in BOUNDS for value in values])
def test_cli_run_names_a_bad_size_key_before_writing(tmp_path, capsys, key, value, bound):
    # each used to print a message naming no key, or no section, and some
    # keys let NaN or an infinity through
    raw = config_to_dict(tiny_config())
    *sections, name = key.split(".")
    section = raw
    for s in sections:
        section = section[s]
    section[name] = value
    message = f"{key} must be {f'>= {bound}' if isinstance(bound, int) else bound}, got {value}"
    with pytest.raises(ConfigError, match=re.escape(message)):
        config_from_dict(raw)
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_every_numeric_config_field_declares_a_bound():
    # a list is checked entry by entry, a section field by field
    unbounded = {"hidden_dims", "sample_counts", "dataset", "partition", "local", "policy",
                 "attack"}

    def numeric(hint):
        return hint in (int, float) or is_dataclass(hint) or any(map(numeric, get_args(hint)))

    sections = [DatasetSpec, ExperimentConfig, LocalConfig, AggregationPolicy, PartitionSpec,
                AttackSpec]
    named = set()
    for section in sections:
        hints = get_type_hints(section)
        for f in fields(section):
            if numeric(hints[f.name]) and f.name not in unbounded:
                assert "bound" in f.metadata, f"{section.__name__}.{f.name} declares no bound"
            named |= {f.name} & unbounded
    assert named == unbounded


@pytest.mark.parametrize("raw", [{"partition": {"num_clients": 10 ** 20, "mode": "iid"}},
                                 {"partition": {"num_clients": 201, "skew": 0.0}}],
                         ids=["iid", "noniid"])
def test_cli_run_rejects_more_clients_than_training_samples_before_writing(tmp_path, capsys,
                                                                          raw):
    # 10**20 IID clients used to end in an OverflowError traceback from the
    # split (and NONIID ones to build 10**20 lists); 201 NONIID clients of
    # 200 samples named only the first empty shard
    assert run_cli_on(tmp_path, {"rounds": 1, "eval_every": 0, "dataset": {
        "n_per_class": 40, "num_classes": 5}, **raw}) == (cli.EXIT_CONFIG, False)
    assert (f"partition.num_clients {raw['partition']['num_clients']} exceeds the "
            f"200 training samples") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dataset, message", [
    ({"test_fraction": 1e307}, "dataset.test_fraction 1e+307 times n_per_class 200 overflows"),
    ({"n_per_class": 10 ** 400}, "Maximum allowed dimension exceeded")],
    ids=["test_fraction", "n_per_class"])
def test_cli_run_rejects_a_test_set_size_beyond_float64(tmp_path, capsys, dataset, message):
    # a test_fraction of 1e307 used to end in an OverflowError traceback when
    # the test set was drawn; an n_per_class beyond float64 is not a traceback
    assert run_cli_on(tmp_path, {"dataset": dataset}) == (cli.EXIT_CONFIG, False)
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# Run in a child whose address space is capped at 1.5 GB: each config asks
# for tens of GB or more than numpy can index, and must never run uncapped.
ALLOCATION_CHILD = """
import json, os, resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 29, 3 << 29))
from fedslack import cli
for i, (command, raw) in enumerate(json.loads(sys.argv[2])):
    path, out = os.path.join(sys.argv[1], f"{i}.json"), os.path.join(sys.argv[1], f"out{i}")
    with open(path, "w") as f:
        json.dump(raw, f)
    args = ["run", "--config", path, "--out", out] if command == "run" else \
        ["partition", "inspect", "--config", path]
    code = cli.main(args)
    print(json.dumps([code, os.path.exists(out)]), file=sys.stderr, flush=True)
"""


def test_cli_names_the_keys_sizing_an_array_numpy_cannot_allocate(tmp_path):
    # the first four used to exit 1 with numpy's _ArrayMemoryError traceback,
    # the next two 2 with "Maximum allowed dimension exceeded", naming no key
    pytest.importorskip("resource")
    data = "dataset.n_per_class {}, num_classes {}, dim {} and test_fraction 0.25 size arrays"
    model = ("hidden_dims [{}] (between the data's 4 features and 5 classes) and "
             "partition.num_clients {} size arrays")
    cases = [("run", {"dataset": {"n_per_class": 10 ** 9}}, data.format(10 ** 9, 5, 4)),
             ("run", {"dataset": {"num_classes": 10 ** 9}}, data.format(200, 10 ** 9, 4)),
             ("run", {"dataset": {"dim": 10 ** 9}}, data.format(200, 5, 10 ** 9)),
             ("run", {"hidden_dims": [10 ** 9]}, model.format(10 ** 9, 5)),
             ("run", {"dataset": {"n_per_class": 10 ** 23}}, data.format(10 ** 23, 5, 4)),
             ("run", {"hidden_dims": [10 ** 30]}, model.format(10 ** 30, 5)),
             ("run", {"hidden_dims": [10 ** 5], "partition": {"num_clients": 1000,
                                                              "mode": "iid"}},
              model.format(10 ** 5, 1000)),
             ("partition", {"dataset": {"n_per_class": 10 ** 9}}, data.format(10 ** 9, 5, 4))]
    child = subprocess.run(
        [sys.executable, "-c", ALLOCATION_CHILD, str(tmp_path),
         json.dumps([[command, {"rounds": 1, **raw}] for command, raw, _ in cases])],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    lines = child.stderr.splitlines()
    assert child.returncode == 0 and len(lines) == 2 * len(cases), child.stderr
    for (_, _, message), error, result in zip(cases, lines[::2], lines[1::2]):
        assert error.startswith(f"error: {message} numpy cannot allocate: ")
        assert json.loads(result) == [cli.EXIT_CONFIG, False]


@pytest.mark.parametrize("value", [float("nan"), -1.0, float("inf")])
def test_cli_run_rejects_bad_trades_beta_before_writing(tmp_path, capsys, value):
    # a NaN or negative beta used to train TRADES as standard training silently
    raw = config_to_dict(tiny_config(local=LocalConfig(trainer="trades", batch_size=16)))
    raw["local"]["trades_beta"] = value
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert "local.trades_beta" in capsys.readouterr().err


@pytest.mark.parametrize("path, value", [
    (("rounds",), 1.5), (("eval_every",), 2.5), (("local", "epochs"), 1.5),
    (("local", "batch_size"), 2.5), (("local", "attack", "steps"), 2.5),
    (("policy", "k_hat"), 1.5), (("policy", "anneal_rounds"), 2.5),
    (("partition", "num_clients"), 5.0), (("rounds",), True), (("local", "epochs"), "2"),
    (("seed",), float("nan"))])
def test_cli_run_rejects_non_integer_counts_before_writing(tmp_path, capsys, path, value):
    # {"rounds": 1.5} or steps 2.5 used to end in a TypeError traceback after
    # writing a header-only metrics.csv
    raw = config_to_dict(tiny_config(policy=AggregationPolicy(AggregationMode.SFAT, 0.2, 1)))
    section = raw
    for key in path[:-1]:
        section = section[key]
    section[path[-1]] = value
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert ".".join(path) + " must be of type int" in capsys.readouterr().err


@pytest.mark.parametrize("value", [float("nan"), 0.0, -1.0, float("inf")])
def test_cli_run_rejects_bad_test_fraction_before_writing(tmp_path, capsys, value):
    # NaN or <= 0 used to shrink the test set to one sample per class silently
    raw = config_to_dict(tiny_config())
    raw["dataset"]["test_fraction"] = value
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert "dataset.test_fraction" in capsys.readouterr().err


def test_test_fraction_above_one_stays_legal():
    assert config_from_dict({"dataset": {"test_fraction": 2.0}}).dataset.test_fraction == 2.0


def test_runner_sorts_once_per_round(monkeypatch):
    # one sort by weighted loss per round, whichever module it is reached through
    calls = []
    original = aggregation.sort_by_weighted_loss

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(runner, "sort_by_weighted_loss", counted)
    monkeypatch.setattr(aggregation, "sort_by_weighted_loss", counted)
    run(tiny_config(policy=AggregationPolicy(AggregationMode.SFAT, 1 / 6, 1), rounds=3))
    assert len(calls) == 3


def test_cli_run_rejects_a_partition_with_an_empty_shard_before_writing(tmp_path, capsys):
    # client 2 of 3 owns none of the 2 classes, and a 5% share of 5 samples
    # rounds to none: this used to fail in round 1, after metrics.csv existed
    raw = config_to_dict(tiny_config(dataset=DatasetSpec(n_per_class=5, num_classes=2, dim=3),
                                     partition=PartitionSpec(3, skew=5.0)))
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert "client 2" in capsys.readouterr().err


@pytest.mark.parametrize("param, value", [("clients", "4.7"), ("khat", "1.9"),
                                          ("clients", "nan")])
def test_cli_sweep_rejects_non_integer_counts_before_any_run(tmp_path, capsys, param, value):
    # int() used to truncate 4.7 to 4 and label the run "clients=4.7"
    path = write_config(tmp_path, rounds=1, eval_every=0)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--param", param,
                     "--values", "2", value, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"--param {param}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("param, value, message", [
    ("alpha", "1.5", "policy.alpha must be in [0, 1), got 1.5"),
    ("ratio", "nan", "participation must be in (0, 1], got nan"),
    ("epsilon", "-1", "local.attack.epsilon must be finite and >= 0, got -1.0"),
    ("clients", "4.5", "partition.num_clients must be of type int, got 4.5")])
def test_cli_sweep_names_a_bad_value_as_a_config_file_would(tmp_path, capsys, param, value,
                                                             message):
    path = write_config(tmp_path, rounds=1, eval_every=0)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--param", param,
                     "--values", value, "--out", str(out)]) == cli.EXIT_CONFIG
    assert f"--param {param}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_a_sweep_value_sets_its_key_as_replace_does():
    base = tiny_config(policy=AggregationPolicy(AggregationMode.SFAT, 0.2, 1))
    attack = replace(base.local.attack, epsilon=0.0)
    assert cli._apply_sweep_value(base, "alpha", 0.1) == replace(
        base, policy=replace(base.policy, alpha=0.1))
    assert cli._apply_sweep_value(base, "khat", 2.0) == replace(
        base, policy=replace(base.policy, k_hat=2))
    assert cli._apply_sweep_value(base, "epsilon", 0.0) == replace(
        base, local=replace(base.local, attack=attack))
    assert cli._apply_sweep_value(base, "clients", 4.0) == replace(
        base, partition=replace(base.partition, num_clients=4))
    assert cli._apply_sweep_value(base, "ratio", 1.0) == replace(base, participation=1.0)


def test_cli_run_rejects_negative_eval_every_before_writing(tmp_path, capsys):
    raw = config_to_dict(tiny_config())
    raw["eval_every"] = -1
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert "eval_every" in capsys.readouterr().err
    assert run_cli_on(tmp_path, config_to_dict(tiny_config(rounds=1, eval_every=0))) == (0, True)


@pytest.mark.parametrize("sample_counts", [None, [40, 40, 40, 40, 40]])
def test_cli_run_rejects_nan_skew_before_writing(tmp_path, capsys, sample_counts):
    raw = config_to_dict(tiny_config())
    raw["partition"].update(skew=float("nan"), sample_counts=sample_counts)
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert "partition.skew" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("trainer, what", [("standard", "loss"), ("at", "attack gradient")])
def test_cli_run_divergence_names_round_client_epoch_batch(tmp_path, capsys, trainer, what):
    # a huge learning rate blows up the first step; the second batch diverges
    raw = config_to_dict(tiny_config())
    raw["local"].update(lr=1e300, trainer=trainer)
    assert run_cli_on(tmp_path, raw)[0] == cli.EXIT_DIVERGED
    err = capsys.readouterr().err
    assert re.search(rf"round 1, client \d+, epoch 0, batch 1: non-finite {what}", err), err


@pytest.mark.parametrize("bounds", [{"clip_max": 0.5}, {"clip_min": 0.9, "clip_max": 0.1}])
def test_cli_run_rejects_the_removed_attack_clip_keys(tmp_path, capsys, bounds):
    # features always lie in [0, 1]; a narrower or inverted clip range used to
    # pass parsing and exit 2 only in round 1, after metrics.csv was written
    raw = config_to_dict(tiny_config())
    assert not {"clip_min", "clip_max"} & set(raw["local"]["attack"])
    raw["local"]["attack"].update(bounds)
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert "unknown config keys: local.attack.clip_" in capsys.readouterr().err


@pytest.mark.parametrize("test_rows, message", [
    ([(0, (0.1, 0.2, 0.3, 0.4, 0.5)), (2, (0.5, 0.4, 0.3, 0.2, 0.1))],
     "the test set has 5 features, the training set 4"),
    ([(0, (0.1, 0.2, 0.3, 0.4)), (3, (0.5, 0.4, 0.3, 0.2))],
     "the test set has label 3, beyond the training set's 3 classes")])
def test_cli_run_rejects_a_test_set_that_does_not_fit_the_model_before_writing(
        tmp_path, capsys, test_rows, message):
    # used to train every round and exit 2 only at the first evaluation
    rng = stream(0, "csv-rows")
    train_rows = [(k % 3, tuple(rng.uniform(size=4).round(3))) for k in range(30)]
    raw = config_to_dict(tiny_config(partition=PartitionSpec(3, mode="iid")))
    raw["dataset"] = {"kind": "csv", "train_path": write_csv(tmp_path / "train.csv", train_rows),
                      "test_path": write_csv(tmp_path / "test.csv", test_rows)}
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("attack", ["none", "fgsm", "pgd20"])
def test_cli_eval_names_the_shapes_of_a_test_set_that_does_not_fit_the_checkpoint(
        tmp_path, capsys, attack):
    # the attacks used to fail inside numpy's matmul with a gufunc message
    rows = [(0, (0.2, 0.5, 0.3, 0.1)), (1, (0.1, 0.4, 0.9, 0.6))]
    assert eval_on_csv(tmp_path, rows, attack) == cli.EXIT_CONFIG
    assert "batch has shape (2, 4), expected (n, 3)" in capsys.readouterr().err


@pytest.mark.parametrize("attack, expected", [
    ({"steps": 3}, {"epsilon": 8 / 255, "step_size": 2 / 255, "steps": 3,
                    "random_start": True}),
    ({"epsilon": 0.05, "step_size": 0.01}, {"epsilon": 0.05, "step_size": 0.01, "steps": 10,
                                            "random_start": True})])
def test_a_partial_attack_section_takes_the_default_attack_for_omitted_keys(
        tmp_path, attack, expected):
    # a section that set only `steps` used to fail with a TypeError naming no key,
    # and one without `steps` and `random_start` to run 1 step with no random start
    raw = {"rounds": 1, "eval_every": 0, "hidden_dims": [4],
           "dataset": {"n_per_class": 10, "num_classes": 2, "dim": 2},
           "partition": {"num_clients": 2}, "local": {"attack": attack}}
    assert run_cli_on(tmp_path, raw) == (0, True)
    written = json.loads((tmp_path / "out" / "config.json").read_text())
    assert written["local"]["attack"] == expected


def test_cli_eval_rejects_a_checkpoint_declaring_more_values_than_it_holds(tmp_path, capsys):
    # shape (2**31, 2**31, 4) used to reach f.read as 2**67 bytes: an OverflowError traceback
    ckpt = tmp_path / "huge.bin"
    name = b"dense0.W"
    ckpt.write_bytes(b"FSLK" + struct.pack("<III", 1, 1, len(name)) + name
                     + struct.pack("<IIII", 3, 2**31, 2**31, 4))
    csv_path = write_csv(tmp_path / "test.csv", [(0, (0.1, 0.2, 0.3))])
    assert cli.main(["eval", "--checkpoint", str(ckpt), "--test", csv_path]) == cli.EXIT_CONFIG
    assert (f"{ckpt}: checkpoint truncated: its header declares {2**67} bytes, 0 follow it"
            in capsys.readouterr().err)


def test_cli_run_rejects_an_idx_header_declaring_more_pixels_than_the_file_holds(tmp_path,
                                                                                capsys):
    # (2**32-1)**3 pixels used to reach f.read: an OverflowError traceback
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(struct.pack(">IIII", 0x803, 2**32 - 1, 2**32 - 1, 2**32 - 1))
    labels.write_bytes(struct.pack(">II", 0x801, 1) + bytes([0]))
    raw = config_to_dict(tiny_config())
    raw["dataset"] = {"kind": "idx", "train_path": str(images),
                      "train_labels_path": str(labels), "test_path": str(images),
                      "test_labels_path": str(labels)}
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert (f"image file truncated: its header declares {(2**32 - 1)**3} bytes, 0 follow it"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


IDX_IMAGE = struct.pack(">IIII", 0x803, 1, 1, 3) + bytes(3)
IDX_LABEL = struct.pack(">II", 0x801, 1) + bytes(1)


@pytest.mark.parametrize("image, label, message", [
    (IDX_IMAGE[:8], IDX_LABEL, "{images}: image file header truncated"),
    (struct.pack(">I", 0x804) + IDX_IMAGE[4:], IDX_LABEL, "{images}: bad image magic 0x00000804"),
    (IDX_IMAGE, IDX_LABEL[:4], "{labels}: label file header truncated"),
    (IDX_IMAGE, struct.pack(">I", 0x803) + IDX_LABEL[4:], "{labels}: bad label magic 0x00000803"),
    (struct.pack(">IIII", 0x803, 2, 1, 3) + bytes(6), IDX_LABEL,
     "image count 2 in {images} != label count 1 in {labels}"),
    (struct.pack(">IIII", 0x803, 0, 1, 3), IDX_LABEL, "{images}: image file contains no samples"),
    (IDX_IMAGE, struct.pack(">II", 0x801, 0), "{labels}: label file contains no samples"),
    (struct.pack(">IIII", 0x803, 1, 0, 4), IDX_LABEL,
     "{images}: image file holds samples of 0x4 values: no features"),
    (struct.pack(">IIII", 0x803, 1, 4, 0), IDX_LABEL,
     "{images}: image file holds samples of 4x0 values: no features")],
    ids=["image_header", "image_magic", "label_header", "label_magic", "count", "no_images",
         "no_labels", "no_rows", "no_columns"])
def test_cli_run_names_the_idx_file_a_header_error_is_in(tmp_path, capsys, image, label,
                                                         message):
    # these used to name no file: `bad image magic 0x00000804` alone, and
    # images of no pixels "an MLP needs at least two widths, ... got [0, 16, 5]"
    images, labels = tmp_path / "images.idx", tmp_path / "labels.idx"
    images.write_bytes(image)
    labels.write_bytes(label)
    raw = config_to_dict(tiny_config())
    raw["dataset"] = {"kind": "idx", "train_path": str(images),
                      "train_labels_path": str(labels), "test_path": str(images),
                      "test_labels_path": str(labels)}
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert message.format(images=images, labels=labels) in capsys.readouterr().err


@pytest.mark.parametrize("content", [b"[" * 100_000, b'{"rounds": 1\xff}',
                                     b'{"rounds": ' + b"1" * 5001 + b"}"],
                         ids=["nested", "not_utf8", "long_integer"])
def test_cli_run_names_a_config_it_cannot_parse(tmp_path, capsys, content):
    # these used to exit 1 with a RecursionError traceback, or print a decode
    # or digit-limit message naming no file
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert f"error: cannot read config {path}: " in capsys.readouterr().err


METRICS_ROW = b"1,0,5,0.1,0.1,0.1,1,0.1,0,0.1,,,"


@pytest.mark.parametrize("rows, message", [
    ([b"round,client_id", b"1,0"], "unexpected metrics header"),
    ([METRICS_ROW.replace(b"1,0,", b"1,x,", 1)],
     "line 2, column client_id: invalid literal for int()"),
    ([METRICS_ROW, b"1,0,5"], "line 3 does not have the header's 13 fields"),
    ([METRICS_ROW + b",9"], "line 2 does not have the header's 13 fields"),
    ([METRICS_ROW + b"\xff"], "is not UTF-8 text"),
    ([METRICS_ROW.replace(b"0.1,1,0.1", b"0.1,yes,0.1")],
     "line 2, column is_top: must be 0, 1 or empty, got 'yes'")],
    ids=["header", "not_an_int", "short_row", "long_row", "not_utf8", "bad_is_top"])
def test_a_malformed_metrics_file_is_a_format_error_naming_it(tmp_path, capsys, rows,
                                                              message):
    # these used to raise ConfigError, a ValueError naming no file, or a
    # TypeError traceback, and an is_top of `yes` used to load as false
    path = tmp_path / "metrics.csv"
    if rows[0] != b"round,client_id":
        rows = [",".join(runner.METRICS_COLUMNS).encode()] + rows
    path.write_bytes(b"\n".join(rows) + b"\n")
    with pytest.raises(FormatError) as info:
        load_metrics(path)
    assert str(info.value).startswith(str(path)) and message in str(info.value)
    assert cli.main(["trace-topk", "--run", str(tmp_path)]) == cli.EXIT_CONFIG
    assert f"error: {info.value}\n" == capsys.readouterr().err


@pytest.mark.parametrize("rows, column, kind", [
    ([METRICS_ROW.replace(b"0.1,1,0.1", b"0.1,,0.1")], "is_top", "client"),
    ([METRICS_ROW.replace(b"1,0,", b"1,,", 1)], "client_id", "client"),
    ([METRICS_ROW.replace(b"1,", b",", 1)], "round", "client"),
    ([METRICS_ROW, b"1,-1,5,,,0.1,,0.1,,0.1,,,"], "xi", "aggregate")],
    ids=["is_top", "client_id", "round", "xi_on_the_aggregate_row"])
def test_an_empty_field_report_rows_always_writes_is_a_format_error(tmp_path, capsys, rows,
                                                                    column, kind):
    # these used to load as None, and trace-topk then exited 1 with a
    # TypeError traceback (an empty is_top or client_id) or counted the row
    path = tmp_path / "metrics.csv"
    path.write_bytes(b"\n".join([",".join(runner.METRICS_COLUMNS).encode(), *rows]) + b"\n")
    message = (f"{path}: line {len(rows) + 1}, column {column}: must not be empty on a "
               f"{kind} row")
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        load_metrics(path)
    assert cli.main(["trace-topk", "--run", str(tmp_path)]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


def test_cli_sweep_gives_distinct_values_distinct_run_directories(tmp_path):
    # 0.1 and 0.1000001 both used to run in alpha_0.1, the second over the first
    path = write_config(tmp_path, rounds=1, eval_every=0)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--param", "alpha",
                     "--values", "0.1", "0.1000001", "--out", str(out)]) == 0
    runs = ["alpha_0.1", "alpha_0.1000001"]
    assert sorted(p.name for p in out.iterdir()) == runs + ["sweep.json"]
    assert [json.loads((out / run / "config.json").read_text())["policy"]["alpha"]
            for run in runs] == [0.1, 0.1000001]


@pytest.mark.parametrize("param, value, name", [
    ("clients", 4.0, "clients_4"), ("alpha", 0.1, "alpha_0.1"),
    ("epsilon", 1e-07, "epsilon_1e-07"), ("alpha", 0.1000001, "alpha_0.1000001"),
    ("ratio", 1 / 3, "ratio_0.3333333333333333")])
def test_a_sweep_run_keeps_its_short_name_when_that_reads_back_as_its_value(param, value,
                                                                             name):
    assert cli._run_name(param, value) == name


def test_cli_sweep_rejects_a_repeated_value_before_any_run(tmp_path, capsys):
    path = write_config(tmp_path, rounds=1, eval_every=0)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--param", "alpha",
                     "--values", "0.1", "0.2", "0.1", "--out", str(out)]) == cli.EXIT_CONFIG
    assert "--values gives 0.1 more than once" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("counts, message", [
    ([16, 16, 16, 16],
     "partition.sample_counts must have one entry per client, got 4 for 5 clients"),
    ([16, 16, 0, 16, 16], "partition.sample_counts must be >= 1 each, got 0")])
def test_cli_run_names_bad_sample_counts_before_writing(tmp_path, capsys, counts, message):
    raw = config_to_dict(tiny_config())
    raw["partition"]["sample_counts"] = counts
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_sweep_checks_the_sample_counts_of_every_value_before_any_run(tmp_path, capsys):
    # with 4 counts, clients 4 used to run and write clients_4, then clients 5 failed
    path = write_config(tmp_path, rounds=1, eval_every=0,
                        partition=PartitionSpec(4, mode="iid", sample_counts=[10] * 4))
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(path), "--param", "clients",
                     "--values", "4", "5", "--out", str(out)]) == cli.EXIT_CONFIG
    assert "partition.sample_counts must have one entry per client" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value, message", [
    ("kind", "tsv", "dataset.kind must be one of synthetic, csv, idx, got 'tsv'"),
    ("placement", "grid", "dataset.placement must be one of random, orthogonal, got 'grid'"),
    ("placement", "orthogonal",
     "dataset.placement orthogonal needs dim >= num_classes, got 3 < 5")])
def test_cli_run_names_a_bad_dataset_kind_or_placement_before_writing(tmp_path, capsys, key,
                                                                      value, message):
    # these used to exit 2 only when the data was built, naming no key
    raw = config_to_dict(tiny_config())
    raw["dataset"][key] = value
    assert run_cli_on(tmp_path, raw) == (cli.EXIT_CONFIG, False)
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["at_fedavg_fat", "at_scaffold_sfat_partial"])
def test_the_round_phases_called_by_hand_reproduce_run(name):
    config = config_from_dict(GOLDEN[name][0])
    whole = run(config)
    state = runner.RunState(config)
    reports = []
    with threads.one_blas_thread():
        for t in range(1, config.rounds + 1):
            rep = state.server_step(t, state.train_round(t))
            state.evaluate_round(rep)
            reports.append(rep)
    assert reports == [replace(r, wall_clock=0.0) for r in whole.reports]
    assert state.model.params.values.tobytes() == whole.model.params.values.tobytes()
