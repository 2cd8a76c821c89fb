from __future__ import annotations

import json
import re
from dataclasses import replace

import numpy as np
import pytest

from fedslack import aggregation, cli, nn, runner
from fedslack.aggregation import AggregationMode, AggregationPolicy
from fedslack.attacks import AttackSpec
from fedslack.data import PartitionSpec
from fedslack.errors import ConfigError
from fedslack.local import LocalConfig
from fedslack.runner import (DatasetSpec, ExperimentConfig, config_from_dict,
                             config_to_dict, load_config, load_metrics,
                             run, sample_participants)
from fedslack.streams import stream


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


def test_single_client_identity():
    cfg = tiny_config(partition=PartitionSpec(2, skew=5.0, seed=0),
                      dataset=DatasetSpec(n_per_class=20, num_classes=2, dim=3),
                      rounds=1, participation=0.5)
    art = run(cfg)
    assert len(art.reports) == 1
    # only one participant: aggregate equals its upload, so drift is zero
    assert art.reports[0].mean_drift == 0.0


def test_sfat_alpha_zero_equals_fat_bitwise():
    fat = run(tiny_config())
    sfat = run(tiny_config(policy=AggregationPolicy(AggregationMode.SFAT,
                                                    alpha=0.0, k_hat=1)))
    a = fat.final_model.to_vector().values
    b = sfat.final_model.to_vector().values
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
        assert np.all(np.isfinite(art.final_model.to_vector().values))


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


def test_cli_run_rejects_fedprox_mu_without_fedprox(tmp_path, capsys):
    raw = config_to_dict(tiny_config())
    raw["local"]["fedprox_mu"] = 0.05
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["run", "--config", str(path)]) == cli.EXIT_CONFIG
    assert "fedprox_mu" in capsys.readouterr().err


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


def eval_on_csv(tmp_path, rows, attack):
    """Exit code of `fedslack eval` of a 2-class checkpoint on a 3-feature CSV."""
    ckpt = tmp_path / "model.bin"
    nn.save_checkpoint(nn.Model.init([3, 4, 2], stream(0, "init")), ckpt)
    csv_path = tmp_path / "test.csv"
    lines = ["label,f0,f1,f2"] + [f"{y}," + ",".join(map(repr, x)) for y, x in rows]
    csv_path.write_text("\n".join(lines) + "\n")
    return cli.main(["eval", "--checkpoint", str(ckpt), "--test", str(csv_path),
                     "--attack", attack])


def test_cli_eval_rejects_feature_outside_unit_interval(tmp_path):
    rows = [(0, (0.2, 1.5, 0.3)), (1, (0.1, 0.4, 0.9))]
    assert eval_on_csv(tmp_path, rows, "pgd20") == cli.EXIT_CONFIG


def test_cli_eval_rejects_negative_label(tmp_path):
    rows = [(-1, (0.2, 0.5, 0.3)), (1, (0.1, 0.4, 0.9))]
    assert eval_on_csv(tmp_path, rows, "none") == cli.EXIT_CONFIG


def test_cli_eval_rejects_label_beyond_checkpoint_classes(tmp_path):
    rows = [(4, (0.2, 0.5, 0.3)), (1, (0.1, 0.4, 0.9))]
    assert eval_on_csv(tmp_path, rows, "none") == cli.EXIT_CONFIG


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
