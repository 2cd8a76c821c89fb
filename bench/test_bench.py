"""Tests of the benchmark itself: smoke runs, tracer hygiene, and BENCHMARK.json."""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run_bench  # noqa: E402
from tracer import Tracer, install  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_smoke_traced_matches_untraced_and_reports_every_metric():
    fs = run_bench.load_fedslack()
    assert run_bench.smoke(fs, run_bench.load_spec()) == []


def test_tracer_wraps_every_target_and_restores_it():
    fs = run_bench.load_fedslack()
    owners = [fs.runner, fs.local, fs.metrics, fs.nn, fs.data, fs.aggregation,
              fs.nn.Model, fs.nn.ParamVector, fs.runner._MetricsWriter]
    before = [dict(vars(o)) for o in owners]
    tracer = Tracer()
    install(tracer, fs)
    try:
        assert tracer.missing == []
        assert fs.runner.train_client is not before[0]["train_client"]
    finally:
        tracer.restore()
    for owner, saved in zip(owners, before):
        now = vars(owner)
        assert all(now[k] is v for k, v in saved.items()), owner


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(run_bench.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "desk_sfat", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_follows_the_contract():
    spec = run_bench.load_spec()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert spec["command"][1].startswith(spec["paths"][0] + "/")
    assert 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"]) for m in metrics)
    assert all(m["better"] in ("higher", "lower") for m in metrics)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert len(json.dumps(spec)) <= 64 * 1024


def test_workload_inputs_follow_the_seed():
    for workload in WORKLOADS.values():
        assert workload.config(3) == workload.config(3)
        assert workload.config(3) != workload.config(4)
