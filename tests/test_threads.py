"""A round's cohorts on several threads, and a run's BLAS calls on one: the
bits of a run depend on neither count."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import fedslack
from fedslack import runner, threads
from fedslack.errors import DivergenceError
from fedslack.runner import config_from_dict, run
from test_golden import GOLDEN, run_digest

# the wide benchmark's shapes, shrunk: a 784-256-10 MLP under TRADES and
# FedProx, five lone clients per round, each with a (25, 784) batch
WIDE = {
    "dataset": {"kind": "synthetic", "n_per_class": 15, "num_classes": 10, "dim": 784,
                "separation": 5.0, "test_fraction": 0.5},
    "partition": {"num_clients": 5, "mode": "noniid", "skew": 15.0, "seed": 0},
    "hidden_dims": [256],
    "local": {"epochs": 1, "batch_size": 25, "trainer": "trades", "trades_beta": 6.0,
              "attack": {"epsilon": 0.015, "step_size": 0.00375, "steps": 2,
                         "random_start": True},
              "lr": 0.02, "momentum": 0.9, "weight_decay": 1e-4},
    "policy": {"mode": "re_sfat", "alpha": 1 / 3, "k_hat": 1},
    "optimizer": "fedprox", "rounds": 2, "eval_every": 2, "seed": 0,
}

# the fleet benchmark's shapes, shrunk: unequal one-batch shards, half the
# clients per round, SCAFFOLD, so a round has lone and stacked cohorts
FLEET = {
    "dataset": {"kind": "synthetic", "n_per_class": 40, "num_classes": 10, "dim": 16,
                "separation": 4.0, "placement": "orthogonal", "test_fraction": 0.25},
    "partition": {"num_clients": 20, "mode": "noniid", "skew": 0.5,
                  "sample_counts": [4 + k % 9 for k in range(20)], "seed": 0},
    "hidden_dims": [32, 16],
    "local": {"epochs": 1, "batch_size": 16, "trainer": "standard",
              "attack": {"epsilon": 0.05, "step_size": 0.0125, "steps": 1,
                         "random_start": False},
              "lr": 0.1, "momentum": 0.9, "weight_decay": 1e-4},
    "policy": {"mode": "sfat", "alpha": 1 / 6, "k_hat": 2},
    "optimizer": "scaffold", "rounds": 3, "participation": 0.5, "eval_every": 1, "seed": 0,
}

CONFIGS = {name: raw for name, (raw, _) in GOLDEN.items()} | {"wide": WIDE, "fleet": FLEET}


def digest_at(monkeypatch, raw, out_dir, n_threads):
    monkeypatch.setattr(threads, "cores", lambda: n_threads)
    return run_digest(raw, out_dir)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_a_run_gives_the_same_bits_on_one_and_two_threads(monkeypatch, tmp_path, name):
    one = digest_at(monkeypatch, CONFIGS[name], tmp_path / "one", 1)
    two = digest_at(monkeypatch, CONFIGS[name], tmp_path / "two", 2)
    assert one == two
    if name in GOLDEN:
        assert one == GOLDEN[name][1]


def test_more_threads_than_cores_and_frequent_switches_keep_the_bits(monkeypatch, tmp_path):
    # a thread that wrote another cohort's rows, or lost a loss, would change the bits
    serial = digest_at(monkeypatch, FLEET, tmp_path / "serial", 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        crowded = digest_at(monkeypatch, FLEET, tmp_path / "crowded", 4)
    finally:
        sys.setswitchinterval(interval)
    assert crowded == serial


def diverging(out_dir):
    # shards of 12 and 16 make two cohorts, and this step size diverges both
    raw = copy.deepcopy(GOLDEN["at_fedavg_fat"][0])
    raw["partition"] |= {"mode": "iid", "sample_counts": [12, 16, 12, 16]}
    raw["local"] |= {"lr": 1e150, "batch_size": 4}
    return config_from_dict(raw | {"out_dir": str(out_dir)})


def test_two_diverging_cohorts_raise_the_earlier_ones_error_and_checkpoint(
        monkeypatch, tmp_path):
    errors, checkpoints = [], []
    for n_threads in (1, 2):
        monkeypatch.setattr(threads, "cores", lambda n=n_threads: n)
        out = tmp_path / str(n_threads)
        with pytest.raises(DivergenceError) as info:
            run(diverging(out))
        errors.append(str(info.value))
        checkpoints.append((out / "checkpoint.bin").read_bytes())
    assert errors[0].startswith("round 1, client 0,")
    assert errors[1] == errors[0] and checkpoints[1] == checkpoints[0]


def test_the_earliest_failing_cohort_raises_when_a_later_one_fails_first(
        monkeypatch, tmp_path):
    # training in order raises the first cohort's error; on two threads the
    # second cohort fails first, and the first one's error must still win
    monkeypatch.setattr(threads, "cores", lambda: 2)
    second_failed = threading.Event()

    def train_client(cohort, *args, **kwargs):
        if cohort.client_ids[0] == 0:
            assert second_failed.wait(timeout=10)
            raise DivergenceError("first cohort")
        second_failed.set()
        raise DivergenceError("second cohort")

    monkeypatch.setattr(runner, "train_client", train_client)
    with pytest.raises(DivergenceError, match="first cohort"):
        run(diverging(tmp_path))
    assert (tmp_path / "checkpoint.bin").exists()


def test_a_run_leaves_no_thread_behind(monkeypatch, tmp_path):
    monkeypatch.setattr(threads, "cores", lambda: 2)
    before = threading.active_count()
    run_digest(FLEET, tmp_path / "ok")
    assert threading.active_count() == before
    with pytest.raises(DivergenceError):
        run(diverging(tmp_path / "diverged"))
    assert threading.active_count() == before


def test_a_run_pins_openblas_to_one_thread_and_restores_its_count(monkeypatch, tmp_path):
    limiter = threads._openblas()
    if limiter is None:
        pytest.skip("no OpenBLAS thread limiter in this numpy build")
    get, set_ = limiter
    seen, original, old = [], runner.train_client, get()
    monkeypatch.setattr(runner, "train_client",
                        lambda *a, **kw: seen.append(get()) or original(*a, **kw))
    set_(2)
    try:
        run_digest(GOLDEN["at_fedavg_fat"][0], tmp_path)
        assert get() == 2
    finally:
        set_(old)
    assert seen and set(seen) == {1}


def test_a_run_says_when_it_finds_no_blas_thread_limiter(monkeypatch, tmp_path):
    monkeypatch.setattr(threads, "_openblas", lambda: None)
    with pytest.warns(RuntimeWarning, match="no OpenBLAS thread limiter"):
        run_digest(GOLDEN["at_fedavg_fat"][0], tmp_path)


def test_replay_does_not_depend_on_the_openblas_thread_count(tmp_path):
    # OpenBLAS reads the variable when numpy loads, so each count needs its
    # own process; with two threads, the (25, 784) @ (784, 256) forward matmul
    # rounds differently unless the run pins BLAS to one thread
    config = tmp_path / "wide.json"
    config.write_text(json.dumps(WIDE))
    src = str(Path(fedslack.__file__).resolve().parents[1])
    digests = []
    for n in (1, 2):
        out = tmp_path / f"threads{n}"
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = os.environ | {"OPENBLAS_NUM_THREADS": str(n), "PYTHONPATH": path}
        proc = subprocess.run([sys.executable, "-m", "fedslack.cli", "run", "--config",
                               str(config), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        files = [(out / name).read_bytes() for name in ("metrics.csv", "checkpoint.bin")]
        digests.append(hashlib.sha256(b"".join(files)).hexdigest())
    assert digests[0] == digests[1]
