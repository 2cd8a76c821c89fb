"""A round's cohorts and the halves of eval and of the server step on
several threads, and a run's BLAS calls on one: the bits of a run depend
on neither count."""

from __future__ import annotations

import copy
import hashlib
import json
import os
import runpy
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import fedslack
from fedslack import aggregation, cli, metrics, nn, runner, threads
from fedslack.attacks import fgsm, pgd
from fedslack.errors import DivergenceError
from fedslack.metrics import EvalAttack, evaluate
from fedslack.runner import config_from_dict, load_metrics, run
from fedslack.streams import stream
from test_golden import GOLDEN, run_digest
from test_runner import write_csv

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

BENCH_WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"

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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_golden_run_gives_its_bits_on_three_threads(monkeypatch, tmp_path, name):
    assert digest_at(monkeypatch, GOLDEN[name][0], tmp_path, 3) == GOLDEN[name][1]


def test_the_fleet_benchmarks_split_server_step_gives_the_same_bits_on_1_2_3_cores(
        monkeypatch, tmp_path):
    # at the fleet benchmark's shapes the server step splits its work into
    # two halves (see `threads.halves`), while up to three threads train; a
    # half that wrote another's elements, or lost a drift or a row sum,
    # would change the bits
    raw = bench_config("fleet_scaffold") | {"rounds": 2, "eval_every": 2}
    digests = [digest_at(monkeypatch, raw, tmp_path / str(n), n) for n in (1, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        digests.append(digest_at(monkeypatch, raw, tmp_path / "3", 3))
    finally:
        sys.setswitchinterval(interval)
    assert digests == digests[:1] * 3
    assert len(threads.halves(50, 50 * 50_826)) == 2


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


def test_for_each_returns_the_serial_results_in_item_order(monkeypatch):
    monkeypatch.setattr(threads, "cores", lambda: 2)
    # the first two items wait for each other, so they run on two threads
    both = threading.Barrier(2, timeout=10)
    seen = set()

    def square(i):
        if i < 2:
            both.wait()
        seen.add(threading.get_ident())
        return i * i

    assert threads.for_each(square, range(40)) == [i * i for i in range(40)]
    assert len(seen) == 2


class Stop(BaseException):
    """Not an Exception: a bare thread drops it unless `for_each` keeps it."""


def test_a_base_exception_raised_on_the_started_thread_propagates(monkeypatch):
    monkeypatch.setattr(threads, "cores", lambda: 2)
    raised = threading.Event()

    def fn(i):
        if threading.current_thread() is threading.main_thread():
            assert raised.wait(timeout=10)
            return i
        raised.set()
        raise Stop(i)

    with pytest.raises(Stop):
        threads.for_each(fn, [0, 1])


def test_for_each_leaves_no_thread_behind_a_call_that_fails_or_not(monkeypatch):
    monkeypatch.setattr(threads, "cores", lambda: 2)
    before = threading.active_count()

    def fail(exc):
        raise exc

    assert threads.for_each(abs, [-1, 2, -3]) == [1, 2, 3]
    assert threading.active_count() == before
    for exc in (ValueError("item"), Stop()):
        with pytest.raises(type(exc)):
            threads.for_each(fail, [exc, exc, exc])
        assert threading.active_count() == before


@pytest.mark.parametrize("n_cores, failing", [(2, 1), (3, 2)])
def test_a_thread_that_cannot_start_leaves_its_items_to_the_others(monkeypatch, n_cores,
                                                                   failing):
    # at a process or memory limit `Thread.start` raises RuntimeError
    monkeypatch.setattr(threads, "cores", lambda: n_cores)
    start, starts = threading.Thread.start, []

    def start_or_fail(thread):
        starts.append(thread)
        if len(starts) == failing:
            raise RuntimeError("can't start new thread")
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", start_or_fail)
    before = threading.active_count()
    assert threads.for_each(abs, range(-20, 20)) == [abs(i) for i in range(-20, 20)]
    assert len(starts) == failing and threading.active_count() == before


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task")
def test_for_each_returns_once_the_kernel_has_removed_its_threads(monkeypatch):
    # a thread still exiting holds its malloc arena, so one started by the
    # next call, as in the server step's back-to-back calls, would make a new one
    monkeypatch.setattr(threads, "cores", lambda: 3)
    main = threading.get_native_id()
    for _ in range(300):
        all_three = threading.Barrier(3, timeout=10)    # one item on each thread

        def native_id(_):
            all_three.wait()
            if threading.get_native_id() != main:       # so that the caller waits in `join`
                time.sleep(0.001)
            np.ones((64, 64)) @ np.ones((64, 64))       # BLAS's buffers lengthen the exit
            return threading.get_native_id()

        ids = set(threads.for_each(native_id, range(3))) - {main}
        assert len(ids) == 2
        assert not [i for i in ids if os.path.exists(f"/proc/self/task/{i}")]


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
    with pytest.warns(RuntimeWarning, match="no OpenBLAS thread limiter") as record:
        run_digest(GOLDEN["at_fedavg_fat"][0], tmp_path)
    # the warning names the line of `run` that enters `threads.one_blas_thread()`
    [warning] = [w for w in record if "thread limiter" in str(w.message)]
    assert Path(warning.filename).name == "runner.py"
    source = Path(runner.__file__).read_text().splitlines()
    assert "threads.one_blas_thread()" in source[warning.lineno - 1]


def test_replay_does_not_depend_on_the_openblas_thread_count(tmp_path):
    # OpenBLAS reads the variable when numpy loads, so each count needs its
    # own process; with two threads, the (25, 784) @ (784, 256) forward matmul
    # rounds differently unless the run pins BLAS to one thread.  Scored every
    # round, WIDE's round 1 is scored in the eval child, forked while pinned.
    src = str(Path(fedslack.__file__).resolve().parents[1])
    for name, raw in (("wide", WIDE), ("wide_eval_every_round", WIDE | {"eval_every": 1})):
        config = tmp_path / f"{name}.json"
        config.write_text(json.dumps(raw))
        digests = []
        for n in (1, 2):
            out = tmp_path / f"{name}_threads{n}"
            path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
            env = os.environ | {"OPENBLAS_NUM_THREADS": str(n), "PYTHONPATH": path}
            proc = subprocess.run([sys.executable, "-m", "fedslack.cli", "run", "--config",
                                   str(config), "--out", str(out)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            files = [(out / f).read_bytes() for f in ("metrics.csv", "checkpoint.bin")]
            digests.append(hashlib.sha256(b"".join(files)).hexdigest())
        assert digests[0] == digests[1], name


@pytest.fixture(scope="module")
def trained():
    """A golden run's final model, its test set and its eval spec."""
    config = config_from_dict(GOLDEN["at_fedavg_fat"][0])
    _, test_set = runner.build_datasets(config)
    return run(config).model, test_set, config.local.attack


def evaluate_at(monkeypatch, n_threads, *args):
    monkeypatch.setattr(threads, "cores", lambda: n_threads)
    return evaluate(*args)


def split_eval(monkeypatch, n_rows, n_chunks):
    """Make `threads.halves` cut eval's `n_rows` rows into `n_chunks` chunks
    of one height; returns the height."""
    height = -(-n_rows // n_chunks)
    chunks = [slice(i, min(i + height, n_rows)) for i in range(0, n_rows, height)]
    monkeypatch.setattr(threads, "halves", lambda n, work, multiple=1: chunks)
    assert len(chunks) == n_chunks
    return height


@pytest.mark.parametrize("n_chunks", [2, 3, 7])
def test_eval_in_chunks_gives_the_same_bits_on_one_and_two_threads(
        monkeypatch, trained, n_chunks):
    model, test_set, spec = trained
    X, y = test_set.features, test_set.labels
    height = split_eval(monkeypatch, len(y), n_chunks)
    cases = [(EvalAttack.NONE, None, None), (EvalAttack.FGSM, spec.evaluation(1), fgsm),
             (EvalAttack.PGD, spec.evaluation(20), pgd)]
    for attack, attack_spec, attack_fn in cases:
        one, two = (evaluate_at(monkeypatch, n, model, test_set, attack, attack_spec)
                    for n in (1, 2))
        assert one == two

        def adversarial(rows):
            return X[rows] if attack_fn is None else \
                attack_fn(model, X[rows], y[rows], attack_spec)

        # the one-chunk formula, on adversarial batches bit-equal to the chunks'
        whole = adversarial(slice(None))
        chunks = [adversarial(slice(i, i + height)) for i in range(0, len(y), height)]
        assert np.array_equal(np.concatenate(chunks), whole)
        assert one == float(np.mean(nn.forward_batch(model, whole).argmax(axis=1) == y))


def test_the_earliest_failing_eval_chunk_raises_when_a_later_one_fails_first(
        monkeypatch, trained):
    # scored in order, the first chunk's error is raised; on two threads the
    # second chunk fails first, and the first one's error must still win
    model, test_set, spec = trained
    split_eval(monkeypatch, len(test_set), 2)
    second_failed = threading.Event()

    def failing_pgd(model, x, y, spec):
        if np.array_equal(x[0], test_set.features[0]):
            assert second_failed.wait(timeout=10)
            raise DivergenceError("first chunk")
        second_failed.set()
        raise DivergenceError("second chunk")

    monkeypatch.setattr(metrics, "pgd", failing_pgd)
    monkeypatch.setattr(threads, "cores", lambda: 2)
    with pytest.raises(DivergenceError, match="first chunk"):
        evaluate(model, test_set, EvalAttack.PGD, spec.evaluation(20))


def model_and_test_set(raw):
    """A freshly initialised model for a run of `raw`, its test set and its
    attack spec."""
    config = config_from_dict(raw)
    train_set, test_set = runner.build_datasets(config)
    dims = [train_set.dim, *config.hidden_dims, train_set.num_classes]
    return nn.Model.init(dims, stream(0, "init")), test_set, config.local.attack


def eval_chunks(raw) -> int:
    """How many chunks a run of `raw` scores its test set in."""
    model, test_set, _ = model_and_test_set(raw)
    n = len(test_set)
    return len(threads.halves(n, n * model.params.values.size, 8))


def bench_config(name):
    return runpy.run_path(str(BENCH_WORKLOADS))["WORKLOADS"][name].config(3)


@pytest.mark.parametrize("name, n_chunks",
                         [("wide_trades", 2), ("fleet_scaffold", 2), ("desk_sfat", 1)])
def test_the_wide_and_fleet_benchmarks_halve_their_eval(name, n_chunks):
    # desk's eval measured slower when split over two threads
    assert eval_chunks(bench_config(name)) == n_chunks


@pytest.mark.parametrize("name, height", [("fleet_scaffold", 160), ("wide_trades", 152)])
def test_a_benchmarks_eval_halves_give_the_whole_batchs_bits(monkeypatch, name, height):
    # each half's adversarial rows and logits are the whole batch's rows, so
    # the halves' counts sum to the whole batch's on any number of threads
    model, test_set, spec = model_and_test_set(bench_config(name))
    X, y = test_set.features, test_set.labels
    assert threads.halves(len(y), len(y) * model.params.values.size, 8)[0].stop == height
    cases = [(EvalAttack.FGSM, spec.evaluation(1), fgsm),
             (EvalAttack.PGD, spec.evaluation(20), pgd)]
    for attack, attack_spec, attack_fn in cases:
        whole = attack_fn(model, X, y, attack_spec)
        halves = [attack_fn(model, X[rows], y[rows], attack_spec)
                  for rows in (slice(None, height), slice(height, None))]
        assert np.array_equal(np.concatenate(halves), whole)
        logits = [nn.forward_batch(model, half) for half in halves]
        assert np.array_equal(np.concatenate(logits), nn.forward_batch(model, whole))
        one, two = (evaluate_at(monkeypatch, n, model, test_set, attack, attack_spec)
                    for n in (1, 2))
        assert one == two


def test_evaluate_outside_a_run_gives_the_same_float_on_one_and_two_cores(monkeypatch):
    # no BLAS scope and no run: eval still scores the fleet benchmark's
    # test set in two halves, one per core, with the same bits
    raw = bench_config("fleet_scaffold")
    assert eval_chunks(raw) == 2
    model, test_set, spec = model_and_test_set(raw)
    for attack, attack_spec in ((EvalAttack.NONE, None), (EvalAttack.PGD, spec.evaluation(20))):
        one, two = (evaluate_at(monkeypatch, n, model, test_set, attack, attack_spec)
                    for n in (1, 2))
        assert one == two


# (n, work, multiple, the sizes `threads.halves` cuts n into): the
# benchmarks' server steps on their m rows and P columns (work m * P) and
# their eval on its test rows (work rows * P), then the edges of the rule
HALVES = [
    (50, 50 * 50_826, 1, [25, 25]), (50_826, 50 * 50_826, 8, [25_416, 25_410]),   # fleet
    (5, 5 * 203_530, 1, [5]), (203_530, 5 * 203_530, 8, [203_530]),               # wide
    (5, 5 * 229, 1, [5]), (229, 5 * 229, 8, [229]),                               # desk
    (300, 300 * 203_530, 8, [152, 148]), (320, 320 * 50_826, 8, [160, 160]),
    (1000, 1000 * 229, 8, [1000]),
    (7, 2 * threads.SPLIT_WORK, 1, [4, 3]), (7, 2 * threads.SPLIT_WORK - 1, 1, [7]),
    (2, 2**40, 1, [1, 1]), (1, 2**40, 1, [1]), (16, 2**40, 8, [8, 8]),
    (9, 2**40, 8, [9]), (17, 2**40, 8, [17]),       # not 8 + 1, nor 16 + 1
]


@pytest.mark.parametrize("n, work, multiple, sizes", HALVES)
def test_halves_cut_by_the_shapes_alone(monkeypatch, n, work, multiple, sizes):
    cuts = []
    for n_cores in (1, 2, 3, 64):
        monkeypatch.setattr(threads, "cores", lambda n_cores=n_cores: n_cores)
        cuts.append(threads.halves(n, work, multiple))
    assert cuts == cuts[:1] * 4
    assert [b.stop - b.start for b in cuts[0]] == sizes


@pytest.mark.parametrize("multiple", [1, 8])
def test_halves_cover_each_index_once(multiple):
    for n in range(1, 1025):
        for work in (0, 2 * threads.SPLIT_WORK - 1, 2 * threads.SPLIT_WORK, 10**12):
            cut = threads.halves(n, work, multiple)
            assert [b.step for b in cut] == [None] * len(cut)
            assert cut[0].start == 0 and cut[-1].stop == n
            assert [b.start for b in cut[1:]] == [b.stop for b in cut[:-1]]
            if len(cut) == 1:   # small work, or too few rows to give each half a multiple
                assert work < 2 * threads.SPLIT_WORK or n < 4 * multiple
                continue
            first, second = (b.stop - b.start for b in cut)
            assert work >= 2 * threads.SPLIT_WORK and len(cut) == 2
            assert first % multiple == 0 and second >= multiple
            assert 0 <= first - second < 2 * multiple


def test_the_server_step_and_eval_cut_the_same_halves_on_1_and_8_cores(monkeypatch):
    for_each, seen = threads.for_each, []

    def recording(fn, items):
        seen.append([item[-1] if isinstance(item, tuple) else item for item in items])
        return for_each(fn, items)

    monkeypatch.setattr(threads, "for_each", recording)
    m, P = 50, 50_826       # the fleet benchmark's server step
    rng = np.random.default_rng(0)
    theta = rng.normal(size=P)
    uploads = theta + rng.normal(scale=0.1, size=(m, P))
    model, test_set, _ = model_and_test_set(bench_config("wide_trades"))
    calls = []
    for n_cores in (1, 8):
        monkeypatch.setattr(threads, "cores", lambda n=n_cores: n)
        seen.clear()
        aggregation.slack_aggregate(uploads, np.full(m, 1 / m))
        aggregation.scaffold_server_update(theta.copy(), np.zeros((m, P)), list(range(m)),
                                           uploads, theta, [1] * m, 0.1)
        aggregation.client_drift(uploads, theta)
        aggregation.gradient_variance(uploads, theta)
        evaluate(model, test_set)
        calls.append(list(seen))
    rows, cols = [slice(0, 25), slice(25, m)], [slice(0, 25_416), slice(25_416, P)]
    assert calls[0] == calls[1] == [cols, cols, rows, cols, rows, [slice(0, 152),
                                                                   slice(152, 300)]]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_every_golden_scores_its_test_set_in_one_chunk(name):
    assert eval_chunks(GOLDEN[name][0]) == 1


def test_cli_eval_of_a_saved_run_prints_its_final_accuracies(monkeypatch, tmp_path, capsys):
    # the run and `fedslack eval` both score in two halves on two threads
    monkeypatch.setattr(threads, "cores", lambda: 2)
    assert eval_chunks(WIDE) == 2
    config = config_from_dict(WIDE)
    _, test_set = runner.build_datasets(config)
    path, out = tmp_path / "wide.json", tmp_path / "out"
    path.write_text(json.dumps(WIDE))
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
    final = load_metrics(out / "metrics.csv")[-1]
    csv_path = write_csv(tmp_path / "test.csv", list(zip(test_set.labels, test_set.features)))
    capsys.readouterr()
    spec = config.local.attack
    for attack, key in (("none", "nat_acc"), ("pgd20", "pgd20_acc")):
        assert cli.main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--test",
                         csv_path, "--attack", attack, "--epsilon", repr(spec.epsilon),
                         "--step-size", repr(spec.step_size)]) == 0
        assert capsys.readouterr().out == f"accuracy: {final[key]:.4f}\n"
