"""The eval child: the process a run forks to score an eval round while the
next round trains, and what a run leaves behind when it stops."""

from __future__ import annotations

import copy
import os
import time

import numpy as np
import pytest

from fedslack import nn, runner, threads
from fedslack.errors import DivergenceError, LabelError
from fedslack.runner import config_from_dict, load_metrics, run
from test_threads import FLEET


@pytest.fixture
def forked(monkeypatch):
    """The pids of the children that runs fork, with two cores to use."""
    monkeypatch.setattr(threads, "cores", lambda: 2)
    pids = []

    class Recorded(threads.Child):
        def __init__(self, *args):
            super().__init__(*args)     # the child never returns from here
            pids.append(self.pid)

    monkeypatch.setattr(threads, "Child", Recorded)
    return pids


def reaped(pid: int) -> bool:
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def fleet(out_dir) -> runner.ExperimentConfig:
    # eval every round: round t is scored in the child while round t + 1 trains
    return config_from_dict(copy.deepcopy(FLEET) | {"out_dir": str(out_dir)})


def fail_in(monkeypatch, phase: str, round_idx: int, exc: BaseException) -> None:
    """Make `RunState.<phase>` raise `exc` in round `round_idx`."""
    original = getattr(runner.RunState, phase)

    def failing(self, t, *args):
        if t == round_idx:
            raise exc
        return original(self, t, *args)

    monkeypatch.setattr(runner.RunState, phase, failing)


def test_child_returns_each_result_and_raises_each_error_with_its_type_and_message():
    buffer = np.zeros(3)

    def total():
        if buffer[0] < 0:
            raise LabelError(f"negative {buffer[0]}")
        return float(buffer.sum())

    child = threads.Child(total, buffer)
    try:
        for values in ([1.0, 2.0, 3.0], [-1.0, 0.0, 0.0], [4.0, 5.0, 6.5]):
            buffer[:] = values
            child.submit()
            buffer[:] = 0.0         # the child scores the bytes sent, not these
            if values[0] < 0:
                with pytest.raises(LabelError, match=r"^negative -1\.0$"):
                    child.result()
            else:
                assert child.result() == sum(values)
    finally:
        child.close()
    assert reaped(child.pid)


def test_closing_a_busy_child_stops_and_reaps_it():
    buffer = np.zeros(1)
    child = threads.Child(lambda: time.sleep(60), buffer)
    child.submit()
    child.close()
    assert reaped(child.pid)


@pytest.mark.parametrize("exc", [None, DivergenceError("round 2: diverged"),
                                 KeyboardInterrupt()], ids=["finished", "diverged",
                                                            "interrupted"])
def test_a_run_leaves_no_child_process_behind(monkeypatch, forked, tmp_path, exc):
    if exc is not None:
        fail_in(monkeypatch, "train_round", 2, exc)
        with pytest.raises(type(exc)):
            run(fleet(tmp_path))
    else:
        run(fleet(tmp_path))
    assert len(forked) == 1 and reaped(forked[0])


@pytest.mark.parametrize("phase", ["train_round", "server_step"])
def test_a_divergence_while_the_child_scores_writes_that_round_and_its_model(
        monkeypatch, forked, tmp_path, phase):
    # round 2 diverges while the child scores round 1: metrics.csv and
    # checkpoint.bin are those of the same run scored in-process
    fail_in(monkeypatch, phase, 2, DivergenceError("round 2: diverged"))
    outputs = []
    for n_cores in (2, 1):
        monkeypatch.setattr(threads, "cores", lambda n=n_cores: n)
        out = tmp_path / str(n_cores)
        with pytest.raises(DivergenceError, match="round 2: diverged"):
            run(fleet(out))
        outputs.append([(out / name).read_bytes() for name in ("metrics.csv",
                                                               "checkpoint.bin")])
        rows = load_metrics(out / "metrics.csv")
        assert {r["round"] for r in rows} == {1}
        assert None not in [rows[-1][k] for k in ("nat_acc", "fgsm_acc", "pgd20_acc")]
    assert len(forked) == 1
    assert outputs[0] == outputs[1]
    # the checkpoint holds round 1's global model
    one_round = run(config_from_dict(copy.deepcopy(FLEET) | {"rounds": 1}))
    saved = nn.load_checkpoint(tmp_path / "2" / "checkpoint.bin")
    assert saved.params.values.tobytes() == one_round.model.params.values.tobytes()


def test_the_childs_divergence_is_raised_first_when_the_next_round_diverges_too(
        monkeypatch, forked, tmp_path):
    # in-process, round 1's eval raises first: no rows, and the checkpoint of θ_1
    def evaluate(*args):
        raise DivergenceError("round 1: eval diverged")

    monkeypatch.setattr(runner, "evaluate", evaluate)
    fail_in(monkeypatch, "train_round", 2, DivergenceError("round 2: diverged"))
    outputs = []
    for n_cores in (2, 1):
        monkeypatch.setattr(threads, "cores", lambda n=n_cores: n)
        out = tmp_path / str(n_cores)
        with pytest.raises(DivergenceError, match="round 1: eval diverged"):
            run(fleet(out))
        outputs.append([(out / name).read_bytes() for name in ("metrics.csv",
                                                               "checkpoint.bin")])
    assert len(forked) == 1
    assert outputs[0] == outputs[1]
    assert load_metrics(tmp_path / "2" / "metrics.csv") == []


class NotALibraryError(Exception):
    pass


@pytest.mark.parametrize("exc", [LabelError("labels must lie in [0, 10)"),
                                 NotALibraryError("raised while scoring"),
                                 ZeroDivisionError("division by zero")],
                         ids=["label_error", "own_class", "zero_division"])
def test_an_error_raised_while_the_child_scores_reaches_the_parent(
        monkeypatch, forked, tmp_path, exc):
    def evaluate(model, test_set, attack, spec=None):
        raise exc

    monkeypatch.setattr(runner, "evaluate", evaluate)
    with pytest.raises(type(exc)) as info:
        run(fleet(tmp_path))
    assert type(info.value) is type(exc) and str(info.value) == str(exc)
    assert info.value is not exc    # it crossed from the child, which raised it
    assert len(forked) == 1 and reaped(forked[0])
    assert load_metrics(tmp_path / "metrics.csv") == []


def test_the_child_scores_with_blas_on_one_thread(monkeypatch, forked, tmp_path):
    limiter = threads._openblas()
    if limiter is None:
        pytest.skip("no OpenBLAS thread limiter in this numpy build")
    get, set_ = limiter
    # each round's "accuracy" is the BLAS thread count where it was scored
    monkeypatch.setattr(runner, "evaluate", lambda *args: float(get()))
    old = get()
    set_(2)
    try:
        reports = run(fleet(tmp_path)).reports
        assert get() == 2
    finally:
        set_(old)
    assert len(forked) == 1
    assert [r.nat_acc for r in reports] == [1.0] * FLEET["rounds"]
