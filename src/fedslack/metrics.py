"""Diagnostics and evaluation: client drift, pseudo-gradient variance, the
signed top-vs-rest sample-count difference, accuracy under attack, and
top-set selection counts read back from `metrics.csv` rows.

Drift and variance read the round's (m, P) upload matrix, one row per
participant, in place, row by row through (P,) scratch: neither copies the
matrix.

Eval attacks and scores the test set whole or in two halves, on every core
through `threads.for_each`, the queue that trains a round's cohorts, in a
run or outside one.  The split depends only on the test set's rows and the
model's parameter count, never on the number of cores: a matmul cut into
other row blocks can round differently, so a split derived from the cores
would make a run's bits depend on them.  Only a test set of large total
work is halved (see `EVAL_CHUNK_WORK`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import nn, threads
from .attacks import AttackSpec, fgsm, pgd
from .data import Dataset
from .errors import ShapeError

# Test rows times parameters from which eval scores the test set in two
# halves: a forward or backward pass over the set costs about that many
# multiply-adds.  At 2**23 a 784-256-10 MLP (203,530 parameters) halves its
# 300 test rows into 152 + 148 and a 64-256-128-10 MLP (50,826) its 320 rows
# into 160 + 160, while an 8-16-5 MLP (229) keeps 1000 rows whole.  On a
# 2-core x86 host the 784-256-10 MLP's eval round took 0.55x its whole-batch
# time in two chunks on two threads and the 64-256-128-10 MLP's 0.61x, and
# the fleet benchmark, which evaluates the latter every round, ran in 0.78x
# the time it took with the test set whole; the 8-16-5 MLP's eval round took
# 1.4x in two.
EVAL_CHUNK_WORK = 2**23


class EvalAttack(Enum):
    NONE = "none"
    FGSM = "fgsm"
    PGD = "pgd"


@dataclass
class ClientRecord:
    client_id: int
    n_samples: int
    loss: float
    weighted_loss: float
    drift: float
    is_top: bool


@dataclass
class RoundReport:
    """Everything recorded about one communication round."""

    round_idx: int
    clients: list[ClientRecord]
    mean_drift: float
    grad_variance: float
    xi: int
    alpha: float
    nat_acc: float | None = None
    fgsm_acc: float | None = None
    pgd20_acc: float | None = None
    wall_clock: float = 0.0


def _check_rows(uploads: np.ndarray, theta: np.ndarray) -> None:
    if np.ndim(uploads) != 2 or np.shape(uploads)[1:] != np.shape(theta):
        raise ShapeError(f"upload matrix of shape {np.shape(uploads)} does not match "
                         f"parameters of shape {np.shape(theta)}")


def client_drift(uploads: np.ndarray,
                 theta_global: np.ndarray) -> tuple[list[float], float]:
    """L2 distance of each upload row from the aggregate, plus the mean."""
    _check_rows(uploads, theta_global)
    diff = np.empty_like(theta_global)
    drifts = []
    for row in uploads:
        np.subtract(row, theta_global, out=diff)
        drifts.append(float(np.linalg.norm(diff)))
    return drifts, float(np.mean(drifts))


def gradient_variance(uploads: np.ndarray, theta_prev_global: np.ndarray) -> float:
    """Variance of the per-client pseudo-gradients: upload rows minus
    theta_prev; 0.0 for a lone row, which is its own mean."""
    _check_rows(uploads, theta_prev_global)
    # Bit-equal to centring the (m, P) matrix g = uploads - theta_prev: the
    # mean sums g's rows in order, as numpy's axis-0 mean does, and each
    # row's squares are summed pairwise, as numpy's axis-1 sum does.
    diff = np.empty_like(theta_prev_global)
    mean = np.subtract(uploads[0], theta_prev_global)
    for row in uploads[1:]:
        mean += np.subtract(row, theta_prev_global, out=diff)
    mean /= len(uploads)
    sums = np.empty(len(uploads))
    for i, row in enumerate(uploads):
        np.subtract(row, theta_prev_global, out=diff)
        diff -= mean
        sums[i] = np.square(diff, out=diff).sum()
    return float(np.mean(sums))


def xi_count(sorted_n_k: np.ndarray, k_hat: int) -> int:
    """Signed sample-count difference: top group minus the rest (sorted counts)."""
    return int(sorted_n_k[:k_hat].sum() - sorted_n_k[k_hat:].sum())


def eval_chunk_rows(n_rows: int, n_params: int) -> int:
    """Rows per eval chunk for `n_rows` test rows and a model of `n_params`
    parameters: all of them while n_rows * n_params is below
    `EVAL_CHUNK_WORK`, else half of them rounded up to a multiple of 8,
    unless that leaves under 8 rows for the second half.  A function of
    (n_rows, n_params) alone, so that eval's bits do not depend on the
    thread count.  The multiple of 8: on a single-thread OpenBLAS, a chunk
    whose height is not a multiple of 4 can round differently from the same
    rows of the whole batch."""
    half = -(-n_rows // 16) * 8
    if n_rows * n_params < EVAL_CHUNK_WORK or n_rows - half < 8:
        return n_rows
    return half


def evaluate(model: nn.Model, test_set: Dataset, attack: EvalAttack = EvalAttack.NONE,
             spec: AttackSpec | None = None) -> float:
    """Fraction of correct argmax predictions on (possibly attacked) inputs; the
    test batch's shape and labels are checked against the model once.  The
    attack draws nothing, so a spec with a random start is rejected.

    The rows are attacked and scored in chunks of `eval_chunk_rows` rows, one
    or two, through `threads.for_each`; the correct counts are summed in
    chunk order."""
    if len(test_set) == 0:
        raise ValueError("empty test set")
    X = nn._check_batch(model, test_set.features)
    y = nn._check_labels(test_set.labels, model.num_classes, X.shape)
    if attack is not EvalAttack.NONE and spec is None:
        raise ValueError(f"{attack.name} evaluation needs an attack spec")
    if spec is not None and spec.random_start:
        raise ValueError("evaluation draws no random start: pass spec.evaluation()")
    height = eval_chunk_rows(len(y), model.params.values.size)

    def correct(start: int) -> int:
        Xc, yc = X[start:start + height], y[start:start + height]
        if attack is EvalAttack.FGSM:
            Xc = fgsm(model, Xc, yc, spec)
        elif attack is EvalAttack.PGD:
            Xc = pgd(model, Xc, yc, spec)
        return int(np.count_nonzero(nn.forward_batch(model, Xc).argmax(axis=1) == yc))

    counts = threads.for_each(correct, range(0, len(y), height))
    return sum(counts) / len(y)     # an exact integer sum: the float np.mean(preds == y) gives


def trace_topk(rows: list[dict]) -> tuple[dict[int, int], int]:
    """Top-set selections per participating client id, ascending, and the round count."""
    clients = [r for r in rows if r["client_id"] >= 0]
    counts = {cid: 0 for cid in sorted({r["client_id"] for r in clients})}
    for r in clients:
        counts[r["client_id"]] += r["is_top"]
    return counts, len({r["round"] for r in clients})
