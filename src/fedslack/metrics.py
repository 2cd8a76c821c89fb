"""Diagnostics and evaluation: client drift, pseudo-gradient variance, a
round's report and its xi (the samples of the top set it marks minus the
rest's), accuracy under attack, and top-set counts read from `metrics.csv`.

Drift and variance read the round's (m, P) upload matrix, one row per
participant, in place, row by row through (P,) scratch: neither copies the
matrix.  Once the matrix holds twice `SERVER_SPLIT_WORK` elements they, and
the aggregation module's server calls, split their work over the cores
through `threads.for_each`, in blocks that give the same bits however the
work is cut (see `server_ways` and `server_blocks`).

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

# Upload rows times parameters that each block of a split server step (the
# aggregate, the SCAFFOLD update, drift and variance) gets at least: the
# step takes one block per core, but no more blocks than m * P holds of
# this.  Measured on a 2-core x86 host only, the four calls in two blocks
# against one: with 50 rows, blocks of 2**19 took 1.02x the time and of
# 2**20 0.73x; with 5 rows, blocks of 2**18 took 0.83x and of 2**19 0.65x.
# So the fleet benchmark's 50 x 50,826 splits in two, and the wide one's
# 5 x 203,530 and the desk one's 5 x 229 stay whole.
SERVER_SPLIT_WORK = 2**20


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
    alpha: float
    nat_acc: float | None = None
    fgsm_acc: float | None = None
    pgd20_acc: float | None = None
    wall_clock: float = 0.0

    @property
    def xi(self) -> int:
        """Samples of the clients marked `is_top` minus the rest's; 0 if none is."""
        if not any(c.is_top for c in self.clients):
            return 0
        return sum(c.n_samples if c.is_top else -c.n_samples for c in self.clients)


def _check_rows(uploads: np.ndarray, theta: np.ndarray) -> None:
    if np.ndim(uploads) != 2 or np.shape(uploads)[1:] != np.shape(theta):
        raise ShapeError(f"upload matrix of shape {np.shape(uploads)} does not match "
                         f"parameters of shape {np.shape(theta)}")


def server_ways(m: int, P: int) -> int:
    """How many blocks the server step cuts its work on an (m, P) matrix
    into: one per core, but no more than leave each block at least
    `SERVER_SPLIT_WORK` of the m * P elements, so 1 below twice that."""
    return max(1, min(threads.cores(), m * P // SERVER_SPLIT_WORK))


def server_blocks(n: int, ways: int, columns: bool = False) -> list[slice]:
    """`range(n)` in at most `ways` consecutive, non-empty blocks of about
    n / ways for `threads.for_each`: rows of the upload matrix, or its
    columns cut at multiples of 8.  Row work (a norm, a pairwise sum) takes
    whole rows and column work keeps the row order, so each element is the
    same bits in any cut; so is a `weights @ uploads` cut at multiples of 8
    columns, though not one cut elsewhere, on OpenBLAS's SkylakeX, Haswell,
    Sandybridge and Zen kernels.  Each call allocates its blocks' (P,)
    scratch on the calling thread, one row per row block, so that no worker
    thread takes a parameter-sized array from a malloc arena of its own."""
    multiple = 8 if columns else 1
    cuts = sorted({min(n, -(-i * n // (ways * multiple)) * multiple) for i in range(ways + 1)})
    return [slice(a, b) for a, b in zip(cuts, cuts[1:])]


def client_drift(uploads: np.ndarray, theta_global: np.ndarray) -> tuple[list[float], float]:
    """L2 distance of each upload row from the aggregate, plus the mean; the
    rows in `server_blocks`, each block through its own (P,) scratch row."""
    _check_rows(uploads, theta_global)
    rows = server_blocks(len(uploads), server_ways(*uploads.shape))
    drifts = np.empty(len(uploads))

    def norms(job) -> None:
        diff, block = job
        for i in range(block.start, block.stop):
            np.subtract(uploads[i], theta_global, out=diff)
            drifts[i] = np.linalg.norm(diff)

    threads.for_each(norms, list(zip(np.empty((len(rows), uploads.shape[1])), rows)))
    return drifts.tolist(), float(np.mean(drifts))


def gradient_variance(uploads: np.ndarray, theta_prev_global: np.ndarray) -> float:
    """Variance of the per-client pseudo-gradients: upload rows minus
    theta_prev; 0.0 for a lone row, which is its own mean.  The mean is
    taken in column blocks and the centred rows in row blocks (see
    `server_blocks`), each block through its own columns or row of scratch."""
    _check_rows(uploads, theta_prev_global)
    m, P = uploads.shape
    ways = server_ways(m, P)
    rows = server_blocks(m, ways)
    scratch = np.empty((len(rows), P))
    # Bit-equal to centring the (m, P) matrix g = uploads - theta_prev: the
    # mean sums g's rows in order, as numpy's axis-0 mean does, and each
    # row's squares are summed pairwise, as numpy's axis-1 sum does.
    mean, sums = np.empty(P), np.empty(m)

    def column_mean(cols: slice) -> None:
        diff, theta, total = scratch[0, cols], theta_prev_global[cols], mean[cols]
        np.subtract(uploads[0, cols], theta, out=total)
        for row in uploads[1:]:
            total += np.subtract(row[cols], theta, out=diff)
        total /= m

    def centred_sums(job) -> None:
        diff, block = job
        for i in range(block.start, block.stop):
            np.subtract(uploads[i], theta_prev_global, out=diff)
            diff -= mean
            sums[i] = np.square(diff, out=diff).sum()

    threads.for_each(column_mean, server_blocks(P, ways, columns=True))
    threads.for_each(centred_sums, list(zip(scratch, rows)))
    return float(np.mean(sums))


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
