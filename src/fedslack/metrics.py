"""Evaluation and the round records: accuracy under attack, a round's
report and its xi (the samples of the top set it marks minus the rest's),
and top-set counts read from `metrics.csv`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import nn, threads
from .attacks import AttackSpec, fgsm, pgd
from .data import Dataset


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


def evaluate(model: nn.Model, test_set: Dataset, attack: EvalAttack = EvalAttack.NONE,
             spec: AttackSpec | None = None) -> float:
    """Fraction of correct argmax predictions on (possibly attacked) inputs; the
    test batch's shape and labels are checked against the model once.  The
    attack draws nothing, so a spec with a random start is rejected.

    The rows are attacked and scored whole or in the two `threads.halves`
    of work rows * P, through `threads.for_each`; the correct counts are
    summed in order.  The halves start at a multiple of 8 rows: on a
    single-thread OpenBLAS, a block whose height is not a multiple of 4 can
    round differently from the same rows of the whole batch."""
    if len(test_set) == 0:
        raise ValueError("empty test set")
    X = nn._check_batch(model, test_set.features)
    y = nn._check_labels(test_set.labels, model.num_classes, X.shape)
    if attack is not EvalAttack.NONE and spec is None:
        raise ValueError(f"{attack.name} evaluation needs an attack spec")
    if spec is not None and spec.random_start:
        raise ValueError("evaluation draws no random start: pass spec.evaluation()")

    def correct(rows: slice) -> int:
        Xc, yc = X[rows], y[rows]
        if attack is EvalAttack.FGSM:
            Xc = fgsm(model, Xc, yc, spec)
        elif attack is EvalAttack.PGD:
            Xc = pgd(model, Xc, yc, spec)
        return int(np.count_nonzero(nn.forward_batch(model, Xc).argmax(axis=1) == yc))

    rows = threads.halves(len(y), len(y) * model.params.values.size, 8)
    counts = threads.for_each(correct, rows)
    return sum(counts) / len(y)     # an exact integer sum: the float np.mean(preds == y) gives


def trace_topk(rows: list[dict]) -> tuple[dict[int, int], int]:
    """Top-set selections per participating client id, ascending, and the round count."""
    clients = [r for r in rows if r["client_id"] >= 0]
    counts = {cid: 0 for cid in sorted({r["client_id"] for r in clients})}
    for r in clients:
        counts[r["client_id"]] += r["is_top"]
    return counts, len({r["round"] for r in clients})
