"""Diagnostics and evaluation: client drift, pseudo-gradient variance, the
signed top-vs-rest sample-count difference, accuracy under attack, and
top-set selection counts read back from `metrics.csv` rows.

Drift and variance read the round's (m, P) upload matrix, one row per
participant, in place, row by row through (P,) scratch: neither copies the
matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import nn
from .attacks import AttackSpec, fgsm, pgd
from .data import Dataset
from .errors import ShapeError


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
    """Variance of the per-client pseudo-gradients: upload rows minus theta_prev."""
    if len(uploads) < 2:
        raise ValueError("gradient variance needs at least 2 clients")
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


def evaluate(model: nn.Model, test_set: Dataset, attack: EvalAttack = EvalAttack.NONE,
             spec: AttackSpec | None = None) -> float:
    """Fraction of correct argmax predictions on (possibly attacked) inputs; the
    test batch's shape and labels are checked against the model once.  The
    attack draws nothing, so a spec with a random start is rejected."""
    if len(test_set) == 0:
        raise ValueError("empty test set")
    X = nn._check_batch(model, test_set.features)
    y = nn._check_labels(test_set.labels, model.num_classes)
    if attack is EvalAttack.FGSM:
        if spec is None:
            raise ValueError("FGSM evaluation needs an attack spec")
        X = fgsm(model, X, y, spec)
    elif attack is EvalAttack.PGD:
        if spec is None:
            raise ValueError("PGD evaluation needs an attack spec")
        X = pgd(model, X, y, spec)
    preds = nn.forward_batch(model, X).argmax(axis=1)
    return float(np.mean(preds == y))


def trace_topk(rows: list[dict]) -> tuple[dict[int, int], int]:
    """Top-set selections per participating client id, ascending, and the round count."""
    clients = [r for r in rows if r["client_id"] >= 0]
    counts = {cid: 0 for cid in sorted({r["client_id"] for r in clients})}
    for r in clients:
        counts[r["client_id"]] += r["is_top"]
    return counts, len({r["round"] for r in clients})
