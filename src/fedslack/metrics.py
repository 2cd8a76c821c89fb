"""Diagnostics and evaluation: client drift, pseudo-gradient variance, the
signed top-vs-rest sample-count difference, accuracy under attack, and
top-set selection tracing across rounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import nn
from .attacks import AttackSpec, fgsm, pgd
from .data import Dataset
from .errors import ShapeError
from .local import ClientUpdate


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
    top_ids: list[int]
    alpha: float
    nat_acc: float | None = None
    fgsm_acc: float | None = None
    pgd20_acc: float | None = None
    wall_clock: float = 0.0


def client_drift(thetas: list[nn.ParamVector],
                 theta_global: nn.ParamVector) -> tuple[list[float], float]:
    """L2 distance of each client's parameters from the aggregate, plus the mean."""
    drifts = []
    for th in thetas:
        if th.layout != theta_global.layout:
            raise ShapeError("drift layouts differ")
        drifts.append(float(np.linalg.norm(th.values - theta_global.values)))
    return drifts, float(np.mean(drifts))


def gradient_variance(thetas: list[nn.ParamVector],
                      theta_prev_global: nn.ParamVector) -> float:
    """Variance of the per-client pseudo-gradients theta_k - theta_prev."""
    if len(thetas) < 2:
        raise ValueError("gradient variance needs at least 2 clients")
    g = np.stack([th.values - theta_prev_global.values for th in thetas])
    centered = g - g.mean(axis=0)
    return float(np.mean(np.sum(centered ** 2, axis=1)))


def xi_count(sorted_updates: list[ClientUpdate], k_hat: int) -> int:
    """Signed sample-count difference: top group minus the rest (sorted input)."""
    n = [u.n_samples for u in sorted_updates]
    return int(sum(n[:k_hat]) - sum(n[k_hat:]))


def evaluate(model: nn.Model, test_set: Dataset, attack: EvalAttack = EvalAttack.NONE,
             spec: AttackSpec | None = None,
             rng: np.random.Generator | None = None) -> float:
    """Fraction of correct argmax predictions on (possibly attacked) inputs."""
    if len(test_set) == 0:
        raise ValueError("empty test set")
    X, y = test_set.features, nn._check_labels(test_set.labels, model.num_classes)
    if attack is EvalAttack.FGSM:
        if spec is None:
            raise ValueError("FGSM evaluation needs an attack spec")
        X = fgsm(model, X, y, spec)
    elif attack is EvalAttack.PGD:
        if spec is None:
            raise ValueError("PGD evaluation needs an attack spec")
        X = pgd(model, X, y, spec, rng)
    preds = nn.forward_batch(model, X).argmax(axis=1)
    return float(np.mean(preds == y))


def trace_topk(reports: list[RoundReport], num_clients: int) -> np.ndarray:
    """How often each client id appeared in the round's top set."""
    counts = np.zeros(num_clients, dtype=int)
    for rep in reports:
        for cid in rep.top_ids:
            counts[cid] += 1
    return counts
