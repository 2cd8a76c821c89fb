"""Server-side aggregation: ascending sort by weighted client loss, slack
re-weighting of the smallest-loss clients, the weighted mean of the round's
upload matrix, the relaxed loss value, and the control-variate updates.

The slack mechanism multiplies the unnormalized per-sample weight of the
top clients by r = (1+alpha)/(1-alpha) and renormalizes over samples, so
the final weights are a convex combination and the top-vs-rest per-sample
ratio is exactly r.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import AggregationError, ShapeError
from .local import ClientUpdate
from .nn import Layout, ParamVector


class AggregationMode(Enum):
    FAT = "fat"
    SFAT = "sfat"
    RE_SFAT = "re_sfat"


class AlphaSchedule(Enum):
    CONSTANT = "constant"
    LINEAR_ANNEAL = "linear_anneal"


@dataclass
class AggregationPolicy:
    """Mode, slack coefficient, top-set size, and the alpha schedule."""

    mode: AggregationMode = AggregationMode.FAT
    alpha: float = 0.0
    k_hat: int = 0
    schedule: AlphaSchedule = AlphaSchedule.CONSTANT
    alpha_end: float = 0.0
    anneal_rounds: int = 0

    def __post_init__(self):
        if isinstance(self.mode, str):
            self.mode = AggregationMode(self.mode.lower())
        if isinstance(self.schedule, str):
            self.schedule = AlphaSchedule(self.schedule.lower())
        if not 0.0 <= self.alpha < 1.0:
            raise AggregationError(f"alpha must lie in [0, 1), got {self.alpha}")
        if not 0.0 <= self.alpha_end < 1.0:
            raise AggregationError(f"policy.alpha_end must lie in [0, 1), got {self.alpha_end}")
        if self.k_hat < 0:
            raise AggregationError("k_hat must be non-negative")
        if self.anneal_rounds < 0:
            raise AggregationError(
                f"policy.anneal_rounds must be non-negative, got {self.anneal_rounds}")

    def alpha_at(self, round_idx: int) -> float:
        """Alpha in effect at a (1-based) round under the schedule."""
        if self.schedule is AlphaSchedule.CONSTANT or self.anneal_rounds <= 1:
            return self.alpha
        frac = min(max(round_idx - 1, 0), self.anneal_rounds - 1) / (self.anneal_rounds - 1)
        return self.alpha + frac * (self.alpha_end - self.alpha)

    def effective_k_hat(self, participants: int) -> int:
        """Cap the top-set at half the participating clients, never below 1."""
        if self.k_hat == 0 or participants < 2:
            return 0
        return max(1, min(self.k_hat, participants // 2))


@dataclass
class SlackWeights:
    """Final simplex weights plus the selected top set and the slack ratio."""

    weights: np.ndarray
    top_ids: list[int]
    ratio: float


def _check_updates(updates: list[ClientUpdate]) -> None:
    if not updates:
        raise AggregationError("no client updates to aggregate")
    layout = updates[0].params.layout
    for u in updates[1:]:
        if u.params.layout != layout:
            raise ShapeError(f"client {u.client_id} layout differs")


def sort_by_weighted_loss(updates: list[ClientUpdate]) -> list[int]:
    """Indices into `updates` ascending by (N_k/N)*L_k; ties by client id."""
    for u in updates:
        if not np.isfinite(u.weighted_loss):
            raise AggregationError(f"client {u.client_id} reported a non-finite loss")
    return sorted(range(len(updates)),
                  key=lambda i: (updates[i].weighted_loss, updates[i].client_id))


def slack_weights(updates: list[ClientUpdate], policy: AggregationPolicy,
                  alpha: float | None = None) -> SlackWeights:
    """Per-client aggregation weights for the given policy.

    Top clients (smallest weighted loss for SFAT, largest for RE_SFAT) get
    unnormalized per-sample weight r = (1+alpha)/(1-alpha), everyone else 1;
    final weights are p*N_k normalized over clients.
    """
    _check_updates(updates)
    if alpha is None:
        alpha = policy.alpha
    if not 0.0 <= alpha < 1.0:
        raise AggregationError(f"alpha must lie in [0, 1), got {alpha}")
    m = len(updates)
    if policy.mode is not AggregationMode.FAT and policy.k_hat > m // 2:
        raise AggregationError(
            f"k_hat {policy.k_hat} exceeds half of {m} participating clients")

    n = np.array([u.n_samples for u in updates], dtype=np.float64)
    k_hat = policy.k_hat if policy.mode is not AggregationMode.FAT else 0
    if policy.mode is AggregationMode.FAT or alpha == 0.0 or k_hat == 0:
        return SlackWeights(n / n.sum(), [], 1.0)

    order = sort_by_weighted_loss(updates)
    if policy.mode is AggregationMode.RE_SFAT:
        top = order[-k_hat:]
    else:
        top = order[:k_hat]
    ratio = (1.0 + alpha) / (1.0 - alpha)
    p = np.ones(m)
    p[top] = ratio
    w = p * n
    return SlackWeights(w / w.sum(), [updates[i].client_id for i in top], ratio)


def slack_aggregate(uploads: np.ndarray, sw: SlackWeights, layout: Layout) -> ParamVector:
    """Convex combination `sw.weights @ uploads` of the (m, P) upload matrix.

    Row i of `uploads` is the parameters of the update that `sw.weights[i]`
    weighs; under FAT (or alpha 0) this is the sample-weighted mean.
    """
    if np.ndim(uploads) != 2 or len(uploads) != len(sw.weights):
        raise ShapeError(f"upload matrix of shape {np.shape(uploads)} does not match "
                         f"{len(sw.weights)} weights")
    return ParamVector(sw.weights @ uploads, layout)


def alpha_slack_loss(weighted_losses, alpha: float, k_hat: int) -> float:
    """Relaxed total loss: (1+a)*sum of the k_hat smallest + (1-a)*sum of the rest.

    Always a lower bound on the plain sum; equals it at alpha 0.  For
    non-negative losses it is non-increasing in alpha (strictly once
    k_hat > 0 and the losses are distinct), and non-decreasing in k_hat:
    raising k_hat by one moves the next-smallest loss s_(k_hat+1) from the
    (1-a) group to the (1+a) group and adds exactly 2a*s_(k_hat+1).
    """
    losses = np.asarray(weighted_losses, dtype=np.float64)
    if not 0.0 <= alpha < 1.0:
        raise AggregationError(f"alpha must lie in [0, 1), got {alpha}")
    if k_hat < 0 or k_hat > len(losses) // 2:
        raise AggregationError(
            f"k_hat {k_hat} must lie in [0, {len(losses) // 2}] for {len(losses)} clients")
    s = np.sort(losses)
    return float((1.0 + alpha) * s[:k_hat].sum() + (1.0 - alpha) * s[k_hat:].sum())


def scaffold_server_update(c_global: np.ndarray, deltas: np.ndarray,
                           participants: int, total_clients: int) -> np.ndarray:
    """c_global + (M/K) * mean of the rows of the (M, P) delta matrix."""
    if not len(deltas):
        return c_global
    return c_global + participants / total_clients * np.mean(deltas, axis=0)


def update_client_variates(c_locals: np.ndarray, client_ids: list[int],
                           deltas: np.ndarray) -> None:
    """c_locals[client_ids[i]] += deltas[i] in place, row by row."""
    for cid, delta in zip(client_ids, deltas):
        c_locals[cid] += delta
