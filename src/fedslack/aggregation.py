"""Server-side aggregation: ascending sort by weighted client loss, slack
re-weighting of the smallest-loss clients, the weighted mean of the round's
upload matrix, the relaxed loss value, and the control-variate updates.

The slack mechanism multiplies the unnormalized per-sample weight of the
top clients by r = (1+alpha)/(1-alpha) and renormalizes over samples, so
the final weights are a convex combination and the top-vs-rest per-sample
ratio is exactly r.

The server step takes and returns plain arrays, row i being participant i:
it reads the (m, P) uploads and the (m,) sample counts and weighted losses,
whose one sort per round `slack_weights` takes as given, and returns the
(m,) weights, the (m,) boolean top-set mask and the (P,) aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import (FROM_0_BELOW_1, NON_NEGATIVE, AggregationError, ShapeError,
                     check_bounds)


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
    alpha: float = field(default=0.0, metadata=FROM_0_BELOW_1)
    k_hat: int = field(default=0, metadata=NON_NEGATIVE)
    schedule: AlphaSchedule = AlphaSchedule.CONSTANT
    alpha_end: float = field(default=0.0, metadata=FROM_0_BELOW_1)
    anneal_rounds: int = field(default=0, metadata=NON_NEGATIVE)

    def __post_init__(self):
        check_bounds(self)

    def alpha_at(self, round_idx: int) -> float:
        """Alpha in effect at a (1-based) round under the schedule."""
        if self.schedule is AlphaSchedule.CONSTANT or self.anneal_rounds <= 1:
            return self.alpha
        frac = min(max(round_idx - 1, 0), self.anneal_rounds - 1) / (self.anneal_rounds - 1)
        return self.alpha + frac * (self.alpha_end - self.alpha)

    def effective_k_hat(self, participants: int) -> int:
        """Cap the top-set at half the participating clients."""
        return min(self.k_hat, participants // 2)


def sort_by_weighted_loss(weighted_losses: np.ndarray, client_ids: list[int]) -> list[int]:
    """Row indices ascending by weighted loss (N_k/N)*L_k; ties by client id."""
    bad = ~np.isfinite(weighted_losses)
    if bad.any():
        raise AggregationError(
            f"client {client_ids[int(np.argmax(bad))]} reported a non-finite loss")
    return np.lexsort((client_ids, weighted_losses)).tolist()


def slack_weights(n_k: np.ndarray, order: list[int], policy: AggregationPolicy,
                  alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row aggregation weights for the given policy, and the top-set mask.

    `order` is `sort_by_weighted_loss`'s row order.  Top rows (its first
    k_hat for SFAT, its last k_hat for RE_SFAT) get unnormalized per-sample
    weight r = (1+alpha)/(1-alpha), every other row 1; the final weights are
    p*N_k normalized over rows.  Both returned arrays are (m,), aligned row
    for row with `n_k`; the mask is all False when no row is upweighted.
    """
    if not 0.0 <= alpha < 1.0:
        raise AggregationError(f"alpha must lie in [0, 1), got {alpha}")
    m = len(n_k)
    if policy.mode is not AggregationMode.FAT and policy.k_hat > m // 2:
        raise AggregationError(
            f"k_hat {policy.k_hat} exceeds half of {m} participating clients")

    n = np.asarray(n_k, dtype=np.float64)
    k_hat = policy.k_hat
    is_top = np.zeros(m, dtype=bool)
    if policy.mode is AggregationMode.FAT or alpha == 0.0 or k_hat == 0:
        return n / n.sum(), is_top
    is_top[order[-k_hat:] if policy.mode is AggregationMode.RE_SFAT else order[:k_hat]] = True
    p = np.ones(m)
    p[is_top] = (1.0 + alpha) / (1.0 - alpha)
    w = p * n
    return w / w.sum(), is_top


def slack_aggregate(uploads: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Convex combination `weights @ uploads` of the (m, P) upload matrix, (P,).

    Row i of `uploads` is the parameters of the update that `weights[i]`
    weighs; under FAT (or alpha 0) this is the sample-weighted mean.
    """
    if np.ndim(uploads) != 2 or len(uploads) != len(weights):
        raise ShapeError(f"upload matrix of shape {np.shape(uploads)} does not match "
                         f"{len(weights)} weights")
    return weights @ uploads


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


def scaffold_server_update(c_global: np.ndarray, c_locals: np.ndarray,
                           client_ids: list[int], deltas: np.ndarray) -> None:
    """SCAFFOLD's server step, in place: c_locals[client_ids[i]] += deltas[i]
    row by row, then c_global += (m/K) * the mean of the rows of the (m, P)
    delta matrix, for m participants of the K clients of the (K, P) c_locals."""
    for cid, delta in zip(client_ids, deltas):
        c_locals[cid] += delta
    c_global += len(deltas) / len(c_locals) * np.mean(deltas, axis=0)
