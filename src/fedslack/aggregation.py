"""Server-side aggregation: ascending sort by weighted client loss, its top
set, which the slack weights and the relaxed loss both read, the weighted
mean of the round's upload matrix, and the control-variate updates.

The slack mechanism multiplies the unnormalized per-sample weight of the
top clients by r = (1+alpha)/(1-alpha) and renormalizes over samples, so
the final weights are a convex combination and the top-vs-rest per-sample
ratio is exactly r.

The server step takes and returns plain arrays, row i being participant i:
it reads the (m, P) uploads and the (m,) sample counts and weighted losses,
whose one sort per round `slack_weights` takes as given, and returns the
(m,) weights, the (m,) boolean top-set mask and the (P,) aggregate.  The
aggregate and the SCAFFOLD update run in column halves on every core once
the matrix is large (see `threads.halves`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import threads
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


def _top_set(order, mode: AggregationMode, k_hat: int, alpha: float) -> np.ndarray:
    """(m,) mask of the top rows of the m-row ascending `order`: its first
    k_hat under SFAT, its last k_hat under RE_SFAT, none under FAT or at
    alpha 0.  alpha must lie in [0, 1), and k_hat in [0, m//2] unless the
    mode is FAT."""
    if not 0.0 <= alpha < 1.0:
        raise AggregationError(f"alpha must lie in [0, 1), got {alpha}")
    m = len(order)
    if mode is not AggregationMode.FAT and not 0 <= k_hat <= m // 2:
        raise AggregationError(f"k_hat {k_hat} must lie in [0, {m // 2}] for {m} clients")
    is_top = np.zeros(m, dtype=bool)
    if mode is not AggregationMode.FAT and alpha > 0.0:
        is_top[order[m - k_hat:] if mode is AggregationMode.RE_SFAT else order[:k_hat]] = True
    return is_top


def slack_weights(n_k: np.ndarray, order: list[int], policy: AggregationPolicy,
                  alpha: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-row aggregation weights for the given policy, and the top-set mask,
    `_top_set` of `sort_by_weighted_loss`'s row `order`: both (m,), row for
    row with `n_k`.  Top rows get unnormalized per-sample weight
    p = (1+alpha)/(1-alpha), the rest 1; the weights are p*N_k, normalized."""
    is_top = _top_set(order, policy.mode, policy.k_hat, alpha)
    w = np.where(is_top, (1.0 + alpha) / (1.0 - alpha), 1.0) * n_k
    return w / w.sum(), is_top


def slack_aggregate(uploads: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Convex combination `weights @ uploads` of the (m, P) upload matrix, (P,).

    Row i of `uploads` is the parameters of the update that `weights[i]`
    weighs; under FAT (or alpha 0) this is the sample-weighted mean.  Each
    column half (see `threads.halves`) is one product into its columns of
    the result.
    """
    if np.ndim(uploads) != 2 or len(uploads) != len(weights):
        raise ShapeError(f"upload matrix of shape {np.shape(uploads)} does not match "
                         f"{len(weights)} weights")
    m, P = uploads.shape
    out = np.empty(P)

    def product(cols: slice) -> None:
        np.matmul(weights, uploads[:, cols], out=out[cols])

    threads.for_each(product, threads.halves(P, m * P, 8))
    return out


def alpha_slack_loss(weighted_losses, alpha: float, k_hat: int,
                     mode: AggregationMode = AggregationMode.SFAT) -> float:
    """Relaxed total loss: (1+a) * the sum of the top set's losses, `_top_set`
    of their ascending order, + (1-a) * the sum of the rest; the plain sum at
    alpha 0.  SFAT's form, the default, is a lower bound on the plain sum, and
    RE_SFAT's can lie above it.  For non-negative losses SFAT's is
    non-increasing in alpha (strictly once k_hat > 0 and the losses are
    distinct), and non-decreasing in k_hat: raising k_hat by one moves the
    next-smallest loss s_(k_hat+1) into the (1+a) group, adding 2a*s_(k_hat+1).
    """
    losses = np.asarray(weighted_losses, dtype=np.float64)
    is_top = _top_set(np.argsort(losses, kind="stable"), mode, k_hat, alpha)
    return float((1.0 + alpha) * losses[is_top].sum() + (1.0 - alpha) * losses[~is_top].sum())


def scaffold_server_update(c_global: np.ndarray, c_locals: np.ndarray,
                           client_ids: list[int], deltas: np.ndarray) -> None:
    """SCAFFOLD's server step, in place: c_locals[client_ids[i]] += deltas[i]
    row by row, then c_global += (m/K) * the mean of the rows of the (m, P)
    delta matrix, for m participants of the K clients of the (K, P) c_locals.

    Every step is per column, so it runs in column halves (see
    `threads.halves`); the mean sums the rows in order, as numpy's axis-0
    mean does, into a (P,) total allocated on the calling thread."""
    m, P = deltas.shape
    scale = m / len(c_locals)
    totals = np.empty(P)

    def update(cols: slice) -> None:
        total = totals[cols]
        np.copyto(total, deltas[0, cols])
        for i, (cid, delta) in enumerate(zip(client_ids, deltas)):
            c_locals[cid, cols] += delta[cols]
            if i:
                total += delta[cols]
        total /= m
        total *= scale
        c_global[cols] += total

    threads.for_each(update, threads.halves(P, m * P, 8))
