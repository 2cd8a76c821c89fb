"""The server step: ascending sort by weighted client loss, its top set,
which the slack weights and the relaxed loss both read, the weighted mean of
the round's upload matrix, the control-variate updates, and the drift and
pseudo-gradient variance diagnostics.

The slack mechanism multiplies the unnormalized per-sample weight of the
top clients by r = (1+alpha)/(1-alpha) and renormalizes over samples, so
the final weights are a convex combination and the top-vs-rest per-sample
ratio is exactly r.

The server step takes and returns plain arrays, row i being participant i:
it reads the (m, P) uploads and the (m,) sample counts and weighted losses,
whose one sort per round `slack_weights` takes as given, and returns the
(m,) weights, the (m,) boolean top-set mask, the (P,) aggregate, the (m,)
drifts and the variance.  Under SCAFFOLD it also updates the (K, P) control
variates in place, computing each participant's variate change from its
upload row, so no (m, P) matrix of changes exists.

The server reads the round's (m, P) upload matrix here alone, in place, cut
by `threads.halves` from the shapes alone and on every core through
`threads.for_each`: column work (the aggregate, the SCAFFOLD update, the
variance's mean) in column halves cut at multiples of 8, row work (drift's
norms, the variance's centred sums) in row halves through `_per_row`.  Each
element keeps its ufunc and its order within a half, so a half gives the
bits of the whole, and each half's scratch is allocated on the calling
thread.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import threads
from .errors import (FROM_0_BELOW_1, NON_NEGATIVE, AggregationError, ShapeError,
                     check_bounds)
from .local import update_scaffold_client


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
    column half is one product into its columns of the result.
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


def _check_rows(matrix: np.ndarray, theta: np.ndarray) -> None:
    if np.ndim(matrix) != 2 or np.shape(matrix)[1:] != np.shape(theta):
        raise ShapeError(f"matrix of shape {np.shape(matrix)} does not match "
                         f"parameters of shape {np.shape(theta)}")


def scaffold_server_update(c_global: np.ndarray, c_locals: np.ndarray,
                           client_ids: list[int], uploads: np.ndarray, theta_prev: np.ndarray,
                           steps: list[int], lr: float) -> None:
    """SCAFFOLD's server step, in place, for m participants of the K clients
    of the (K, P) c_locals.  Row by row, participant i's variate change
        delta_i = ((c_l - c_global) + (theta_prev - uploads[i]) / (steps[i]*lr)) - c_l,
    c_l being c_locals[client_ids[i]], is added to c_l; then c_global +=
    (m/K) * the mean of the deltas.  The deltas are those of the variates as
    they stood when the round trained: each row is read before it is updated,
    and c_global only after the last row.

    Every step is per column, so it runs in column halves; the mean sums the
    deltas in row order, as numpy's axis-0 mean does, into a (P,) total.  A
    half computes each delta in its columns of one (P,) scratch row, through
    `update_scaffold_client`, the step term in a second."""
    _check_rows(uploads, c_global)
    _check_rows(uploads, theta_prev)
    _check_rows(c_locals, c_global)
    m, P = uploads.shape
    if len(client_ids) != m or len(steps) != m:
        raise ShapeError(f"{len(client_ids)} client ids and {len(steps)} step counts "
                         f"for {m} upload rows")
    scale = m / len(c_locals)
    deltas, terms, totals = np.empty((3, P))

    def update(cols: slice) -> None:
        delta, term, total = deltas[cols], terms[cols], totals[cols]
        c_g, theta = c_global[cols], theta_prev[cols]
        for i, (cid, n_steps, upload) in enumerate(zip(client_ids, steps, uploads)):
            c_local = c_locals[cid, cols]
            update_scaffold_client(theta, upload[cols], n_steps, lr, c_local, c_g, delta, term)
            delta -= c_local
            c_local += delta
            if i:
                total += delta
            else:
                np.copyto(total, delta)
        total /= m
        total *= scale
        c_g += total

    threads.for_each(update, threads.halves(P, m * P, 8))


def _per_row(uploads: np.ndarray, theta: np.ndarray, reduce) -> np.ndarray:
    """(m,) `reduce(diff)` of each upload row's diff = row - theta, the rows
    in row halves, each half through its own (P,) scratch row."""
    m, P = uploads.shape
    rows = threads.halves(m, m * P)
    out = np.empty(m)

    def per_half(job) -> None:
        diff, block = job
        for i in range(block.start, block.stop):
            out[i] = reduce(np.subtract(uploads[i], theta, out=diff))

    threads.for_each(per_half, list(zip(np.empty((len(rows), P)), rows)))
    return out


def client_drift(uploads: np.ndarray, theta_global: np.ndarray) -> tuple[list[float], float]:
    """L2 distance of each upload row from the aggregate, plus the mean."""
    _check_rows(uploads, theta_global)
    drifts = _per_row(uploads, theta_global, np.linalg.norm)
    return drifts.tolist(), float(np.mean(drifts))


def gradient_variance(uploads: np.ndarray, theta_prev_global: np.ndarray) -> float:
    """Variance of the per-client pseudo-gradients: upload rows minus
    theta_prev; 0.0 for a lone row, which is its own mean.  The mean is
    taken in column halves, then the centred rows' sums in row halves."""
    _check_rows(uploads, theta_prev_global)
    m, P = uploads.shape
    # Bit-equal to centring the (m, P) matrix g = uploads - theta_prev: the
    # mean sums g's rows in order, as numpy's axis-0 mean does, and each
    # row's squares are summed pairwise, as numpy's axis-1 sum does.
    mean, scratch = np.empty(P), np.empty(P)

    def column_mean(cols: slice) -> None:
        diff, theta, total = scratch[cols], theta_prev_global[cols], mean[cols]
        np.subtract(uploads[0, cols], theta, out=total)
        for row in uploads[1:]:
            total += np.subtract(row[cols], theta, out=diff)
        total /= m

    threads.for_each(column_mean, threads.halves(P, m * P, 8))
    del scratch             # freed before the row pass takes its own
    return float(np.mean(_per_row(uploads, theta_prev_global, lambda diff: np.square(
        np.subtract(diff, mean, out=diff), out=diff).sum())))
