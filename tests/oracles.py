"""Independent list-based reference implementations of the server step,
and the two-pass softmax and cross-entropy.

The program keeps a round's uploads in one (m, P) matrix and its sample
counts and losses in (m,) arrays, and reads them in place.  `RoundArrays`
holds such a round for the tests; the oracles keep the per-client list and
per-row formulas that the matrix path replaced, so tests can check it
against them bit for bit.  `class_groups` states the NONIID partitions'
ownership rule as each client's list of classes, for the partition tests.
`softmax_two_pass` and `cross_entropy_two_pass` each take the class max by
one reduce and compute exp(logits - max) on their own, as the engine did
before its loss and gradient shared one softmax pass.  `fgsm_clip` is FGSM's
own formula, one clipped sign step, which one-step PGD must equal.
`marked_xi` reads each round's xi off the client rows of `metrics.csv`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from fedslack import nn
from fedslack.aggregation import slack_weights, sort_by_weighted_loss
from fedslack.errors import AggregationError
from fedslack.nn import Layout, ParamVector


@dataclass
class RoundArrays:
    """One round's server-step inputs as the runner holds them: row i of
    each array belongs to client `client_ids[i]` (0..m-1 unless given)."""

    uploads: np.ndarray            # (m, P)
    losses: np.ndarray             # (m,) mean losses
    n_k: np.ndarray                # (m,) sample counts
    layout: Layout
    client_ids: list[int] = field(default_factory=list)

    def __post_init__(self):
        self.uploads = np.asarray(self.uploads, dtype=np.float64)
        self.losses = np.asarray(self.losses, dtype=np.float64)
        self.n_k = np.asarray(self.n_k, dtype=np.int64)
        if not self.client_ids:
            self.client_ids = list(range(len(self.n_k)))

    @property
    def weighted_losses(self) -> np.ndarray:
        """n_k/N * loss_k, N being the round's total sample count."""
        return self.n_k / int(self.n_k.sum()) * self.losses

    def rows(self, idx) -> "RoundArrays":
        """The same clients in the row order `idx`."""
        return RoundArrays(self.uploads[idx], self.losses[idx], self.n_k[idx], self.layout,
                           [self.client_ids[i] for i in idx])


def server_weights(r: RoundArrays, policy, alpha=None) -> tuple[np.ndarray, np.ndarray]:
    """The runner's weighting of a round, (weights, is_top): one sort, then
    `slack_weights` at `alpha`, or at the policy's alpha when None."""
    order = sort_by_weighted_loss(r.weighted_losses, r.client_ids)
    return slack_weights(r.n_k, order, policy, policy.alpha if alpha is None else alpha)


def fedavg_aggregate(r: RoundArrays) -> ParamVector:
    """Sample-weighted mean of the uploaded parameters."""
    if not len(r.n_k):
        raise AggregationError("no client updates to aggregate")
    n = r.n_k.astype(np.float64)
    w = n / n.sum()
    stacked = np.stack(list(r.uploads))
    return ParamVector(w @ stacked, r.layout)


def slack_aggregate_list(r: RoundArrays, policy, alpha=None) -> np.ndarray:
    """Convex combination of the listed uploads under the slack weights."""
    weights, _ = server_weights(r, policy, alpha)
    stacked = np.stack(list(r.uploads))
    return weights @ stacked


def client_drift_list(thetas, theta_global) -> tuple[list[float], float]:
    drifts = [float(np.linalg.norm(th - theta_global)) for th in thetas]
    return drifts, float(np.mean(drifts))


def gradient_variance_list(thetas, theta_prev) -> float:
    g = np.stack([th - theta_prev for th in thetas])
    centered = g - g.mean(axis=0)
    return float(np.mean(np.sum(centered ** 2, axis=1)))


def scaffold_server_update_list(c_global, deltas, participants, total_clients):
    if not deltas:
        return c_global
    return c_global + participants / total_clients * np.mean(deltas, axis=0)


def update_client_variates_dict(c_locals: dict, client_ids, deltas) -> None:
    for cid, delta in zip(client_ids, deltas):
        c_locals[cid] = c_locals[cid] + delta


def scaffold_delta(theta_global, theta_local, n_steps, lr, c_local, c_global):
    """The variate change a client uploads: c_new - c_local."""
    c_new = c_local - c_global + (theta_global - theta_local) / (n_steps * lr)
    return c_new - c_local


def class_groups(num_classes: int, num_clients: int) -> list[list[int]]:
    """Each client's classes, ascending, by the one ownership rule of the
    NONIID partitions: client c mod K owns class c."""
    return [list(range(k, num_classes, num_clients)) for k in range(num_clients)]


def softmax_two_pass(logits: np.ndarray) -> np.ndarray:
    e = logits - logits.max(axis=-1, keepdims=True)
    np.exp(e, out=e)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def cross_entropy_two_pass(logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample cross-entropy log(sum(exp(z))) - z[y], z = logits - the class max."""
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    return lse - np.take_along_axis(z, y[..., None], axis=-1)[..., 0]


def fgsm_clip(model, X: np.ndarray, y: np.ndarray, epsilon: float) -> np.ndarray:
    """clip(X + epsilon * sign(input gradient of the cross-entropy), 0, 1)."""
    g = nn.input_grads_ce(model, X, nn.one_hot(y, model.num_classes, X.shape))
    return np.clip(X + epsilon * np.sign(g), 0.0, 1.0)


def marked_xi(rows: list[dict]) -> dict[int, int]:
    """Each round's xi from `load_metrics` rows: the `n_k` of its client rows
    marked `is_top` minus the rest's, and 0 when no row is marked."""
    signed, marked = {}, set()
    for r in rows:
        if r["client_id"] >= 0:
            t = r["round"]
            signed[t] = signed.get(t, 0) + (r["n_k"] if r["is_top"] else -r["n_k"])
            if r["is_top"]:
                marked.add(t)
    return {t: xi if t in marked else 0 for t, xi in signed.items()}
