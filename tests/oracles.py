"""Independent list-based reference implementations of the server step.

The program keeps a round's uploads in one (m, P) matrix and reads it in
place.  These oracles keep the per-client list and per-row formulas that it
replaced, so tests can check the matrix path against them bit for bit.
"""

from __future__ import annotations

import numpy as np

from fedslack.aggregation import slack_weights
from fedslack.errors import AggregationError, ShapeError
from fedslack.nn import ParamVector


def upload_matrix(updates) -> np.ndarray:
    """The (m, P) matrix whose row i is updates[i]'s parameters."""
    return np.stack([u.params.values for u in updates])


def fedavg_aggregate(updates) -> ParamVector:
    """Sample-weighted mean of the uploaded parameters."""
    if not updates:
        raise AggregationError("no client updates to aggregate")
    layout = updates[0].params.layout
    if any(u.params.layout != layout for u in updates):
        raise ShapeError("client layouts differ")
    n = np.array([u.n_samples for u in updates], dtype=np.float64)
    w = n / n.sum()
    stacked = np.stack([u.params.values for u in updates])
    return ParamVector(w @ stacked, layout)


def slack_aggregate_list(updates, policy, alpha=None) -> ParamVector:
    """Convex combination of the listed uploads under the slack weights."""
    sw = slack_weights(updates, policy, alpha)
    stacked = np.stack([u.params.values for u in updates])
    return ParamVector(sw.weights @ stacked, updates[0].params.layout)


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
