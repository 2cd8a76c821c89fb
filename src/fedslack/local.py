"""Local training for one communication round, one cohort of clients at a time.

A client downloads the global parameters, runs E epochs of minibatch SGD on
adversarial examples (or TRADES / standard batches), and reports its updated
parameters together with the mean loss over the final local epoch.  Optional
proximal and control-variate corrections hook into the gradient before the
SGD step.

Given the global parameters the clients are independent, so they train in
cohorts: a cohort is a set of evenly spaced upload rows, consecutive or
not, whose shards have the same size n, and so share one batch schedule.
`train_client` stacks the cohort's M models along a leading client axis
(see `nn`): each forward, backward and attack step is one
`(M, n, .) @ (M, fan_in, fan_out)` matmul per layer, and each SGD, FedProx
or SCAFFOLD update one elementwise op over the cohort's rows.  A lone
client is a cohort of one and trains as a 1-row stack, through the same
calls.  Every client still computes exactly what it would alone: it has
one stream per purpose per round (see `streams`), which `train_client`
derives when it starts, and draws a permutation of its shard from its
batch-order stream at each epoch, and its attack's random starts from its
attack stream batch after batch.  A `Cohort` holds no stream, so training
it twice gives the same bits.  `cohorts` caps a cohort at COHORT_BYTES of
parameters: beyond that the stacked activations and gradients fall out of
cache and cost more than the numpy calls stacking saves.

Gradients, FedProx pulls and SCAFFOLD control variates are plain float64
arrays in the order of `model.params.values`, one row per client; only the
global model and the cohort's stacked model, `Model(dims, out)` over the
upload rows, carry a layout.

The caller hands each cohort the global model and its rows of the round's
upload matrix (and, under SCAFFOLD, of its delta matrix) as a strided view
to train and write in; `train_client` returns only the clients' mean
losses.  It writes nothing else that another cohort reads, so a round's
cohorts may train on several threads at once.  Each call owns three
parameter-sized (M, P) buffers, the gradients, the SGD velocity and one
scratch array, allocates each once and reuses it batch after batch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import nn
from .attacks import AttackSpec, Rng, kl_terms, pgd, pgd_kl
from .data import ClientShard, Dataset
from .errors import (AT_LEAST_1, FINITE_NON_NEGATIVE, FROM_0_BELOW_1, POSITIVE,
                     DivergenceError, ShapeError, check_bounds)
from .streams import stream


# Largest parameter slice, in bytes, that one cohort stacks (8*P per client).
COHORT_BYTES = 1 << 20


class Trainer(Enum):
    STANDARD = "standard"
    AT = "at"
    TRADES = "trades"


@dataclass
class LocalConfig:
    """One client's training recipe for a round."""

    epochs: int = field(default=1, metadata=AT_LEAST_1)
    batch_size: int = field(default=32, metadata=AT_LEAST_1)
    trainer: Trainer = Trainer.AT
    trades_beta: float = field(default=6.0, metadata=FINITE_NON_NEGATIVE)
    fedprox_mu: float = field(default=0.0, metadata=FINITE_NON_NEGATIVE)
    attack: AttackSpec = field(default_factory=lambda: AttackSpec(8 / 255, 2 / 255, 10,
                                                                 random_start=True))
    lr: float = field(default=0.01, metadata=POSITIVE)
    momentum: float = field(default=0.9, metadata=FROM_0_BELOW_1)
    weight_decay: float = field(default=1e-4, metadata=FINITE_NON_NEGATIVE)

    def __post_init__(self):
        check_bounds(self)


def apply_fedprox(grads: np.ndarray, theta_local: np.ndarray, theta_global: np.ndarray,
                  mu: float, scratch: np.ndarray) -> np.ndarray:
    """Add the proximal pull mu*(theta_local - theta_global) to `grads` in place;
    the pull is computed in `scratch`, shaped like `grads`."""
    pull = np.subtract(theta_local, theta_global, scratch)
    pull *= mu
    grads += pull
    return grads


def apply_scaffold(grads: np.ndarray, c_global: np.ndarray,
                   c_local: np.ndarray) -> np.ndarray:
    """Control-variate correction g - c_local + c_global, applied to `grads` in place."""
    grads -= c_local
    grads += c_global
    return grads


def update_scaffold_client(theta_global: np.ndarray, theta_local: np.ndarray,
                           n_steps: int, lr: float, c_local: np.ndarray,
                           c_global: np.ndarray, out: np.ndarray,
                           scratch: np.ndarray) -> np.ndarray:
    """New local variate: c_local - c_global + (theta_global - theta_local)/(steps*lr).

    Written into `out`, in that order of association; the step term is
    computed in `scratch`, shaped like `theta_local`.
    """
    np.subtract(c_local, c_global, out=out)
    step = np.subtract(theta_global, theta_local, scratch)
    step /= n_steps * lr
    out += step
    return out


@dataclass(eq=False)
class Cohort:
    """Clients trained together in one round: their evenly spaced rows of the
    round's upload matrix as a slice (`uploads[cohort.rows]` is a view of
    them), their ids in the same order, the (M, n) array of their shards'
    sample indices (row i is client_ids[i]'s shard), and the master seed and
    round that key their streams.  A plain value: training it again replays
    the same bits."""

    rows: slice
    client_ids: tuple[int, ...]
    indices: np.ndarray
    seed: int
    round_idx: int

    def __len__(self) -> int:
        return len(self.client_ids)

    @property
    def n_samples(self) -> int:
        """Samples of all the cohort's clients together."""
        return self.indices.size


def _attack_draws(config: LocalConfig) -> bool:
    """Whether a batch's attack reads its random stream: PGD (AT) or PGD-KL
    (TRADES) with a random start, the same branches as `_batch_objective`."""
    attack = config.attack
    if not (attack.random_start and attack.epsilon > 0.0):
        return False
    return (config.trainer is Trainer.AT
            or (config.trainer is Trainer.TRADES and config.trades_beta > 0.0))


def _rows(ids: list[int] | tuple[int, ...]) -> slice | list[int]:
    """Index of the ascending ids' rows: a slice (a view, no copy) when they
    are evenly spaced, such as any two rows."""
    step = ids[1] - ids[0] if len(ids) > 1 else 1
    evenly = list(ids) == list(range(ids[0], ids[-1] + 1, step))
    return slice(ids[0], ids[-1] + 1, step) if evenly else list(ids)


def cohorts(shards: list[ClientShard], n_params: int, seed: int,
            round_idx: int) -> list[Cohort]:
    """The round's shards, in upload-row order, grouped by size into cohorts
    of at most max(1, COHORT_BYTES // (8*n_params)) evenly spaced rows each.
    Each shard joins the latest cohort of its size if that cohort has room
    and stays evenly spaced with the shard's row, else opens a new one; the
    cohorts come in order of their first row.
    """
    cap = max(1, COHORT_BYTES // (8 * n_params))
    rows: list[list[int]] = []            # each cohort's rows, in order of its first row
    latest: dict[int, list[int]] = {}     # shard size -> the latest cohort of that size
    for row, shard in enumerate(shards):
        group = latest.get(shard.n_samples)
        if (group is None or len(group) == cap
                or len(group) > 1 and row - group[-1] != group[1] - group[0]):
            group = latest[shard.n_samples] = []
            rows.append(group)
        group.append(row)
    return [Cohort(_rows(r), tuple(shards[row].client_id for row in r),
                   np.array([shards[row].indices for row in r]), seed, round_idx)
            for r in rows]


def train_client(cohort: Cohort, dataset: Dataset, global_model: nn.Model,
                 config: LocalConfig, *, out: np.ndarray,
                 c_global: np.ndarray | None = None, c_local: np.ndarray | None = None,
                 delta_out: np.ndarray | None = None) -> list[float]:
    """The cohort's E local epochs of SGD from `global_model`'s parameters in
    `out`, (M, P), one row per client; returns each client's mean loss over
    its last epoch.

    Each client draws its batch order from its (seed, "batch-order", round,
    client) stream, and its attack noise from its (seed, "attack", round,
    client) stream, which is derived only when the attack reads it; both are
    keyed by client, so a client trains alike in any cohort.
    SCAFFOLD runs iff the variates are given (c_global (P,), c_local (M, P)),
    and writes each variate change c_new - c_local into its row of
    `delta_out` (M, P).  Neither the inputs nor the variates are modified.
    A non-finite loss, attack gradient or result raises DivergenceError
    naming the round, the client, the epoch and the batch (both from 0).
    """
    ids = cohort.client_ids
    n = cohort.indices.shape[1]
    if n == 0:
        raise ValueError(f"client {ids[0]} has an empty shard")
    if np.ndim(out) != 2 or len(out) != len(ids):
        raise ShapeError(f"out has shape {np.shape(out)}, the cohort needs {len(ids)} rows")
    scaffold = c_global is not None
    if scaffold != (c_local is not None) or scaffold != (delta_out is not None):
        raise ValueError("SCAFFOLD needs c_global, c_local and delta_out")
    orders = [stream(cohort.seed, "batch-order", cohort.round_idx, cid) for cid in ids]
    attacks = ([stream(cohort.seed, "attack", cohort.round_idx, cid) for cid in ids]
               if _attack_draws(config) else None)
    model = nn.Model(global_model.dims, out)
    out[...] = global_model.params.values
    # the gradients, and the scratch the SGD step, the FedProx pull, TRADES'
    # second backprop and the SCAFFOLD update take turns in; the velocity is
    # allocated at the first step, so it is not live through the first batch
    grads, scratch = np.empty(out.shape), np.empty(out.shape)

    def diverged(what: str, row: int, epoch: int, b: int) -> DivergenceError:
        return DivergenceError(f"round {cohort.round_idx}, client {ids[row]}, "
                               f"epoch {epoch}, batch {b}: non-finite {what}")

    n_steps = 0
    for epoch in range(config.epochs):
        # each client's shard in its own batch order for this epoch
        order = np.array([shard[rng.permutation(n)]
                          for rng, shard in zip(orders, cohort.indices)])
        loss_sum = 0.0
        for b, start in enumerate(range(0, n, config.batch_size)):
            idx = order[:, start:start + config.batch_size]
            try:
                loss, _ = _batch_objective(model, dataset.features[idx],
                                           dataset.labels[idx], config, attacks, grads,
                                           scratch)
            except DivergenceError as exc:
                raise diverged("attack gradient", exc.row, epoch, b) from exc
            finite = np.isfinite(loss)
            if not finite.all():
                raise diverged("loss", int(np.argmin(finite)), epoch, b)
            if config.fedprox_mu > 0.0:
                apply_fedprox(grads, out, global_model.params.values, config.fedprox_mu,
                              scratch)
            if scaffold:
                apply_scaffold(grads, c_global, c_local)
            if n_steps == 0:
                velocity = np.zeros(out.shape)
            nn.sgd_step(model, grads, velocity, scratch, config.lr, config.momentum,
                        config.weight_decay)
            n_steps += 1
            loss_sum = loss_sum + loss * idx.shape[-1]

    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise diverged("parameters", int(np.argmin(finite)), epoch, b)
    if scaffold:
        update_scaffold_client(global_model.params.values, out, n_steps, config.lr, c_local,
                               c_global, delta_out, scratch)
        delta_out -= c_local
    return (loss_sum / n).tolist()


def _batch_objective(model: nn.Model, xb: np.ndarray, yb: np.ndarray, config: LocalConfig,
                     rng: Rng, grads: np.ndarray,
                     scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The batch's per-client losses, and its gradients written into `grads`;
    the objective may overwrite `scratch` (both C-contiguous and shaped like
    the model's parameters)."""
    if config.trainer is Trainer.TRADES and config.trades_beta > 0.0:
        return _trades_objective(model, xb, yb, config, rng, grads, scratch)
    if config.trainer is Trainer.AT and config.attack.epsilon > 0.0:
        xb = pgd(model, xb, yb, config.attack, rng)
    return nn.batch_loss_and_grads(model, xb, yb, grads)


def _trades_objective(model: nn.Model, xb: np.ndarray, yb: np.ndarray, config: LocalConfig,
                      rng: Rng, grads: np.ndarray,
                      scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CE on clean data plus beta * KL(softmax f(x_adv) || softmax f(x)), its
    gradients written into `grads`; the second backprop's go to `scratch`."""
    beta = config.trades_beta
    n = yb.shape[-1]
    at = nn._at_labels(yb)
    logits_nat, acts_nat = nn._forward_cache(model, xb)
    p, ce = nn._softmax_ce(logits_nat, at)
    log_p = np.log(np.clip(p, 1e-300, None))
    x_adv = pgd_kl(model, xb, config.attack, rng, log_p) if config.attack.epsilon > 0 else xb
    logits_adv, acts_adv = nn._forward_cache(model, x_adv)
    q, s, kl = kl_terms(logits_adv, log_p)
    loss = ce.mean(axis=-1) + beta * kl[..., 0].mean(axis=-1)

    dl_nat = p.copy()
    dl_nat[at] -= 1.0
    dl_nat += beta * (p - q)          # KL gradient w.r.t. the natural logits
    dl_nat /= n
    dl_adv = beta * q * (s - kl) / n
    nn.backprop(model, acts_nat, dl_nat, grads)
    grads += nn.backprop(model, acts_adv, dl_adv, scratch)
    return loss, grads
