"""Per-client local training for one communication round.

A client downloads the global parameters, runs E epochs of minibatch SGD on
adversarial examples (or TRADES / standard batches), and reports its updated
parameters together with the mean loss over the final local epoch.  Optional
proximal and control-variate corrections hook into the gradient before the
SGD step.

Gradients, FedProx pulls and SCAFFOLD control variates are plain float64
arrays in the order of `model.params.values`; they are all derived from one
model inside `train_client`, so only the downloaded and uploaded parameters
carry a layout.

The caller hands each participant its row of the round's upload matrix (and,
under SCAFFOLD, of its delta matrix) to train and write in; `train_client`
returns only the mean loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import nn
from .attacks import AttackSpec, pgd, pgd_kl
from .data import ClientShard, Dataset
from .errors import ConfigError, DivergenceError
from .streams import stream


class Trainer(Enum):
    STANDARD = "standard"
    AT = "at"
    TRADES = "trades"


@dataclass
class LocalConfig:
    """One client's training recipe for a round."""

    epochs: int = 1
    batch_size: int = 32
    trainer: Trainer = Trainer.AT
    trades_beta: float = 6.0
    fedprox_mu: float = 0.0
    attack: AttackSpec = field(default_factory=lambda: AttackSpec(8 / 255, 2 / 255, 10,
                                                                 random_start=True))
    lr: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 1e-4

    def __post_init__(self):
        if isinstance(self.trainer, str):
            self.trainer = Trainer(self.trainer.lower())
        if not isinstance(self.attack, AttackSpec):
            self.attack = AttackSpec(**self.attack)
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch size must be positive")
        # `not x > 0` rather than `x <= 0`, so that NaN is rejected too.
        if not self.lr > 0:
            raise ConfigError(f"local.lr must be positive, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ConfigError(f"local.momentum must lie in [0, 1), got {self.momentum}")
        if not self.weight_decay >= 0:
            raise ConfigError(
                f"local.weight_decay must be non-negative, got {self.weight_decay}")
        if not self.fedprox_mu >= 0:
            raise ConfigError(f"local.fedprox_mu must be non-negative, got {self.fedprox_mu}")
        if not (math.isfinite(self.trades_beta) and self.trades_beta >= 0):
            raise ConfigError(
                f"local.trades_beta must be finite and non-negative, got {self.trades_beta}")


def apply_fedprox(grads: np.ndarray, theta_local: np.ndarray,
                  theta_global: np.ndarray, mu: float) -> np.ndarray:
    """Add the proximal pull mu*(theta_local - theta_global) to `grads` in place."""
    pull = theta_local - theta_global
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
                           c_global: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """New local variate: c_local - c_global + (theta_global - theta_local)/(steps*lr).

    Written into `out` when given, in that order of association.
    """
    out = np.subtract(c_local, c_global, out=out)
    step = theta_global - theta_local
    step /= n_steps * lr
    out += step
    return out


def _batches(n: int, batch_size: int, rng: np.random.Generator):
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        yield order[start:start + batch_size]


def train_client(shard: ClientShard, dataset: Dataset, theta_global: nn.ParamVector,
                 config: LocalConfig, master_seed: int, round_idx: int = 0, *,
                 out: np.ndarray, c_global: np.ndarray | None = None,
                 c_local: np.ndarray | None = None,
                 delta_out: np.ndarray | None = None) -> float:
    """One client's E local epochs of SGD in `out`; returns the last epoch's mean loss.

    SCAFFOLD runs iff the variates are given, and writes the variate change
    c_new - c_local into `delta_out`.  Neither the inputs nor the variates
    are modified.
    """
    if shard.n_samples == 0:
        raise ValueError(f"client {shard.client_id} has an empty shard")
    scaffold = c_global is not None
    if scaffold != (c_local is not None) or scaffold != (delta_out is not None):
        raise ValueError("SCAFFOLD needs c_global, c_local and delta_out")
    model = nn.Model.from_vector(theta_global, out=out)
    state = nn.SgdState(config.lr, config.momentum, config.weight_decay)

    X = dataset.features[shard.indices]
    y = dataset.labels[shard.indices]
    n_steps = 0
    final_losses: list[tuple[float, int]] = []
    for epoch in range(config.epochs):
        batch_rng = stream(master_seed, "batch-order", round_idx, shard.client_id, epoch)
        losses: list[tuple[float, int]] = []
        for b, idx in enumerate(_batches(len(y), config.batch_size, batch_rng)):
            xb, yb = X[idx], y[idx]
            attack_rng = stream(master_seed, "attack", round_idx, shard.client_id,
                                epoch * 100000 + b)
            loss, grads = _batch_objective(model, xb, yb, config, attack_rng)
            if not np.isfinite(loss):
                raise DivergenceError(
                    f"client {shard.client_id} diverged at round {round_idx}")
            if config.fedprox_mu > 0.0:
                apply_fedprox(grads, model.params.values, theta_global.values,
                              config.fedprox_mu)
            if scaffold:
                apply_scaffold(grads, c_global, c_local)
            nn.sgd_step(model, grads, state)
            n_steps += 1
            losses.append((loss, len(idx)))
        final_losses = losses

    total = sum(n for _, n in final_losses)
    mean_loss = sum(l * n for l, n in final_losses) / total
    if not np.all(np.isfinite(out)):
        raise DivergenceError(f"client {shard.client_id} produced non-finite parameters")

    if scaffold:
        update_scaffold_client(theta_global.values, out, n_steps, config.lr, c_local,
                               c_global, out=delta_out)
        delta_out -= c_local
    return float(mean_loss)


def _batch_objective(model: nn.Model, xb: np.ndarray, yb: np.ndarray,
                     config: LocalConfig,
                     rng: np.random.Generator) -> tuple[float, np.ndarray]:
    if config.trainer is Trainer.TRADES and config.trades_beta > 0.0:
        return _trades_objective(model, xb, yb, config, rng)
    if config.trainer is Trainer.AT and config.attack.epsilon > 0.0:
        xb = pgd(model, xb, yb, config.attack, rng)
    return nn.batch_loss_and_grads(model, xb, yb)


def _trades_objective(model: nn.Model, xb: np.ndarray, yb: np.ndarray,
                      config: LocalConfig,
                      rng: np.random.Generator) -> tuple[float, np.ndarray]:
    """CE on clean data plus beta * KL(softmax f(x_adv) || softmax f(x))."""
    beta = config.trades_beta
    n = len(yb)
    logits_nat, acts_nat = nn._forward_cache(model, xb)
    p = nn.softmax(logits_nat)
    log_p = np.log(np.clip(p, 1e-300, None))
    x_adv = pgd_kl(model, xb, config.attack, rng, log_p) if config.attack.epsilon > 0 else xb
    logits_adv, acts_adv = nn._forward_cache(model, x_adv)
    q = nn.softmax(logits_adv)
    s = np.log(np.clip(q, 1e-300, None)) - log_p
    kl = (q * s).sum(axis=1)
    ce = nn.cross_entropy(logits_nat, yb)
    loss = float(ce.mean() + beta * kl.mean())

    dl_nat = p.copy()
    dl_nat[np.arange(n), yb] -= 1.0
    dl_nat += beta * (p - q)          # KL gradient w.r.t. the natural logits
    dl_nat /= n
    dl_adv = beta * q * (s - kl[:, None]) / n
    grads = nn.backprop(model, acts_nat, dl_nat)
    grads += nn.backprop(model, acts_adv, dl_adv)
    return loss, grads
