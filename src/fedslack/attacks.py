"""Inner maximization: FGSM and multi-step PGD inside the L-infinity ball.

Every attack accepts a single feature vector, a batch (n, d), or M clients'
batches stacked as (M, n, d) for a stacked model (see `nn`): one call then
attacks all of them, each step one stacked forward and backward.  A random
start draws each client's (n, d) noise from that client's own generator.
PGD projects every iterate onto the epsilon-ball around the clean input
intersected with [0,1] (one clip against precomputed bounds); sign(0) is 0,
so zero-gradient coordinates stay untouched.

Labels are checked once per attack call, not at every step, and every
step computes only the input gradient (`nn.input_backprop`): no attack
step builds a parameter gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import nn
from .errors import DivergenceError, ShapeError


@dataclass
class AttackSpec:
    """L-infinity attack parameters in feature units."""

    epsilon: float
    step_size: float
    steps: int = 1
    random_start: bool = False
    clip_min: float = 0.0
    clip_max: float = 1.0

    def __post_init__(self):
        # `not (finite and x >= 0)` rather than `x < 0`, so NaN and inf are rejected too.
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0):
            raise ValueError(f"attack.epsilon must be finite and non-negative, "
                             f"got {self.epsilon}")
        if not (math.isfinite(self.step_size) and self.step_size > 0):
            raise ValueError(f"attack.step_size must be finite and positive, "
                             f"got {self.step_size}")
        if self.steps < 1:
            raise ValueError("need at least one step")

    def evaluation(self, steps: int = 20) -> "AttackSpec":
        """Same ball and step size, fixed step count, no random start."""
        return AttackSpec(self.epsilon, self.step_size, steps, random_start=False,
                          clip_min=self.clip_min, clip_max=self.clip_max)


Rng = np.random.Generator | Sequence[np.random.Generator] | None


def _as_batch(x: np.ndarray, y) -> tuple[np.ndarray, np.ndarray, bool]:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 1:
        return x[None, :], np.atleast_1d(np.asarray(y)), True
    if x.ndim in (2, 3):
        y = np.asarray(y)
        if y.shape != x.shape[:-1]:
            raise ShapeError("label batch does not match input batch")
        return x, y, False
    raise ShapeError(f"inputs must be 1-D, 2-D or 3-D, got shape {x.shape}")


def _check_gradient(g: np.ndarray) -> None:
    """DivergenceError if `g` is not finite, naming the first bad client row of (M, n, d)."""
    finite = np.isfinite(g)
    if not finite.all():
        row = int(np.argmin(finite.all(axis=(1, 2)))) if g.ndim == 3 else None
        raise DivergenceError("non-finite attack gradient", row=row)


def _uniform(rng: Rng, epsilon: float, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform(-epsilon, epsilon) noise: one generator draws it all; for (M, n, d),
    a sequence of M generators draws one client's (n, d) each."""
    if rng is None:
        raise ValueError("random_start requires an RNG stream")
    if isinstance(rng, np.random.Generator):
        return rng.uniform(-epsilon, epsilon, size=shape)
    if len(shape) != 3 or len(rng) != shape[0]:
        raise ValueError("a stacked random start needs one RNG stream per client")
    return np.stack([r.uniform(-epsilon, epsilon, size=shape[1:]) for r in rng])


def pgd_core(x0: np.ndarray, grad_fn: Callable[[np.ndarray], np.ndarray],
             spec: AttackSpec, rng: Rng = None) -> np.ndarray:
    """PGD ascent on an arbitrary per-sample loss given its input-gradient fn.

    `x0` must lie in [clip_min, clip_max]; every iterate is then projected
    onto the box lo..hi, the epsilon-ball intersected with the valid range.
    """
    if not np.all((x0 >= spec.clip_min) & (x0 <= spec.clip_max)):
        raise ValueError(f"attack inputs must lie in [{spec.clip_min}, {spec.clip_max}]")
    lo = np.maximum(x0 - spec.epsilon, spec.clip_min)
    hi = np.minimum(x0 + spec.epsilon, spec.clip_max)
    if spec.random_start:
        x = np.clip(x0 + _uniform(rng, spec.epsilon, x0.shape), lo, hi)
    else:
        x = x0.copy()
    for _ in range(spec.steps):
        g = grad_fn(x)
        _check_gradient(g)
        # x <- clip(x + step_size*sign(g)) in one buffer (an in-place sign is slower)
        s = np.sign(g)
        s *= spec.step_size
        s += x
        x = np.clip(s, lo, hi, out=s)
    return x


def fgsm(model: nn.Model, x: np.ndarray, y, spec: AttackSpec) -> np.ndarray:
    """Single sign step of size epsilon, clipped to the valid range."""
    xb, yb, single = _as_batch(x, y)
    g = nn.input_grads_ce(model, xb, nn._check_labels(yb, model.num_classes))
    _check_gradient(g)
    adv = np.clip(xb + spec.epsilon * np.sign(g), spec.clip_min, spec.clip_max)
    return adv[0] if single else adv


def pgd(model: nn.Model, x: np.ndarray, y, spec: AttackSpec,
        rng: Rng = None) -> np.ndarray:
    """Multi-step PGD maximizing cross-entropy inside the epsilon-ball."""
    xb, yb, single = _as_batch(x, y)
    yb = nn._check_labels(yb, model.num_classes)
    adv = pgd_core(xb, lambda z: nn.input_grads_ce(model, z, yb), spec, rng)
    return adv[0] if single else adv


def pgd_kl(model: nn.Model, x: np.ndarray, spec: AttackSpec, rng: Rng = None,
           log_ref: np.ndarray | None = None) -> np.ndarray:
    """PGD maximizing KL(softmax f(x_adv) || softmax f(x)) with f(x) fixed.

    `log_ref`, if given, is the caller's log(clip(softmax f(x), 1e-300)) for
    the batch `x` on this model, so the clean forward is not run again.
    """
    xb = np.asarray(x, dtype=np.float64)
    single = xb.ndim == 1
    if single:
        xb = xb[None, :]
    if log_ref is None:
        p_ref = nn.softmax(nn.forward_batch(model, xb))
        log_ref = np.log(np.clip(p_ref, 1e-300, None))

    def grad_fn(z: np.ndarray) -> np.ndarray:
        logits, acts = nn._forward_cache(model, z)
        q = nn.softmax(logits)
        s = np.log(np.clip(q, 1e-300, None)) - log_ref
        kl = (q * s).sum(axis=-1, keepdims=True)
        dlogits = q * (s - kl)
        return nn.input_backprop(model, acts, dlogits)

    adv = pgd_core(xb, grad_fn, spec, rng)
    return adv[0] if single else adv
