"""Inner maximization: FGSM and multi-step PGD inside the L-infinity ball.

Every attack takes a batch (n, d), or M clients' batches stacked as
(M, n, d) for a stacked model of M rows, checked as `nn` checks it: one call
then attacks all of them, each step one stacked forward and backward.  A
random start draws each client's (n, d) noise from that client's own
generator.  Inputs must lie in [0, 1], the range every `Dataset` guarantees;
PGD projects every iterate onto the epsilon-ball around the clean input
intersected with [0, 1] (one clip against precomputed bounds); sign(0) is 0,
so zero-gradient coordinates stay untouched.  FGSM is PGD's first step, of
size epsilon.

Labels are checked and one-hot encoded once per attack call, not at every
step, and every step computes only the input gradient
(`nn.input_backprop`): no attack step builds a parameter gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import nn
from .errors import (AT_LEAST_1, FINITE_NON_NEGATIVE, POSITIVE, DivergenceError,
                     ShapeError, check_bounds)


@dataclass
class AttackSpec:
    """L-infinity attack parameters in feature units."""

    epsilon: float = field(metadata=FINITE_NON_NEGATIVE)
    step_size: float = field(metadata=POSITIVE)
    steps: int = field(default=1, metadata=AT_LEAST_1)
    random_start: bool = False

    def __post_init__(self):
        check_bounds(self)

    def evaluation(self, steps: int = 20) -> "AttackSpec":
        """Same ball and step size, fixed step count, no random start."""
        return AttackSpec(self.epsilon, self.step_size, steps, random_start=False)


Rng = np.random.Generator | Sequence[np.random.Generator] | None


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
    """PGD ascent on an arbitrary per-sample loss given its input-gradient fn,
    which must return a new array at each call (the step overwrites it) and
    leave its argument unchanged (the first step reads `x0` itself).

    `x0` must lie in [0, 1]; every iterate is then projected onto the box
    lo..hi, the epsilon-ball intersected with [0, 1].
    """
    if not np.all((x0 >= 0.0) & (x0 <= 1.0)):
        raise ValueError("attack inputs must lie in [0, 1]")
    # lo and hi in place: two more (n, d) temporaries per FGSM call made glibc
    # trim heap pages and fault them back in, desk's eval rounds 15% slower
    lo = np.subtract(x0, spec.epsilon)
    np.maximum(lo, 0.0, out=lo)
    hi = np.add(x0, spec.epsilon)
    np.minimum(hi, 1.0, out=hi)
    x = x0
    if spec.random_start:
        x = np.clip(x0 + _uniform(rng, spec.epsilon, x0.shape), lo, hi)
    for _ in range(spec.steps):
        g = grad_fn(x)
        _check_gradient(g)
        # x <- clip(x + step_size*sign(g)) in g's buffer, which no caller
        # keeps; it is finite, so max-then-min is np.clip bit for bit, without
        # its per-call overhead.  An in-place sign is several times slower on
        # large arrays, but a third buffer raised wide's peak memory by 4 MB
        np.sign(g, g)
        g *= spec.step_size
        g += x
        np.maximum(g, lo, out=g)
        x = np.minimum(g, hi, out=g)
    return x


def fgsm(model: nn.Model, x: np.ndarray, y, spec: AttackSpec) -> np.ndarray:
    """One PGD step of size epsilon from the clean input.  At epsilon 0 the
    box is the clean input, so any positive step size returns it."""
    return pgd(model, x, y, AttackSpec(spec.epsilon, spec.epsilon or spec.step_size))


def pgd(model: nn.Model, x: np.ndarray, y, spec: AttackSpec,
        rng: Rng = None) -> np.ndarray:
    """Multi-step PGD maximizing cross-entropy inside the epsilon-ball."""
    x = nn._check_batch(model, x)
    onehot = nn.one_hot(y, model.num_classes, x.shape)
    return pgd_core(x, lambda z: nn.input_grads_ce(model, z, onehot), spec, rng)


def kl_terms(logits: np.ndarray, log_ref: np.ndarray) -> tuple[np.ndarray, ...]:
    """q = softmax(logits), s = log(clip(q, 1e-300)) - log_ref and the per-sample
    KL(q || ref) = sum(q * s), keepdims; the KL's logit gradient is q * (s - KL)."""
    q = nn.softmax(logits)
    s = np.log(np.clip(q, 1e-300, None)) - log_ref
    return q, s, (q * s).sum(axis=-1, keepdims=True)


def pgd_kl(model: nn.Model, x: np.ndarray, spec: AttackSpec, rng: Rng,
           log_ref: np.ndarray) -> np.ndarray:
    """PGD maximizing KL(softmax f(x_adv) || softmax f(x)) with f(x) fixed.

    `log_ref` is log(clip(softmax f(x), 1e-300)) for the batch `x` on this
    model: the caller's clean forward, which the attack does not run again.
    """
    x = nn._check_batch(model, x)
    if np.shape(log_ref) != x.shape[:-1] + (model.num_classes,):
        raise ShapeError(f"log_ref has shape {np.shape(log_ref)}, a batch of shape {x.shape} "
                         f"needs {x.shape[:-1] + (model.num_classes,)}")

    def grad_fn(z: np.ndarray) -> np.ndarray:
        logits, acts = nn._forward_cache(model, z)
        q, s, kl = kl_terms(logits, log_ref)
        return nn.input_backprop(model, acts, q * (s - kl))

    return pgd_core(x, grad_fn, spec, rng)
