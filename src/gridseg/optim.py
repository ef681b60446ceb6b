"""Adam with float64 state and a step-indexed learning-rate schedule.

Moment buffers and the update arithmetic stay in float64 regardless of
the parameter dtype; the finished update is cast back once. Parameters
whose gradient is absent are treated as having a zero gradient, so
frozen units keep zero moments and never move.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor


class GradientError(RuntimeError):
    """A parameter gradient contains NaN or infinity."""


DECAY_MODES = ("inverse_time", "multiplicative")


def check_hyperparams(lr, beta1, beta2, eps, lr_decay, decay_mode) -> None:
    """Raise ValueError unless lr > 0, betas lie in [0, 1), eps > 0,
    lr_decay >= 0, lr, eps and lr_decay are finite and decay_mode is known."""
    if not 0 < lr < math.inf:
        raise ValueError(f"lr must be positive and finite, got {lr}")
    if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
        raise ValueError(f"betas must lie in [0, 1), got {beta1}, {beta2}")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    if not 0 <= lr_decay < math.inf:
        raise ValueError(f"lr_decay must be non-negative and finite, got {lr_decay}")
    if decay_mode not in DECAY_MODES:
        raise ValueError(f"decay_mode must be one of {DECAY_MODES}, got {decay_mode!r}")


class Adam:
    """Bias-corrected Adam over an ordered list of named parameters."""

    def __init__(self, named_params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 lr_decay=0.0, decay_mode="inverse_time"):
        check_hyperparams(lr, beta1, beta2, eps, lr_decay, decay_mode)
        named_params = list(named_params)
        if not named_params:
            raise ValueError("Adam needs at least one parameter")
        self.names = [n for n, _ in named_params]
        self.params: list[Tensor] = [p for _, p in named_params]
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.lr_decay = float(lr_decay)
        self.decay_mode = decay_mode
        self.t = 0
        self.m = [np.zeros(p.shape, np.float64) for p in self.params]
        self.v = [np.zeros(p.shape, np.float64) for p in self.params]

    def effective_lr(self, t: int | None = None) -> float:
        """Learning rate applied at 1-based step t (default: the next step)."""
        t = self.t + 1 if t is None else t
        if self.decay_mode == "inverse_time":
            return self.lr / (1.0 + self.lr_decay * (t - 1))
        return self.lr * (1.0 - self.lr_decay) ** (t - 1)

    def step(self) -> float:
        """Apply one update; returns the learning rate used.

        All gradients are validated before any parameter moves, so a
        non-finite gradient leaves the whole model untouched. Gradients
        are cleared afterwards.
        """
        grads = []
        for name, p in zip(self.names, self.params):
            if p.grad is None:
                grads.append(None)
                continue
            g = np.asarray(p.grad, np.float64)
            if not np.isfinite(g).all():
                raise GradientError(f"non-finite gradient in {name}")
            grads.append(g)
        self.t += 1
        lr_t = self.effective_lr(self.t)
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for k, p in enumerate(self.params):
            g = grads[k] if grads[k] is not None else 0.0
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * np.square(g)
            update = lr_t * (self.m[k] / c1) / (np.sqrt(self.v[k] / c2) + self.eps)
            p.data = (p.data.astype(np.float64) - update).astype(p.dtype)
            p.grad = None
        return lr_t

    def hyperparams(self) -> dict:
        return {
            "lr": self.lr,
            "beta1": self.beta1,
            "beta2": self.beta2,
            "eps": self.eps,
            "lr_decay": self.lr_decay,
            "decay_mode": self.decay_mode,
        }
