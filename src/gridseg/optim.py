"""Adam with float64 state and a step-indexed learning-rate schedule.

The optimizer owns its parameters' storage. Building an :class:`Adam`
packs the parameters, in the order given, into one contiguous buffer and
rebinds each ``p.data`` to its view of it; the moments ``m`` and ``v``
are float64 buffers with one view per parameter in the same order. A
step gathers the gradients into a float64 buffer of the same layout and
checks them all with one dot product: a finite sum of squares means every
entry and its square are finite. Otherwise the tensors are checked one by
one, and an entry that is not finite, or whose square overflows (a
float64 gradient above about 1.3e154, which would make ``v`` infinite and
freeze that coordinate for good), raises :class:`GradientError`; finite
squares whose sum alone overflows step as usual. It then runs the
update's in-place ufuncs over blocks of ``BLOCK`` elements in turn, so
that each block's gradients, moments and parameters stay in cache through
all of its operations. Each element sees the same operations in the same
order as over whole buffers, so the bits do not depend on the block size.
Building a second Adam over the same tensors moves them into the new
one's buffer, so the Adam built last owns them and the earlier one must
not be stepped again.

Moment buffers and the update arithmetic stay in float64 regardless of
the parameter dtype; the finished update is cast back once. Parameters
whose gradient is absent are treated as having a zero gradient, so
frozen units keep zero moments and never move.
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor


BLOCK = 16384  # elements per block of the update: 128 KiB of each float64 buffer


class GradientError(RuntimeError):
    """A parameter gradient contains NaN or infinity, or an entry too large to square."""


DECAY_MODES = ("inverse_time", "multiplicative")


def check_hyperparams(lr, beta1, beta2, eps, lr_decay, decay_mode) -> None:
    """Raise ValueError unless lr > 0, betas lie in [0, 1), eps > 0,
    lr_decay >= 0, lr, eps and lr_decay are finite and decay_mode is known;
    the multiplicative mode also needs lr_decay < 1."""
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
    # lr * (1 - lr_decay) ** (t - 1) is zero from step 2 at lr_decay = 1 and
    # alternates in sign above it
    if decay_mode == "multiplicative" and lr_decay >= 1:
        raise ValueError(f"lr_decay must be below 1 with decay_mode 'multiplicative', "
                         f"got {lr_decay}")


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
        dtypes = {p.dtype for p in self.params}
        if len(dtypes) > 1:
            raise ValueError(f"Adam needs parameters of one dtype, got {sorted(map(str, dtypes))}")
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.lr_decay = float(lr_decay)
        self.decay_mode = decay_mode
        self.t = 0
        size = sum(p.size for p in self.params)
        self._data = np.empty(size, self.params[0].dtype)
        self._m = np.zeros(size, np.float64)
        self._v = np.zeros(size, np.float64)
        self._grad = np.empty(size, np.float64)  # step workspace: gradients, then the update
        self._denom = np.empty(max(1, min(size, BLOCK)), np.float64)  # a block's denominator
        self.m, self.v, self._grads = [], [], []
        start = 0
        for p in self.params:
            end = start + p.size
            view = self._data[start:end].reshape(p.shape)
            view[...] = p.data
            p.data = view
            self.m.append(self._m[start:end].reshape(p.shape))
            self.v.append(self._v[start:end].reshape(p.shape))
            self._grads.append(self._grad[start:end].reshape(p.shape))
            start = end

    def effective_lr(self, t: int | None = None) -> float:
        """Learning rate applied at 1-based step t (default: the next step)."""
        t = self.t + 1 if t is None else t
        if self.decay_mode == "inverse_time":
            return self.lr / (1.0 + self.lr_decay * (t - 1))
        return self.lr * (1.0 - self.lr_decay) ** (t - 1)

    def step(self) -> float:
        """Apply one update; returns the learning rate used.

        All gradients are validated before any parameter moves, so a
        non-finite gradient, or one too large to square, leaves the whole
        model, the moments and ``t`` untouched. Gradients are cleared
        afterwards, and also when a bad one raises, so that the next
        backward starts afresh.
        """
        for p, g in zip(self.params, self._grads):
            g[...] = 0.0 if p.grad is None else p.grad
        with np.errstate(over="ignore"):  # an overflow is what the checks look for
            bad = None if math.isfinite(np.dot(self._grad, self._grad)) else next(
                (k for k, g in enumerate(self._grads) if not np.isfinite(np.square(g)).all()),
                None)
        if bad is not None:
            for p in self.params:
                p.grad = None
            what = ("gradient too large to square" if np.isfinite(self._grads[bad]).all()
                    else "non-finite gradient")
            raise GradientError(f"{what} in {self.names[bad]}")
        self.t += 1
        lr_t = self.effective_lr(self.t)
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        # m = beta1*m + (1-beta1)*g, v = beta2*v + (1-beta2)*g**2 and
        # update = lr_t*(m/c1) / (sqrt(v/c2) + eps): one in-place ufunc per
        # operation of the formula, in its order, so every element rounds as
        # it would with the formula evaluated term by term on that tensor
        block = self._denom.size
        for lo in range(0, self._grad.size, block):
            hi = lo + block
            g, m, v, data = self._grad[lo:hi], self._m[lo:hi], self._v[lo:hi], self._data[lo:hi]
            d = self._denom[:g.size]
            m *= self.beta1
            np.multiply(g, 1.0 - self.beta1, out=d)
            m += d
            np.square(g, out=g)
            g *= 1.0 - self.beta2
            v *= self.beta2
            v += g
            np.divide(v, c2, out=d)
            np.sqrt(d, out=d)
            d += self.eps
            np.divide(m, c1, out=g)
            g *= lr_t
            g /= d
            # computed in float64 and rounded once to the parameter dtype
            np.subtract(data, g, out=data)
        for p in self.params:
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
