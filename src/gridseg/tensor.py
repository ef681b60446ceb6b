"""Dense tensors plus a recording tape for reverse-mode gradients.

Values are contiguous numpy arrays, almost always in (batch, channels,
height, width) layout; losses are 0-d. Forward operations (see
:mod:`gridseg.ops`) push backward closures onto a :class:`Tape` in
execution order, and :func:`backward` replays them in exact reverse
order. Because every closure *adds* into its inputs' gradient slots, a
value consumed by several later operations accumulates all of its
gradient contributions before its own producer runs.

An empty gradient slot takes its first contribution as it is, without a
copy, when that array is writeable and has the tensor's dtype and shape;
later contributions are added into it in place. An input's slot may so
hold the output gradient of the op that consumed it, or a view of it:
that op has run its closure and does not read it again, but the input's
later contributions overwrite it. So after :func:`backward` only leaves
(parameters and inputs) promise a meaningful ``grad``.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A dense array with an optional gradient slot of the same shape."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.ndim > 0 and not data.flags["C_CONTIGUOUS"]:
            data = np.ascontiguousarray(data)
        self.data = data
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self) -> int:
        return self.data.size

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add the contribution ``g`` into this tensor's gradient slot.

        An empty slot keeps ``g`` itself when it is writeable and its
        dtype and shape match the tensor's; the caller hands over ``g``
        and must not let any other slot hold it. Otherwise the slot starts
        at zero in the tensor's dtype and ``g`` is added, which rounds a
        float64 contribution to a float32 tensor once.
        """
        if self.grad is None:
            if g.dtype == self.data.dtype and g.shape == self.data.shape and g.flags.writeable:
                self.grad = g
                return
            self.grad = np.zeros_like(self.data)
        self.grad += g

    def zero_grad(self) -> None:
        self.grad = None

    def __repr__(self) -> str:
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flags})"


class Tape:
    """Execution-ordered record of differentiable operations.

    A tape can be consumed by :func:`backward` exactly once; reusing it
    would double-count gradient contributions, so a second call is
    rejected.
    """

    def __init__(self):
        self._nodes = []
        self._spent = False

    def record(self, backward_fn) -> None:
        self._nodes.append(backward_fn)


def backward(tape: Tape, loss: Tensor) -> None:
    """Propagate d(loss)/d(x) into every recorded tensor's ``grad`` slot."""
    if tape._spent:
        raise RuntimeError("tape already consumed by backward(); record a fresh tape")
    if loss.data.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    tape._spent = True
    loss.grad = np.ones_like(loss.data)
    for fn in reversed(tape._nodes):
        fn()
