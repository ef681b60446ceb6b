"""Dense tensors plus a recording tape for reverse-mode gradients.

Values are contiguous numpy arrays, almost always in (batch, channels,
height, width) layout; losses are 0-d. Forward operations (see
:mod:`gridseg.ops`) push backward closures onto a :class:`Tape` in
execution order, and :func:`backward` replays them in exact reverse
order. Because every closure *adds* into its inputs' gradient slots, a
value consumed by several later operations accumulates all of its
gradient contributions before its own producer runs.

Recording rule (written in :func:`gridseg.ops._result`): which inputs
take a gradient is read when an op is recorded, and only those get a
map; an op over none records nothing, and its output takes no gradient.
Each map hands its input an array that no other slot holds: an empty
gradient slot keeps its first contribution as its own array and adds
later ones into it in place (:meth:`Tensor.accumulate_grad`). A slot may
so hold, and later overwrite, an output gradient that its op's closure
has finished with, so after :func:`backward` only leaves (parameters and
inputs) promise a meaningful ``grad``.

Lifetime rule: a tensor's gradient slot (:class:`GradSlot`: ``grad``,
``requires_grad``, shape and dtype) is an object of its own, apart from
its ``data``. A backward closure holds the slots of its op's output and
of the inputs that take a gradient, and of arrays only those inputs'
gradient maps read (see :func:`gridseg.ops._result`). Every other
activation is freed during the forward pass once the caller drops its
tensor. :func:`backward` drops each closure as soon as it has run, so a
saved array, an output slot and the gradient in it are freed once the
last closure that holds them has run. After :func:`backward` only leaves
and the tensors the caller still holds keep a ``grad`` at all (a
meaningful one only on leaves, as above), and the spent tape holds no
closures.

A tape also keeps, in :attr:`Tape.moments`, the batch moments of each
value that a training-mode batch norm has normalized on it, keyed by the
value's gradient slot: in a grid, every node's value opens two units with
batch norm, and the second reads the first's mean, variance and centred
copy (see :func:`gridseg.ops.batch_norm`). The memo relies on one
invariant: within one taped forward, no op writes into an input's data.
Its dict holds the slots, so no key can be reused while the tape lives.
:func:`backward` clears it before the first closure runs; from then on
only the batch-norm closures hold a centred copy, which is freed once the
last of them has run.
"""

from __future__ import annotations

import numpy as np


class GradSlot:
    """What backward needs of a tensor besides its values: the gradient
    slot, whether it takes a gradient, and the shape and dtype of both."""

    __slots__ = ("grad", "requires_grad", "shape", "dtype")

    def __init__(self, shape: tuple[int, ...], dtype, requires_grad: bool):
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.shape = shape
        self.dtype = dtype


class Tensor:
    """A dense array with a gradient slot of the same shape, kept apart in ``slot``."""

    __slots__ = ("data", "slot")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        if data.ndim > 0 and not data.flags["C_CONTIGUOUS"]:
            data = np.ascontiguousarray(data)
        self.data = data
        self.slot = GradSlot(data.shape, data.dtype, bool(requires_grad))

    @property
    def grad(self) -> np.ndarray | None:
        return self.slot.grad

    @grad.setter
    def grad(self, g: np.ndarray | None) -> None:
        self.slot.grad = g

    @property
    def requires_grad(self) -> bool:
        return self.slot.requires_grad

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
        dtype and shape match the tensor's; so, by the recording rule of
        the module docstring, the caller hands over an array that no other
        slot holds. Otherwise the slot starts at zero in the tensor's dtype
        and ``g`` is added, which rounds a float64 contribution to a
        float32 tensor once.

        ``self`` may also be a bare :class:`GradSlot`: backward closures
        hold slots, not tensors, and call ``Tensor.accumulate_grad(slot,
        g)``, so every accumulation still runs through this one method.
        """
        if self.grad is None:
            if g.dtype == self.dtype and g.shape == self.shape and g.flags.writeable:
                self.grad = g
                return
            self.grad = np.zeros(self.shape, self.dtype)
        self.grad += g

    def __repr__(self) -> str:
        flags = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flags})"


class Tape:
    """Execution-ordered record of differentiable operations.

    A tape can be consumed by :func:`backward` exactly once; reusing it
    would double-count gradient contributions, so a second call is
    rejected. Backward pops each closure before running it, so a spent
    tape holds no closures and keeps no activation alive.

    ``moments`` maps the gradient slot of each value a training-mode batch
    norm has normalized on this tape to its batch ``(mean, var, xc)``; the
    lifetime rule in the module docstring says when it is cleared.
    """

    def __init__(self):
        self._nodes = []
        self._spent = False
        self.moments: dict[GradSlot, tuple] = {}

    def record(self, backward_fn) -> None:
        self._nodes.append(backward_fn)


def backward(tape: Tape, loss: Tensor) -> None:
    """Propagate d(loss)/d(x) into every recorded tensor's ``grad`` slot.

    Closures run in reverse recording order and each is dropped once it
    has run, freeing what only it held: its op's saved arrays, and its
    output's gradient slot with the gradient in it. Afterwards only leaves
    and the tensors the caller still holds keep a ``grad``, and ``tape``
    holds no closures and no batch moments.
    """
    if tape._spent:
        raise RuntimeError("tape already consumed by backward(); record a fresh tape")
    if loss.data.shape != ():
        raise ValueError(f"backward expects a scalar loss, got shape {loss.data.shape}")
    tape._spent = True
    tape.moments.clear()
    loss.grad = np.ones_like(loss.data)
    nodes = tape._nodes
    while nodes:
        nodes.pop()()
