"""A recording stand-in for ``gridseg.grid.ops``, and block values read through it.

The grid calls its ops through the module attribute ``gridseg.grid.ops``,
so a test that swaps in :class:`RecordingOps` sees every op of a forward
pass without any hook in the library. :func:`block_values` uses it to
recover the stem, each planned block's output and the logits.
"""

import pytest

from gridseg import ops
from gridseg.grid import GridBlock


class RecordingOps:
    """Stands in for ``gridseg.grid.ops``: forwards every attribute and
    records each op call the grid makes as (name, args, output)."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        fn = getattr(ops, name)
        if not callable(fn) or isinstance(fn, type):
            return fn

        def recorded(*args, **kwargs):
            out = fn(*args, **kwargs)
            self.calls.append((name, args, out))
            return out

        return recorded

    @property
    def elements(self) -> int:
        """Elements of every op output recorded."""
        return sum(out.size for _, _, out in self.calls)


class _MarkedPlan(list):
    """A model's plan that appends each block to ``calls`` as the forward
    pass reaches it, marking where the block's ops start."""

    def __init__(self, plan, calls):
        super().__init__(plan)
        self.calls = calls

    def __iter__(self):
        for block in super().__iter__():
            self.calls.append(block)
            yield block


def block_values(model, x, **forward_kw) -> dict:
    """One ``model.forward(x, **forward_kw)``, read through :class:`RecordingOps`.

    Returns the stem output under ``"stem"``, each planned block's output
    under its (row, col) and the head's output under ``"logits"``, which
    must be what ``forward`` returned. A
    block's output is the last op output before the next block starts or
    the head runs; a block that runs no op passes on its stream's value.
    The recorded calls are cleared before returning, so only the returned
    dict keeps any array alive.
    """
    recorder = RecordingOps()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("gridseg.grid.ops", recorder)
        mp.setattr(model, "plan", _MarkedPlan(model.plan, recorder.calls))
        logits = model.forward(x, **forward_kw)
    values, stream, key, row = {}, {}, None, None
    for call in recorder.calls:
        if isinstance(call, GridBlock):
            key, row = (call.row, call.col), call.row
            values[key] = stream.get(row)  # kept only if the block runs no op
            continue
        _, args, out = call
        if args[1] is model.stem_conv:
            key, row = "stem", 0
        elif args[1] is model.head:
            key, row = "logits", None
        if key is not None:
            values[key] = stream[row] = out
    recorder.calls.clear()
    assert values["logits"] is logits, "forward must return the head's output"
    return values
