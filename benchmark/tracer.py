"""Span tracer that wraps gridseg's public functions from outside the library.

The tracer replaces module and class attributes that gridseg's own code
looks up at call time, records one span per call as (name, start, end,
parent, step), and restores every attribute on exit, checking each by
identity. Nothing inside ``src/`` is edited, so an untraced run always
measures the unmodified program.

Attribute choices follow how callers resolve names:

* ``grid.py`` calls ``ops.conv2d`` etc. through the module, so the op
  functions are wrapped on ``gridseg.ops``. ``conv2d_down`` calls the
  module-global ``conv2d``, so only ``conv2d`` is wrapped; wrapping both
  would count every stride-2 conv twice.
* ``train.py`` and ``metrics.py`` import some names directly
  (``softmax_cross_entropy``, ``backward``, ``sample_drop_mask``,
  ``resize_bilinear`` ...), so those are wrapped on the importing module.
* Methods (``GridModel.forward``, ``Adam.step``, ``Tape.record``,
  ``Tensor.accumulate_grad``, the metric ``update`` methods) are wrapped
  on their class.

Backward time is attributed by wrapping the closure each op hands to
``Tape.record``: the closure inherits the kind of the op whose forward
span is open when it is recorded.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np

import gridseg.data
import gridseg.grid
import gridseg.metrics
import gridseg.ops
import gridseg.optim
import gridseg.tensor
import gridseg.train

OP_KINDS = ("conv3x3_s1", "conv3x3_s2", "conv1x1_s1", "conv1x1_s2", "deconv3x3_s2",
            "deconv1x1_s2", "batch_norm", "relu", "add", "concat", "softmax_ce")
CONV_KINDS = OP_KINDS[:6]
MIB = float(1 << 20)


class _OpKeys(NamedTuple):
    fwd: str
    bwd: str
    calls: str
    out_bytes: str
    macs: str


_KEYS = {k: _OpKeys(*(f"ops.{k}.{s}" for s in _OpKeys._fields)) for k in OP_KINDS}


def _conv_kind(prefix: str, params) -> str:
    _, _, kh, kw = params.weight.shape
    return f"{prefix}{kh}x{kw}_s{params.stride}"


def _conv_macs(conv_out, params) -> int:
    """Nominal multiply-adds of a conv or deconv, from shapes alone.

    A deconv is the adjoint of the conv with the same weight, so both cost
    (elements of the conv's output) * in_c * kh * kw; for a deconv the
    conv's output is the deconv's input.
    """
    co, ci, kh, kw = params.weight.shape
    n, _, h, w = conv_out.shape
    return n * co * h * w * ci * kh * kw


class Tracer:
    """Records spans and counters while installed.

    ``step`` tags every span: it is None outside the measured phase, the
    scene index during traced evaluation, and during traced training it
    advances by one each time ``Adam.step`` returns.
    """

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, step]
        self.counts: dict[str, float] = defaultdict(float)
        self.step: int | None = None
        self.auto_step = False
        self._open: list[int] = []
        self._op: list | None = None  # [kind, nominal backward MACs] of the op in flight
        self._saved: list[tuple[object, str, object]] = []

    # -- span bookkeeping ------------------------------------------------

    def _begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent, self.step])
        idx = len(self.spans) - 1
        self._open.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        if self.step is not None:
            self.counts[key] += amount

    def _patch(self, owner, attr: str, make_wrapper) -> None:
        original = vars(owner)[attr]
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._saved.append((owner, attr, original))

    def _span(self, owner, attr: str, name: str, after=None) -> None:
        """Wrap ``owner.attr`` in a span; ``after(result, *args)`` may count."""
        def make(original):
            def wrapper(*args, **kwargs):
                idx = self._begin(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self._end(idx)
                if after is not None:
                    after(result, *args, **kwargs)
                return result
            return wrapper
        self._patch(owner, attr, make)

    # -- wrappers ----------------------------------------------------------

    def _op_span(self, owner, attr: str, kind_of) -> None:
        """Forward span ``ops.<kind>.fwd``; backward closures recorded while it
        is open become ``ops.<kind>.bwd`` spans."""
        def make(original):
            def wrapper(x, *args, **kwargs):
                kind = kind_of(x, *args)
                op = [kind, 0]  # [kind, nominal backward MACs]
                idx = self._begin(_KEYS[kind].fwd)
                self._op = op
                try:
                    out = original(x, *args, **kwargs)
                finally:
                    self._op = None
                    self._end(idx)
                if self.step is not None:
                    keys, counts = _KEYS[kind], self.counts
                    counts[keys.calls] += 1
                    counts[keys.out_bytes] += out.data.nbytes
                    if kind in CONV_KINDS:
                        params = args[0]
                        macs = _conv_macs(x if kind.startswith("de") else out, params)
                        counts[keys.macs] += macs
                        # one backward contraction per operand that takes a gradient
                        op[1] = macs * (int(x.requires_grad) + int(params.weight.requires_grad))
                return out
            return wrapper
        self._patch(owner, attr, make)

    def _wrap_record(self) -> None:
        def make(original):
            def record(tape, backward_fn):
                op = self._op
                if op is None:
                    return original(tape, backward_fn)
                keys = _KEYS[op[0]]

                def timed_backward():
                    idx = self._begin(keys.bwd)
                    try:
                        backward_fn()
                    finally:
                        self._end(idx)
                    self.count(keys.macs, op[1])
                return original(tape, timed_backward)
            return record
        self._patch(gridseg.tensor.Tape, "record", make)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        ops, train, metrics, data = gridseg.ops, gridseg.train, gridseg.metrics, gridseg.data
        self._wrap_record()
        self._op_span(ops, "conv2d", lambda x, params, *a: _conv_kind("conv", params))
        self._op_span(ops, "deconv2d_up", lambda x, params, *a: _conv_kind("deconv", params))
        self._op_span(ops, "batch_norm", lambda *a: "batch_norm")
        self._op_span(ops, "relu", lambda *a: "relu")
        self._op_span(ops, "add", lambda *a: "add")
        self._op_span(ops, "concat_channels", lambda *a: "concat")
        self._op_span(train, "softmax_cross_entropy", lambda *a: "softmax_ce")

        def accumulate(original):
            def wrapper(tensor, g):
                self.count("tensor.accumulate_calls")
                if tensor.grad is None:
                    self.count("tensor.grad_allocs")
                return original(tensor, g)
            return wrapper
        self._patch(gridseg.tensor.Tensor, "accumulate_grad", accumulate)
        self._span(train, "backward", "tensor.backward")
        self._span(gridseg.grid.GridModel, "forward", "grid.forward")

        def kept(mask, *args, **kwargs):
            self.count("dropout.kept", mask.n_kept)
            self.count("dropout.gated", len(mask.keep))
        self._span(train, "sample_drop_mask", "dropout.mask", kept)

        def optim_step(original):
            def wrapper(optim):
                self.count("optim.tensors", len(optim.params))
                self.count("optim.params", sum(p.size for p in optim.params))
                idx = self._begin("optim.step")
                try:
                    return original(optim)
                finally:
                    self._end(idx)
                    if self.auto_step and self.step is not None:
                        self.step += 1
            return wrapper
        self._patch(gridseg.optim.Adam, "step", optim_step)

        self._span(train, "make_batch", "train.batch")

        def saved(result, path, *args, **kwargs):
            self.counts["train.checkpoint_bytes"] = os.path.getsize(path)
        self._span(train, "save_checkpoint", "train.save_checkpoint", saved)
        self._span(train, "load_checkpoint", "train.load_checkpoint")
        self._span(data, "generate_scene", "data.generate")
        for owner in (data, metrics):
            self._span(owner, "resize_bilinear", "data.resize")
            self._span(owner, "resize_nearest", "data.resize")
        self._span(metrics, "multiscale_predict", "metrics.predict")
        self._span(metrics, "predict_logits", "metrics.forward")
        self._span(metrics.ConfusionMatrix, "update", "metrics.score")
        self._span(metrics.InstanceScore, "update", "metrics.score")
        self._span(metrics, "instance_average_sizes", "metrics.avg_sizes")

    def uninstall(self) -> None:
        """Restore every wrapped attribute, then check each by identity."""
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        stale = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, original in self._saved if vars(owner)[attr] is not original]
        self._saved = []
        if stale:
            raise RuntimeError(f"tracer left wrapped attributes behind: {stale}")

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation -------------------------------------------------------

    def totals(self, measured_only: bool = True) -> tuple[dict, dict, dict]:
        """Per span name: (total seconds, self seconds, call count)."""
        child = defaultdict(float)
        for name, start, end, parent, step in self.spans:
            if parent is not None:
                child[parent] += end - start
        total, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for idx, (name, start, end, parent, step) in enumerate(self.spans):
            if measured_only and step is None:
                continue
            total[name] += end - start
            self_time[name] += end - start - child[idx]
            calls[name] += 1
        return total, self_time, calls

    def root_seconds(self) -> float:
        """Time covered by outermost spans of the measured phase."""
        return sum(end - start for name, start, end, parent, step in self.spans
                   if parent is None and step is not None)


def layer_metrics(tracer: Tracer, n_units: int) -> dict[str, float]:
    """Per-layer figures per measured unit (train step or eval scene).

    Checkpoint and scene-generation figures are per call and include the
    set-up phase, because that is where those calls happen.
    """
    total, self_time, calls = tracer.totals()
    all_total, _, all_calls = tracer.totals(measured_only=False)
    c = tracer.counts
    per = 1.0 / max(n_units, 1)
    ms = 1000.0 * per
    out: dict[str, float] = {}
    for k in OP_KINDS:
        fwd, bwd = total[f"ops.{k}.fwd"], total[f"ops.{k}.bwd"]
        out[f"ops.{k}.fwd_ms"] = fwd * ms
        out[f"ops.{k}.bwd_ms"] = bwd * ms
        out[f"ops.{k}.calls"] = c[f"ops.{k}.calls"] * per
        out[f"ops.{k}.out_mib"] = c[f"ops.{k}.out_bytes"] * per / MIB
        if k in CONV_KINDS:
            out[f"ops.{k}.gmac"] = c[f"ops.{k}.macs"] * per / 1e9
            busy = fwd + bwd
            out[f"ops.{k}.gmac_per_s"] = c[f"ops.{k}.macs"] / busy / 1e9 if busy else 0.0
    out["tensor.backward_ms"] = total["tensor.backward"] * ms
    out["tensor.backward_self_ms"] = self_time["tensor.backward"] * ms
    out["tensor.accumulate_calls"] = c["tensor.accumulate_calls"] * per
    out["tensor.grad_allocs"] = c["tensor.grad_allocs"] * per
    out["grid.forward_ms"] = total["grid.forward"] * ms
    out["grid.forward_self_ms"] = self_time["grid.forward"] * ms
    out["dropout.mask_ms"] = total["dropout.mask"] * ms
    gated = c["dropout.gated"]
    out["dropout.kept_frac"] = c["dropout.kept"] / gated if gated else 0.0
    steps = max(calls["optim.step"], 1)
    out["optim.step_ms"] = total["optim.step"] * ms
    out["optim.tensors"] = c["optim.tensors"] / steps
    out["optim.mparams"] = c["optim.params"] / steps / 1e6
    out["train.batch_ms"] = total["train.batch"] * ms
    for name in ("save_checkpoint", "load_checkpoint"):
        n = all_calls[f"train.{name}"]
        out[f"train.{name}_ms"] = 1000.0 * all_total[f"train.{name}"] / n if n else 0.0
    out["train.checkpoint_mib"] = c["train.checkpoint_bytes"] / MIB
    n = all_calls["data.generate"]
    out["data.generate_ms"] = 1000.0 * all_total["data.generate"] / n if n else 0.0
    out["data.resize_ms"] = total["data.resize"] * ms
    out["metrics.predict_ms"] = total["metrics.predict"] * ms
    out["metrics.forward_ms"] = total["metrics.forward"] * ms
    out["metrics.vote_self_ms"] = self_time["metrics.predict"] * ms
    out["metrics.score_ms"] = total["metrics.score"] * ms
    out["metrics.avg_sizes_ms"] = total["metrics.avg_sizes"] * ms
    return out


def coverage_check(model, batch: int) -> tuple[int, int]:
    """(traced op output bytes, expected bytes) for one untaped eval forward.

    The expected figure is ``activation_tally`` * batch * itemsize; the two
    agree only if the tracer saw every op the forward pass runs, once.
    """
    tracer = Tracer()
    h, w = model.input_hw
    x = np.ones((batch, model.spec.image_channels, h, w), model.dtype)
    with tracer.installed():
        tracer.step = 0
        model.forward(x, training=False)
    seen = sum(v for k, v in tracer.counts.items() if k.endswith(".out_bytes"))
    expected = gridseg.grid.activation_tally(model) * batch * model.dtype.itemsize
    return int(seen), int(expected)
