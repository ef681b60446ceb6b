"""A fixed reference computation that gauges how fast the host runs right now.

The benchmark runs on a few cores of a shared host whose speed swings by a
third or more, in stretches of one to a few seconds: the same train step
takes 75 ms in one second and 110 ms in the next. A percentile over a run
then depends on how long the host spent in each state, and it moves by 20 to
30% from one run to the next with the same code.

``probe()`` times a small piece of work of the kinds gridseg does: a 3x3
convolution as im2col plus matmul, batch normalisation and ReLU on a few
small numpy arrays, a short Python loop, and two matmuls the size of a
16-channel convolution, large enough for OpenBLAS to use its threads. The
small part tracks the many-small-ops desk model, the matmuls the
BLAS-bound wide one; timed together they track both. It uses no gridseg
code, so a change to the library cannot move it.

The client times the probe right after every train step, which is right
before the eval scene that follows, and scales both by
``REFERENCE_S / probe``: a step that ran while the host was slow is scaled
down by as much as the probe slowed. The figures then read as milliseconds
on a host where the probe takes ``REFERENCE_S``.
"""

from __future__ import annotations

import time

import numpy as np

# about the probe's median time on the baseline machine (see README.md)
REFERENCE_S = 4.5e-3

_rng = np.random.default_rng(0)
_X = _rng.standard_normal((2, 4, 34, 34)).astype(np.float32)
_W = _rng.standard_normal((4, 4 * 9)).astype(np.float32)
_COLS = _rng.standard_normal((4096, 16 * 9)).astype(np.float32)
_W16 = _rng.standard_normal((16 * 9, 16)).astype(np.float32)
_GRAD = _rng.standard_normal((16, 4096)).astype(np.float32)


def _work() -> np.ndarray:
    x = _X
    for _ in range(4):
        cols = np.lib.stride_tricks.sliding_window_view(x, (3, 3), axis=(2, 3))
        cols = cols.transpose(0, 2, 3, 1, 4, 5).reshape(-1, 4 * 9)
        y = (cols @ _W.T).reshape(2, 32, 32, 4).transpose(0, 3, 1, 2)
        mean = y.mean(axis=(0, 2, 3), keepdims=True)
        var = y.var(axis=(0, 2, 3), keepdims=True)
        y = np.maximum((y - mean) / np.sqrt(var + 1e-5), 0.0)
        x = np.pad(y, ((0, 0), (0, 0), (1, 1), (1, 1)))
    total = 0
    for i in range(2000):
        total += i
    for _ in range(2):
        _COLS @ _W16  # forward
        _GRAD @ _COLS  # weight gradient
    return x


def probe() -> float:
    """Seconds the reference computation takes now."""
    start = time.perf_counter()
    _work()
    return time.perf_counter() - start
