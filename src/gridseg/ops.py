"""Differentiable operations on 4-D tensors.

Convolutions are lowered to a single matrix product over patches
extracted with zero-copy striding. The reduction order inside that
product is fixed at (channel, kernel row, kernel col), so forward
results are bit-deterministic for identical inputs on the same machine.

The transposed convolution is implemented as the adjoint of the matching
strided convolution, split by output phase: output rows and columns
congruent to (rh, rw) modulo the stride receive only the kernel taps
``w[:, :, rh::s, rw::s]``, so each phase is a stride-1 correlation of
the undilated input with that flipped, channel-swapped sub-kernel (the
sub-pixel form of a transposed convolution, Shi et al., arXiv
1609.07009). No multiply-add touches an inserted zero. The same
primitive serves both the upsampling forward pass and the
input-gradient of every convolution; stride 1 is its one-phase case.

Every op states one gradient map per input, from the output gradient
to that input's gradient, and hands them to `_result`, the one place
where the rule for recording an op's backward on the tape is written.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .tensor import Tape, Tensor


def _result(y: np.ndarray, inputs, tape: Tape | None, grads) -> Tensor:
    """``Tensor(y)`` for an op over ``inputs``, its backward recorded on ``tape``.

    ``grads[k]`` maps the output gradient to the gradient of ``inputs[k]``;
    ops pass ``tape and (...)``, so an untaped call builds no maps. Nothing
    runs when the output got no gradient, and the maps run in input order,
    each only for an input that needs a gradient. An empty gradient slot
    keeps its first contribution as its own array (see
    :meth:`Tensor.accumulate_grad`), so maps that share an array read it
    before the slot that keeps it, and only the first input handed the
    output gradient itself (`add`) may keep it: no two slots share an array.
    """
    out = Tensor(y)
    for t in inputs:  # a loop, not any(): no generator on the untaped path
        if t.requires_grad:
            out.requires_grad = True
            break
    if tape is not None and out.requires_grad:

        def _bwd():
            g = out.grad
            if g is None:
                return
            kept = False  # whether a slot now holds g itself
            for t, grad in zip(inputs, grads):
                if t.requires_grad:
                    d = grad(g)
                    if d is g and kept and t.grad is None:
                        d = g.copy()
                    t.accumulate_grad(d)
                    kept = kept or t.grad is g

        tape.record(_bwd)
    return out


# ---------------------------------------------------------------------------
# correlation primitives
# ---------------------------------------------------------------------------


def _window(x: np.ndarray, h0: int, h1: int, w0: int, w1: int) -> np.ndarray:
    """``x[:, :, h0:h1, w0:w1]``, reading zeros where the window leaves x."""
    n, c, h, w = x.shape
    if h0 >= 0 and w0 >= 0 and h1 <= h and w1 <= w:
        return x[:, :, h0:h1, w0:w1]
    out = np.zeros((n, c, h1 - h0, w1 - w0), dtype=x.dtype)
    a, b = max(h0, 0), min(h1, h)
    c0, c1 = max(w0, 0), min(w1, w)
    if a < b and c0 < c1:
        out[:, :, a - h0 : b - h0, c0 - w0 : c1 - w0] = x[:, :, a:b, c0:c1]
    return out


def _pad2d(x: np.ndarray, ph: int, pw: int) -> np.ndarray:
    return _window(x, -ph, x.shape[2] + ph, -pw, x.shape[3] + pw)


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int):
    """(n, c, h, w) -> (n, c*kh*kw, oh*ow) patch matrix, plus (oh, ow)."""
    n, c, h, w = x.shape
    oh = (h - kh) // stride + 1
    ow = (w - kw) // stride + 1
    sn, sc, sr, scl = x.strides
    view = as_strided(
        x,
        (n, c, kh, kw, oh, ow),
        (sn, sc, sr, scl, sr * stride, scl * stride),
        writeable=False,
    )
    return view.reshape(n, c * kh * kw, oh * ow), oh, ow


def _corr2d(x: np.ndarray, w: np.ndarray, stride: int, padding) -> np.ndarray:
    """Cross-correlate x (n,ci,h,w) with w (co,ci,kh,kw) -> (n,co,oh,ow)."""
    co, ci, kh, kw = w.shape
    xp = _pad2d(x, padding[0], padding[1])
    cols, oh, ow = _im2col(xp, kh, kw, stride)
    out = np.matmul(w.reshape(co, ci * kh * kw), cols)
    return out.reshape(x.shape[0], co, oh, ow)


def _corr2d_weight_grad(x, g, stride, padding, kh, kw) -> np.ndarray:
    """Contraction of input x (n,ci,..) with output grad g (n,co,oh,ow)."""
    xp = _pad2d(x, padding[0], padding[1])
    cols, oh, ow = _im2col(xp, kh, kw, stride)
    n, co = g.shape[0], g.shape[1]
    gm = g.reshape(n, co, oh * ow)
    dw = np.matmul(gm, cols.transpose(0, 2, 1)).sum(axis=0)
    return dw.reshape(co, x.shape[1], kh, kw)


def _phases(n_out: int, k: int, stride: int, pad: int):
    """Per output phase along one axis of `_adjoint_corr2d`.

    Yields (r, o0, lo, hi): outputs o0, o0 + stride, ... < n_out take the
    kernel taps r, r + stride, ... < k, and are the stride-1 correlation
    of input rows lo..hi-1 (rows outside the input read as zero) with
    those taps reversed. Output o = o0 + stride*j gathers input
    q0 + j - m through tap r + stride*m, where q0 = (o0 + pad - r) / stride.
    """
    for r in range(stride):
        taps = len(range(r, k, stride))
        o0 = (r - pad) % stride
        count = len(range(o0, n_out, stride))
        if taps and count:
            q0 = (o0 + pad - r) // stride
            yield r, o0, q0 - taps + 1, q0 + count


def _adjoint_corr2d(x, w, stride, padding, out_hw) -> np.ndarray:
    """Adjoint of `_corr2d` in its input argument.

    Maps x (n,co,h,w) back to (n,ci,*out_hw). Each of the stride**2
    output phases (rh, rw) is the correlation of a window of the
    undilated x with the sub-kernel ``w[:, :, rh::s, rw::s]``, flipped
    and channel-swapped, written to ``y[:, :, o0h::s, o0w::s]``: the
    sub-pixel convolution form of the transposed convolution (arXiv
    1609.07009). The window carries zeros only where it runs past the
    border of x; a phase with no taps (a 1x1 kernel at stride 2) stays
    zero. At stride 1 the one phase is the whole output and is returned
    as it comes from `_corr2d`. out_hw must be a size that `_corr2d` maps
    back to x's: the implied output padding lies in [0, stride) per axis,
    and the padding is below the kernel size.
    """
    n, co, h, w_in = x.shape
    _, ci, kh, kw = w.shape
    oh, ow = out_hw
    opad = (oh - (h - 1) * stride + 2 * padding[0] - kh,
            ow - (w_in - 1) * stride + 2 * padding[1] - kw)
    if not (0 <= min(opad) and max(opad) < stride and padding[0] < kh and padding[1] < kw):
        raise ValueError(f"target {tuple(out_hw)} unreachable from input {(h, w_in)} with "
                         f"kernel {(kh, kw)}, stride {stride}, padding {tuple(padding)}: "
                         f"implied output padding {opad}")
    if stride == 1:  # phase (0, 0) of `_phases`: o0 = 0, q0 = padding
        ph, pw = padding
        return _corr2d(_window(x, ph - kh + 1, ph + oh, pw - kw + 1, pw + ow),
                       w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), 1, (0, 0))
    y = np.zeros((n, ci, oh, ow), dtype=np.result_type(x.dtype, w.dtype))
    for rh, o0h, h0, h1 in _phases(oh, kh, stride, padding[0]):
        for rw, o0w, w0, w1 in _phases(ow, kw, stride, padding[1]):
            sub = w[:, :, rh::stride, rw::stride][:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
            y[:, :, o0h::stride, o0w::stride] = _corr2d(
                _window(x, h0, h1, w0, w1), sub, 1, (0, 0)
            )
    return y


# ---------------------------------------------------------------------------
# convolution ops
# ---------------------------------------------------------------------------


@dataclass
class ConvParams:
    """Weight/bias pair plus geometry for one convolution.

    ``weight`` is always stored in forward-convolution orientation
    (out_c, in_c, kh, kw). For :func:`deconv2d_up`, which applies the
    adjoint map, the tensor flows out_c -> in_c and ``bias`` holds in_c
    entries; for :func:`conv2d` it holds out_c.
    """

    weight: Tensor
    bias: Tensor
    stride: int = 1
    padding: tuple[int, int] = (0, 0)


def conv_params(rng, out_c, in_c, kh, kw, stride=1, padding=(0, 0),
                dtype=np.float32, bias_len=None) -> ConvParams:
    """Fan-in-scaled normal weights and zero bias."""
    std = np.sqrt(2.0 / (in_c * kh * kw))
    w = rng.normal(0.0, std, (out_c, in_c, kh, kw)).astype(dtype)
    b = np.zeros(out_c if bias_len is None else bias_len, dtype=dtype)
    return ConvParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True),
                      stride=stride, padding=padding)


def conv2d(x: Tensor, params: ConvParams, tape: Tape | None = None) -> Tensor:
    """Strided 2-D convolution (cross-correlation) with bias."""
    w, b = params.weight, params.bias
    co, ci, kh, kw = w.shape
    if x.data.ndim != 4:
        raise ValueError(f"conv2d expects a 4-D input, got shape {x.shape}")
    if x.shape[1] != ci:
        raise ValueError(
            f"conv2d channel mismatch: input {x.shape} vs weight {w.shape}"
        )
    stride, pad = params.stride, params.padding
    y = _corr2d(x.data, w.data, stride, pad)
    if y.shape[2] < 1 or y.shape[3] < 1:
        raise ValueError(f"conv2d output collapsed to {y.shape} from input {x.shape}")
    y += b.data.reshape(1, -1, 1, 1)
    return _result(y, (x, w, b), tape, tape and (
        lambda g: _adjoint_corr2d(g, w.data, stride, pad, x.shape[2:]),
        lambda g: _corr2d_weight_grad(x.data, g, stride, pad, kh, kw),
        lambda g: g.sum(axis=(0, 2, 3)),
    ))


def deconv2d_up(x: Tensor, params: ConvParams, target_hw, tape: Tape | None = None) -> Tensor:
    """Transposed convolution, the exact adjoint of the matching stride-2 conv.

    The caller prescribes the output size; `_adjoint_corr2d` rejects one
    that the matching conv would not map back to the input's size.
    """
    w, b = params.weight, params.bias
    co, ci, kh, kw = w.shape
    if params.stride != 2:
        raise ValueError(f"deconv2d_up requires stride 2, got {params.stride}")
    if x.data.ndim != 4 or x.shape[1] != co:
        raise ValueError(
            f"deconv2d_up channel mismatch: input {x.shape} vs weight {w.shape}"
        )
    stride, pad = params.stride, params.padding
    th, tw = int(target_hw[0]), int(target_hw[1])
    y = _adjoint_corr2d(x.data, w.data, stride, pad, (th, tw))
    y += b.data.reshape(1, -1, 1, 1)
    return _result(y, (x, w, b), tape, tape and (
        lambda g: _corr2d(g, w.data, stride, pad),
        lambda g: _corr2d_weight_grad(g, x.data, stride, pad, kh, kw),
        lambda g: g.sum(axis=(0, 2, 3)),
    ))


# ---------------------------------------------------------------------------
# batch normalization
# ---------------------------------------------------------------------------


class BatchNorm:
    """Per-channel affine normalization with running statistics.

    Training mode normalizes by biased batch moments and folds them into
    the running estimates; eval mode applies the running estimates as
    constants. gamma/beta are trainable, the running stats are buffers.
    """

    def __init__(self, channels: int, eps: float = 1e-5, momentum: float = 0.1,
                 dtype=np.float32):
        self.gamma = Tensor(np.ones(channels, dtype=dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype=dtype), requires_grad=True)
        self.running_mean = np.zeros(channels, dtype=dtype)
        self.running_var = np.ones(channels, dtype=dtype)
        self.eps = float(eps)
        self.momentum = float(momentum)

    @property
    def channels(self) -> int:
        return self.gamma.size


def batch_norm(x: Tensor, bn: BatchNorm, training: bool, tape: Tape | None = None) -> Tensor:
    if x.data.ndim != 4 or x.shape[1] != bn.channels:
        raise ValueError(
            f"batch_norm channel mismatch: input {x.shape} vs {bn.channels} channels"
        )
    gamma, beta = bn.gamma, bn.beta
    n, c, h, w = x.shape
    m = n * h * w
    if training:
        if m == 1:
            raise ValueError("batch_norm in training mode needs more than one value per channel")
        # centre the input once and take the variance from the centred
        # values. The sums are those of np.mean and np.var, which divide by
        # the count in float64 and round; dividing directly rounds to the
        # same quotient while float32 holds m exactly (m <= 2**24), so the
        # moments are the same bit for bit
        mean = np.add.reduce(x.data, (0, 2, 3)) / m
        xhat = x.data - mean.reshape(1, c, 1, 1)
        var = np.add.reduce(xhat * xhat, (0, 2, 3)) / m
        mom = bn.momentum
        bn.running_mean += mom * (mean - bn.running_mean)
        bn.running_var += mom * (var - bn.running_var)
    else:
        xhat = x.data - bn.running_mean.reshape(1, c, 1, 1)
        var = bn.running_var
    inv = 1.0 / np.sqrt(var + bn.eps)
    xhat *= inv.reshape(1, c, 1, 1)
    y = gamma.data.reshape(1, c, 1, 1) * xhat
    y += beta.data.reshape(1, c, 1, 1)
    return _result(y, (x, gamma, beta), tape,
                   tape and _batch_norm_grads(xhat, inv, gamma, m, training))


def _batch_norm_grads(xhat, inv, gamma: Tensor, m: int, training: bool):
    """`batch_norm`'s gradient maps for x, gamma and beta."""
    c = inv.size
    sums = []  # per-channel sums of g and g * xhat, both taken by the first map that runs

    def reduced(g):
        if not sums:
            sums.extend((g.sum(axis=(0, 2, 3)), (g * xhat).sum(axis=(0, 2, 3))))
        return sums

    def dx(g):
        gw = gamma.data.reshape(1, c, 1, 1)
        if not training:
            return g * gw * inv.reshape(1, c, 1, 1)
        # standard batch-norm input gradient with batch moments,
        # (gw*inv/m) * (m*g - gsum - xhat*gxhat), one in-place ufunc per
        # term in that order: two full-size arrays
        gsum, gxhat = reduced(g)
        d = m * g
        d -= gsum.reshape(1, c, 1, 1)
        d -= xhat * gxhat.reshape(1, c, 1, 1)
        d *= gw * inv.reshape(1, c, 1, 1) / m
        return d

    return dx, lambda g: reduced(g)[1], lambda g: reduced(g)[0]


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    # the gradient at exactly 0 is 0
    return _result(np.maximum(x.data, 0), (x,), tape, tape and (lambda g: g * (x.data > 0),))


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _result(a.data + b.data, (a, b), tape, tape and (lambda g: g,) * 2)


def concat_channels(xs: list[Tensor], tape: Tape | None = None) -> Tensor:
    if not xs:
        raise ValueError("concat_channels needs at least one input")
    ref = xs[0].shape
    for t in xs[1:]:
        if t.shape[0] != ref[0] or t.shape[2:] != ref[2:]:
            raise ValueError(f"concat_channels layout mismatch: {ref} vs {t.shape}")
    ends = list(itertools.accumulate(t.shape[1] for t in xs))
    return _result(np.concatenate([t.data for t in xs], axis=1), xs, tape,
                   tape and [lambda g, a=a, b=b: g[:, a:b] for a, b in zip([0] + ends, ends)])


# ---------------------------------------------------------------------------
# loss
# ---------------------------------------------------------------------------


def softmax_cross_entropy(logits: Tensor, labels: np.ndarray, ignore_label: int = 255,
                          tape: Tape | None = None) -> Tensor:
    """Mean pixel cross-entropy over non-ignored positions.

    labels: integer (n, h, w); positions equal to ignore_label contribute
    neither to the mean nor to the gradient.
    """
    z = logits.data
    if z.ndim != 4:
        raise ValueError(f"softmax_cross_entropy expects 4-D logits, got {z.shape}")
    n, c, h, w = z.shape
    labels = np.asarray(labels)
    if labels.shape != (n, h, w):
        raise ValueError(f"label shape {labels.shape} does not match logits {z.shape}")
    valid = labels != ignore_label
    count = int(valid.sum())
    if count == 0:
        raise ValueError("softmax_cross_entropy: every label is ignored")
    picked_labels = labels[valid]
    if picked_labels.min() < 0 or picked_labels.max() >= c:
        raise ValueError(f"labels outside [0, {c}) and not ignore_label={ignore_label}")

    zmax = z.max(axis=1, keepdims=True)
    ez = np.exp(z - zmax)
    se = ez.sum(axis=1, keepdims=True)
    lse = np.log(se)[:, 0] + zmax[:, 0]
    idx = np.where(valid, labels, 0)[:, None]
    picked = np.take_along_axis(z, idx, axis=1)[:, 0]
    loss = ((lse - picked) * valid).sum() / count

    def dlogits(g):
        scale = valid / count
        dz = (ez / se) * scale[:, None]
        onehot = np.take_along_axis(dz, idx, axis=1)
        np.put_along_axis(dz, idx, onehot - scale[:, None], axis=1)
        return dz * g

    return _result(np.asarray(loss, dtype=z.dtype), (logits,), tape, tape and (dlogits,))
