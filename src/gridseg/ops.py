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
1609.07009). The phases run stacked as the output channels of one such
correlation, each sub-kernel set into a ceil(k/s) x ceil(k/s)
super-kernel whose empty slots hold zero: one patch matrix and one
matrix product for all phases, at the price of multiply-adds by those
zeros (16 slots for the 9 taps of a 3x3 kernel at stride 2). The
benchmark's ``gmac`` figures stay nominal, computed from the op's
shapes, and do not count them. The same primitive, `_adjoint_corr2d`,
serves the upsampling forward pass and the input gradient of every
stride-2 convolution; stride 1 is its one-phase case.

A stride-1 convolution with kernel w and padding p is the transpose of
the correlation with ``_swap(w)`` (w flipped and channel-swapped) at
padding k-1-p (Dumoulin & Visin, arXiv 1603.07285), so it shares the
transposed convolution's backward, `_transposed_grads`: both gradients
come from one patch matrix of the output gradient, which lives only
while the op's backward runs, and no input is unfolded. Every weight
gradient is taken by `_weight_grad` with the patch matrix on the left of
the product.

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
    """x zero-padded by ph rows and pw columns per side; a negative pad crops."""
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


def _live_phases(n_out: int, k: int, stride: int, pad: int):
    """Per live output phase along one axis of `_adjoint_corr2d`.

    Yields (r, o0, j0, count): the outputs o0, o0 + stride, ... < n_out,
    count of them, take the kernel taps r, r + stride, ... < k, and output
    o0 + stride*j is entry j0 + j of the stacked correlation along this
    axis. Output o gathers input (o + pad - t) / stride through tap t, so
    entry J = (o + pad) // stride - pad // stride of every phase reads the
    same input rows. A phase with no tap or no output is not live.
    """
    for r in range(min(stride, k)):
        o0 = (r - pad) % stride
        count = len(range(o0, n_out, stride))
        if count:
            yield r, o0, (o0 + pad) // stride - pad // stride, count


def _adjoint_corr2d(x, w, stride, padding, out_hw) -> np.ndarray:
    """Adjoint of `_corr2d` in its input argument.

    Maps x (n,co,h,w) back to (n,ci,*out_hw) as one stride-1 correlation
    of the undilated x whose output channels are the live output phases
    (rh, rw) stacked: the sub-pixel convolution form of the transposed
    convolution (arXiv 1609.07009). Phase (rh, rw) takes the sub-kernel
    ``w[:, :, rh::s, rw::s]``, flipped and channel-swapped, set into the
    trailing corner of a ceil(k/s) x ceil(k/s) super-kernel whose other
    slots hold zero (16 slots for the 9 taps of a 3x3 kernel at stride 2,
    one slot for a 1x1), and is written to ``y[:, :, o0h::s, o0w::s]``.
    One window of x, one patch matrix and one matrix product serve every
    phase; the window carries zeros only where it runs past the border of
    x, and a phase with no taps (a 1x1 kernel at stride 2) stays zero.
    out_hw must be a size that `_corr2d` maps back to x's: the implied
    output padding lies in [0, stride) per axis, and the padding is below
    the kernel size.
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
    s, (ph, pw) = stride, padding
    th, tw = -(-kh // s), -(-kw // s)
    phases = list(itertools.product(_live_phases(oh, kh, s, ph), _live_phases(ow, kw, s, pw)))
    # kept (co, th, tw, phase, ci), so that the matrix product reads it
    # transposed and OpenBLAS takes its packed GEMM, which adds each
    # output's products in K order with FMA wherever the output sits: the
    # zero slots add exact zeros and each phase keeps its per-phase bits.
    # OpenBLAS's small-matrix kernel for untransposed operands rounds the
    # columns past the last multiple of 16 otherwise, and the stacked
    # output has more columns than each phase had
    kern = np.zeros((co, th, tw, len(phases), ci), dtype=w.dtype)
    for i, ((rh, *_), (rw, *_)) in enumerate(phases):
        sub = _swap(w[:, :, rh::s, rw::s]).transpose(1, 2, 3, 0)
        kern[:, th - sub.shape[1]:, tw - sub.shape[2]:, i] = sub
    win = _window(x, ph // s - th + 1, (oh - 1 + ph) // s + 1,
                  pw // s - tw + 1, (ow - 1 + pw) // s + 1)
    out = _corr2d(win, kern.reshape(co, th, tw, -1).transpose(3, 0, 1, 2), 1, (0, 0))
    out = out.reshape(n, len(phases), ci, *out.shape[2:])
    y = np.zeros((n, ci, oh, ow), dtype=out.dtype)
    for i, ((_, o0h, jh, ch), (_, o0w, jw, cw)) in enumerate(phases):
        y[:, :, o0h::s, o0w::s] = out[:, i, :, jh:jh + ch, jw:jw + cw]
    return y


def _swap(k: np.ndarray) -> np.ndarray:
    """Kernel k (a,b,kh,kw) flipped in both spatial axes and channel-swapped
    to (b,a,kh,kw), as a view; applied twice it gives k back."""
    return k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _bias_grad(g: np.ndarray) -> np.ndarray:
    return g.sum(axis=(0, 2, 3))


def _weight_grad(a: np.ndarray, cols: np.ndarray, shape) -> np.ndarray:
    """The sum over n of ``a_n @ cols_n^T``, reshaped to ``shape``, for a
    (n,m,...) and patch matrices cols (n,K,L), where a_n flattens to (m,L).

    Taken as the transpose of the sum of ``cols_n @ a_n^T``: each entry is
    the same products added in the same order, and OpenBLAS runs the
    product up to twice as fast with the long patch matrix on the left.
    """
    d = np.matmul(cols, a.reshape(*a.shape[:2], -1).transpose(0, 2, 1))
    return d.sum(axis=0).T.reshape(shape)


def _transposed_grads(x: Tensor, w: Tensor, k: np.ndarray, stride: int, pad):
    """Maps for x, w and b of the transpose of correlating with kernel k
    (w or a view of it) at ``stride`` and ``pad``.

    Both gradients read one patch matrix G of the padded output gradient:
    dx is ``k @ G`` and k's gradient is the sum over n of ``x_n @ G_n^T``,
    taken by `_weight_grad` as the transpose of the sum of ``G_n @ x_n^T``.
    The x map runs first (`_result` runs maps in input order) and keeps G
    only when w takes a gradient; the w map takes it or else builds it, so
    G is built once and gone when the op's backward returns.
    """
    kh, kw = k.shape[2:]
    held = []

    def patches(g):
        return _im2col(_pad2d(g, *pad), kh, kw, stride)[0]

    def dx(g):
        cols = patches(g)
        if w.requires_grad:
            held.append(cols)
        return np.matmul(k.reshape(k.shape[0], -1), cols).reshape(x.shape)

    def dk(g):
        return _weight_grad(x.data, held.pop() if held else patches(g), k.shape)

    return dx, dk, _bias_grad


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
    ci = w.shape[1]
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
    return _result(y, (x, w, b), tape, tape and _conv_grads(x, w, stride, pad))


def _conv_grads(x: Tensor, w: Tensor, stride: int, pad):
    """`conv2d`'s gradient maps for x, w and b: at stride 1 those of the
    transposed correlation with ``_swap(w)`` at padding k-1-p, the weight's
    swapped back; at stride 2, the stacked-phase `_adjoint_corr2d` of g and
    the `_weight_grad` of g against the patch matrix of the padded x."""
    kh, kw = w.shape[2:]
    ph, pw = pad
    if stride == 1:
        dx, dk, db = _transposed_grads(x, w, _swap(w.data), 1, (kh - 1 - ph, kw - 1 - pw))
        return dx, lambda g: np.ascontiguousarray(_swap(dk(g))), db

    def dw(g):
        return _weight_grad(g, _im2col(_pad2d(x.data, ph, pw), kh, kw, stride)[0], w.shape)

    return lambda g: _adjoint_corr2d(g, w.data, stride, pad, x.shape[2:]), dw, _bias_grad


def deconv2d_up(x: Tensor, params: ConvParams, target_hw, tape: Tape | None = None) -> Tensor:
    """Transposed convolution, the exact adjoint of the matching stride-2 conv.

    The caller prescribes the output size; `_adjoint_corr2d` rejects one
    that the matching conv would not map back to the input's size.
    """
    w, b = params.weight, params.bias
    co = w.shape[0]
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
    return _result(y, (x, w, b), tape, tape and _transposed_grads(x, w, w.data, stride, pad))


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
