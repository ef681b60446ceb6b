"""Differentiable operations on 4-D tensors.

Convolutions are lowered to matrix products over patch matrices. A batch
whose (c*kh*kw, oh*ow) patch matrices together fit in ``PATCH_BYTES``
(the size rule) is unfolded at once into one (n, K, L) array, and each
product is one batched ``np.matmul``: at the grid's small streams a call's
fixed cost outweighs its arithmetic. A larger batch is lowered one sample
at a time: `_unfold` copies each sample's patch matrix in turn into one
reused buffer, and `_patch_products` takes that sample's products from it
while it is in cache. A "same" stride-1 kernel larger than 1x1, as in
every residual unit, copies from a row-wrapped frame, of the one sample
or of the whole batch viewed as one sample of n*c channels, each
patch-matrix row one contiguous run of h*w values, and zeroes the taps
that wrapped into the neighbouring row (`_wrapped`); every other
correlation copies from the strided window view of the padded batch,
built with ``np.ndarray`` over the batch's memory (`_windows`). Where
that view reshapes without a copy (`_flattens`, from shapes and strides:
1x1 kernels at stride 1, or a "same" 3x3 kernel's one-column output of
one channel or one row), or the batch holds one sample, the whole batch
is unfolded at once whatever its size. Each product thus reads the
operand, view or contiguous copy, with the values and strides that one
``np.matmul`` over the whole padded batch's reshape hands BLAS for that
sample, and gives its bits. The reduction order inside each product is
fixed at (channel, kernel row, kernel col), so forward results are
bit-deterministic for identical inputs on the same machine.

The transposed convolution is implemented as the adjoint of the matching
strided convolution, split by output phase: output rows and columns
congruent to (rh, rw) modulo the stride receive only the kernel taps
``w[:, :, rh::s, rw::s]``, so each phase is a stride-1 correlation of
the undilated input with that flipped, channel-swapped sub-kernel (the
sub-pixel form of a transposed convolution, Shi et al., arXiv
1609.07009). The phases run stacked as the output channels of one such
correlation, each sub-kernel set into a ceil(k/s) x ceil(k/s)
super-kernel whose empty slots hold zero, gathered from w in one
``np.take`` through a slot table cached per geometry: one patch matrix
and one matrix product for all phases, at the price of multiply-adds by
those zeros (16 slots for the 9 taps of a 3x3 kernel at stride 2). The
benchmark's ``gmac`` figures stay nominal, computed from the op's
shapes, and do not count them. The same primitive, `_adjoint_corr2d`,
serves the upsampling forward pass and the input gradient of every
stride-2 convolution; stride 1 is its one-phase case.

A stride-1 convolution with kernel w and padding p is the transpose of
the correlation with ``_swap(w)`` (w flipped and channel-swapped) at
padding k-1-p (Dumoulin & Visin, arXiv 1603.07285), so it shares the
transposed convolution's backward, `_transposed_grads`: both gradients
come from one pass over the patch matrices of the output gradient, and
no input is unfolded. Every weight gradient is a sum over samples taken
with the patch matrix on the left of each product, as the transpose of
the sum of ``P_n @ a_n^T``: the products of ``a_n @ P_n^T`` added in the
same order, which OpenBLAS runs up to twice as fast.

Every op states one gradient map per input, from the output gradient
to that input's gradient, and hands them to `_result`, the one place
where the rule for recording an op's backward on the tape is written.
A recorded backward holds the gradient slots of its op's output and of
the inputs that take a gradient (:class:`gridseg.tensor.GradSlot`) and,
through those inputs' maps, only the arrays they read: a conv's or transposed conv's input, for the
weight gradient (and the parameters, which the model holds anyway);
batch norm's centred input and inverse deviation (one centred input may
serve the closures of two batch norms over the same tensor, which only
read it: see `batch_norm`); relu's output, whose sign gives the mask;
softmax's exponentials and their sums.
Everything else, such as a conv's output or the inputs of batch norm, add
and concat, is freed during the forward pass once the caller drops it.

The loss gradient holds no subnormal number: `softmax_cross_entropy`
sets every entry smaller in magnitude than the smallest normal value of
the logits' dtype to zero. Once a pixel is confident, the gradient of
its other classes (a softmax over the count of labelled pixels)
underflows float32 into the subnormal range, and an x86 core takes a
slow microcode assist on every subnormal operand, so those entries would
slow each product of the backward pass that reads them: the head's, the
concat projection's, the stride-2 1x1 shortcut's and the stream
convolutions'. The entries are smaller than 2**-126 and meet terms many
orders larger, so dropping them leaves training results as they were,
save where one would have broken a rounding tie: where the other terms
of a sum land exactly halfway between two floats, any nonzero addend
picks the side, so the sum's last bit, and from there the run's, can
change. The flush is written on the array, not as a process-wide flush-
to-zero mode: BLAS worker threads keep their own floating-point control
word, so such a mode could make a result depend on which thread computed
a block.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .tensor import Tape, Tensor

PATCH_BYTES = 320 << 10  # `_unfold` builds a batch's patch matrices at once up to this size


def _result(y: np.ndarray, inputs, tape: Tape | None, grads) -> Tensor:
    """``Tensor(y)`` for an op over ``inputs``, its backward recorded on ``tape``.

    ``grads[k]`` maps the output gradient to the gradient of ``inputs[k]``;
    ops pass ``tape and (...)``, so an untaped call builds no maps. The
    recording rule:

    - which inputs take a gradient is read when the op is recorded, and
      only their (gradient slot, map) pairs are kept; with none, nothing
      is recorded and the output takes no gradient;
    - each map hands its input an array that no other slot holds, as an
      empty slot keeps its first contribution (:meth:`Tensor.accumulate_grad`):
      `add`'s first map returns the output gradient itself, its second a copy.

    The closure runs the kept maps in input order, once the output has a
    gradient; maps that share work (`_transposed_grads`, `_batch_norm_grads`)
    rely on that order. It holds slots, not tensors, so it keeps ``y`` and
    the inputs' values alive only where a kept map reads them; maps must
    read arrays, not the tensors of ``inputs`` (a parameter tensor, held by
    its model anyway, is the exception).
    """
    pairs = [] if tape is None else [(t.slot, grad) for t, grad in zip(inputs, grads)
                                     if t.requires_grad]
    out = Tensor(y, requires_grad=bool(pairs))
    if pairs:
        slot = out.slot

        def _bwd():
            g = slot.grad
            if g is not None:
                for s, grad in pairs:
                    Tensor.accumulate_grad(s, grad(g))

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


def _unfold(a: np.ndarray, kh: int, kw: int, stride: int, pad):
    """oh, ow and the (c*kh*kw, oh*ow) patch matrices of a (n,c,h,w)
    zero-padded by pad = (ph, pw), for a kh x kw kernel at ``stride``: one
    (n, K, L) array where the window view of the padded a reshapes without
    a copy (`_flattens`), n is 1 or all n matrices fit in ``PATCH_BYTES``,
    else an iterator that copies each sample's matrix in turn into one
    buffer and yields it (the size rule of the module docstring). A "same"
    stride-1 kernel larger than 1x1 copies from a row-wrapped frame
    (`_wrapped`), of the whole batch as one sample of n*c channels or of
    each sample in turn, and pads no batch; every other kernel copies from
    the window view of the padded batch (`_windows`). Each copy holds the
    values and strides of the view's reshape."""
    n, c, h, w = a.shape
    ph, pw = pad
    same = stride == 1 and kh * kw > 1 and (kh, kw) == (2 * ph + 1, 2 * pw + 1)
    oh, ow = (h, w) if same else ((h + 2 * ph - kh) // stride + 1, (w + 2 * pw - kw) // stride + 1)
    shape = (n, c * kh * kw, oh * ow)
    whole = n == 1 or n * c * kh * kw * oh * ow * a.itemsize <= PATCH_BYTES
    if same:
        wp = w + 2 * pw  # the view rule on the strides, in items, of `_pad2d`'s copy
        # a non-empty input with h, w and kw all above 1 never takes the view
        if (a.size and h > 1 and w > 1 and kw > 1
                or not _flattens((n, c, kh, kw, h, w), (0, (h + 2 * ph) * wp, wp, 1, wp, 1))):
            if not whole:
                return h, w, _wrapped(a, kh, kw, ph, pw)
            return h, w, next(_wrapped(a.reshape(1, n * c, h, w), kh, kw, ph, pw)).reshape(shape)
    view = _windows(_pad2d(a, ph, pw), kh, kw, stride)
    if whole or _flattens(view.shape, view.strides):
        return oh, ow, view.reshape(shape)
    return oh, ow, _samples(view, shape[1:])


def _windows(a: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """The (n, c, kh, kw, oh, ow) window view of a (n,c,h,w) for a kh x kw
    kernel at ``stride``, built as `_wrapped` builds its view: ``np.ndarray``
    over a's memory, a fraction of ``as_strided``'s cost per call. An a that
    is not contiguous, such as an in-bounds `_window`, is viewed through the
    nearest contiguous array in its chain of bases, without a copy; one with
    no such base (a view of a foreign buffer) is copied first."""
    base = a
    while not base.flags.forc and isinstance(base.base, np.ndarray):
        base = base.base
    if not base.flags.forc:
        a = base = np.ascontiguousarray(a)
    offset = 0 if base is a else (a.__array_interface__["data"][0]
                                  - base.__array_interface__["data"][0])
    n, c, h, w = a.shape
    sn, sc, sr, scl = a.strides
    return np.ndarray((n, c, kh, kw, (h - kh) // stride + 1, (w - kw) // stride + 1), a.dtype,
                      base, offset, (sn, sc, sr, scl, sr * stride, scl * stride))


def _flattens(dims, strides) -> bool:
    """Whether an array of shape dims (n, c, kh, kw, oh, ow) and these
    strides reshapes to (n, c*kh*kw, oh*ow) as a view, by numpy's rule: it
    is empty, or within each merged group every axis longer than 1 steps by
    the length times the step of the next such axis."""
    if 0 in dims:
        return True
    for group in ((4, 5), (1, 2, 3)):
        axes = [(dims[i], strides[i]) for i in group if dims[i] != 1]
        if any(s != m * t for (_, s), (m, t) in zip(axes, axes[1:])):
            return False
    return True


def _samples(view: np.ndarray, shape):
    buf = np.empty(shape, view.dtype)
    fill = buf.reshape(view.shape[1:])
    for v in view:
        fill[...] = v
        yield buf


def _wrapped(a: np.ndarray, kh: int, kw: int, ph: int, pw: int):
    """Each sample's patch matrix for a kh x kw kernel at stride 1 and
    padding (ph, pw) = ((kh-1)/2, (kw-1)/2), copied in turn into one buffer.

    The sample is written into a flat frame per channel, ph zero rows of
    width w above and below and pw zeros at each end, so tap (i, j) of
    output q = y*w + x reads frame entry ``i*w + j + q``: row (c, i, j) of
    the patch matrix is one contiguous run of h*w values. A tap that runs
    off the left or right edge reads the neighbouring row instead of the
    padding; those entries, columns x < pw - j and x >= w + pw - j, are
    zeroed after the copy. The frame's borders are zeroed once.
    """
    _, c, h, w = a.shape
    lead = ph * w + pw
    frame = np.empty((c, 2 * lead + h * w), a.dtype)
    frame[:, :lead] = frame[:, lead + h * w:] = 0
    body = frame[:, lead:lead + h * w].reshape(c, h, w)
    step = frame.itemsize
    taps = np.ndarray((c, kh, kw, h * w), a.dtype, frame, 0,
                      (frame.strides[0], w * step, step, step))
    buf = np.empty((c * kh * kw, h * w), a.dtype)
    rows, fill = buf.reshape(taps.shape), buf.reshape(c, kh, kw, h, w)
    edges = [(j, slice(0, pw - j) if j < pw else slice(max(w + pw - j, 0), w))
             for j in range(kw) if j != pw]
    for x in a:
        body[...] = x
        rows[...] = taps
        for j, cut in edges:
            fill[:, :, j, :, cut] = 0
        yield buf


def _patch_products(a: np.ndarray, kh: int, kw: int, stride: int, pad, left=None,
                    right=None):
    """``left @ P_i`` for the patch matrices P_i of a padded by pad (`_unfold`), as
    (n, m, oh, ow) for left (m, K); and the sum over i of ``P_i @ right_i^T``,
    as (K, r) for right (n, r, ...) flattening to (n, r, L): each term in
    its slot of an (n, K, r) array, summed in sample order. Both read P_i
    while it is in cache; a product whose operand is None is None."""
    n = a.shape[0]
    oh, ow, cols = _unfold(a, kh, kw, stride, pad)
    if right is not None:
        right = right.reshape(n, right.shape[1], -1).swapaxes(1, 2)
    if isinstance(cols, np.ndarray):  # the whole batch: one batched product each
        y = None if left is None else np.matmul(left, cols)
        d = None if right is None else np.matmul(cols, right)
    else:
        y = None if left is None else np.empty((n, left.shape[0], oh * ow),
                                                np.result_type(left, a))
        d = None if right is None else np.empty((n, a.shape[1] * kh * kw, right.shape[2]),
                                                 np.result_type(a, right))
        for i, p in enumerate(cols):
            if y is not None:
                np.matmul(left, p, out=y[i])
            if d is not None:
                np.matmul(p, right[i], out=d[i])
    return (None if y is None else y.reshape(n, -1, oh, ow),
            None if d is None else d.sum(axis=0))


def _corr2d(x: np.ndarray, w: np.ndarray, stride: int, padding) -> np.ndarray:
    """Cross-correlate x (n,ci,h,w) with w (co,ci,kh,kw) -> (n,co,oh,ow):
    per sample, one patch matrix of the padded x and one matrix product."""
    co, ci, kh, kw = w.shape
    if x.shape[0] == 1:  # one sample, as every eval forward: one unfold, one product
        oh, ow, cols = _unfold(x, kh, kw, stride, padding)
        return np.matmul(w.reshape(co, -1), cols).reshape(1, co, oh, ow)
    return _patch_products(x, kh, kw, stride, padding, w.reshape(co, -1))[0]


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
    x, and a phase with no taps (a 1x1 kernel at stride 2) stays zero;
    where every kernel side is at least the stride, the live phases write
    every output and y is allocated unfilled. out_hw must be a size that
    `_corr2d` maps back to x's: the implied output padding lies in
    [0, stride) per axis, and the padding is below the kernel size.
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
    rows, cols = list(_live_phases(oh, kh, s, ph)), list(_live_phases(ow, kw, s, pw))
    phases = list(itertools.product(rows, cols))
    kern = _super_kernel(w, s, tuple(r[0] for r in rows), tuple(c[0] for c in cols))
    win = _window(x, ph // s - th + 1, (oh - 1 + ph) // s + 1,
                  pw // s - tw + 1, (ow - 1 + pw) // s + 1)
    out = _corr2d(win, kern.reshape(co, th, tw, -1).transpose(3, 0, 1, 2), 1, (0, 0))
    out = out.reshape(n, len(phases), ci, *out.shape[2:])
    y = (np.empty if kh >= s and kw >= s else np.zeros)((n, ci, oh, ow), dtype=out.dtype)
    for i, ((_, o0h, jh, ch), (_, o0w, jw, cw)) in enumerate(phases):
        y[:, :, o0h::s, o0w::s] = out[:, i, :, jh:jh + ch, jw:jw + cw]
    return y


def _super_kernel(w: np.ndarray, s: int, rhs, rws) -> np.ndarray:
    """`_adjoint_corr2d`'s stacked super-kernel for w (co,ci,kh,kw) at
    stride s and the live phases rhs x rws (`_live_phases`), as
    (co, th, tw, phase, ci): one gather through `_slot_table` from w laid out
    (co, tap, ci) with a zero tap appended.

    It is kept in that layout so that the matrix product reads it
    transposed and OpenBLAS takes its packed GEMM, which adds each
    output's products in K order with FMA wherever the output sits: the
    zero slots add exact zeros and each phase keeps its per-phase bits.
    OpenBLAS's small-matrix kernel for untransposed operands rounds the
    columns past the last multiple of 16 otherwise, and the stacked output
    has more columns than each phase had.
    """
    co, ci, kh, kw = w.shape
    taps = np.zeros((co, kh * kw + 1, ci), w.dtype)
    taps[:, :-1] = w.reshape(co, ci, -1).transpose(0, 2, 1)
    kern = np.take(taps, _slot_table(kh, kw, s, rhs, rws), axis=1)
    return kern.reshape(co, -(-kh // s), -(-kw // s), len(rhs) * len(rws), ci)


@functools.lru_cache(maxsize=64)
def _slot_table(kh: int, kw: int, s: int, rhs, rws) -> np.ndarray:
    """The tap of a kh x kw kernel, as i*kw + j, in each slot (p, q, phase)
    of `_super_kernel`, or kh*kw for a slot that holds zero; computed once
    per geometry and shared read-only.

    Phase (rh, rw) sets its flipped sub-kernel ``w[:, :, rh::s, rw::s]``
    into the trailing corner of the th x tw super-kernel, so slot (p, q)
    holds tap (rh + s*(th-1-p), rw + s*(tw-1-q)) where that lies inside
    the kernel.
    """
    th, tw = -(-kh // s), -(-kw // s)
    i = (np.array(rhs, np.intp) + s * (th - 1 - np.arange(th))[:, None])[:, None, :, None]
    j = (np.array(rws, np.intp) + s * (tw - 1 - np.arange(tw))[:, None])[None, :, None, :]
    table = np.where((i < kh) & (j < kw), i * kw + j, kh * kw).reshape(-1)
    table.flags.writeable = False
    return table


def _swap(k: np.ndarray) -> np.ndarray:
    """Kernel k (a,b,kh,kw) flipped in both spatial axes and channel-swapped
    to (b,a,kh,kw), as a view; applied twice it gives k back."""
    return k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)


def _bias_grad(g: np.ndarray) -> np.ndarray:
    return g.sum(axis=(0, 2, 3))


def _transposed_grads(x: np.ndarray, w: Tensor, k: np.ndarray, stride: int, pad):
    """Maps for x, w and b of the transpose of correlating with kernel k at
    ``stride`` and ``pad``: k is w or ``_swap(w)``, and x is the op's input
    array.

    Both gradients read the patch matrices G_n of the padded output
    gradient: dx_n is ``k @ G_n`` and k's gradient the sum over n of
    ``x_n @ G_n^T``, taken as the transpose of the sum of ``G_n @ x_n^T``.
    The x map runs first (`_result` runs maps in input order) and, when w
    takes a gradient, takes both from each G_n in one `_patch_products`
    and keeps k's; the w map takes that or else unfolds g itself, so g is
    unfolded once and no G_n outlives the op's backward.
    """
    kh, kw = k.shape[2:]
    right = x if w.requires_grad else None  # read at record time, as `_result` does
    held = []

    def dx(g):
        d, dk = _patch_products(g, kh, kw, stride, pad, k.reshape(k.shape[0], -1), right)
        held.append(dk)  # None where w takes no gradient, so the w map never runs
        return d

    swapped = k is not w.data

    def dk(g):
        d = held.pop() if held else _patch_products(g, kh, kw, stride, pad, right=x)[1]
        if not swapped:
            return d.T.reshape(k.shape)
        # _swap of k's gradient d.T.reshape(k.shape), in one layout copy
        return np.ascontiguousarray(d.reshape(k.shape[1], kh, kw, -1)[:, ::-1, ::-1]
                                    .transpose(0, 3, 1, 2))

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
    return _result(y, (x, w, b), tape, tape and _conv_grads(x.data, w, stride, pad))


def _conv_grads(x: np.ndarray, w: Tensor, stride: int, pad):
    """`conv2d`'s gradient maps for x, w and b: at stride 1 those of the
    transposed correlation with ``_swap(w)`` at padding k-1-p, the weight's
    swapped back; at stride 2, the stacked-phase `_adjoint_corr2d` of g and
    the weight gradient of g against the patch matrices of the padded x,
    one sample at a time (`_patch_products`)."""
    kh, kw = w.shape[2:]
    ph, pw = pad
    if stride == 1:
        return _transposed_grads(x, w, _swap(w.data), 1, (kh - 1 - ph, kw - 1 - pw))

    def dw(g):
        return _patch_products(x, kh, kw, stride, pad, right=g)[1].T.reshape(w.shape)

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
    return _result(y, (x, w, b), tape,
                   tape and _transposed_grads(x.data, w, w.data, stride, pad))


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
    """Normalize each channel of x and apply bn's affine map, as one
    per-channel scale ``gamma * inv`` with ``inv = 1/sqrt(var + eps)``.

    Training takes the biased batch moments, centring x once:
    ``y = (x - mean) * scale + beta``, the variance summed from the centred
    input without a squared temporary; the moments are folded into the
    running estimates. Eval applies the running estimates as constants in
    two passes, ``y = x * scale + (beta - running_mean * scale)``. That fold
    adds two terms of size ``|running_mean| * scale`` that cancel, so it
    keeps the float precision only while ``|running_mean|`` is not much
    larger than ``sqrt(running_var + eps)``: y carries an absolute error of
    about ``eps_dtype * |gamma| * |running_mean| / sqrt(running_var + eps)``.

    On a tape, training computes the batch moments once per input value and
    keeps them in ``tape.moments``: a second batch norm over the same
    tensor reads the first's mean, variance and centred copy, and folds and
    scales them with its own statistics and parameters. An untaped call
    always computes them afresh.
    """
    if x.data.ndim != 4 or x.shape[1] != bn.channels:
        raise ValueError(
            f"batch_norm channel mismatch: input {x.shape} vs {bn.channels} channels"
        )
    gamma, beta = bn.gamma, bn.beta
    n, c, h, w = x.shape
    m = n * h * w
    c4 = (1, c, 1, 1)
    if training:
        if m == 1:
            raise ValueError("batch_norm in training mode needs more than one value per channel")
        moments = None if tape is None else tape.moments.get(x.slot)
        if moments is None:
            mean = np.add.reduce(x.data, (0, 2, 3)) / m
            xc = x.data - mean.reshape(c4)
            moments = mean, np.einsum("nchw,nchw->c", xc, xc) / m, xc
            if tape is not None:
                tape.moments[x.slot] = moments
        mean, var, xc = moments
        mom = bn.momentum
        bn.running_mean += mom * (mean - bn.running_mean)
        bn.running_var += mom * (var - bn.running_var)
    else:
        mean, var = bn.running_mean, bn.running_var
    inv = 1.0 / np.sqrt(var + bn.eps)
    scale = gamma.data * inv
    if training:
        y = xc * scale.reshape(c4)
        y += beta.data.reshape(c4)
    else:
        y = x.data * scale.reshape(c4)
        y += (beta.data - mean * scale).reshape(c4)
        xc = None if tape is None else x.data - mean.reshape(c4)  # for gamma's gradient
    return _result(y, (x, gamma, beta), tape,
                   tape and _batch_norm_grads(xc, inv, scale, m, training))


def _batch_norm_grads(xc, inv, scale, m: int, training: bool):
    """`batch_norm`'s gradient maps for x, gamma and beta, from the centred input."""
    c4 = (1, inv.size, 1, 1)
    sums = []  # per-channel sums of g and g * xc, both taken by the first map that runs

    def reduced(g):
        if not sums:
            sums.extend((np.add.reduce(g, (0, 2, 3)), np.einsum("nchw,nchw->c", g, xc)))
        return sums

    def dx(g):
        if not training:
            return g * scale.reshape(c4)
        # the batch-moment input gradient g*a - xc*b - c, with per-channel
        # a = scale, b = scale * inv**2 * sum(g*xc) / m, c = scale * sum(g) / m
        gsum, gxc = reduced(g)
        d = g * scale.reshape(c4)
        d -= xc * (scale * inv * inv * gxc / m).reshape(c4)
        d -= (scale * gsum / m).reshape(c4)
        return d

    return dx, lambda g: reduced(g)[1] * inv, lambda g: reduced(g)[0]


# ---------------------------------------------------------------------------
# elementwise and shape ops
# ---------------------------------------------------------------------------


def relu(x: Tensor, tape: Tape | None = None) -> Tensor:
    # the gradient at exactly 0 is 0. y > 0 is the mask x > 0 (y is x where
    # x > 0 and 0 or NaN elsewhere), so the map reads y and x can die
    y = np.maximum(x.data, 0)
    return _result(y, (x,), tape, tape and (lambda g: g * (y > 0),))


def add(a: Tensor, b: Tensor, tape: Tape | None = None) -> Tensor:
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    return _result(a.data + b.data, (a, b), tape, tape and (lambda g: g, lambda g: g.copy()))


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

    The gradient is rounded once to the logits' dtype, and every entry
    that is then subnormal in that dtype (smaller in magnitude than
    ``np.finfo(dtype).tiny``) is set to zero; every other entry keeps its
    bits. The entry of a confident pixel's other class, its softmax
    over the count of labelled pixels, underflows float32 once the logit
    gap passes about 87.3 - ln(count) (77.6 at 16,384 pixels), and the
    backward products would pay a slow assist on each such operand (see
    the module docstring for what the flush may change).
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
        dz *= g
        # rounded once to the logits' dtype, with the bits of adding dz into
        # a zeroed slot: +0.0 turns -0.0 into 0.0 as the zeros did. The
        # dtype comes from ez so that the map does not hold the logits
        dz = np.add(dz, 0.0, dtype=ez.dtype, casting="same_kind")
        dz[np.abs(dz) < np.finfo(dz.dtype).tiny] = 0  # subnormals flushed
        return dz

    return _result(np.asarray(loss, dtype=z.dtype), (logits,), tape, tape and (dlogits,))
