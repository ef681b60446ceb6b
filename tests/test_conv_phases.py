"""Property tests of the stacked-phase adjoint correlation behind every
transposed convolution and every stride-2 convolution input gradient, of
the transposed-correlation identity behind the stride-1 conv backward, of
the conv gradients that share one patch matrix of the output gradient, of
the weight gradients taken with the patch matrix on the left, and of the
lowering that builds one sample's patch matrix at a time."""

import itertools
import tracemalloc
import weakref
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from gridseg import ConvParams, Tape, Tensor, backward, conv2d, deconv2d_up, ops
from gridseg.ops import _adjoint_corr2d, _corr2d, _pad2d, _result, _swap, _window


def adjoint_zero_insert(x, w, stride, padding, out_hw):
    """Reference: zero-insert x by the stride, pad so the result lands on
    out_hw, and correlate with the flipped, channel-swapped kernel."""
    n, co, h, w_in = x.shape
    _, ci, kh, kw = w.shape
    oh, ow = out_hw
    dil_h = (h - 1) * stride + 1
    dil_w = (w_in - 1) * stride + 1
    pl_h = kh - 1 - padding[0]
    pl_w = kw - 1 - padding[1]
    pr_h = oh + kh - 1 - pl_h - dil_h
    pr_w = ow + kw - 1 - pl_w - dil_w
    buf = np.zeros((n, co, pl_h + dil_h + pr_h, pl_w + dil_w + pr_w))
    buf[:, :, pl_h : pl_h + dil_h : stride, pl_w : pl_w + dil_w : stride] = x
    wrot = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    patches = sliding_window_view(buf, (kh, kw), axis=(2, 3))
    return np.einsum("ncijab,dcab->ndij", patches, wrot)


def phases(n_out, k, stride, pad):
    """Per output phase along one axis: (r, o0, lo, hi). Outputs o0,
    o0 + stride, ... < n_out take the taps r, r + stride, ... < k, and are
    the stride-1 correlation of input rows lo..hi-1 with those taps
    reversed."""
    for r in range(stride):
        taps = len(range(r, k, stride))
        o0 = (r - pad) % stride
        count = len(range(o0, n_out, stride))
        if taps and count:
            q0 = (o0 + pad - r) // stride
            yield r, o0, q0 - taps + 1, q0 + count


def adjoint_per_phase(x, w, stride, padding, out_hw):
    """Reference: one correlation per output phase (rh, rw), of its own
    window of x with the flipped, channel-swapped sub-kernel
    ``w[:, :, rh::s, rw::s]``. The sub-kernel is stored transposed, as
    `_adjoint_corr2d` stores its super-kernel, so both run the same BLAS
    GEMM. Also says whether some phase's product had one row or one
    column, which numpy runs as a matrix-vector product instead."""
    n, ci = x.shape[0], w.shape[1]
    y = np.zeros((n, ci, *out_hw), dtype=np.result_type(x.dtype, w.dtype))
    gemv = False
    for rh, o0h, h0, h1 in phases(out_hw[0], w.shape[2], stride, padding[0]):
        for rw, o0w, w0, w1 in phases(out_hw[1], w.shape[3], stride, padding[1]):
            sub = _swap(w[:, :, rh::stride, rw::stride])
            k = np.ascontiguousarray(sub.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
            out = _corr2d(_window(x, h0, h1, w0, w1), k, 1, (0, 0))
            gemv |= min(ci, out.shape[2] * out.shape[3]) == 1
            y[:, :, o0h::stride, o0w::stride] = out
    return y, gemv


@st.composite
def adjoint_cases(draw, max_n=3):
    """Conv geometry plus a deconv input x of up to max_n samples and the
    conv input size it maps back to; stride 2 draws both output paddings."""
    k = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    pad = (draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1)))
    side = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    opad = (draw(st.integers(0, stride - 1)), draw(st.integers(0, stride - 1)))
    out_hw = tuple((s - 1) * stride - 2 * p + k + o for s, p, o in zip(side, pad, opad))
    assume(min(out_hw) >= 1)
    n = draw(st.integers(1, max_n))
    co, ci = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, co, *side))
    w = rng.normal(size=(co, ci, k, k))
    return x, w, stride, pad, out_hw


@settings(max_examples=300, deadline=None)
@given(adjoint_cases())
def test_matches_zero_insert_reference(case):
    x, w, stride, pad, out_hw = case
    got = _adjoint_corr2d(x, w, stride, pad, out_hw)
    want = adjoint_zero_insert(x, w, stride, pad, out_hw)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want), initial=0.0) < 1e-12


@settings(max_examples=300, deadline=None)
@given(adjoint_cases())
def test_repeat_calls_bitwise_equal(case):
    x, w, stride, pad, out_hw = case
    a = _adjoint_corr2d(x, w, stride, pad, out_hw)
    b = _adjoint_corr2d(x.copy(), w.copy(), stride, pad, out_hw)
    assert a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(adjoint_cases(), st.sampled_from([np.float64, np.float32]))
def test_stacked_phases_bitwise_equal_per_phase_loop(case, dtype):
    """The super-kernel's zero slots add exact zeros and a GEMM adds each
    output's products in K order, so the one stacked product gives the
    per-phase loop's bits. A matrix-vector product groups its sums
    otherwise; where the loop ran one, the two agree to rounding."""
    x, w, stride, pad, out_hw = case
    x, w = x.astype(dtype), w.astype(dtype)
    got = _adjoint_corr2d(x, w, stride, pad, out_hw)
    want, gemv = adjoint_per_phase(x, w, stride, pad, out_hw)
    assert got.dtype == dtype and got.shape == want.shape
    if gemv:
        tol = 1e-5 if dtype == np.float32 else 1e-12
        np.testing.assert_allclose(got, want, rtol=tol, atol=tol)
    else:
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("up", [False, True])
def test_adjoint_unfolds_its_input_once(monkeypatch, up):
    """A deconv forward and a stride-2 conv's input gradient each run one
    `_adjoint_corr2d`, which unfolds its window of x once for all phases."""
    real_unfold, real_adjoint = ops._unfold, ops._adjoint_corr2d
    open_calls, per_call = [], []

    def unfold(*args):
        if open_calls:
            open_calls[-1] += 1
        return real_unfold(*args)

    def adjoint(*args):
        open_calls.append(0)
        try:
            return real_adjoint(*args)
        finally:
            per_call.append(open_calls.pop())

    monkeypatch.setattr(ops, "_unfold", unfold)
    monkeypatch.setattr(ops, "_adjoint_corr2d", adjoint)
    rng = np.random.default_rng(8)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=True)
    if up:
        params = ConvParams(w, Tensor(np.zeros(2)), stride=2, padding=(1, 1))
        deconv2d_up(Tensor(rng.normal(size=(2, 3, 4, 4))), params, (8, 8))
    else:
        params = ConvParams(w, Tensor(np.zeros(3)), stride=2, padding=(1, 1))
        x = Tensor(rng.normal(size=(2, 2, 8, 8)), requires_grad=True)
        tape = Tape()
        y = conv2d(x, params, tape)
        pull_back(tape, y, rng.normal(size=y.shape))
        assert x.grad is not None and w.grad is not None
    assert per_call == [1]


@settings(max_examples=200, deadline=None)
@given(adjoint_cases().filter(lambda case: case[2] == 2))
def test_deconv_is_adjoint_of_conv(case):
    """<conv2d(u), y> == <u, deconv2d_up(y)> with one shared weight."""
    y, w, stride, pad, out_hw = case
    co, ci = w.shape[:2]
    down = ConvParams(Tensor(w), Tensor(np.zeros(co)), stride=stride, padding=pad)
    up = ConvParams(Tensor(w), Tensor(np.zeros(ci)), stride=stride, padding=pad)
    u = np.random.default_rng(y.size).normal(size=(y.shape[0], ci, *out_hw))
    au = conv2d(Tensor(u), down).data
    assert au.shape == y.shape
    lhs = float((au * y).sum())
    rhs = float((u * deconv2d_up(Tensor(y), up, out_hw).data).sum())
    assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-10


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_output_padding_outside_the_stride_is_unreachable(data):
    """A target whose implied output padding leaves [0, stride) on either
    axis is one that no conv with this geometry maps back to x's size."""
    k = data.draw(st.sampled_from([1, 3]))
    stride = data.draw(st.sampled_from([1, 2]))
    pad = (data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1)))
    side = (data.draw(st.integers(1, 9)), data.draw(st.integers(1, 9)))
    opad = (data.draw(st.integers(-3, stride + 2)), data.draw(st.integers(-3, stride + 2)))
    assume(not all(0 <= o < stride for o in opad))
    out_hw = tuple((s - 1) * stride - 2 * p + k + o for s, p, o in zip(side, pad, opad))
    assume(min(out_hw) >= 1)
    with pytest.raises(ValueError, match="unreachable"):
        _adjoint_corr2d(np.zeros((1, 2, *side)), np.zeros((2, 1, k, k)), stride, pad, out_hw)


def super_kernel_loop(w, s, rhs, rws):
    """Reference: the stacked super-kernel (co, th, tw, phase, ci) filled
    one phase at a time, each flipped, channel-swapped sub-kernel set into
    the trailing corner of its slot."""
    co, ci, kh, kw = w.shape
    th, tw = -(-kh // s), -(-kw // s)
    kern = np.zeros((co, th, tw, len(rhs) * len(rws), ci), dtype=w.dtype)
    for i, (rh, rw) in enumerate(itertools.product(rhs, rws)):
        sub = _swap(w[:, :, rh::s, rw::s]).transpose(1, 2, 3, 0)
        kern[:, th - sub.shape[1]:, tw - sub.shape[2]:, i] = sub
    return kern


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_super_kernel_bitwise_equal_per_phase_loop(data):
    """The one gather through the cached slot table gives the per-phase
    loop's super-kernel, every slot and its zeros, for any kernel, stride
    and set of live phases."""
    kh, kw = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 5))
    s = data.draw(st.integers(1, 3))
    rhs = data.draw(st.lists(st.integers(0, min(s, kh) - 1), min_size=1, unique=True).map(sorted))
    rws = data.draw(st.lists(st.integers(0, min(s, kw) - 1), min_size=1, unique=True).map(sorted))
    co, ci = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    dtype = data.draw(st.sampled_from([np.float32, np.float64]))
    w = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(
        size=(co, ci, kh, kw)).astype(dtype)
    got = ops._super_kernel(w, s, tuple(rhs), tuple(rws))
    want = super_kernel_loop(w, s, rhs, rws)
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not ops._slot_table(kh, kw, s, tuple(rhs), tuple(rws)).flags.writeable


class Poisoned:
    """Stands in for numpy in `ops`: ``np.empty`` returns NaN-filled
    arrays, so a result that reads a slot nobody wrote shows it. Records
    the shape of each ``empty`` and ``zeros`` call."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, dtype=float):
        self.calls.append(("empty", tuple(np.atleast_1d(shape))))
        return np.full(shape, np.nan, dtype)

    def zeros(self, shape, dtype=float):
        self.calls.append(("zeros", tuple(np.atleast_1d(shape))))
        return np.zeros(shape, dtype)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_adjoint_output_is_empty_only_where_the_phases_tile_it(data):
    """`_adjoint_corr2d` allocates its output with ``np.empty`` where every
    kernel side is at least the stride, so every output phase has taps, and
    with ``np.zeros`` where one is below it (a 1x1 kernel at stride 2):
    with ``np.empty`` poisoned, the bits do not change."""
    k = data.draw(st.integers(1, 4))
    s = data.draw(st.integers(1, 3))
    pad = (data.draw(st.integers(0, k - 1)), data.draw(st.integers(0, k - 1)))
    side = (data.draw(st.integers(1, 7)), data.draw(st.integers(1, 7)))
    opad = (data.draw(st.integers(0, s - 1)), data.draw(st.integers(0, s - 1)))
    out_hw = tuple((d - 1) * s - 2 * p + k + o for d, p, o in zip(side, pad, opad))
    assume(min(out_hw) >= 1)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n, co, ci = (data.draw(st.integers(1, 3)) for _ in range(3))
    x, w = rng.normal(size=(n, co, *side)), rng.normal(size=(co, ci, k, k))
    want = _adjoint_corr2d(x, w, s, pad, out_hw)
    poisoned = Poisoned()
    with mock.patch.object(ops, "np", poisoned):
        got = _adjoint_corr2d(x, w, s, pad, out_hw)
    assert got.tobytes() == want.tobytes()
    assert np.max(np.abs(got - adjoint_zero_insert(x, w, s, pad, out_hw)), initial=0.0) < 1e-12
    allocs = [kind for kind, shape in poisoned.calls if shape == (n, ci, *out_hw)]
    assert allocs[-1] == ("empty" if k >= s else "zeros")


# ---------------------------------------------------------------------------
# gradients over one patch matrix of the output gradient
# ---------------------------------------------------------------------------


def patch_matrix(a, kh, kw, stride, padding):
    """Reference im2col: (n, c*kh*kw, oh*ow) patches of zero-padded a."""
    ph, pw = padding
    ap = np.pad(a, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    v = sliding_window_view(ap, (kh, kw), axis=(2, 3))[:, :, ::stride, ::stride]
    n, c, oh, ow = v.shape[:4]
    return v.transpose(0, 1, 4, 5, 2, 3).reshape(n, c * kh * kw, oh * ow)


def two_matrix_conv_grads(u, w, g, stride, pad):
    """conv2d's (du, dw, db) at input u for output gradient g, the input
    gradient from the zero-inserted g and dw from a patch matrix of u."""
    n, co = g.shape[:2]
    k = w.shape[2:]
    du = adjoint_zero_insert(g, w, stride, pad, u.shape[2:])
    cols = patch_matrix(u, *k, stride, pad)
    dw = np.matmul(g.reshape(n, co, -1), cols.transpose(0, 2, 1)).sum(axis=0)
    return du, dw.reshape(w.shape), g.sum(axis=(0, 2, 3))


def two_matrix_deconv_grads(x, w, g, pad):
    """deconv2d_up's (dx, dw, db) at input x for output gradient g, each of
    dx and dw building its own patch matrix of g."""
    n, co = x.shape[:2]
    k = w.shape[2:]
    dx = np.matmul(w.reshape(co, -1), patch_matrix(g, *k, 2, pad)).reshape(x.shape)
    dw = np.matmul(x.reshape(n, co, -1), patch_matrix(g, *k, 2, pad).transpose(0, 2, 1))
    return dx, dw.sum(axis=0).reshape(w.shape), g.sum(axis=(0, 2, 3))


def pull_back(tape, y, g):
    """Run backward from the loss <y, g>, whose gradient at y is g."""
    loss = _result(np.asarray(float((y.data * g).sum()), y.dtype), (y,), tape,
                   (lambda _: g.copy(),))
    backward(tape, loss)


def op_grads(op, x, w, g, stride, pad):
    """(dx, dw, db) of ``op(x, params, tape)`` for output gradient g."""
    params = ConvParams(Tensor(w, requires_grad=True),
                        Tensor(np.zeros(g.shape[1], w.dtype), requires_grad=True),
                        stride=stride, padding=pad)
    x = Tensor(x, requires_grad=True)
    tape = Tape()
    y = op(x, params, tape)
    assert y.shape == g.shape
    pull_back(tape, y, g)
    return x.grad, params.weight.grad, params.bias.grad


@settings(max_examples=300, deadline=None)
@given(adjoint_cases())
def test_conv_grads_match_two_patch_matrices(case):
    """A case's deconv input is the conv's output gradient."""
    g, w, stride, pad, out_hw = case
    u = np.random.default_rng(g.size).normal(size=(g.shape[0], w.shape[1], *out_hw))
    got = op_grads(conv2d, u, w, g, stride, pad)
    for a, b in zip(got, two_matrix_conv_grads(u, w, g, stride, pad)):
        assert a.shape == b.shape
        assert np.max(np.abs(a - b), initial=0.0) < 1e-12


@settings(max_examples=300, deadline=None)
@given(adjoint_cases().filter(lambda case: case[2] == 2), st.sampled_from([np.float64, np.float32]))
def test_deconv_grads_bitwise_equal_two_patch_matrices(case, dtype):
    x, w, stride, pad, out_hw = case
    x, w = x.astype(dtype), w.astype(dtype)
    g = np.random.default_rng(x.size).normal(size=(x.shape[0], w.shape[1], *out_hw)).astype(dtype)
    got = op_grads(lambda x, p, tape: deconv2d_up(x, p, out_hw, tape), x, w, g, 2, pad)
    for a, b in zip(got, two_matrix_deconv_grads(x, w, g, pad)):
        assert a.dtype == dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None)
@given(adjoint_cases(), st.sampled_from([np.float64, np.float32]))
def test_input_grad_is_a_correlation_of_g(case, dtype):
    """A stride-1 conv is the transpose of correlating with ``_swap(w)`` at
    padding k-1-p, and a transposed conv that of correlating with w at
    stride 2 and padding p: each op's input gradient is that correlation
    of its output gradient, bit for bit."""
    x, w, stride, pad, out_hw = case
    x, w = x.astype(dtype), w.astype(dtype)
    # x is a conv's output gradient and a deconv's input; z is sized for the
    # conv's input and the deconv's output gradient
    z = np.random.default_rng(x.size).normal(size=(x.shape[0], w.shape[1], *out_hw)).astype(dtype)
    if stride == 1:
        k = w.shape[2]
        got = op_grads(conv2d, z, w, x, 1, pad)[0]
        want = _corr2d(x, _swap(w), 1, (k - 1 - pad[0], k - 1 - pad[1]))
    else:
        got = op_grads(lambda x, p, tape: deconv2d_up(x, p, out_hw, tape), x, w, z, 2, pad)[0]
        want = _corr2d(z, w, 2, pad)
    assert got.dtype == dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("up", [False, True])
@pytest.mark.parametrize("x_grad,w_grad", [(True, True), (True, False), (False, True)])
def test_backward_builds_one_patch_matrix_of_g_and_keeps_none(monkeypatch, up, x_grad, w_grad):
    """One backward unfolds g once, not x, and its patch matrices are freed
    before backward returns although the tape that recorded the op lives on."""
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=w_grad)
    b = Tensor(np.zeros(3 - up), requires_grad=True)
    params = ConvParams(w, b, stride=1 + up, padding=(1, 1))
    x = Tensor(rng.normal(size=(2, 3 if up else 2, 3 if up else 6, 3 if up else 6)),
               requires_grad=x_grad)
    tape = Tape()
    y = deconv2d_up(x, params, (6, 6), tape) if up else conv2d(x, params, tape)
    real, built, refs = ops._unfold, [], []

    def spy(a, *args):
        built.append(a.shape[1])
        oh, ow, cols = real(a, *args)
        if isinstance(cols, np.ndarray):
            refs.append(weakref.ref(cols))
            return oh, ow, cols

        def watched():
            for p in cols:
                refs.append(weakref.ref(p))
                yield p

        return oh, ow, watched()

    monkeypatch.setattr(ops, "_unfold", spy)
    pull_back(tape, y, rng.normal(size=y.shape))
    assert built == [y.shape[1]] and y.shape[1] != x.shape[1]
    assert refs and [ref() for ref in refs] == [None] * len(refs)
    assert (x.grad is not None, w.grad is not None) == (x_grad, w_grad)


def weight_grad_patch_matrix_right(a, cols, shape):
    """The sum over n of ``a_n @ cols_n^T``, the patch matrix on the right."""
    d = np.matmul(a.reshape(*a.shape[:2], -1), cols.transpose(0, 2, 1))
    return d.sum(axis=0).reshape(shape)


@settings(max_examples=300, deadline=None)
@given(adjoint_cases(), st.sampled_from([np.float64, np.float32]))
def test_weight_grads_bitwise_equal_patch_matrix_on_the_right(case, dtype):
    """Weight gradients are taken as the transpose of the sum of
    ``cols_n @ a_n^T``: the same products added in the same order, so a
    stride-1 conv, a stride-2 conv and a deconv each get the bits of the
    sum of ``a_n @ cols_n^T``."""
    x, w, stride, pad, out_hw = case
    x, w = x.astype(dtype), w.astype(dtype)
    co, ci, k = *w.shape[:2], w.shape[2]
    # x is a conv's output gradient and a deconv's input; z is sized for the
    # conv's input and the deconv's output gradient
    z = np.random.default_rng(x.size).normal(size=(x.shape[0], ci, *out_hw)).astype(dtype)
    got = [op_grads(conv2d, z, w, x, stride, pad)[1]]
    if stride == 1:
        q = (k - 1 - pad[0], k - 1 - pad[1])
        want = _swap(weight_grad_patch_matrix_right(z, patch_matrix(x, k, k, 1, q),
                                                    (ci, co, k, k)))
    else:
        # a stride-2 conv's weight gradient at input z and output gradient x
        # is the deconv's at input x and output gradient z
        want = weight_grad_patch_matrix_right(x, patch_matrix(z, k, k, 2, pad), w.shape)
        got.append(op_grads(lambda x, p, tape: deconv2d_up(x, p, out_hw, tape), x, w, z, 2,
                            pad)[1])
    for a in got:
        assert a.dtype == dtype and a.shape == want.shape
        assert a.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# one patch matrix per sample
# ---------------------------------------------------------------------------


def window_view(a, kh, kw, stride):
    """The (n, c, kh, kw, oh, ow) strided window view of a."""
    n, c, h, w = a.shape
    oh, ow = (h - kh) // stride + 1, (w - kw) // stride + 1
    sn, sc, sr, scl = a.strides
    return as_strided(a, (n, c, kh, kw, oh, ow), (sn, sc, sr, scl, sr * stride, scl * stride),
                      writeable=False)


def im2col(a, kh, kw, stride):
    """Whole-batch unfold: the (n, c*kh*kw, oh*ow) patch matrices of a from
    one reshape of its strided window view (a view where numpy can give
    one, else a copy of the whole batch), plus (oh, ow)."""
    view = window_view(a, kh, kw, stride)
    n, c, _, _, oh, ow = view.shape
    return view.reshape(n, c * kh * kw, oh * ow), oh, ow


def whole_batch_unfold(a, kh, kw, stride, pad):
    """`ops._unfold` with the whole padded batch unfolded at once; the
    padded batch lives as long as the patch matrices, as in a lowering that
    pads the batch before unfolding it."""
    padded = _pad2d(a, *pad)
    cols, oh, ow = im2col(padded, kh, kw, stride)
    weakref.finalize(cols, len, padded)
    return oh, ow, cols


def padded_batch_unfold(a, kh, kw, stride, pad):
    """`ops._unfold` copying each sample's patch matrix in turn from the
    window view of the whole padded batch, which stays alive meanwhile."""
    view = window_view(_pad2d(a, *pad), kh, kw, stride)
    n, c, _, _, oh, ow = view.shape
    return oh, ow, ops._samples(view, (c * kh * kw, oh * ow))


def corr2d_whole_batch(x, w, stride, padding):
    """Correlation as one batched ``np.matmul`` over the whole-batch unfold."""
    co, _, kh, kw = w.shape
    cols, oh, ow = im2col(_pad2d(x, *padding), kh, kw, stride)
    return np.matmul(w.reshape(co, -1), cols).reshape(x.shape[0], co, oh, ow)


def weight_grad_whole_batch(a, cols, shape):
    """The transpose of ``(cols_n @ a_n^T).sum(axis=0)``, batched over n."""
    d = np.matmul(cols, a.reshape(*a.shape[:2], -1).transpose(0, 2, 1))
    return d.sum(axis=0).T.reshape(shape)


def adjoint_whole_batch(x, w, stride, padding, out_hw):
    with mock.patch.object(ops, "_corr2d", corr2d_whole_batch):
        return _adjoint_corr2d(x, w, stride, padding, out_hw)


def conv_whole_batch(u, w, b, g, stride, pad):
    """conv2d's output at input u and its (du, dw, db) for output gradient
    g, each patch matrix built for the whole batch."""
    kh, kw = w.shape[2:]
    y = corr2d_whole_batch(u, w, stride, pad) + b.reshape(1, -1, 1, 1)
    if stride == 1:
        k = _swap(w)
        cols = im2col(_pad2d(g, kh - 1 - pad[0], kw - 1 - pad[1]), kh, kw, 1)[0]
        du = np.matmul(k.reshape(k.shape[0], -1), cols).reshape(u.shape)
        dw = np.ascontiguousarray(_swap(weight_grad_whole_batch(u, cols, k.shape)))
    else:
        du = adjoint_whole_batch(g, w, 2, pad, u.shape[2:])
        dw = weight_grad_whole_batch(g, im2col(_pad2d(u, *pad), kh, kw, 2)[0], w.shape)
    return y, du, dw, g.sum(axis=(0, 2, 3))


def deconv_whole_batch(x, w, b, g, pad):
    """deconv2d_up's output and (dx, dw, db), as `conv_whole_batch`."""
    kh, kw = w.shape[2:]
    y = adjoint_whole_batch(x, w, 2, pad, g.shape[2:]) + b.reshape(1, -1, 1, 1)
    cols = im2col(_pad2d(g, *pad), kh, kw, 2)[0]
    dx = np.matmul(w.reshape(w.shape[0], -1), cols).reshape(x.shape)
    return y, dx, weight_grad_whole_batch(x, cols, w.shape), g.sum(axis=(0, 2, 3))


def op_outputs(op, x, w, b, g, stride, pad):
    """``op(x, params, tape)``'s output and (dx, dw, db) for output gradient g."""
    params = ConvParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True),
                        stride=stride, padding=pad)
    x = Tensor(x, requires_grad=True)
    tape = Tape()
    y = op(x, params, tape)
    pull_back(tape, y, g)
    return y.data, x.grad, params.weight.grad, params.bias.grad


def fixed_case(x_shape, w_shape, stride, pad, out_hw):
    rng = np.random.default_rng(19)
    return rng.normal(size=x_shape), rng.normal(size=w_shape), stride, pad, out_hw


@settings(max_examples=300, deadline=None)
@given(case=adjoint_cases(max_n=4), dtype=st.sampled_from([np.float64, np.float32]))
# single-row and single-column outputs, whose window views reshape without a copy
@example(case=fixed_case((1, 1, 1, 2), (1, 1, 1, 1), 2, (0, 0), (1, 3)), dtype=np.float32)
@example(case=fixed_case((3, 2, 1, 3), (2, 3, 1, 1), 2, (0, 0), (1, 5)), dtype=np.float32)
@example(case=fixed_case((4, 2, 3, 1), (2, 2, 1, 1), 2, (0, 0), (5, 1)), dtype=np.float64)
@example(case=fixed_case((2, 3, 1, 1), (3, 2, 3, 3), 1, (1, 1), (1, 1)), dtype=np.float32)
def test_ops_bitwise_equal_whole_batch_lowering(case, dtype):
    """conv2d and deconv2d_up, forward and every gradient, give the bits of
    the whole-batch lowering: one patch matrix per sample hands each
    sample's product the operand a batched ``np.matmul`` would."""
    x, w, stride, pad, out_hw = case
    x, w = x.astype(dtype), w.astype(dtype)
    co, ci = w.shape[:2]
    rng = np.random.default_rng(x.size)
    # x is a conv's output gradient and a deconv's input; u is sized for the
    # conv's input and the deconv's output gradient
    u = rng.normal(size=(x.shape[0], ci, *out_hw)).astype(dtype)
    b_down, b_up = rng.normal(size=co).astype(dtype), rng.normal(size=ci).astype(dtype)
    runs = [(op_outputs(conv2d, u, w, b_down, x, stride, pad),
             conv_whole_batch(u, w, b_down, x, stride, pad))]
    if stride == 2:
        up = lambda x, p, tape: deconv2d_up(x, p, out_hw, tape)  # noqa: E731
        runs.append((op_outputs(up, x, w, b_up, u, 2, pad), deconv_whole_batch(x, w, b_up, u, pad)))
    for got, want in runs:
        for a, b in zip(got, want):
            assert a.dtype == dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@settings(max_examples=200, deadline=None)
@given(case=adjoint_cases(max_n=4), dtype=st.sampled_from([np.float64, np.float32]),
       budget=st.sampled_from([0, 1 << 60]))
@example(case=fixed_case((3, 2, 1, 3), (2, 3, 1, 1), 2, (0, 0), (1, 5)), dtype=np.float32,
         budget=0)
@example(case=fixed_case((4, 3, 5, 5), (3, 2, 3, 3), 1, (1, 1), (5, 5)), dtype=np.float32,
         budget=1 << 60)
def test_ops_bitwise_equal_at_every_patch_budget(case, dtype, budget):
    """With ``PATCH_BYTES`` at 0, every batch of more than one sample is
    unfolded one sample at a time, and with a huge budget every batch at
    once: conv2d and deconv2d_up, forward and every gradient, give the bits
    of the whole-batch lowering either way, and ``np.empty`` poisoned with
    NaN changes none of them."""
    x, w, stride, pad, out_hw = case
    x, w = x.astype(dtype), w.astype(dtype)
    co, ci = w.shape[:2]
    rng = np.random.default_rng(x.size)
    u = rng.normal(size=(x.shape[0], ci, *out_hw)).astype(dtype)
    b_down, b_up = rng.normal(size=co).astype(dtype), rng.normal(size=ci).astype(dtype)
    up = lambda x, p, tape: deconv2d_up(x, p, out_hw, tape)  # noqa: E731
    wants = [conv_whole_batch(u, w, b_down, x, stride, pad)]
    if stride == 2:
        wants.append(deconv_whole_batch(x, w, b_up, u, pad))
    with mock.patch.object(ops, "PATCH_BYTES", budget), mock.patch.object(ops, "np", Poisoned()):
        gots = [op_outputs(conv2d, u, w, b_down, x, stride, pad)]
        if stride == 2:
            gots.append(op_outputs(up, x, w, b_up, u, 2, pad))
    for got, want in zip(gots, wants, strict=True):
        for a, b in zip(got, want, strict=True):
            assert a.dtype == dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()


@st.composite
def strided_arrays(draw):
    """A 4-D float array that is often not contiguous: a slice, with steps
    and offsets, of a larger array, its axes permuted or reversed."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    big = [draw(st.integers(1, 6)) for _ in range(4)]
    base = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=big).astype(dtype)
    if draw(st.booleans()):
        base = base.transpose(draw(st.permutations(range(4))))
    index = []
    for d in base.shape:
        start = draw(st.integers(0, d - 1))
        step = draw(st.sampled_from([1, 1, 2, -1]))
        index.append(slice(start, None, step) if step > 0 else slice(start, None, -1))
    return base[tuple(index)]


def foreign_strided(shape, dtype):
    """A non-contiguous array over a bytearray: no array in its chain of
    bases is contiguous."""
    n = int(np.prod(shape))
    buf = bytearray(np.random.default_rng(3).normal(size=2 * n).astype(dtype).tobytes())
    item = np.dtype(dtype).itemsize
    strides = tuple(2 * item * int(np.prod(shape[i + 1:])) for i in range(4))
    return np.ndarray(shape, dtype, buf, 0, strides)


@settings(max_examples=300, deadline=None)
@given(a=strided_arrays(), k=st.tuples(st.integers(1, 3), st.integers(1, 3)),
       stride=st.sampled_from([1, 2]))
def test_window_view_equals_as_strided(a, k, stride):
    """`_windows` builds the window view with ``np.ndarray`` over a's
    memory: the shape, strides and values ``as_strided`` gives, over the
    same memory, for contiguous and non-contiguous inputs alike. An input
    with no contiguous base is copied first."""
    kh, kw = k
    assume(a.shape[2] >= kh and a.shape[3] >= kw)
    want = window_view(a, kh, kw, stride)
    got = ops._windows(a, kh, kw, stride)
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()
    assert got.size == 0 or np.shares_memory(got, a)
    foreign = foreign_strided(a.shape, a.dtype)
    got = ops._windows(foreign, kh, kw, stride)
    assert got.tobytes() == window_view(foreign, kh, kw, stride).tobytes()


def test_in_bounds_adjoint_window_is_viewed_without_a_copy(monkeypatch):
    """The in-bounds window that `_adjoint_corr2d` unfolds for a 1x1
    kernel at stride 2, a slice of a non-contiguous input, reaches the
    patch matrix as a view of the input's memory."""
    x = np.random.default_rng(2).normal(size=(1, 5, 4, 6))[:, 1:4, :, 1:5]
    assert not x.flags.forc
    w = np.random.default_rng(3).normal(size=(3, 2, 1, 1))
    want = adjoint_per_phase(x, w, 2, (0, 0), (7, 7))[0]
    views = []
    real = ops._windows

    def spy(*args):
        views.append(real(*args))
        return views[-1]

    monkeypatch.setattr(ops, "_windows", spy)
    assert _adjoint_corr2d(x, w, 2, (0, 0), (7, 7)).tobytes() == want.tobytes()
    assert [np.shares_memory(v, x) for v in views] == [True]


@st.composite
def unfold_cases(draw):
    """An input, a kernel of side 1, 3 or 5 per axis and its stride and
    padding; half of them "same" stride-1 kernels. Single channels and
    single-row or single-column outputs are common."""
    kh, kw = draw(st.sampled_from([1, 3, 5])), draw(st.sampled_from([1, 3, 5]))
    if draw(st.booleans()):
        stride, pad = 1, ((kh - 1) // 2, (kw - 1) // 2)
    else:
        stride = draw(st.sampled_from([1, 2]))
        pad = (draw(st.integers(0, kh - 1)), draw(st.integers(0, kw - 1)))
    n, c = draw(st.integers(1, 4)), draw(st.sampled_from([1, 1, 2, 3]))
    h, w = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    assume(h + 2 * pad[0] >= kh and w + 2 * pad[1] >= kw)
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(n, c, h, w))
    return x.astype(dtype), kh, kw, stride, pad


def unfold_case(x_shape, k, dtype=np.float32):
    """A "same" stride-1 k x k case of `unfold_cases`."""
    x = np.random.default_rng(22).normal(size=x_shape).astype(dtype)
    return x, k, k, 1, ((k - 1) // 2, (k - 1) // 2)


@settings(max_examples=300, deadline=None)
@given(unfold_cases())
# out 4x1 with one channel, whose window view reshapes without a copy; and
# the row-wrapped copy at one column, one row and a 5x5 kernel wider than x
@example(unfold_case((2, 1, 4, 1), 3))
@example(unfold_case((2, 2, 4, 1), 3, np.float64))
@example(unfold_case((3, 2, 1, 4), 3))
@example(unfold_case((2, 3, 2, 1), 5))
@example(unfold_case((1, 2, 3, 3), 5, np.float64))
def test_unfold_hands_each_sample_what_the_batch_reshape_would(case):
    """`_unfold` gives the whole-batch reshape of the padded input itself
    where that reshape is a view, the batch holds one sample or its patch
    matrices fit in ``ops.PATCH_BYTES``. Otherwise it yields one buffer per
    sample in turn, holding the values, with the strides, of that sample's
    slice of the reshape's contiguous copy. A "same" stride-1 kernel larger
    than 1x1 copies from a row-wrapped frame and pads no batch unless it
    hands over the view. Each case runs at the default budget, which every
    case here fits, and at a budget of 0."""
    x, kh, kw, stride, pad = case
    a = _pad2d(x, *pad)
    want, oh, ow = im2col(a, kh, kw, stride)
    is_view = np.shares_memory(want, a)
    for budget in (ops.PATCH_BYTES, 0):
        padded = []

        def pad2d(*args):
            padded.append(_pad2d(*args))
            return padded[-1]

        with mock.patch.object(ops, "_pad2d", pad2d), mock.patch.object(ops, "PATCH_BYTES", budget):
            *hw, cols = ops._unfold(x, kh, kw, stride, pad)
        assert hw == [oh, ow]
        same = stride == 1 and kh * kw > 1 and (kh, kw) == (2 * pad[0] + 1, 2 * pad[1] + 1)
        assert (not padded) == (same and not is_view)
        if isinstance(cols, np.ndarray):
            assert is_view or x.shape[0] == 1 or want.nbytes <= budget
            assert is_view == (bool(padded) and np.shares_memory(cols, padded[-1]))
            assert cols.strides == want.strides and cols.tobytes() == want.tobytes()
            continue
        assert not is_view
        seen = []
        for i, p in enumerate(cols):
            assert p.strides == want[i].strides and p.tobytes() == want[i].tobytes()
            seen.append(p)
        assert len(seen) == x.shape[0] and all(p is seen[0] for p in seen)


@pytest.mark.skipif(np.lib.NumpyVersion(np.__version__) < "2.1.0",
                    reason="ndarray.reshape takes copy= from NumPy 2.1")
@settings(max_examples=500, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=6, max_size=6),
       st.lists(st.one_of(st.none(), st.integers(0, 12)), min_size=6, max_size=6))
def test_view_rule_agrees_with_numpy_reshape(dims, steps):
    """`ops._flattens` says whether a (n, c, kh, kw, oh, ow) array reshapes
    to (n, c*kh*kw, oh*ow) without a copy, as ``reshape(copy=False)`` does.
    A step drawn as None is the one that would merge its axis with the
    next (the last axis steps by 1)."""
    strides = [0] * 6
    for i in reversed(range(6)):
        contiguous = 1 if i == 5 else dims[i + 1] * strides[i + 1]
        strides[i] = contiguous if steps[i] is None else steps[i]
    base = np.zeros(1 + sum((d - 1) * s for d, s in zip(dims, strides) if d), np.float32)
    view = as_strided(base, dims, [4 * s for s in strides], writeable=False)
    shape = (dims[0], dims[1] * dims[2] * dims[3], dims[4] * dims[5])
    try:
        view.reshape(shape, copy=False)
        flat = True
    except ValueError:
        flat = False
    assert ops._flattens(view.shape, view.strides) == flat


def conv_peak(n, c, side):
    """The traced peak of a float32 3x3 "same" conv forward and backward at
    n samples of c channels and side x side pixels, above what it starts
    with."""
    rng = np.random.default_rng(4)
    x = Tensor(rng.normal(size=(n, c, side, side)).astype(np.float32), requires_grad=True)
    params = ConvParams(Tensor(rng.normal(size=(c, c, 3, 3)).astype(np.float32),
                               requires_grad=True),
                        Tensor(np.zeros(c, np.float32), requires_grad=True), padding=(1, 1))
    g = rng.normal(size=x.shape).astype(np.float32)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tape = Tape()
        pull_back(tape, conv2d(x, params, tape), g)
        assert x.grad is not None and params.weight.grad is not None
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_one_sample_patch_matrix_is_all_the_patch_storage_alive():
    """The traced peak of a conv forward and backward at n = 4 sits three
    samples' patch matrices below that of the whole-batch unfold. The
    per-sample path alone makes a few small Python objects (the sample
    loop's generator and array views, under 1 KiB here); 4 KiB is allowed
    for them."""
    n, c, side = 4, 8, 32
    patch = c * 3 * 3 * side * side * np.dtype(np.float32).itemsize
    ours = conv_peak(n, c, side)
    with mock.patch.object(ops, "_unfold", whole_batch_unfold):
        whole = conv_peak(n, c, side)
    assert whole - ours >= 3 * patch - 4096


def test_patch_storage_alive_follows_the_budget():
    """Patch matrices that exceed ``PATCH_BYTES`` are still built one
    sample at a time: the traced peak of a conv forward and backward equals
    that at a budget of 0. Ones that fit are built for the whole batch at
    once, which holds them all but no more than the budget: the peak rises
    by at most the budget, and by the other n - 1 samples' matrices less up
    to one output, which the per-sample path allocates before its sample
    loop and the whole-batch path after its copy. A few small Python
    objects differ between the two paths; 4 KiB is allowed for them."""
    n, c, side = 4, 8, 16
    out = n * c * side * side * np.dtype(np.float32).itemsize
    patch = 3 * 3 * out // n
    with mock.patch.object(ops, "PATCH_BYTES", 0):
        one = conv_peak(n, c, side)
    with mock.patch.object(ops, "PATCH_BYTES", n * patch - 1):
        over = conv_peak(n, c, side)
    with mock.patch.object(ops, "PATCH_BYTES", n * patch):
        under = conv_peak(n, c, side)
    assert abs(over - one) <= 4096
    assert (n - 1) * patch - out - 4096 <= under - one <= n * patch
    assert n * patch <= ops.PATCH_BYTES  # the default budget takes this whole batch


def test_stride_one_conv_frames_one_sample_at_a_time():
    """A "same" stride-1 conv's forward and backward hold one sample's
    row-wrapped frame, not the padded batch, through the sample loop: the
    traced peak sits at least n - 1 padded samples below that of padding
    the whole batch before copying each sample's patch matrix."""
    n, c, side = 4, 8, 32
    padded = c * (side + 2) ** 2 * np.dtype(np.float32).itemsize
    ours = conv_peak(n, c, side)
    with mock.patch.object(ops, "_unfold", padded_batch_unfold):
        whole = conv_peak(n, c, side)
    assert whole - ours >= (n - 1) * padded
