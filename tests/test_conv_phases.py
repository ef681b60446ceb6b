"""Property tests of the stacked-phase adjoint correlation behind every
transposed convolution and every stride-2 convolution input gradient, of
the transposed-correlation identity behind the stride-1 conv backward, of
the conv gradients that share one patch matrix of the output gradient, and
of the weight gradients taken with the patch matrix on the left."""

import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from gridseg import ConvParams, Tape, Tensor, backward, conv2d, deconv2d_up, ops
from gridseg.ops import _adjoint_corr2d, _corr2d, _result, _swap, _window


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
def adjoint_cases(draw):
    """Conv geometry plus a deconv input x and the conv input size it
    maps back to; stride 2 draws both output paddings."""
    k = draw(st.sampled_from([1, 3]))
    stride = draw(st.sampled_from([1, 2]))
    pad = (draw(st.integers(0, k - 1)), draw(st.integers(0, k - 1)))
    side = (draw(st.integers(1, 9)), draw(st.integers(1, 9)))
    opad = (draw(st.integers(0, stride - 1)), draw(st.integers(0, stride - 1)))
    out_hw = tuple((s - 1) * stride - 2 * p + k + o for s, p, o in zip(side, pad, opad))
    assume(min(out_hw) >= 1)
    n = draw(st.integers(1, 3))
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
    `_adjoint_corr2d`, which builds one patch matrix for all phases."""
    real_im2col, real_adjoint = ops._im2col, ops._adjoint_corr2d
    open_calls, per_call = [], []

    def im2col(*args):
        if open_calls:
            open_calls[-1] += 1
        return real_im2col(*args)

    def adjoint(*args):
        open_calls.append(0)
        try:
            return real_adjoint(*args)
        finally:
            per_call.append(open_calls.pop())

    monkeypatch.setattr(ops, "_im2col", im2col)
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
    """One backward unfolds g once, not x, and the matrix is freed before
    backward returns although the tape that recorded the op lives on."""
    rng = np.random.default_rng(7)
    w = Tensor(rng.normal(size=(3, 2, 3, 3)), requires_grad=w_grad)
    b = Tensor(np.zeros(3 - up), requires_grad=True)
    params = ConvParams(w, b, stride=1 + up, padding=(1, 1))
    x = Tensor(rng.normal(size=(2, 3 if up else 2, 3 if up else 6, 3 if up else 6)),
               requires_grad=x_grad)
    tape = Tape()
    y = deconv2d_up(x, params, (6, 6), tape) if up else conv2d(x, params, tape)
    real, built = ops._im2col, []

    def spy(a, *args):
        cols = real(a, *args)
        built.append((a.shape[1], weakref.ref(cols[0])))
        return cols

    monkeypatch.setattr(ops, "_im2col", spy)
    pull_back(tape, y, rng.normal(size=y.shape))
    assert [c for c, _ in built] == [y.shape[1]] and y.shape[1] != x.shape[1]
    assert [ref() for _, ref in built] == [None]
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
