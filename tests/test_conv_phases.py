"""Property tests of the phase-split adjoint correlation behind every
transposed convolution and every convolution input gradient."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from gridseg import ConvParams, Tensor, conv2d, deconv2d_up
from gridseg.ops import _adjoint_corr2d


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
