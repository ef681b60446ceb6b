"""Forward-op tests against brute-force oracles and frozen hand values."""

import types
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from gridseg import (
    BatchNorm,
    ConvParams,
    GridSpec,
    Tape,
    Tensor,
    add,
    backward,
    batch_norm,
    build_grid,
    concat_channels,
    conv2d,
    deconv2d_up,
    relu,
    softmax_cross_entropy,
    symmetric_columns,
)
from gridseg.config import RunConfig
from gridseg.data import AugmentConfig, generate_dataset
from gridseg.train import TrainConfig, make_optimizer, train_epoch
from recording_ops import block_values


DESK = RunConfig().grid
CONCAT = GridSpec(3, symmetric_columns(1, 1), base_channels=4, num_classes=4,
                  fusion="concat", vertical_residual=True)


# ---------------------------------------------------------------------------
# oracles: direct nested-loop implementations, no shared code with the library
# ---------------------------------------------------------------------------

def conv2d_loop(x, w, b, stride, pad):
    """Six-nested-loop cross-correlation."""
    n, ci, h, wd = x.shape
    co, _, kh, kw = w.shape
    ph, pw = pad
    xp = np.zeros((n, ci, h + 2 * ph, wd + 2 * pw))
    xp[:, :, ph:ph + h, pw:pw + wd] = x
    oh = (h + 2 * ph - kh) // stride + 1
    ow = (wd + 2 * pw - kw) // stride + 1
    out = np.zeros((n, co, oh, ow))
    for ni in range(n):
        for oc in range(co):
            for i in range(oh):
                for j in range(ow):
                    acc = 0.0
                    for c in range(ci):
                        for u in range(kh):
                            for v in range(kw):
                                acc += xp[ni, c, i * stride + u, j * stride + v] * w[oc, c, u, v]
                    out[ni, oc, i, j] = acc + b[oc]
    return out


def deconv2d_loop(x, w, b, stride, pad, out_hw):
    """Scatter-add transposed convolution: each input pixel stamps a kernel."""
    n, co, h, wd = x.shape
    _, ci, kh, kw = w.shape
    ph, pw = pad
    oh, ow = out_hw
    full = np.zeros((n, ci, (h - 1) * stride + kh, (wd - 1) * stride + kw))
    for ni in range(n):
        for oc in range(co):
            for i in range(h):
                for j in range(wd):
                    for c in range(ci):
                        full[ni, c, i * stride:i * stride + kh, j * stride:j * stride + kw] += (
                            x[ni, oc, i, j] * w[oc, c]
                        )
    out = full[:, :, ph:ph + oh, pw:pw + ow].copy()
    out += b.reshape(1, -1, 1, 1)
    return out


def softmax_ce_loop(z, labels, ignore):
    """Scalar-loop cross-entropy with ignore handling."""
    n, c, h, w = z.shape
    total, count = 0.0, 0
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                lab = labels[ni, i, j]
                if lab == ignore:
                    continue
                logits = z[ni, :, i, j]
                m = logits.max()
                lse = m + np.log(np.exp(logits - m).sum())
                total += lse - logits[lab]
                count += 1
    return total / count


def make_conv(w, b, stride=1, padding=(0, 0)):
    return ConvParams(Tensor(w, requires_grad=True), Tensor(b, requires_grad=True),
                      stride=stride, padding=padding)


# ---------------------------------------------------------------------------
# conv2d
# ---------------------------------------------------------------------------

class TestConv2d:
    def test_matches_loop_oracle(self):
        """Random double-precision inputs agree with the nested-loop oracle."""
        rng = np.random.default_rng(42)
        for stride, pad in [(1, (0, 0)), (1, (1, 1)), (2, (1, 1)), (2, (0, 0))]:
            x = rng.normal(size=(2, 3, 7, 8))
            w = rng.normal(size=(4, 3, 3, 3))
            b = rng.normal(size=4)
            got = conv2d(Tensor(x), make_conv(w, b, stride, pad)).data
            want = conv2d_loop(x, w, b, stride, pad)
            assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-10

    def test_ones_kernel_sums_neighborhood(self):
        """All-ones 3x3 kernel on an all-ones 5x5 image: 9 inside, 4 at corners."""
        x = np.ones((1, 1, 5, 5))
        w = np.ones((1, 1, 3, 3))
        out = conv2d(Tensor(x), make_conv(w, np.zeros(1), 1, (1, 1))).data[0, 0]
        assert out[2, 2] == 9.0
        assert out[0, 0] == 4.0 and out[0, 4] == 4.0 and out[4, 0] == 4.0 and out[4, 4] == 4.0

    def test_identity_kernel_preserves_input(self):
        """A centered one-hot kernel reproduces the input exactly."""
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 2, 6, 6))
        w = np.zeros((2, 2, 3, 3))
        w[0, 0, 1, 1] = 1.0
        w[1, 1, 1, 1] = 1.0
        out = conv2d(Tensor(x), make_conv(w, np.zeros(2), 1, (1, 1))).data
        assert np.array_equal(out, x)

    def test_channel_mismatch_rejected(self):
        x = Tensor(np.zeros((1, 3, 4, 4)))
        params = make_conv(np.zeros((2, 4, 3, 3)), np.zeros(2), 1, (1, 1))
        with pytest.raises(ValueError, match="mismatch"):
            conv2d(x, params)

    def test_forward_bit_deterministic(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 4, 9, 9)).astype(np.float32)
        w = rng.normal(size=(4, 4, 3, 3)).astype(np.float32)
        params = make_conv(w, np.zeros(4, np.float32), 1, (1, 1))
        a = conv2d(Tensor(x), params).data
        b = conv2d(Tensor(x), params).data
        assert np.array_equal(a, b)


class TestConv2dDown:
    def test_halving_chain_400_to_25(self):
        """Four stride-2 applications: 400 -> 200 -> 100 -> 50 -> 25."""
        x = Tensor(np.zeros((1, 1, 400, 400), np.float32))
        sizes = []
        for _ in range(4):
            params = make_conv(np.zeros((1, 1, 3, 3), np.float32), np.zeros(1, np.float32),
                               2, (1, 1))
            x = conv2d(x, params)
            sizes.append(x.shape[2:])
        assert sizes == [(200, 200), (100, 100), (50, 50), (25, 25)]

    def test_odd_size_rounds_up(self):
        """Stride-2, pad-1, kernel-3 output is ceil(in / 2)."""
        for size in (5, 6, 7, 13, 25):
            x = Tensor(np.zeros((1, 1, size, size)))
            params = make_conv(np.zeros((1, 1, 3, 3)), np.zeros(1), 2, (1, 1))
            out = conv2d(x, params)
            assert out.shape[2] == (size + 1) // 2


class TestDeconv2dUp:
    def test_matches_scatter_oracle(self):
        """Adjoint-based forward equals the stamp-and-crop loop oracle."""
        rng = np.random.default_rng(3)
        for in_hw, target in [((4, 4), (8, 8)), ((4, 5), (7, 9)), ((13, 13), (25, 25))]:
            x = rng.normal(size=(2, 4, *in_hw))
            w = rng.normal(size=(4, 2, 3, 3))
            b = rng.normal(size=2)
            params = make_conv(w, b, 2, (1, 1))
            got = deconv2d_up(Tensor(x), params, target).data
            want = deconv2d_loop(x, w, b, 2, (1, 1), target)
            assert np.max(np.abs(got - want)) / np.max(np.abs(want)) < 1e-10

    def test_both_output_paddings_reachable(self):
        """From 13x13 both 25x25 and 26x26 are valid stride-2 targets."""
        x = Tensor(np.zeros((1, 2, 13, 13)))
        w = np.zeros((2, 1, 3, 3))
        params = make_conv(w, np.zeros(1), 2, (1, 1))
        assert deconv2d_up(x, params, (25, 25)).shape[2:] == (25, 25)
        assert deconv2d_up(x, params, (26, 26)).shape[2:] == (26, 26)

    def test_unreachable_target_rejected(self):
        """From 13, the 3x3 up-sampling geometry and the 1x1 stride-2
        shortcut's both reach 25 and 26 and nothing else."""
        x = Tensor(np.zeros((1, 2, 13, 13)))
        for k, pad in [(3, (1, 1)), (1, (0, 0))]:
            params = make_conv(np.zeros((2, 1, k, k)), np.zeros(1), 2, pad)
            assert deconv2d_up(x, params, (26, 25)).shape[2:] == (26, 25)
            for bad in [(24, 24), (27, 27), (25, 28)]:
                with pytest.raises(ValueError, match="unreachable"):
                    deconv2d_up(x, params, bad)

    def test_adjoint_identity_with_shared_weights(self):
        """<Ax, y> == <x, A^T y> for the strided conv A and its transpose."""
        rng = np.random.default_rng(11)
        w = rng.normal(size=(6, 3, 3, 3))
        zeros_down = np.zeros(6)
        zeros_up = np.zeros(3)
        down = ConvParams(Tensor(w), Tensor(zeros_down), stride=2, padding=(1, 1))
        up = ConvParams(Tensor(w), Tensor(zeros_up), stride=2, padding=(1, 1))
        for hw in [(8, 8), (9, 11), (16, 16)]:
            x = rng.normal(size=(2, 3, *hw))
            ax = conv2d(Tensor(x), down).data
            y = rng.normal(size=ax.shape)
            aty = deconv2d_up(Tensor(y), up, hw).data
            lhs = float((ax * y).sum())
            rhs = float((x * aty).sum())
            assert abs(lhs - rhs) / max(abs(lhs), 1.0) < 1e-10


# ---------------------------------------------------------------------------
# batch norm
# ---------------------------------------------------------------------------

def batch_norm_mean_var(x, bn, training):
    """Reference: batch norm with moments from np.mean and np.var and the
    textbook normalized input ``xhat``, a fresh array for each intermediate.
    Reads bn's parameters and statistics before the op under test updates
    them; returns a function of the output gradient g that gives
    [y, running_mean, running_var, dx, dgamma, dbeta]."""
    c = bn.channels
    m = x.size // c
    gamma, beta = bn.gamma.data.copy(), bn.beta.data.copy()
    running_mean, running_var = bn.running_mean.copy(), bn.running_var.copy()
    if training:
        mean = x.mean(axis=(0, 2, 3))
        var = x.var(axis=(0, 2, 3))
        running_mean += bn.momentum * (mean - running_mean)
        running_var += bn.momentum * (var - running_var)
    else:
        mean, var = running_mean, running_var
    inv = (1.0 / np.sqrt(var + bn.eps)).reshape(1, c, 1, 1)
    xhat = (x - mean.reshape(1, c, 1, 1)) * inv
    y = gamma.reshape(1, c, 1, 1) * xhat + beta.reshape(1, c, 1, 1)

    def with_grads(g):
        gsum = g.sum(axis=(0, 2, 3))
        gxhat = (g * xhat).sum(axis=(0, 2, 3))
        gw = gamma.reshape(1, c, 1, 1)
        if training:
            dx = (gw * inv / m) * (m * g - gsum.reshape(1, c, 1, 1)
                                   - xhat * gxhat.reshape(1, c, 1, 1))
        else:
            dx = g * gw * inv
        return [y, running_mean, running_var, dx, gxhat, gsum]

    return with_grads


def batch_norm_scale_shift(x, bn, training):
    """Reference: `batch_norm`'s arithmetic written out term by term, a
    fresh array for each intermediate, with the arguments of every ufunc
    and reduction in the library's order, so its results are the library's
    bit for bit. Per channel, ``scale = gamma * inv``; train mode centres x
    once, ``y = xc * scale + beta``, and eval mode folds the running mean
    into the shift, ``y = x * scale + (beta - running_mean * scale)``. The
    input gradient in train mode is ``g*a - xc*b - c``. Same calling
    convention as `batch_norm_mean_var`."""
    c = bn.channels
    m = x.size // c
    c4 = (1, c, 1, 1)
    gamma, beta = bn.gamma.data.copy(), bn.beta.data.copy()
    running_mean, running_var = bn.running_mean.copy(), bn.running_var.copy()
    if training:
        mean = np.add.reduce(x, (0, 2, 3)) / m
        xc = x - mean.reshape(c4)
        var = np.einsum("nchw,nchw->c", xc, xc) / m
        running_mean += bn.momentum * (mean - running_mean)
        running_var += bn.momentum * (var - running_var)
    else:
        mean, var = running_mean, running_var
        xc = x - mean.reshape(c4)
    inv = 1.0 / np.sqrt(var + bn.eps)
    scale = gamma * inv
    if training:
        y = xc * scale.reshape(c4) + beta.reshape(c4)
    else:
        y = x * scale.reshape(c4) + (beta - mean * scale).reshape(c4)

    def with_grads(g):
        gsum = np.add.reduce(g, (0, 2, 3))
        gxc = np.einsum("nchw,nchw->c", g, xc)
        if training:
            a = scale
            b = scale * inv * inv * gxc / m
            cc = scale * gsum / m
            dx = g * a.reshape(c4) - xc * b.reshape(c4) - cc.reshape(c4)
        else:
            dx = g * scale.reshape(c4)
        # each is the first contribution to an empty gradient slot, which
        # keeps it as it is (a -0.0 stays -0.0)
        return [y, running_mean, running_var, dx, gxc * inv, gsum]

    return with_grads


def batch_norm_copy(bn, dtype):
    """A BatchNorm holding bn's parameters and running statistics in dtype."""
    out = BatchNorm(bn.channels, bn.eps, bn.momentum, dtype=dtype)
    for a, b in [(out.gamma.data, bn.gamma.data), (out.beta.data, bn.beta.data),
                 (out.running_mean, bn.running_mean), (out.running_var, bn.running_var)]:
        a[:] = b
    return out


# Accuracy of `batch_norm` against the float64 mean/var reference. Every
# bound is ``BN_TOL * eps`` (eps of the input's dtype) times a size of the
# terms that round, plus the same multiple of the dtype's smallest normal
# number for results in the subnormal range. ``cond``, per channel, is 1
# plus the input's largest magnitude in units of the deviation,
# ``max|x| * inv`` (train), or ``(max|x| + |running_mean|) * inv`` (eval).
# It prices the cancellations both modes make: centring x by its mean in
# train, and in eval the fold ``beta - running_mean * scale`` against
# ``x * scale``, which loses precision when
# |running_mean| >> sqrt(running_var + eps). Over 20,000 random cases of
# the test's strategy the largest error seen was 0.24 of its bound.
BN_TOL = 8


def batch_norm_error_bounds(x, bn, training, g, dtype):
    """[y, running_mean, running_var, dx, dgamma, dbeta] error bounds for
    `batch_norm` run in ``dtype``, from float64 copies of its inputs x and g
    and of bn before the op runs."""
    c = bn.channels
    m = x.size // c
    c4 = (1, c, 1, 1)
    gamma, beta = np.abs(bn.gamma.data), np.abs(bn.beta.data)
    rm, rv = np.abs(bn.running_mean), np.abs(bn.running_var)
    xmax = np.abs(x).max(axis=(0, 2, 3))
    var = x.var(axis=(0, 2, 3)) if training else rv
    inv = 1.0 / np.sqrt(var + bn.eps)
    cond = 1.0 + (xmax if training else xmax + rm) * inv
    gabs = np.abs(g).sum(axis=(0, 2, 3))
    gmax = np.abs(g).max(axis=(0, 2, 3))
    tol = BN_TOL * np.finfo(dtype).eps
    sizes = [(cond * (gamma + beta)).reshape(c4), rm + xmax, rv + (var + bn.eps) * cond ** 2,
             (cond * gamma * inv * (gmax + gabs / np.sqrt(m))).reshape(c4), cond * gabs, gabs]
    return [tol * (s + np.finfo(dtype).tiny) for s in sizes]


def _held_arrays(closure):
    """Every array reachable from a recorded closure through its cells and
    containers."""
    import gc
    import types

    held, seen, todo = [], set(), [closure]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            held.append(obj)
        elif isinstance(obj, (types.FunctionType, types.CellType, tuple, list)):
            todo.extend(gc.get_referents(obj))
    return held


class TestBatchNorm:
    def test_train_mode_matches_direct_formula(self):
        rng = np.random.default_rng(5)
        x = rng.normal(2.0, 3.0, size=(4, 3, 5, 5))
        bn = BatchNorm(3, dtype=np.float64)
        bn.gamma.data[:] = rng.normal(size=3)
        bn.beta.data[:] = rng.normal(size=3)
        out = batch_norm(Tensor(x), bn, training=True).data
        mean = x.mean(axis=(0, 2, 3), keepdims=True)
        var = x.var(axis=(0, 2, 3), keepdims=True)
        want = bn.gamma.data.reshape(1, 3, 1, 1) * (x - mean) / np.sqrt(var + bn.eps) \
            + bn.beta.data.reshape(1, 3, 1, 1)
        assert np.max(np.abs(out - want)) < 1e-12

    def test_train_mode_normalizes(self):
        """Unit gamma / zero beta output has ~zero mean and ~unit variance."""
        rng = np.random.default_rng(6)
        x = rng.normal(5.0, 2.0, size=(8, 4, 6, 6))
        out = batch_norm(Tensor(x), BatchNorm(4, dtype=np.float64), training=True).data
        assert np.max(np.abs(out.mean(axis=(0, 2, 3)))) < 1e-10
        assert np.max(np.abs(out.var(axis=(0, 2, 3)) - 1.0)) < 1e-3

    def test_eval_uses_running_stats(self):
        bn = BatchNorm(2, dtype=np.float64)
        bn.running_mean[:] = [1.0, -1.0]
        bn.running_var[:] = [4.0, 0.25]
        x = np.ones((1, 2, 2, 2))
        out = batch_norm(Tensor(x), bn, training=False).data
        want0 = (1.0 - 1.0) / np.sqrt(4.0 + bn.eps)
        want1 = (1.0 + 1.0) / np.sqrt(0.25 + bn.eps)
        assert np.allclose(out[0, 0], want0) and np.allclose(out[0, 1], want1)

    def test_running_stats_update(self):
        bn = BatchNorm(1, momentum=0.1, dtype=np.float64)
        x = np.full((2, 1, 2, 2), 10.0)
        batch_norm(Tensor(x), bn, training=True)
        assert np.isclose(bn.running_mean[0], 0.9 * 0.0 + 0.1 * 10.0)
        assert np.isclose(bn.running_var[0], 0.9 * 1.0 + 0.1 * 0.0)

    def test_single_value_batch_rejected(self):
        with pytest.raises(ValueError, match="training"):
            batch_norm(Tensor(np.zeros((1, 2, 1, 1))), BatchNorm(2), training=True)

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            batch_norm(Tensor(np.zeros((1, 3, 2, 2))), BatchNorm(2), training=False)

    @staticmethod
    def _case(shape, training, dtype, loc, scale, seed, x_grad):
        """Run a taped `batch_norm` under a softmax loss. Returns x's values,
        a copy of bn as it was before the call, the output's gradient, and
        [y, running_mean, running_var, dx, dgamma, dbeta] as the op left them."""
        n, c, h, w = shape
        rng = np.random.default_rng(seed)
        x = Tensor((loc + scale * rng.normal(size=shape)).astype(dtype), requires_grad=x_grad)
        bn = BatchNorm(c, dtype=dtype)
        bn.gamma.data[:] = rng.normal(size=c)
        bn.beta.data[:] = rng.normal(size=c)
        bn.running_mean[:] = rng.normal(size=c)
        bn.running_var[:] = rng.uniform(0.1, 10.0, size=c)
        before = batch_norm_copy(bn, dtype)
        tape = Tape()
        out = batch_norm(x, bn, training, tape)
        labels = rng.integers(0, c, (n, h, w))
        backward(tape, softmax_cross_entropy(out, labels, tape=tape))
        got = [out.data, bn.running_mean, bn.running_var, x.grad, bn.gamma.grad, bn.beta.grad]
        if not x_grad:
            assert x.grad is None
        return x.data, before, out.grad, got

    _strategy = dict(shape=st.tuples(*[st.integers(1, 4)] * 4), training=st.booleans(),
                     dtype=st.sampled_from([np.float32, np.float64]),
                     loc=st.floats(-100, 100), scale=st.sampled_from([1e-3, 1.0, 1e3]),
                     seed=st.integers(0, 2**32 - 1), x_grad=st.booleans())

    @settings(max_examples=120, deadline=None)
    @given(**_strategy)
    def test_bit_equal_to_mean_var_reference(self, shape, training, dtype, loc, scale, seed,
                                             x_grad):
        """Bit for bit equal to `batch_norm_scale_shift`, the op's formulas
        written out term by term. Without x_grad this is the stem: the gamma
        map takes the shared per-channel sums and x gets no gradient."""
        n, _, h, w = shape
        assume(n * h * w >= 2)
        x, bn, g, got = self._case(shape, training, dtype, loc, scale, seed, x_grad)
        want = batch_norm_scale_shift(x, bn, training)(g)
        if not x_grad:
            del got[3], want[3]
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=120, deadline=None)
    @given(**_strategy)
    def test_within_tolerance_of_float64_mean_var(self, shape, training, dtype, loc, scale,
                                                  seed, x_grad):
        """Output, running statistics and all three gradients lie within
        `batch_norm_error_bounds` of the float64 np.mean/np.var reference."""
        n, _, h, w = shape
        assume(n * h * w >= 2)
        x, bn, g, got = self._case(shape, training, dtype, loc, scale, seed, x_grad)
        bn64 = batch_norm_copy(bn, np.float64)
        x64, g64 = x.astype(np.float64), g.astype(np.float64)
        want = batch_norm_mean_var(x64, bn64, training)(g64)
        bounds = batch_norm_error_bounds(x64, bn64, training, g64, dtype)
        names = ["y", "running_mean", "running_var", "dx", "dgamma", "dbeta"]
        if not x_grad:
            del got[3], want[3], bounds[3], names[3]
        for name, a, b, bound in zip(names, got, want, bounds, strict=True):
            assert a.dtype == dtype
            assert np.all(np.abs(a - b) <= bound), name

    def test_untaped_eval_allocates_only_its_output(self):
        """Eval mode is ``x * scale`` plus a per-channel shift: one array of
        the output's size, where centring first would take a second. The
        slack covers the broadcast ufuncs' fixed iteration buffer (numpy's
        8192 elements, 32 KiB here), whatever the array's size."""
        import tracemalloc

        x = Tensor(np.random.default_rng(8).normal(size=(2, 16, 64, 64)).astype(np.float32))
        bn = BatchNorm(16)
        bn.running_mean[:] = 0.5
        batch_norm(x, bn, training=False)  # warm numpy's caches outside the trace
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = batch_norm(x, bn, training=False)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert out.data.nbytes == x.data.nbytes == 524288
        assert x.data.nbytes <= peak < x.data.nbytes + 65536

    def test_taped_train_backward_keeps_the_centred_input(self):
        """The recorded backward holds one input-sized array, x centred by
        its batch mean (not normalized), and per-channel vectors; x and the
        output die once the caller drops them."""
        rng = np.random.default_rng(9)
        x = Tensor(rng.normal(3.0, 2.0, size=(2, 3, 4, 5)), requires_grad=True)
        bn = BatchNorm(3, dtype=np.float64)
        bn.gamma.data[:] = [0.5, 2.0, -1.0]
        tape = Tape()
        out = batch_norm(x, bn, True, tape)
        centred = x.data - x.data.mean(axis=(0, 2, 3), keepdims=True)
        refs = [weakref.ref(x.data), weakref.ref(out.data)]
        del x, out
        assert [r() for r in refs] == [None, None]
        (closure,) = tape._nodes
        held = _held_arrays(closure)
        (big,) = [a for a in held if a.shape == centred.shape]
        assert all(a.shape == (3,) for a in held if a is not big)
        assert np.allclose(big, centred, atol=1e-12)


class TestMomentMemo:
    """A taped training batch norm computes its input's batch moments once
    per tape; a second one over the same tensor reuses them."""

    @staticmethod
    def _two_norms(xs, dtype, seed):
        """Two training batch norms with their own parameters and running
        statistics over xs[0] and xs[-1], summed under a softmax loss."""
        rng = np.random.default_rng(seed)
        bns = []
        for _ in range(2):
            bn = BatchNorm(3, dtype=dtype)
            bn.gamma.data[:] = rng.normal(size=3)
            bn.beta.data[:] = rng.normal(size=3)
            bn.running_mean[:] = rng.normal(size=3)
            bn.running_var[:] = rng.uniform(0.5, 2.0, 3)
            bns.append(bn)
        tape = Tape()
        ys = [batch_norm(x, bn, True, tape) for x, bn in zip((xs[0], xs[-1]), bns)]
        memo = dict(tape.moments)
        centred = [max(_held_arrays(c), key=lambda a: a.size) for c in tape._nodes]
        labels = rng.integers(0, 3, (2, 4, 5))
        backward(tape, softmax_cross_entropy(add(*ys, tape), labels, tape=tape))
        assert tape.moments == {}  # cleared by backward
        got = [y.data for y in ys]
        for bn in bns:
            got += [bn.running_mean, bn.running_var, bn.gamma.grad, bn.beta.grad]
        return got, memo, centred

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_shared_input_equals_two_equal_inputs(self, dtype):
        values = np.random.default_rng(40).normal(2.0, 3.0, size=(2, 3, 4, 5)).astype(dtype)
        x = Tensor(values.copy(), requires_grad=True)
        x1, x2 = Tensor(values.copy(), requires_grad=True), Tensor(values.copy(),
                                                                   requires_grad=True)
        shared, memo, centred = self._two_norms([x], dtype, 41)
        apart, memo_apart, centred_apart = self._two_norms([x1, x2], dtype, 41)
        for a, b in zip(shared + [x.grad], apart + [x2.grad + x1.grad], strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert list(memo) == [x.slot] and len(memo_apart) == 2
        assert centred[0].shape == values.shape and centred[0] is centred[1]
        assert not np.shares_memory(*centred_apart)

    def test_untaped_call_computes_afresh_and_stores_nothing(self):
        """Finite-difference checks change inputs in place between untaped
        evaluations; those must not read a tape's moments."""
        rng = np.random.default_rng(42)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        bn = BatchNorm(3, dtype=np.float64)
        tape = Tape()
        batch_norm(x, bn, True, tape)
        memo = dict(tape.moments)
        x.data[0, 0, 0, 0] += 1.0
        fresh = BatchNorm(3, dtype=np.float64)
        untaped = batch_norm(x, fresh, True)
        assert tape.moments == memo
        mean = x.data.mean(axis=(0, 2, 3))
        assert np.allclose(fresh.running_mean, 0.1 * mean, rtol=0, atol=1e-15)
        assert np.allclose(untaped.data.mean(axis=(0, 2, 3)), 0.0, atol=1e-12)

    def test_desk_forward_computes_37_moments_for_49_batch_norms(self, monkeypatch):
        """Every node value that opens both a residual and a resampling unit
        is normalized twice and centred once."""
        import gridseg.ops

        real, calls = gridseg.ops.batch_norm, []

        def counted(*args, **kwargs):
            calls.append(args[0].slot)
            return real(*args, **kwargs)

        monkeypatch.setattr(gridseg.ops, "batch_norm", counted)
        model = build_grid(DESK, (64, 64), seed=0)
        tape = Tape()
        x = np.random.default_rng(43).normal(size=(2, 3, 64, 64)).astype(np.float32)
        model.forward(x, training=True, tape=tape)
        assert len(calls) == 49 and len(set(calls)) == len(tape.moments) == 37


@st.composite
def planes(draw):
    """(h, w) with h*w below `ops.PLANE_MIN` (1024) or at and above it."""
    lo, hi = (32, 40) if draw(st.booleans()) else (1, 31)
    return draw(st.integers(lo, hi)), draw(st.integers(lo, hi))


class TestPerChannelOperands:
    """Training batch norm's per-channel operands, materialized where a plane
    holds ``PLANE_MIN`` values or more, give the bits of the (1, c, 1, 1)
    broadcast form that `batch_norm_scale_shift` writes out."""

    @pytest.mark.parametrize("hw, materialized", [((31, 33), False), ((32, 32), True),
                                                  ((1, 1024), True), ((16, 63), False)],
                             ids=["31x33", "32x32", "1x1024", "16x63"])
    def test_plane_rule(self, hw, materialized):
        import gridseg.ops

        assert gridseg.ops.PLANE_MIN == 1024
        v = np.arange(3, dtype=np.float32)
        op = gridseg.ops._per_channel(v, *hw)
        assert op.shape == ((1, 3, *hw) if materialized else (1, 3, 1, 1))
        assert np.array_equal(np.broadcast_to(op, (1, 3, *hw)),
                              np.broadcast_to(v.reshape(1, 3, 1, 1), (1, 3, *hw)))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 4), c=st.integers(1, 8), hw=planes(),
           dtype=st.sampled_from([np.float32, np.float64]), seed=st.integers(0, 2**32 - 1))
    @example(n=2, c=1, hw=(31, 33), dtype=np.float32, seed=0)
    @example(n=2, c=8, hw=(32, 32), dtype=np.float64, seed=1)
    def test_bits_equal_broadcast_reference(self, n, c, hw, dtype, seed):
        """Two training batch norms over one tensor on one tape, the second
        reading the first's moments: each one's y, running statistics,
        dgamma and dbeta, the moments' centred input and x's gradient (the
        sum of both maps') equal the reference's bits."""
        rng = np.random.default_rng(seed)
        loc, spread = rng.normal(0.0, 10.0, (c, 1, 1)), rng.uniform(0.1, 10.0, (c, 1, 1))
        x = Tensor((loc + spread * rng.normal(size=(n, c, *hw))).astype(dtype),
                   requires_grad=True)
        bns, before = [], []
        for _ in range(2):
            bn = BatchNorm(c, dtype=dtype)
            bn.gamma.data[:] = rng.normal(size=c)
            bn.beta.data[:] = rng.normal(size=c)
            bn.running_mean[:] = rng.normal(size=c)
            bn.running_var[:] = rng.uniform(0.1, 10.0, size=c)
            bns.append(bn)
            before.append(batch_norm_copy(bn, dtype))
        tape = Tape()
        ys = [batch_norm(x, bn, True, tape) for bn in bns]
        (moments,) = tape.moments.values()
        xc = moments[2]
        labels = rng.integers(0, c, (n, *hw))
        backward(tape, softmax_cross_entropy(add(*ys, tape), labels, tape=tape))
        c4 = (1, c, 1, 1)
        mean = np.add.reduce(x.data, (0, 2, 3)) / (n * hw[0] * hw[1])
        assert xc.tobytes() == (x.data - mean.reshape(c4)).tobytes()
        dxs = []
        for y, bn, bn0 in zip(ys, bns, before):
            want = batch_norm_scale_shift(x.data, bn0, True)(y.grad)
            got = [y.data, bn.running_mean, bn.running_var, None, bn.gamma.grad, bn.beta.grad]
            dxs.append(want[3])
            for a, b in zip(got, want, strict=True):
                assert a is None or (a.dtype == b.dtype and a.tobytes() == b.tobytes())
        assert x.grad.dtype == dtype and x.grad.tobytes() == (dxs[1] + dxs[0]).tobytes()


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

class TestElementwise:
    def test_relu_clamps_negatives(self):
        x = np.array([[-2.0, 0.0], [3.5, -0.1]]).reshape(1, 1, 2, 2)
        out = relu(Tensor(x)).data
        assert np.array_equal(out, [[[[0.0, 0.0], [3.5, 0.0]]]])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]) | st.floats(),
                    min_size=1, max_size=12),
           st.sampled_from([np.float32, np.float64]), st.integers(0, 2**32 - 1))
    def test_gradient_is_g_times_the_input_sign(self, values, dtype, seed):
        """relu's map reads its output: y > 0 must be x > 0 on every input,
        signed zeros, infinities and NaN included."""
        with np.errstate(over="ignore"):
            x = Tensor(np.array(values, dtype).reshape(1, 1, 1, -1), requires_grad=True)
        g = np.random.default_rng(seed).normal(size=x.shape).astype(dtype)
        tape = Tape()
        out = relu(x, tape)
        out.grad = g.copy()
        tape._nodes[-1]()
        assert x.grad.tobytes() == (g * (x.data > 0)).tobytes()

    def test_add_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            add(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 2, 3))))

    def test_concat_splits_gradient(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3, 3, 3)), requires_grad=True)
        tape = Tape()
        out = concat_channels([a, b], tape)
        assert out.shape == (1, 5, 3, 3)
        w = rng.normal(size=out.shape)
        loss_val = (out.data * w).sum()
        out.grad = w  # seed manually, then replay the single node
        tape._nodes[-1]()
        assert np.array_equal(a.grad, w[:, :2])
        assert np.array_equal(b.grad, w[:, 2:])
        assert np.isfinite(loss_val)


# ---------------------------------------------------------------------------
# cross-entropy
# ---------------------------------------------------------------------------

class TestSoftmaxCrossEntropy:
    def test_uniform_logits_is_log_c(self):
        """Uniform logits over 19 classes: loss is ln(19) ~ 2.9444."""
        z = np.zeros((1, 19, 4, 4))
        labels = np.random.default_rng(1).integers(0, 19, (1, 4, 4))
        loss = softmax_cross_entropy(Tensor(z), labels)
        assert abs(float(loss.data) - np.log(19.0)) < 1e-12
        assert abs(float(loss.data) - 2.9444389791664403) < 1e-12

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(2, 5, 3, 4))
        labels = rng.integers(0, 5, (2, 3, 4))
        labels[0, 0, 0] = 255
        got = float(softmax_cross_entropy(Tensor(z), labels).data)
        want = softmax_ce_loop(z, labels, 255)
        assert abs(got - want) < 1e-12

    def test_ignored_pixels_have_zero_grad(self):
        rng = np.random.default_rng(4)
        z = Tensor(rng.normal(size=(1, 3, 2, 2)), requires_grad=True)
        labels = np.array([[[0, 255], [1, 2]]])
        tape = Tape()
        loss = softmax_cross_entropy(z, labels, tape=tape)
        backward(tape, loss)
        assert np.array_equal(z.grad[0, :, 0, 1], np.zeros(3))
        assert np.any(z.grad[0, :, 0, 0] != 0)

    def test_grad_is_softmax_minus_onehot_over_count(self):
        rng = np.random.default_rng(8)
        z = Tensor(rng.normal(size=(1, 4, 2, 2)), requires_grad=True)
        labels = rng.integers(0, 4, (1, 2, 2))
        tape = Tape()
        loss = softmax_cross_entropy(z, labels, tape=tape)
        backward(tape, loss)
        ez = np.exp(z.data - z.data.max(axis=1, keepdims=True))
        soft = ez / ez.sum(axis=1, keepdims=True)
        onehot = np.zeros_like(soft)
        for i in range(2):
            for j in range(2):
                onehot[0, labels[0, i, j], i, j] = 1.0
        assert np.max(np.abs(z.grad - (soft - onehot) / 4.0)) < 1e-12

    def test_all_ignored_rejected(self):
        z = Tensor(np.zeros((1, 3, 2, 2)))
        labels = np.full((1, 2, 2), 255)
        with pytest.raises(ValueError, match="ignored"):
            softmax_cross_entropy(z, labels)

    @staticmethod
    def _saturated(dtype):
        """Logits whose label class leads every other class by 80 to 116,
        with three ignored pixels."""
        rng = np.random.default_rng(12)
        labels = rng.integers(0, 5, (2, 8, 8))
        z = rng.uniform(-3.0, 3.0, (2, 5, 8, 8))
        lead = z.max(axis=1) + rng.uniform(80.0, 110.0, (2, 8, 8))
        np.put_along_axis(z, labels[:, None], lead[:, None], axis=1)
        labels[0, 0, :3] = 255
        return z.astype(dtype), labels

    def test_subnormal_gradient_entries_are_flushed(self):
        z, labels = self._saturated(np.float32)
        want = _unflushed_dlogits(z, labels)
        subnormal = _subnormal(want)
        assert subnormal.any()  # the reference holds subnormals to flush
        got = _loss_grad(z, labels)
        assert got.dtype == np.float32 and not _subnormal(got).any()
        assert np.all(got[subnormal] == 0)
        assert got[~subnormal].tobytes() == want[~subnormal].tobytes()
        assert np.array_equal(got[0, :, 0, :3], np.zeros((5, 3)))
        assert not np.signbit(got[0, :, 0, :3]).any()

    def test_float64_gradient_is_unflushed(self):
        z, labels = self._saturated(np.float64)
        want = _unflushed_dlogits(z, labels)
        got = _loss_grad(z, labels)
        assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    def test_saturated_grid_backward_holds_no_subnormal_loss_gradient(self):
        model = build_grid(CONCAT, (16, 16), seed=3)
        model.head.weight.data *= 400
        x = np.random.default_rng(5).normal(size=(2, 3, 16, 16)).astype(np.float32)
        labels = np.random.default_rng(6).integers(0, 4, (2, 16, 16))
        tape = Tape()
        logits = model.forward(x, training=True, tape=tape)
        assert _subnormal(_unflushed_dlogits(logits.data, labels)).any()
        backward(tape, softmax_cross_entropy(logits, labels, tape=tape))
        assert logits.grad.dtype == np.float32 and not _subnormal(logits.grad).any()
        for name, p in model.named_parameters():
            assert p.grad is not None and np.all(np.isfinite(p.grad)), name


# ---------------------------------------------------------------------------
# tape mechanics
# ---------------------------------------------------------------------------

class TestTape:
    def test_fanout_accumulates(self):
        """y = relu(x) + relu(x): gradient doubles through the shared input."""
        x = Tensor(np.abs(np.random.default_rng(3).normal(size=(1, 1, 2, 2))) + 0.5,
                   requires_grad=True)
        tape = Tape()
        y = add(relu(x, tape), relu(x, tape), tape)
        loss = softmax_cross_entropy(
            concat_channels([y, Tensor(np.zeros_like(y.data))], tape),
            np.zeros((1, 2, 2), dtype=int), tape=tape)
        backward(tape, loss)
        assert x.grad is not None and np.all(np.isfinite(x.grad))

    def test_backward_twice_rejected(self):
        x = Tensor(np.ones((1, 1, 1, 2)), requires_grad=True)
        tape = Tape()
        y = relu(x, tape)
        loss = softmax_cross_entropy(
            concat_channels([y, y], tape), np.zeros((1, 1, 2), dtype=int), tape=tape)
        backward(tape, loss)
        with pytest.raises(RuntimeError, match="consumed"):
            backward(tape, loss)

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ValueError, match="scalar"):
            backward(Tape(), Tensor(np.zeros((1, 1, 1, 1))))

    @pytest.mark.parametrize("spec", [DESK, CONCAT], ids=["desk", "concat"])
    def test_backward_frees_each_activation_before_the_tape_ends(self, spec):
        """A probe recorded first runs last in backward; by then every traced
        activation of the grid is dead, and the spent tape holds no closure."""
        model = build_grid(spec, (16, 16), seed=6, dtype=np.float64)
        rng = np.random.default_rng(36)
        tape = Tape()
        probed = []

        def probe():
            alive = [key for key, ref in refs.items() if ref() is not None]
            assert not alive, f"activations alive when backward ends: {alive}"
            probed.append(True)

        tape.record(probe)
        trace = block_values(model, rng.normal(size=(2, 3, 16, 16)), training=True, tape=tape)
        logits = trace["logits"]
        loss = softmax_cross_entropy(logits, rng.integers(0, 4, (2, 16, 16)), tape=tape)
        refs = {key: weakref.ref(t.data) for key, t in trace.items()}
        assert len(refs) == len(model.plan) + 2
        del trace, logits
        backward(tape, loss)
        assert probed == [True]
        assert tape._nodes == []
        assert all(p.grad is not None for _, p in model.named_parameters())
        with pytest.raises(RuntimeError, match="consumed"):
            backward(tape, loss)

    @pytest.mark.parametrize("spec", [DESK, CONCAT], ids=["desk", "concat"])
    def test_forward_keeps_only_what_a_backward_map_reads(self, spec):
        """Once forward returns and the caller drops its trace, a block output
        lives on only if a conv reads it (the conv's weight gradient needs
        it): the head's input and, under vertical_residual, the input of each
        shortcut conv. Block outputs that only batch norm, add or concat read
        are already dead, and so are the logits once the loss is taken."""
        model = build_grid(spec, (16, 16), seed=6, dtype=np.float64)
        rng = np.random.default_rng(37)
        tape = Tape()
        trace = block_values(model, rng.normal(size=(2, 3, 16, 16)), training=True, tape=tape)
        logits = trace["logits"]
        refs = {key: weakref.ref(t.data) for key, t in trace.items()}
        del trace
        # the traced value each stream holds, walked in the forward's order
        latest, conv_read = {0: "stem"}, set()
        for block in model.plan:
            if block.src is not None and spec.vertical_residual:
                conv_read.add(latest[block.src])
            latest[block.row] = (block.row, block.col)
        conv_read |= {latest[0], "logits"}  # the head's input; the caller holds logits
        alive = {key for key, ref in refs.items() if ref() is not None}
        assert alive == conv_read
        assert len(alive) < len(refs)
        assert (len(conv_read) > 2) == spec.vertical_residual
        loss = softmax_cross_entropy(logits, rng.integers(0, 4, (2, 16, 16)), tape=tape)
        del logits
        assert refs["logits"]() is None
        backward(tape, loss)
        assert all(p.grad is not None for _, p in model.named_parameters())

    def test_disconnected_tensor_keeps_zero_grad(self):
        x = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
        unused = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
        tape = Tape()
        y = relu(x, tape)
        loss = softmax_cross_entropy(y, np.zeros((1, 2, 2), dtype=int), tape=tape)
        backward(tape, loss)
        assert unused.grad is None


# ---------------------------------------------------------------------------
# recording rule
# ---------------------------------------------------------------------------

def _record_each_op(tape, rng):
    """Every recorded op kind once, each over fresh inputs that take gradients;
    returns the inputs of every op."""
    def t(*shape):
        return Tensor(rng.normal(size=shape), requires_grad=True)

    conv = make_conv(rng.normal(size=(2, 2, 3, 3)), np.zeros(2), 2, (1, 1))
    up = make_conv(rng.normal(size=(2, 2, 3, 3)), np.zeros(2), 2, (1, 1))
    bn = BatchNorm(2, dtype=np.float64)
    x_conv, x_up, x_bn, x_relu, a, b, c, d = (t(2, 2, 4, 4), t(2, 2, 2, 2), t(2, 2, 4, 4),
                                             t(2, 2, 4, 4), t(2, 2, 4, 4), t(2, 2, 4, 4),
                                             t(2, 1, 4, 4), t(2, 3, 4, 4))
    conv2d(x_conv, conv, tape)
    deconv2d_up(x_up, up, (4, 4), tape)
    batch_norm(x_bn, bn, True, tape)
    relu(x_relu, tape)
    add(a, b, tape)
    concat_channels([c, d], tape)
    return [x_conv, conv.weight, conv.bias, x_up, up.weight, up.bias,
            x_bn, bn.gamma, bn.beta, x_relu, a, b, c, d]


def _held(closure):
    """Every object a recorded closure reaches through closure cells,
    default arguments, containers and tensors (not through globals)."""
    seen, stack = {}, [closure]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, types.FunctionType):
            stack += [cell.cell_contents for cell in obj.__closure__ or ()]
            stack += obj.__defaults__ or ()
        elif isinstance(obj, (list, tuple)):
            stack += obj
        elif isinstance(obj, dict):
            stack += obj.values()
        elif isinstance(obj, Tensor):
            stack += [obj.slot, obj.data]
    return seen


def _one_op_without_grad(name, rng):
    """(tape, output, first input, other inputs) of op ``name`` recorded on
    a fresh tape, whose first input takes no gradient."""
    def t(*shape, grad=True):
        return Tensor(rng.normal(size=shape), requires_grad=grad)

    tape = Tape()
    x = t(2, 2, 4, 4, grad=False)
    if name == "conv2d":
        conv = make_conv(rng.normal(size=(2, 2, 3, 3)), np.zeros(2), 1, (1, 1))
        return tape, conv2d(x, conv, tape), x, [conv.weight, conv.bias]
    if name == "deconv2d_up":
        up = make_conv(rng.normal(size=(2, 2, 3, 3)), np.zeros(2), 2, (1, 1))
        return tape, deconv2d_up(x, up, (8, 8), tape), x, [up.weight, up.bias]
    other = t(2, 2, 4, 4)
    if name == "add":
        return tape, add(x, other, tape), x, [other]
    return tape, concat_channels([x, other], tape), x, [other]


class TestRecordingRule:
    def test_input_without_grad_costs_no_adjoint(self, monkeypatch):
        """A conv or transposed conv over an input that takes no gradient
        never maps its output gradient back to that input."""
        import gridseg.ops

        real = gridseg.ops._transposed_grads
        wrapped = []

        def refusing_dx(x, w, *args):
            def refuse(g):
                raise AssertionError("input gradient computed for an input without grad")

            wrapped.append(w)
            return (refuse, *real(x, w, *args)[1:])

        monkeypatch.setattr(gridseg.ops, "_transposed_grads", refusing_dx)
        rng = np.random.default_rng(21)
        conv = make_conv(rng.normal(size=(4, 3, 3, 3)), np.zeros(4), 1, (1, 1))
        up = make_conv(rng.normal(size=(3, 4, 3, 3)), np.zeros(4), 2, (1, 1))
        cases = ((conv, (2, 3, 5, 5), lambda x, tape: conv2d(x, conv, tape)),
                 (up, (2, 3, 3, 3), lambda x, tape: deconv2d_up(x, up, (5, 5), tape)))
        for params, shape, op in cases:
            x = Tensor(rng.normal(size=shape))
            tape = Tape()
            loss = softmax_cross_entropy(op(x, tape), rng.integers(0, 4, (2, 5, 5)), tape=tape)
            backward(tape, loss)
            assert x.grad is None
            assert params.weight.grad is not None and params.bias.grad is not None
        assert wrapped == [conv.weight, up.weight]

    def test_untaped_output_takes_no_gradient(self):
        """Nothing recorded could carry a gradient through an untaped output."""
        x = Tensor(np.ones((1, 1, 2, 2)), requires_grad=True)
        assert not relu(x).requires_grad
        assert relu(x, Tape()).requires_grad

    def test_output_without_grad_leaves_inputs_untouched(self):
        """Ops whose outputs feed no loss leave every input's grad at None,
        while the loss branch recorded on the same tape still propagates."""
        rng = np.random.default_rng(22)
        tape = Tape()
        inputs = _record_each_op(tape, rng)
        z = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
        loss = softmax_cross_entropy(relu(z, tape), np.zeros((1, 3, 3), dtype=int),
                                     tape=tape)
        backward(tape, loss)
        assert z.grad is not None
        assert all(t.grad is None for t in inputs)

    @pytest.mark.parametrize("name", ["conv2d", "deconv2d_up", "add", "concat_channels"])
    def test_closure_keeps_no_slot_of_an_input_without_grad(self, name):
        """Which inputs take a gradient is read when the op is recorded: the
        closure holds the slots of the output and of the other inputs, and
        none of the input that takes no gradient."""
        tape, out, x, others = _one_op_without_grad(name, np.random.default_rng(23))
        assert out.requires_grad and len(tape._nodes) == 1
        held = _held(tape._nodes[0])
        assert id(x.slot) not in held
        assert all(id(t.slot) in held for t in [out, *others])

    def test_op_over_inputs_without_grad_records_nothing(self):
        tape = Tape()
        x = Tensor(np.ones((1, 1, 2, 2)))
        assert not add(relu(x, tape), x, tape).requires_grad
        assert tape._nodes == []

    def test_add_with_one_input_without_grad(self):
        """Only b takes a gradient: b gets the output gradient in an array of
        its own, not the output's slot array."""
        rng = np.random.default_rng(24)
        a, b = Tensor(rng.normal(size=(2, 2, 2, 2))), Tensor(rng.normal(size=(2, 2, 2, 2)),
                                                                requires_grad=True)
        labels = TestGradientSlots.LABELS
        tape = Tape()
        s = add(a, b, tape)
        backward(tape, softmax_cross_entropy(s, labels, tape=tape))
        assert a.grad is None
        assert np.array_equal(b.grad, _loss_grad(s.data, labels))
        assert not np.shares_memory(b.grad, s.grad)

    def test_add_of_a_tensor_to_itself_shares_no_array(self, monkeypatch):
        """add(a, a): a's slot keeps the first map's output gradient, and the
        second map hands over a copy, so the array is never added into itself."""
        a = Tensor(np.random.default_rng(25).normal(size=(2, 2, 2, 2)), requires_grad=True)
        labels = TestGradientSlots.LABELS
        tape = Tape()
        s = add(a, a, tape)
        g = _loss_grad(s.data, labels)
        real, contributions = Tensor.accumulate_grad, []

        def accumulate(slot, d):
            contributions.append((slot.grad, d))
            real(slot, d)

        monkeypatch.setattr(Tensor, "accumulate_grad", accumulate)
        backward(tape, softmax_cross_entropy(s, labels, tape=tape))
        assert np.array_equal(a.grad, 2 * g)
        (_, loss_grad), (_, first), (held, second) = contributions  # into s, then twice into a
        assert held is first is loss_grad
        assert not np.shares_memory(first, second)


# ---------------------------------------------------------------------------
# gradient slots
# ---------------------------------------------------------------------------

def _unflushed_dlogits(z, labels):
    """The mean cross-entropy's gradient at logits ``z``, softmax times
    valid/count less that factor at the label, rounded once to z's dtype
    with no entry flushed."""
    valid = labels != 255
    ez = np.exp(z - z.max(axis=1, keepdims=True))
    scale = (valid / valid.sum())[:, None]
    dz = ez / ez.sum(axis=1, keepdims=True) * scale
    idx = np.where(valid, labels, 0)[:, None]
    np.put_along_axis(dz, idx, np.take_along_axis(dz, idx, axis=1) - scale, axis=1)
    return np.add(dz, 0.0, dtype=z.dtype, casting="same_kind")


def _subnormal(a):
    return (a != 0) & (np.abs(a) < np.finfo(a.dtype).tiny)


def _loss_grad(y, labels):
    """Gradient of the mean cross-entropy at logits ``y``, taken through a leaf."""
    z = Tensor(y.copy(), requires_grad=True)
    tape = Tape()
    backward(tape, softmax_cross_entropy(z, labels, tape=tape))
    return z.grad


def _zero_fill_accumulate_grad(self, g):
    """Reference slot rule: every slot starts at zero and adds each contribution.
    ``self`` is a tensor or, from a backward closure, a bare gradient slot."""
    if self.grad is None:
        self.grad = np.zeros(self.shape, self.dtype)
    self.grad += g


def _train_one_step(spec):
    """One train step of a fresh ``spec`` grid on fixed scenes; returns
    (model, optimizer)."""
    model = build_grid(spec, (16, 16), seed=4)
    cfg = TrainConfig(epochs=1, batch_size=2, lr=1e-2)
    optim = make_optimizer(model, cfg)
    scenes = generate_dataset(2, seed=11, width=24, height=24, num_classes=spec.num_classes)
    rec = train_epoch(model, optim, scenes, AugmentConfig(16, 24, 16), cfg, seed=5, epoch=0)
    assert rec["steps"] == 1
    return model, optim


class TestGradientSlots:
    LABELS = np.array([[[0, 1], [1, 0]], [[1, 1], [0, 255]]])

    def _leaf(self, rng, channels=2):
        return Tensor(rng.normal(size=(2, channels, 2, 2)), requires_grad=True)

    def _backward(self, out, tape):
        """Back-propagate the loss at ``out``; returns the gradient ``out`` received."""
        backward(tape, softmax_cross_entropy(out, self.LABELS, tape=tape))
        return _loss_grad(out.data, self.LABELS)

    def test_add_of_a_tensor_to_itself_doubles(self):
        a = self._leaf(np.random.default_rng(30))
        tape = Tape()
        g = self._backward(add(a, a, tape), tape)
        assert np.array_equal(a.grad, 2 * g)

    def test_add_gives_each_input_its_own_array(self):
        rng = np.random.default_rng(31)
        a, b = self._leaf(rng), self._leaf(rng)
        tape = Tape()
        g = self._backward(add(a, b, tape), tape)
        assert np.array_equal(a.grad, g) and np.array_equal(b.grad, g)
        assert not np.shares_memory(a.grad, b.grad)

    def test_concat_of_a_tensor_with_itself_sums_both_slices(self):
        a = self._leaf(np.random.default_rng(32), channels=1)
        tape = Tape()
        g = self._backward(concat_channels([a, a], tape), tape)
        assert np.array_equal(a.grad, g[:, :1] + g[:, 1:])

    @pytest.mark.parametrize("x_first", [True, False])
    def test_tensor_consumed_by_two_ops_gets_the_sum(self, x_first):
        """x feeds add(x, y) and relu; the add hands its output gradient to
        both x and y, and the later relu contribution to x must not reach y."""
        rng = np.random.default_rng(33)
        x, y = self._leaf(rng), self._leaf(rng)
        tape = Tape()
        r = relu(x, tape)
        s = add(x, y, tape) if x_first else add(y, x, tape)
        g = self._backward(concat_channels([s, r], tape), tape)
        assert np.array_equal(y.grad, g[:, :2])
        assert np.array_equal(x.grad, g[:, :2] + g[:, 2:] * (x.data > 0))

    def test_matching_contribution_is_kept_as_is(self):
        t = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
        g = np.arange(6, dtype=np.float32).reshape(2, 3)
        t.accumulate_grad(g)
        assert t.grad is g
        t.accumulate_grad(np.ones((2, 3), np.float32))
        assert np.array_equal(t.grad, np.arange(6).reshape(2, 3) + 1)

    def test_float64_contribution_to_float32_slot_is_cast(self):
        t = Tensor(np.zeros((2, 3), np.float32), requires_grad=True)
        g = np.random.default_rng(34).normal(size=(2, 3))
        t.accumulate_grad(g)
        assert t.grad.dtype == np.float32 and not np.shares_memory(t.grad, g)
        assert np.array_equal(t.grad, g.astype(np.float32))

    def test_read_only_contribution_is_copied(self):
        t = Tensor(np.zeros((2, 3)), requires_grad=True)
        g = np.broadcast_to(np.arange(3.0), (2, 3))
        t.accumulate_grad(g)
        assert t.grad.flags.writeable and not np.shares_memory(t.grad, g)
        t.accumulate_grad(np.ones((2, 3)))
        assert np.array_equal(t.grad, [[1, 2, 3], [1, 2, 3]])

    def test_desk_parameter_gradients_are_separate_arrays(self):
        model = build_grid(DESK, (16, 16), seed=2)
        rng = np.random.default_rng(35)
        tape = Tape()
        logits = model.forward(rng.normal(size=(2, 3, 16, 16)).astype(np.float32),
                               training=True, tape=tape)
        backward(tape, softmax_cross_entropy(logits, rng.integers(0, 4, (2, 16, 16)),
                                             tape=tape))
        params = [p for _, p in model.named_parameters()]
        for p in params:
            assert p.grad.dtype == p.dtype and p.grad.shape == p.shape
            assert p.grad.flags.writeable
        grads = [p.grad for p in params]
        for i, a in enumerate(grads):
            assert not any(np.shares_memory(a, b) for b in grads[i + 1:])

    @pytest.mark.parametrize("spec", [DESK, CONCAT], ids=["desk", "concat"])
    def test_train_step_bit_equal_to_zero_filled_slots(self, spec, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(Tensor, "accumulate_grad", _zero_fill_accumulate_grad)
            want, want_optim = _train_one_step(spec)
        got, got_optim = _train_one_step(spec)
        pairs = [(a.data, b.data) for (_, a), (_, b) in
                 zip(got.named_parameters(), want.named_parameters(), strict=True)]
        pairs += [(a, b) for (_, a), (_, b) in
                  zip(got.named_buffers(), want.named_buffers(), strict=True)]
        pairs += list(zip(got_optim.m + got_optim.v, want_optim.m + want_optim.v, strict=True))
        for a, b in pairs:
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
