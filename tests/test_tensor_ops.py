"""Forward-op tests against brute-force oracles and frozen hand values."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
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
    """Reference: batch norm with moments from np.mean and np.var and a
    fresh array for each intermediate, as before the input was centred
    once. Reads bn's parameters and statistics before the op under test
    updates them; returns a function of the output gradient g that gives
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
        # each is the first contribution to an empty gradient slot, which
        # keeps it as it is (a -0.0 stays -0.0)
        return [y, running_mean, running_var, dx, gxhat, gsum]

    return with_grads


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

    @settings(max_examples=120, deadline=None)
    @given(shape=st.tuples(*[st.integers(1, 4)] * 4), training=st.booleans(),
           dtype=st.sampled_from([np.float32, np.float64]),
           loc=st.floats(-100, 100), scale=st.sampled_from([1e-3, 1.0, 1e3]),
           seed=st.integers(0, 2**32 - 1), x_grad=st.booleans())
    def test_bit_equal_to_mean_var_reference(self, shape, training, dtype, loc, scale, seed,
                                             x_grad):
        """Without x_grad this is the stem: the gamma map takes the shared
        per-channel sums and x gets no gradient."""
        n, c, h, w = shape
        assume(n * h * w >= 2)
        rng = np.random.default_rng(seed)
        x = Tensor((loc + scale * rng.normal(size=shape)).astype(dtype), requires_grad=x_grad)
        bn = BatchNorm(c, dtype=dtype)
        bn.gamma.data[:] = rng.normal(size=c)
        bn.beta.data[:] = rng.normal(size=c)
        bn.running_mean[:] = rng.normal(size=c)
        bn.running_var[:] = rng.uniform(0.1, 10.0, size=c)
        want = batch_norm_mean_var(x.data, bn, training)
        tape = Tape()
        out = batch_norm(x, bn, training, tape)
        labels = rng.integers(0, c, (n, h, w))
        backward(tape, softmax_cross_entropy(out, labels, tape=tape))
        got = [out.data, bn.running_mean, bn.running_var, x.grad, bn.gamma.grad, bn.beta.grad]
        want = want(out.grad)
        if not x_grad:
            assert x.grad is None
            del got[3], want[3]
        for a, b in zip(got, want, strict=True):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# elementwise
# ---------------------------------------------------------------------------

class TestElementwise:
    def test_relu_clamps_negatives(self):
        x = np.array([[-2.0, 0.0], [3.5, -0.1]]).reshape(1, 1, 2, 2)
        out = relu(Tensor(x)).data
        assert np.array_equal(out, [[[[0.0, 0.0], [3.5, 0.0]]]])

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


class TestRecordingRule:
    def test_input_without_grad_costs_no_adjoint(self, monkeypatch):
        """A conv over an image that takes no gradient never maps its output
        gradient back to the image."""
        import gridseg.ops

        def refuse(*args):
            raise AssertionError("_adjoint_corr2d called for an input without grad")

        monkeypatch.setattr(gridseg.ops, "_adjoint_corr2d", refuse)
        rng = np.random.default_rng(21)
        x = Tensor(rng.normal(size=(2, 3, 5, 5)))
        params = make_conv(rng.normal(size=(4, 3, 3, 3)), np.zeros(4), 1, (1, 1))
        tape = Tape()
        loss = softmax_cross_entropy(conv2d(x, params, tape),
                                     rng.integers(0, 4, (2, 5, 5)), tape=tape)
        backward(tape, loss)
        assert x.grad is None
        assert params.weight.grad is not None and params.bias.grad is not None

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


# ---------------------------------------------------------------------------
# gradient slots
# ---------------------------------------------------------------------------

def _loss_grad(y, labels):
    """Gradient of the mean cross-entropy at logits ``y``, taken through a leaf."""
    z = Tensor(y.copy(), requires_grad=True)
    tape = Tape()
    backward(tape, softmax_cross_entropy(z, labels, tape=tape))
    return z.grad


def _zero_fill_accumulate_grad(self, g):
    """Reference slot rule: every slot starts at zero and adds each contribution."""
    if self.grad is None:
        self.grad = np.zeros_like(self.data)
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


DESK = RunConfig().grid
CONCAT = GridSpec(3, symmetric_columns(1, 1), base_channels=4, num_classes=4,
                  fusion="concat", vertical_residual=True)


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
