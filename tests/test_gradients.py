"""Finite-difference checks for every differentiable op, double precision."""

import numpy as np
import pytest

from gridseg import (
    BatchNorm,
    ConvParams,
    Tensor,
    add,
    batch_norm,
    concat_channels,
    conv2d,
    deconv2d_up,
    finite_diff_gradcheck,
    relu,
    softmax_cross_entropy,
)

TOL = 1e-4
STEP = 1e-5


def check(loss_fn, named_params, n_coords=60, seed=0):
    report = finite_diff_gradcheck(loss_fn, named_params, n_coords=n_coords,
                                   step=STEP, seed=seed)
    assert report.checked >= min(50, n_coords - report.skipped), report.to_dict()
    assert report.max_rel_error < TOL, report.to_dict()
    return report


def test_conv2d_gradients():
    rng = np.random.default_rng(10)
    x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 3, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    labels = rng.integers(0, 4, (2, 6, 6))
    params = ConvParams(w, b, stride=1, padding=(1, 1))

    def loss_fn(tape):
        return softmax_cross_entropy(conv2d(x, params, tape), labels, tape=tape)

    check(loss_fn, [("x", x), ("w", w), ("b", b)], n_coords=80)


# stride-2 geometries: a 3x3 kernel at padding 1, and a 1x1 kernel at
# padding 0, whose odd output phases take no tap; the 7x7 and 8x8 sides
# are the two output paddings of a transposed conv from 4x4
STRIDE2 = pytest.mark.parametrize("k,pad", [(3, 1), (1, 0)])
SIDES = pytest.mark.parametrize("side", [7, 8])


@STRIDE2
@SIDES
def test_conv2d_down_gradients(k, pad, side):
    rng = np.random.default_rng(11)
    x = Tensor(rng.normal(size=(2, 2, side, side)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2, k, k)), requires_grad=True)
    b = Tensor(rng.normal(size=4), requires_grad=True)
    labels = rng.integers(0, 4, (2, 4, 4))
    params = ConvParams(w, b, stride=2, padding=(pad, pad))

    def loss_fn(tape):
        return softmax_cross_entropy(conv2d(x, params, tape), labels, tape=tape)

    check(loss_fn, [("x", x), ("w", w), ("b", b)], n_coords=80)


@STRIDE2
@SIDES
def test_deconv2d_up_gradients(k, pad, side):
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(size=(2, 4, 4, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 2, k, k)), requires_grad=True)
    b = Tensor(rng.normal(size=2), requires_grad=True)
    labels = rng.integers(0, 2, (2, side, side))
    params = ConvParams(w, b, stride=2, padding=(pad, pad))

    def loss_fn(tape):
        return softmax_cross_entropy(deconv2d_up(x, params, (side, side), tape), labels,
                                     tape=tape)

    check(loss_fn, [("x", x), ("w", w), ("b", b)], n_coords=80)


def test_batch_norm_train_gradients():
    rng = np.random.default_rng(13)
    x = Tensor(rng.normal(size=(3, 4, 5, 5)), requires_grad=True)
    bn = BatchNorm(4, dtype=np.float64)
    bn.gamma.data[:] = rng.normal(1.0, 0.2, 4)
    bn.beta.data[:] = rng.normal(size=4)
    labels = rng.integers(0, 4, (3, 5, 5))
    base_mean = bn.running_mean.copy()
    base_var = bn.running_var.copy()

    def loss_fn(tape):
        # keep running stats frozen so repeated evaluations stay comparable
        bn.running_mean[:] = base_mean
        bn.running_var[:] = base_var
        return softmax_cross_entropy(batch_norm(x, bn, True, tape), labels, tape=tape)

    check(loss_fn, [("x", x), ("gamma", bn.gamma), ("beta", bn.beta)], n_coords=80)


def test_batch_norm_eval_gradients():
    rng = np.random.default_rng(14)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    bn = BatchNorm(3, dtype=np.float64)
    bn.running_mean[:] = rng.normal(size=3)
    bn.running_var[:] = rng.uniform(0.5, 2.0, 3)
    labels = rng.integers(0, 3, (2, 4, 4))

    def loss_fn(tape):
        return softmax_cross_entropy(batch_norm(x, bn, False, tape), labels, tape=tape)

    check(loss_fn, [("x", x), ("gamma", bn.gamma), ("beta", bn.beta)])


def test_relu_add_fanout_gradients():
    rng = np.random.default_rng(15)
    x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    y = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
    labels = rng.integers(0, 3, (2, 4, 4))

    def loss_fn(tape):
        # x feeds two branches; gradients must sum across the fan-out
        out = add(add(relu(x, tape), y, tape), relu(x, tape), tape)
        return softmax_cross_entropy(out, labels, tape=tape)

    check(loss_fn, [("x", x), ("y", y)], n_coords=80)


def test_concat_gradients():
    rng = np.random.default_rng(16)
    a = Tensor(rng.normal(size=(2, 2, 3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 3, 3)), requires_grad=True)
    labels = rng.integers(0, 5, (2, 3, 3))

    def loss_fn(tape):
        return softmax_cross_entropy(concat_channels([a, b], tape), labels, tape=tape)

    check(loss_fn, [("a", a), ("b", b)])


def test_composite_block_gradients():
    """BN -> relu -> conv -> BN -> relu -> conv residual unit end to end."""
    rng = np.random.default_rng(17)
    x = Tensor(rng.normal(size=(2, 3, 6, 6)), requires_grad=True)
    bn1, bn2 = BatchNorm(3, dtype=np.float64), BatchNorm(3, dtype=np.float64)
    w1 = Tensor(rng.normal(0, 0.5, (3, 3, 3, 3)), requires_grad=True)
    b1 = Tensor(rng.normal(size=3), requires_grad=True)
    w2 = Tensor(rng.normal(0, 0.5, (3, 3, 3, 3)), requires_grad=True)
    b2 = Tensor(rng.normal(size=3), requires_grad=True)
    p1 = ConvParams(w1, b1, 1, (1, 1))
    p2 = ConvParams(w2, b2, 1, (1, 1))
    labels = rng.integers(0, 3, (2, 6, 6))
    frozen = [(bn1.running_mean.copy(), bn1.running_var.copy()),
              (bn2.running_mean.copy(), bn2.running_var.copy())]

    def loss_fn(tape):
        for bn, (m, v) in zip((bn1, bn2), frozen):
            bn.running_mean[:] = m
            bn.running_var[:] = v
        t = conv2d(relu(batch_norm(x, bn1, True, tape), tape), p1, tape)
        t = conv2d(relu(batch_norm(t, bn2, True, tape), tape), p2, tape)
        out = add(x, t, tape)
        return softmax_cross_entropy(out, labels, tape=tape)

    check(loss_fn,
          [("x", x), ("w1", w1), ("b1", b1), ("w2", w2), ("b2", b2),
           ("g1", bn1.gamma), ("be1", bn1.beta), ("g2", bn2.gamma), ("be2", bn2.beta)],
          n_coords=100)


def test_gradcheck_restores_parameters():
    rng = np.random.default_rng(18)
    x = Tensor(rng.normal(size=(1, 2, 3, 3)), requires_grad=True)
    snapshot = x.data.copy()
    labels = rng.integers(0, 2, (1, 3, 3))

    def loss_fn(tape):
        return softmax_cross_entropy(relu(x, tape), labels, tape=tape)

    finite_diff_gradcheck(loss_fn, [("x", x)], n_coords=10, step=STEP)
    assert np.array_equal(x.data, snapshot)
