"""Optimizer tests against a scalar reference implementation."""

import math

import numpy as np
import pytest

from gridseg import Tensor
from gridseg.optim import Adam, GradientError


def scalar_adam(theta, grads, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8, lr_decay=0.0):
    """Textbook update on one float, one step per listed gradient."""
    m = v = 0.0
    for t, g in enumerate(grads, start=1):
        lr_t = lr / (1.0 + lr_decay * (t - 1))
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        theta -= lr_t * mhat / (math.sqrt(vhat) + eps)
    return theta


class TestAdam:
    def test_first_step_moves_by_lr(self):
        p = Tensor(np.zeros(3, np.float64), requires_grad=True)
        p.grad = np.array([3.0, -0.5, 1e-3])
        Adam([("p", p)], lr=0.01).step()
        # bias correction makes the first step lr * g/(|g| + eps)
        assert np.allclose(p.data, [-0.01, 0.01, -0.01], atol=1e-9)

    def test_matches_scalar_reference(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=4)
        grad_seq = rng.normal(size=(100, 4))
        p = Tensor(values.copy(), requires_grad=True)
        opt = Adam([("p", p)], lr=0.02, lr_decay=0.01)
        for g in grad_seq:
            p.grad = g.copy()
            opt.step()
        for k in range(4):
            want = scalar_adam(values[k], grad_seq[:, k], lr=0.02, lr_decay=0.01)
            assert abs(p.data[k] - want) < 1e-12

    def test_zero_gradient_leaves_params_fixed(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = Adam([("p", p)])
        for _ in range(5):
            p.grad = np.zeros(2)
            opt.step()
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_missing_gradient_treated_as_zero(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("p", p), ("q", q)], lr=0.1)
        p.grad = np.array([1.0])
        opt.step()
        assert q.data[0] == 1.0 and p.data[0] != 1.0
        assert opt.t == 1

    def test_nonfinite_gradient_names_param_and_mutates_nothing(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        q = Tensor(np.array([2.0]), requires_grad=True)
        opt = Adam([("weights.p", p), ("weights.q", q)], lr=0.1)
        p.grad = np.array([1.0])
        q.grad = np.array([np.nan])
        with pytest.raises(GradientError, match="weights.q"):
            opt.step()
        assert p.data[0] == 1.0 and opt.t == 0
        assert (opt.m[0] == 0).all()

    def test_grads_cleared_after_step(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        opt = Adam([("p", p)])
        p.grad = np.array([1.0])
        opt.step()
        assert p.grad is None

    def test_inverse_time_schedule(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1, lr_decay=0.5)
        assert opt.effective_lr(1) == 0.1
        assert opt.effective_lr(2) == pytest.approx(0.1 / 1.5)
        assert opt.effective_lr(11) == pytest.approx(0.1 / 6.0)

    def test_multiplicative_schedule(self):
        p = Tensor(np.array([0.0]), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1, lr_decay=0.1, decay_mode="multiplicative")
        assert opt.effective_lr(1) == 0.1
        assert opt.effective_lr(3) == pytest.approx(0.1 * 0.81)

    def test_float32_params_stay_float32(self):
        p = Tensor(np.ones(2, np.float32), requires_grad=True)
        opt = Adam([("p", p)], lr=0.5)
        p.grad = np.ones(2, np.float32)
        opt.step()
        assert p.dtype == np.float32
        assert opt.m[0].dtype == np.float64

    def test_validation(self):
        p = Tensor(np.ones(1), requires_grad=True)
        with pytest.raises(ValueError):
            Adam([("p", p)], lr=0.0)
        with pytest.raises(ValueError):
            Adam([("p", p)], beta1=1.0)
        with pytest.raises(ValueError):
            Adam([("p", p)], decay_mode="staircase")
        # eps = 0 divides 0 by 0 wherever m = v = 0, which is every entry at step 1
        # an infinite lr or lr_decay puts inf or NaN into the parameters at
        # the first step; an infinite eps freezes training
        for bad in ({"eps": 0.0}, {"eps": -1e-8}, {"lr": float("nan")},
                    {"lr_decay": float("nan")}, {"lr": float("inf")},
                    {"eps": float("inf")}, {"lr_decay": float("inf")}):
            with pytest.raises(ValueError):
                Adam([("p", p)], **bad)
        with pytest.raises(ValueError):
            Adam([])
