"""Optimizer tests against a scalar and a per-tensor reference implementation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gridseg.optim
from gridseg import Tensor, build_grid
from gridseg.config import RunConfig
from gridseg.optim import Adam, GradientError
from gridseg.train import make_optimizer


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


class PerTensorAdam:
    """Reference: Adam stepped one tensor at a time, the folded formula
    evaluated term by term into fresh float64 arrays, on its own copies of
    the parameters. `scalar_adam` keeps the textbook form."""

    def __init__(self, params, lr, beta1, beta2, eps, lr_decay):
        self.data = [p.data.copy() for p in params]
        self.m = [np.zeros(p.shape, np.float64) for p in params]
        self.v = [np.zeros(p.shape, np.float64) for p in params]
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.lr_decay = lr_decay
        self.t = 0

    def step(self, grads):
        self.t += 1
        lr_t = self.lr / (1.0 + self.lr_decay * (self.t - 1))
        c1 = 1.0 - self.beta1 ** self.t
        c2 = 1.0 - self.beta2 ** self.t
        for k, data in enumerate(self.data):
            g = np.asarray(grads[k], np.float64) if grads[k] is not None else 0.0
            self.m[k] = self.beta1 * self.m[k] + (1.0 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1.0 - self.beta2) * np.square(g)
            # the bias corrections folded into the step size and eps
            # (Kingma & Ba, arXiv 1412.6980, end of section 2)
            alpha_t = lr_t * math.sqrt(c2) / c1
            update = self.m[k] * alpha_t / (np.sqrt(self.v[k]) + self.eps * math.sqrt(c2))
            self.data[k] = (data.astype(np.float64) - update).astype(data.dtype)


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def arena_cases(draw):
    """Parameter shapes (0-d included), a dtype, an initial scale, Adam
    settings and, for each step, which gradients are absent."""
    shapes = draw(st.lists(st.lists(st.integers(1, 4), max_size=4).map(tuple),
                           min_size=1, max_size=5))
    hyper = {"lr": draw(st.sampled_from([1e-3, 0.05, 0.5])),
             "beta1": draw(st.sampled_from([0.0, 0.9])),
             "beta2": draw(st.sampled_from([0.5, 0.999])),
             "eps": draw(st.sampled_from([1e-8, 1e-3])),
             "lr_decay": draw(st.sampled_from([0.0, 0.1, 0.9]))}
    absent = draw(st.lists(st.lists(st.booleans(), min_size=len(shapes),
                                    max_size=len(shapes)), min_size=1, max_size=5))
    # zero parameters make the first update show in full, not rounded into
    # the parameter's own last bit
    scale = draw(st.sampled_from([0.0, 1e-6, 1.0]))
    return (shapes, draw(st.sampled_from([np.float32, np.float64])), scale, hyper, absent,
            draw(st.integers(0, 2**32 - 1)))


def blocked_adam(block, *args, **kwargs):
    """An Adam whose update runs over blocks of ``block`` elements (None:
    the default block)."""
    with pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(gridseg.optim, "BLOCK", block)
        return Adam(*args, **kwargs)


class TestFlatArena:
    @settings(max_examples=80, deadline=None)
    @given(case=arena_cases())
    def test_matches_per_tensor_reference(self, case):
        """At the default block size and at 1, 3 and 7 elements a block:
        each element sees the same operations whatever the blocks."""
        shapes, dtype, scale, hp, absent, seed = case
        for block in (None, 1, 3, 7):
            rng = np.random.default_rng(seed)
            params = [Tensor((scale * rng.normal(size=s)).astype(dtype), requires_grad=True)
                      for s in shapes]
            ref = PerTensorAdam(params, **hp)
            opt = blocked_adam(block, [(f"p{k}", p) for k, p in enumerate(params)], **hp)
            for skip in absent:
                grads = [None if off else (rng.normal(size=s) * 10.0 ** rng.integers(-6, 4))
                         .astype(dtype) for s, off in zip(shapes, skip)]
                for p, g in zip(params, grads):
                    p.grad = g
                ref.step(grads)
                opt.step()
            assert opt.t == ref.t
            for k, p in enumerate(params):
                for a, b in (p.data, ref.data[k]), (opt.m[k], ref.m[k]), (opt.v[k], ref.v[k]):
                    assert same_bits(a, b), (block, k)
                assert p.grad is None

    def test_parameters_and_moments_are_views_of_one_buffer(self):
        shapes = [(2, 3), (), (4,), (1, 2, 2, 1)]
        params = [Tensor(np.full(s, k, np.float32), requires_grad=True)
                  for k, s in enumerate(shapes)]
        opt = Adam([(f"p{k}", p) for k, p in enumerate(params)])
        for arrays, dtype in ([p.data for p in params], np.float32), (opt.m, np.float64), \
                (opt.v, np.float64):
            base = arrays[0].base
            assert base.dtype == dtype and base.size == sum(a.size for a in arrays)
            assert all(a.base is base and np.shares_memory(a, base) for a in arrays)
            # packed in name order, back to back
            starts = [a.__array_interface__["data"][0] for a in arrays]
            ends = np.cumsum([0] + [a.nbytes for a in arrays[:-1]])
            assert [s - starts[0] for s in starts] == list(ends)
        for k, p in enumerate(params):
            assert p.shape == shapes[k] and (p.data == k).all()

    def test_mixed_dtypes_rejected(self):
        p = Tensor(np.ones(2, np.float32), requires_grad=True)
        q = Tensor(np.ones(2, np.float64), requires_grad=True)
        with pytest.raises(ValueError, match="one dtype"):
            Adam([("p", p), ("q", q)])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_gradient_moves_nothing(self, bad):
        """Also at 3 elements a block, where a NaN sits in the last block:
        nothing moves in the first either. The gradients are cleared."""
        for block in (None, 3):
            rng = np.random.default_rng(3)
            params = [Tensor(rng.normal(size=s).astype(np.float32), requires_grad=True)
                      for s in [(3,), (2, 2), (5,)]]
            opt = blocked_adam(block, [(f"p{k}", p) for k, p in enumerate(params)], lr=0.1)
            for _ in range(2):
                for p in params:
                    p.grad = rng.normal(size=p.shape).astype(np.float32)
                opt.step()
            before = [a.copy() for a in [p.data for p in params] + opt.m + opt.v]
            for p in params:
                p.grad = rng.normal(size=p.shape).astype(np.float32)
            params[1].grad[1, 0] = bad
            params[2].grad[4] = np.nan
            with pytest.raises(GradientError, match="non-finite gradient in p1$"):
                opt.step()
            assert opt.t == 2
            after = [p.data for p in params] + opt.m + opt.v
            assert all(same_bits(a, b) for a, b in zip(before, after))
            assert all(p.grad is None for p in params)

    def test_step_after_a_raised_one_starts_afresh(self):
        """A raise clears every gradient, so the next backward's gradients
        step the model as if the bad ones had never been there."""
        rng = np.random.default_rng(4)
        shapes = [(3,), (2, 2)]
        start = [rng.normal(size=s) for s in shapes]
        grads = [rng.normal(size=s) for s in shapes]
        runs = []
        for bad in (True, False):
            params = [Tensor(v.copy(), requires_grad=True) for v in start]
            opt = Adam([(f"p{k}", p) for k, p in enumerate(params)], lr=0.1)
            if bad:
                params[0].grad = np.array([1.0, np.inf, 2.0])
                params[1].grad = np.ones((2, 2))
                with pytest.raises(GradientError, match="p0$"):
                    opt.step()
            for p, g in zip(params, grads):
                Tensor.accumulate_grad(p, g.copy())
            opt.step()
            runs.append([p.data for p in params] + opt.m + opt.v + [opt.t])
        for a, b in zip(*runs, strict=True):
            assert same_bits(np.asarray(a), np.asarray(b))

    def test_gradient_too_large_to_square_is_finite(self):
        """1e200 is finite, but its square overflows: the step would make v
        infinite and freeze that coordinate for good. It raises naming the
        tensor, clears every gradient and moves nothing, also at 2 elements
        a block, where it sits in the second block of its tensor."""
        for block in (None, 2):
            rng = np.random.default_rng(5)
            params = [Tensor(rng.normal(size=s), requires_grad=True) for s in [(3,), (4,)]]
            opt = blocked_adam(block, [("p", params[0]), ("q", params[1])], lr=0.1)
            for p in params:
                p.grad = rng.normal(size=p.shape)
            opt.step()
            before = [a.copy() for a in [p.data for p in params] + opt.m + opt.v]
            params[0].grad = np.array([1.0, -1.0, 0.0])
            params[1].grad = np.array([0.5, 0.0, -1e200, 2.0])
            with pytest.raises(GradientError, match="gradient too large to square in q$"):
                opt.step()
            assert opt.t == 1 and all(p.grad is None for p in params)
            after = [p.data for p in params] + opt.m + opt.v
            assert all(same_bits(a, b) for a, b in zip(before, after))

    def test_squares_whose_sum_overflows_step(self):
        """Entries of 1e154 square to 1e308, finite, but two of them
        overflow the one-pass sum: the tensor-by-tensor check finds every
        square finite and the step goes ahead, as the formula gives it."""
        p = Tensor(np.zeros(3), requires_grad=True)
        opt = Adam([("p", p)], lr=0.1)
        p.grad = np.array([1e154, -1e154, 0.0])
        opt.step()
        assert opt.t == 1 and p.grad is None
        assert p.data[0] == pytest.approx(-0.1) and p.data[1] == pytest.approx(0.1)
        assert p.data[2] == 0.0 and np.isfinite(opt.v[0]).all()

    def test_step_allocates_less_than_a_float64_copy(self):
        """The desk model's step works in buffers allocated once, so its
        traced peak stays below one float64 array per parameter."""
        cfg = RunConfig()
        model = build_grid(cfg.grid, (cfg.augment.out_size,) * 2, seed=0)
        opt = make_optimizer(model, cfg.train)
        params = [p for _, p in model.named_parameters()]
        for p in params:
            p.grad = np.ones_like(p.data)
        count = sum(p.size for p in params)
        tracemalloc.start()
        try:
            opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * count, (peak, count)


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
