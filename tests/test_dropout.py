"""Unit-dropout sampling and forward-equivalence tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridseg import (ConnectionMask, DropMask, GridSpec, build_grid, sample_drop_mask,
                     symmetric_columns)
from gridseg.grid import named_leaves
from gridseg.tensor import Tensor
from gridseg.train import KEY_DROP


def small_model(seed=0, mask=None, p=0.9):
    spec = GridSpec(3, symmetric_columns(2, 2), 4, 2, dropout_p=p)
    return build_grid(spec, (16, 16), mask=mask, seed=seed)


class TestSampling:
    def test_same_step_same_mask(self):
        model = small_model(p=0.7)
        a = sample_drop_mask(model, seed=42, step=5)
        b = sample_drop_mask(model, seed=42, step=5)
        assert a.keep == b.keep

    def test_steps_vary(self):
        model = small_model(p=0.5)
        masks = [sample_drop_mask(model, seed=42, step=s).keep for s in range(20)]
        assert any(m != masks[0] for m in masks[1:])

    def test_mask_is_recomputable_out_of_order(self):
        model = small_model(p=0.5)
        later = sample_drop_mask(model, seed=9, step=100)
        again = sample_drop_mask(model, seed=9, step=100)
        assert later.keep == again.keep

    def test_extremes(self):
        assert all(sample_drop_mask(small_model(p=1.0), 0, 3).keep.values())
        assert not any(sample_drop_mask(small_model(p=0.0), 0, 3).keep.values())

    def test_gate_count_on_paper_grid(self):
        # first sub column only has a residual unit on stream 0 (the other
        # streams have no horizontal predecessor), every later column has
        # one per stream: 1 + 5*5 = 26
        spec = GridSpec(5, symmetric_columns(3, 3), 4, 2, dropout_p=0.9)
        model = build_grid(spec, (16, 16))
        mask = sample_drop_mask(model, 0)
        assert len(mask.keep) == 26

    def test_default_keep_for_unknown_unit(self):
        m = DropMask({(0, 0): False})
        assert m.keeps(3, 7)
        assert not m.keeps(0, 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_drop_mask(small_model(), -1)

    @pytest.mark.parametrize("seed,step", [(2**128, 0), (-1, 0), (0, -1),
                                           (0.5, 0), (True, 0), ("3", 0),
                                           (0, 0.5), (0, True), (0, "3")])
    def test_seed_and_step_rule(self, seed, step):
        # one message for the rule, not numpy's bare "key must be positive",
        # nor a bare TypeError, nor True run as seed 1
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\) and counter"):
            sample_drop_mask(small_model(p=0.5), seed, step)

    def test_numpy_integer_seed_draws_the_int_seeds_mask(self):
        model = small_model(p=0.5)
        want = sample_drop_mask(model, 3, 7).keep
        for seed in (np.int64(3), np.uint64(3)):
            assert sample_drop_mask(model, seed, 7).keep == want

    def test_numpy_integer_step_draws_the_int_steps_mask(self):
        model = small_model(p=0.5)
        want = sample_drop_mask(model, 7, 3).keep
        for step in (np.int64(3), np.uint64(3)):
            assert sample_drop_mask(model, 7, step).keep == want

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1), step=st.integers(0, 2**64), p=st.floats(0, 1))
    @example(seed=0, step=0, p=0.5)
    @example(seed=2**128 - 1, step=2**64, p=0.9)
    def test_mask_is_the_direct_philox_draw(self, seed, step, p):
        model = small_model(p=p)
        gates = model.residual_gate_ids()
        rng = np.random.Generator(np.random.Philox(key=seed ^ KEY_DROP, counter=step))
        u = rng.random(len(gates))
        mask = sample_drop_mask(model, seed, step)
        assert mask.keep == {g: bool(u[k] < p) for k, g in enumerate(gates)}


class TestForwardEquivalence:
    def test_keep_all_matches_no_mask(self):
        model = small_model(seed=3, p=1.0)
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32)
        keep_all = sample_drop_mask(model, seed=1, step=0)
        a = model.forward(x, training=True, drop_mask=keep_all).data
        b = small_model(seed=3).forward(x, training=True).data
        assert np.array_equal(a, b)

    def test_drop_all_matches_residuals_switched_off(self):
        # dropping every unit must equal a twin model whose connection mask
        # disables the residual mappings outright (identical parameters,
        # since masked allocation does not depend on the mask)
        model = small_model(seed=3, p=0.0)
        x = np.random.default_rng(1).normal(size=(2, 3, 16, 16)).astype(np.float32)
        drop_all = sample_drop_mask(model, seed=1, step=0)
        a = model.forward(x, training=True, drop_mask=drop_all).data

        off = ConnectionMask.all_on(model.spec)
        off.residual_on[...] = False
        twin2 = small_model(seed=3, mask=off)
        b = twin2.forward(x, training=True).data
        assert np.array_equal(a, b)

    def test_partial_mask_changes_output(self):
        model = small_model(seed=3)
        x = np.random.default_rng(2).normal(size=(1, 3, 16, 16)).astype(np.float32)
        full = model.forward(x, training=True).data
        mask = DropMask({(0, 0): False})
        dropped = small_model(seed=3).forward(x, training=True, drop_mask=mask).data
        assert not np.array_equal(full, dropped)

    def test_eval_rejects_mask(self):
        model = small_model()
        x = np.zeros((1, 3, 16, 16), np.float32)
        mask = sample_drop_mask(model, 0)
        with pytest.raises(ValueError, match="training-mode"):
            model.forward(x, drop_mask=mask)

    def test_dropped_units_get_no_gradient(self):
        from gridseg import Tape, backward, softmax_cross_entropy

        model = small_model(seed=5)
        x = np.random.default_rng(3).normal(size=(1, 3, 16, 16)).astype(np.float32)
        labels = np.zeros((1, 16, 16), np.int64)
        mask = DropMask({(0, 0): False})
        tape = Tape()
        logits = model.forward(x, training=True, drop_mask=mask, tape=tape)
        loss = softmax_cross_entropy(logits, labels, tape=tape)
        backward(tape, loss)
        gated = dict(named_leaves(model.blocks[(0, 0)], "b", Tensor))
        for name, p in gated.items():
            if ".res." in name:
                assert p.grad is None, name