"""Grid construction, masking, forward wiring, and counting tests.

Frozen counts are derived by hand in the comments next to each assert;
the sequential-composition test rebuilds the single-path topology from
the model's own units, outside the grid evaluation loop.
"""

import dataclasses
import hashlib
import itertools
import json
import math

import numpy as np
import pytest

from gridseg import (
    ConnectionMask,
    GridSpec,
    Tape,
    Tensor,
    activation_tally,
    approx_activation_count,
    approx_param_count,
    backward,
    build_grid,
    count_params_exact,
    fuse_block,
    grid_report,
    ops,
    preset_mask,
    softmax_cross_entropy,
    stream_dims,
    symmetric_columns,
)
from gridseg.config import RunConfig
from gridseg.grid import named_leaves


def spec_2s(**kw):
    kw.setdefault("base_channels", 4)
    kw.setdefault("num_classes", 2)
    return GridSpec(2, symmetric_columns(1, 1), **kw)


def spec_3s(**kw):
    kw.setdefault("base_channels", 4)
    kw.setdefault("num_classes", 3)
    return GridSpec(3, symmetric_columns(2, 2), **kw)


class TestGridSpec:
    def test_roundtrip(self):
        spec = GridSpec(4, ("sub", "sub", "up", "up"), 8, 11, fusion="concat",
                        vertical_residual=True, mask="u_net")
        assert GridSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_rejected(self):
        d = spec_2s().to_dict()
        d["depth"] = 3
        with pytest.raises(ValueError, match="depth"):
            GridSpec.from_dict(d)

    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(0, ())
        with pytest.raises(ValueError):
            GridSpec(2, ("sideways",))
        with pytest.raises(ValueError):
            GridSpec(2, ("sub",), dropout_p=1.5)
        with pytest.raises(ValueError):
            GridSpec(2, ("sub",), fusion="mean")
        with pytest.raises(ValueError):
            GridSpec(2, ("sub",), mask="sparse")

    def test_counts(self):
        spec = GridSpec(5, symmetric_columns(3, 3), 16, 19)
        assert spec.n_columns == 6 and spec.n_sub == 3 and spec.n_up == 3
        assert [spec.stream_channels(i) for i in range(5)] == [16, 32, 64, 128, 256]


class TestStreamDims:
    def test_halving_chain(self):
        spec = GridSpec(5, symmetric_columns(3, 3), 16, 19)
        dims = [stream_dims(spec, i, (400, 400)) for i in range(5)]
        assert dims == [(16, 400, 400), (32, 200, 200), (64, 100, 100),
                        (128, 50, 50), (256, 25, 25)]

    def test_odd_sizes_round_up(self):
        spec = GridSpec(3, symmetric_columns(1, 1), 4, 2)
        assert stream_dims(spec, 2, (13, 21)) == (16, 4, 6)  # 13->7->4, 21->11->6

    def test_bad_index(self):
        with pytest.raises(ValueError):
            stream_dims(spec_2s(), 2, (8, 8))


class TestActivity:
    def test_structural_first_sub_column_fills_all_streams(self):
        model = build_grid(GridSpec(5, symmetric_columns(3, 3), 2, 2), (16, 16))
        # only stream 0 carries a value (the stem) into the first column
        assert [b.identity for b in model.plan if b.col == 0] == [True, False, False,
                                                                  False, False]
        # one sub column cascades to every stream
        assert sorted((b.row, b.col) for b in model.plan) == [(i, t) for i in range(5)
                                                              for t in range(6)]

    def test_up_only_grid_keeps_single_stream(self):
        model = build_grid(GridSpec(3, ("up", "up"), 4, 2), (8, 8))
        assert sorted(model.blocks) == [(0, 0), (0, 1)]
        assert [(b.row, b.col) for b in model.plan] == [(0, 0), (0, 1)]


class TestForwardShapes:
    @pytest.mark.parametrize("fusion", ["sum", "concat"])
    def test_logit_shape(self, fusion):
        model = build_grid(spec_3s(fusion=fusion), (16, 16), seed=1)
        x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32)
        out = model.forward(x)
        assert out.shape == (2, 3, 16, 16)

    def test_size_agnostic_and_odd(self):
        model = build_grid(spec_3s(), (16, 16), seed=1)
        x = np.random.default_rng(0).normal(size=(1, 3, 13, 21)).astype(np.float32)
        assert model.forward(x).shape == (1, 3, 13, 21)

    def test_interleaved_columns(self):
        spec = GridSpec(3, ("sub", "up", "sub", "up"), 4, 2)
        model = build_grid(spec, (12, 12), seed=0)
        x = np.random.default_rng(1).normal(size=(1, 3, 12, 12)).astype(np.float32)
        assert model.forward(x).shape == (1, 2, 12, 12)

    def test_no_columns_is_stem_plus_head(self):
        model = build_grid(GridSpec(1, (), 4, 2), (8, 8), seed=0)
        x = np.random.default_rng(2).normal(size=(1, 3, 8, 8)).astype(np.float32)
        trace = {}
        out = model.forward(x, trace=trace)
        want = ops.conv2d(ops.conv2d(ops.batch_norm(Tensor(x), model.stem_bn, False),
                                     model.stem_conv), model.head)
        assert np.array_equal(out.data, want.data)
        assert set(trace) == {"stem", "logits"}

    def test_deterministic_rebuild(self):
        a = build_grid(spec_3s(), (16, 16), seed=7)
        b = build_grid(spec_3s(), (16, 16), seed=7)
        x = np.random.default_rng(3).normal(size=(2, 3, 16, 16)).astype(np.float32)
        assert np.array_equal(a.forward(x).data, b.forward(x).data)

    def test_input_validation(self):
        model = build_grid(spec_3s(), (16, 16))
        with pytest.raises(ValueError, match="too small"):
            build_grid(spec_3s(), (3, 16))
        with pytest.raises(ValueError, match="minimum side"):
            model.forward(np.zeros((1, 3, 2, 16), np.float32))
        with pytest.raises(ValueError, match="expected input"):
            model.forward(np.zeros((1, 1, 16, 16), np.float32))
        with pytest.raises(ValueError, match="mask shape"):
            build_grid(spec_3s(), (16, 16), mask=ConnectionMask.all_on(spec_2s()))

    def test_unreachable_mask_rejected(self):
        mask = ConnectionMask.all_on(spec_2s())
        mask.horizontal_on[:, 1] = False
        mask.vertical_on[:, 1] = False  # nothing can reach the last column
        with pytest.raises(ValueError, match="unreachable"):
            build_grid(spec_2s(), (8, 8), mask=mask)


class TestZeroUnits:
    def test_zero_units_pass_stem_through(self):
        # with every learned unit zeroed, sum fusion reduces to the identity
        # wire, so the last stream-0 block must equal the stem output
        model = build_grid(spec_3s(), (16, 16), seed=5)
        for (i, t), block in model.blocks.items():
            for unit in (block.res, block.vert):
                if unit is None:
                    continue
                for name, p in named_leaves(unit, "u", Tensor):
                    if "conv" in name or "shortcut" in name:
                        p.data[...] = 0.0
        x = np.random.default_rng(4).normal(size=(2, 3, 16, 16)).astype(np.float32)
        trace = {}
        model.forward(x, trace=trace)
        last_col = model.spec.n_columns - 1
        assert np.array_equal(trace[(0, last_col)].data, trace["stem"].data)


# hand-worked conv_deconv path for 3 streams, 2 sub + 2 up columns:
#   depth targets ceil(s*2/2) = [1, 2] then floor((2-u)*2/2) = [1, 0]
PATH_3S = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (1, 2), (1, 3), (0, 3)]
GATES_3S = [(0, 0), (1, 1), (2, 2), (1, 3)]


class TestPresets:
    def test_full_matches_structural(self):
        model = build_grid(spec_3s(), (16, 16), mask=preset_mask("full", spec_3s()))
        assert sorted((b.row, b.col) for b in model.plan) == sorted(model.blocks)

    def test_conv_deconv_single_path(self):
        model = build_grid(spec_3s(mask="conv_deconv"), (16, 16))
        assert [(b.row, b.col) for b in model.plan] == PATH_3S
        assert model.residual_gate_ids() == GATES_3S
        # on a single path every computed block has exactly one incoming
        # source (its residual rides the identity, so it is not a second
        # source), and a vertical source is the block's neighbour on the path
        for prev, b in zip([None] + model.plan, model.plan):
            assert b.identity + (b.src is not None) == 1, (b.row, b.col)
            if b.src is not None:
                assert (b.src, b.col) == (prev.row, prev.col)

    def test_conv_deconv_five_streams_path(self):
        spec = GridSpec(5, symmetric_columns(3, 3), 4, 2, mask="conv_deconv")
        model = build_grid(spec, (16, 16))
        assert model.residual_gate_ids() == [(0, 0), (2, 1), (3, 2), (4, 3), (2, 4), (1, 5)]
        assert len(model.plan) == 14

    def test_conv_deconv_matches_sequential_composition(self):
        model = build_grid(spec_3s(mask="conv_deconv"), (16, 16), seed=11)
        rng = np.random.default_rng(6)
        hw = [stream_dims(model.spec, i, (16, 16))[1:] for i in range(3)]
        for _ in range(3):
            x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
            got = model.forward(x).data
            # same units, composed as a plain encoder-decoder chain
            b = model.blocks
            v = ops.conv2d(ops.batch_norm(Tensor(x), model.stem_bn, False),
                           model.stem_conv)
            v = ops.add(v, b[(0, 0)].res.forward(v, False, None))
            v = b[(1, 0)].vert.forward(v, hw[1], False, None)
            v = ops.add(v, b[(1, 1)].res.forward(v, False, None))
            v = b[(2, 1)].vert.forward(v, hw[2], False, None)
            v = ops.add(v, b[(2, 2)].res.forward(v, False, None))
            v = b[(1, 2)].vert.forward(v, hw[1], False, None)
            v = ops.add(v, b[(1, 3)].res.forward(v, False, None))
            v = b[(0, 3)].vert.forward(v, hw[0], False, None)
            want = ops.conv2d(v, model.head).data
            assert np.max(np.abs(got - want)) < 1e-6

    def test_u_net_adds_skip_wires(self):
        spec = spec_3s(mask="u_net")
        mask = preset_mask("u_net", spec)
        base = preset_mask("conv_deconv", spec_3s(mask="conv_deconv"))
        extra = mask.horizontal_on & ~base.horizontal_on
        assert sorted(zip(*np.nonzero(extra))) == [(0, 1), (0, 2), (0, 3), (1, 2)]
        assert np.array_equal(mask.vertical_on, base.vertical_on)
        model = build_grid(spec, (16, 16))
        # return blocks fuse the skip wire with the upsampled value
        for (i, t) in [(1, 2), (0, 3)]:
            assert model.blocks[(i, t)].identity and model.blocks[(i, t)].src == i + 1
        x = np.random.default_rng(7).normal(size=(1, 3, 16, 16)).astype(np.float32)
        assert model.forward(x).shape == (1, 3, 16, 16)

    def test_frrn_wires(self):
        spec = spec_3s(mask="frrn")
        mask = preset_mask("frrn", spec)
        assert mask.horizontal_on.all() and mask.vertical_on.all()
        assert mask.residual_on[0].all() and not mask.residual_on[1:].any()
        model = build_grid(spec, (16, 16))
        assert len(model.plan) == len(model.blocks)
        assert model.residual_gate_ids() == [(0, 0), (0, 1), (0, 2), (0, 3)]

    def test_presets_reject_bad_layouts(self):
        with pytest.raises(ValueError, match="sub columns before"):
            preset_mask("conv_deconv", GridSpec(3, ("up", "up", "sub", "sub"), 4, 2))
        with pytest.raises(ValueError, match="at least one sub"):
            preset_mask("u_net", GridSpec(3, ("sub", "sub"), 4, 2))
        with pytest.raises(ValueError, match="two streams"):
            preset_mask("frrn", GridSpec(1, ("sub",), 4, 2))
        with pytest.raises(ValueError, match="unknown mask preset"):
            preset_mask("dense", spec_2s())


def _reference_path_mask(name, spec):
    """Path presets walked column by column: the reference for the closed
    form in ``preset_mask``."""
    n, cols = spec.n_streams, spec.n_columns
    h, r, v = (np.zeros((n, cols), bool) for _ in range(3))
    profile = [math.ceil(s * (n - 1) / spec.n_sub) for s in range(1, spec.n_sub + 1)]
    profile += [((spec.n_up - u) * (n - 1)) // spec.n_up for u in range(1, spec.n_up + 1)]
    pos = 0
    left_at, returned_at = {}, {}
    for t, kind in enumerate(spec.column_kinds):
        target = profile[t]
        h[pos, t] = r[pos, t] = True
        if kind == "sub":
            for q in range(pos, target):
                left_at[q] = t
            for q in range(pos + 1, target + 1):
                v[q, t] = True
        else:
            for q in range(target, pos):
                returned_at.setdefault(q, t)
            for q in range(pos - 1, target - 1, -1):
                v[q, t] = True
        pos = target
    if name == "u_net":
        for q, t_left in left_at.items():
            t_back = returned_at.get(q)
            if t_back is not None:
                h[q, t_left + 1:t_back + 1] = r[q, t_left + 1:t_back + 1] = True
    return h, r, v


class TestPathPresetFormula:
    @pytest.mark.parametrize("name", ["conv_deconv", "u_net"])
    def test_matches_column_walk(self, name):
        for n, n_sub, n_up in itertools.product(range(2, 8), range(1, 8), range(1, 8)):
            spec = GridSpec(n, symmetric_columns(n_sub, n_up), 2, 2)
            mask = preset_mask(name, spec)
            want = _reference_path_mask(name, spec)
            got = (mask.horizontal_on, mask.residual_on, mask.vertical_on)
            for g, w in zip(got, want):
                assert g.dtype == bool and np.array_equal(g, w), (name, n, n_sub, n_up)


class TestMaskedAllocation:
    def test_masks_share_initialization(self):
        a = build_grid(spec_3s(mask="full"), (16, 16), seed=3)
        b = build_grid(spec_3s(mask="conv_deconv"), (16, 16), seed=3)
        pa, pb = a.named_parameters(), b.named_parameters()
        assert [n for n, _ in pa] == [n for n, _ in pb]
        for (_, x), (_, y) in zip(pa, pb):
            assert np.array_equal(x.data, y.data)


class TestCounting:
    def test_param_estimate_frozen_values(self):
        big = GridSpec(5, symmetric_columns(3, 3), 16, 19)
        # 18 * 4**4 * 16**2 * (2.5*3 + 3 - 2) = 1179648 * 8.5
        assert approx_param_count(big) == 10027008.0
        flat = GridSpec(1, symmetric_columns(3, 3), 16, 19)
        assert approx_param_count(flat) == 39168.0
        with pytest.raises(ValueError):
            approx_param_count(GridSpec(1, (), 16, 19))

    def test_activation_estimate_frozen_value(self):
        big = GridSpec(5, symmetric_columns(3, 3), 16, 19)
        # 6 * 400 * 400 * 16 * (4*3 + 3*3 - 2) = 15360000 * 19
        assert approx_activation_count(big, (400, 400)) == 291840000.0

    def test_exact_count_tiny_hand_value(self):
        # stem bn 2*3 + stem conv 4*3*9+4 + head 2*4+2 = 6 + 112 + 10
        model = build_grid(GridSpec(1, (), 4, 2), (8, 8))
        assert count_params_exact(model) == 128

    def test_exact_count_two_stream_hand_value(self):
        # base 128, block (0,0) res ch4 (8+148+8+148), block (1,0) down
        # (8+296), block (1,1) res ch8 (16+584+16+584), block (0,1) res
        # ch4 plus up (16+288+4)
        model = build_grid(spec_2s(), (8, 8))
        assert count_params_exact(model) == 128 + 312 + 304 + 1200 + 312 + 308

    def test_exact_tracks_estimate_within_factor_two(self):
        spec = GridSpec(5, symmetric_columns(3, 3), 16, 19)
        model = build_grid(spec, (400, 400))
        exact = count_params_exact(model)
        approx = approx_param_count(spec)
        assert 0.5 < exact / approx < 2.0
        tally = activation_tally(model)
        assert 0.5 < tally / approx_activation_count(spec, (400, 400)) < 2.0

    def test_param_count_grows_with_streams(self):
        counts = [count_params_exact(build_grid(
            GridSpec(n, symmetric_columns(3, 3), 16, 19), (32, 32)))
            for n in range(1, 6)]
        assert all(a < b for a, b in zip(counts, counts[1:]))

    def test_activation_tally_hand_values(self):
        # no columns, 8x8: stem bn 3*64 + stem conv 4*64 + head 2*64
        flat = build_grid(GridSpec(1, (), 4, 2), (8, 8))
        assert activation_tally(flat) == 576
        # two streams, sub+up, 8x8, sizes s0=4*64=256, s1=8*16=128:
        #   stem 192+256; (0,0) res 6*256 + 1 add; (1,0) vert 2*256+128;
        #   (1,1) res 6*128 + 1 add; (0,1) res 6*256 + vert 2*128+256
        #   + 2 adds; head 2*64
        model = build_grid(spec_2s(), (8, 8))
        assert activation_tally(model) == 6464

    def test_tally_respects_mask(self):
        full = build_grid(spec_3s(mask="full"), (16, 16))
        path = build_grid(spec_3s(mask="conv_deconv"), (16, 16))
        assert activation_tally(path) < activation_tally(full)

    def test_report_is_json_ready(self):
        import json
        rep = grid_report(build_grid(spec_2s(), (8, 8)))
        text = json.dumps(rep, sort_keys=True)
        assert json.loads(text)["exact_params"] == 2564  # matches the hand count

    def test_report_layout_follows_the_plan(self):
        rep = grid_report(build_grid(spec_3s(mask="conv_deconv"), (16, 13)))
        assert rep["eval_order"] == [f"s{i}c{t + 1}" for i, t in PATH_3S]
        assert rep["stream_shapes"] == [[4, 16, 13], [8, 8, 7], [16, 4, 4]]


class TestFuseBlock:
    def test_sum_order(self):
        rng = np.random.default_rng(9)
        a, b, c = (Tensor(rng.normal(size=(1, 4, 3, 3)).astype(np.float32))
                   for _ in range(3))
        out = fuse_block(a, b, c)
        assert np.array_equal(out.data, (a.data + b.data) + c.data)
        assert np.array_equal(fuse_block(a, None, None).data, a.data)
        assert np.array_equal(fuse_block(None, None, c).data, c.data)
        with pytest.raises(ValueError, match="no inputs"):
            fuse_block(None, None, None)
        with pytest.raises(ValueError, match="without its identity"):
            fuse_block(None, b, None)

    def test_concat_projection(self):
        rng = np.random.default_rng(10)
        a, b, c = (Tensor(rng.normal(size=(2, 4, 3, 3)).astype(np.float64))
                   for _ in range(3))
        proj = ops.conv_params(rng, 4, 8, 1, 1, 1, (0, 0), np.float64)
        out = fuse_block(a, b, c, proj=proj)
        stacked = np.concatenate([a.data + b.data, c.data], axis=1)
        w = proj.weight.data.reshape(4, 8)
        want = np.einsum("oc,nchw->nohw", w, stacked) + proj.bias.data.reshape(1, 4, 1, 1)
        assert np.max(np.abs(out.data - want)) < 1e-12

    def test_concat_zero_fill_keeps_channels(self):
        # a concat model under the single-path mask still projects from the
        # full slot layout; forward must not hit a channel mismatch
        model = build_grid(spec_3s(fusion="concat", mask="conv_deconv"), (16, 16))
        x = np.random.default_rng(11).normal(size=(1, 3, 16, 16)).astype(np.float32)
        assert model.forward(x).shape == (1, 3, 16, 16)


class TestVerticalResidual:
    def test_shortcut_changes_output_and_param_count(self):
        plain = build_grid(spec_2s(), (8, 8), seed=2)
        short = build_grid(spec_2s(vertical_residual=True), (8, 8), seed=2)
        assert count_params_exact(short) > count_params_exact(plain)
        names = [n for n, _ in short.named_parameters()]
        assert any("shortcut" in n for n in names)
        x = np.random.default_rng(12).normal(size=(1, 3, 8, 8)).astype(np.float32)
        assert short.forward(x).shape == (1, 2, 8, 8)


class TestGradientFlow:
    def test_active_parameters_receive_gradients(self):
        model = build_grid(spec_2s(), (8, 8), seed=4)
        x = np.random.default_rng(13).normal(size=(2, 3, 8, 8)).astype(np.float32)
        labels = np.random.default_rng(14).integers(0, 2, size=(2, 8, 8))
        tape = Tape()
        logits = model.forward(x, training=True, tape=tape)
        loss = softmax_cross_entropy(logits, labels, tape=tape)
        backward(tape, loss)
        for name, p in model.named_parameters():
            assert p.grad is not None, name
            assert np.isfinite(p.grad).all(), name

    def test_masked_units_stay_frozen(self):
        model = build_grid(spec_3s(mask="conv_deconv"), (16, 16), seed=4)
        x = np.random.default_rng(15).normal(size=(1, 3, 16, 16)).astype(np.float32)
        labels = np.zeros((1, 16, 16), np.int64)
        tape = Tape()
        loss = softmax_cross_entropy(model.forward(x, training=True, tape=tape),
                                     labels, tape=tape)
        backward(tape, loss)
        # block (0,1) is off the single path entirely
        off_path = dict(named_leaves(model.blocks[(0, 1)], "b", Tensor))
        assert all(p.grad is None for p in off_path.values())
        on_path = dict(named_leaves(model.blocks[(0, 0)], "b", Tensor))
        assert all(p.grad is not None for p in on_path.values())


class CountingOps:
    """Stands in for ``gridseg.grid.ops``: forwards every attribute and adds
    up the elements of each Tensor an op returns to the grid."""

    def __init__(self):
        self.elements = 0

    def __getattr__(self, name):
        fn = getattr(ops, name)
        if not callable(fn) or isinstance(fn, type):
            return fn

        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            if isinstance(out, Tensor):
                self.elements += out.size
            return out

        return counted


def _tally_cases():
    cases = []
    for mask in ("full", "conv_deconv", "u_net", "frrn"):
        for fusion in ("sum", "concat"):
            for vres in (False, True):
                spec = spec_3s(mask=mask, fusion=fusion, vertical_residual=vres)
                cases.append(pytest.param(spec, id=f"{mask}-{fusion}-vres{int(vres)}"))
    for fusion in ("sum", "concat"):
        spec = GridSpec(3, ("sub", "up", "sub", "up"), 2, 3, fusion=fusion)
        cases.append(pytest.param(spec, id=f"interleaved-{fusion}"))
    cases.append(pytest.param(GridSpec(1, (), 2, 3), id="no-columns"))
    return cases


# sha256 of the [name, shape] tables and plan flags of a 4-stream, 3 sub + 2 up grid
_BLOCK_RULE_DIGESTS = {
    ("conv_deconv", "sum"):
        "fa46445952130224f81c2b3e449e5d3567dab138406545fa997f8ae75a79a10a",
    ("conv_deconv", "concat"):
        "e8d9cdb086ed322179fb145173c9b1ab6abc9865feafb72c9e7921de049e0da5",
    ("u_net", "sum"):
        "76233809bd984c67eef95865e0c942c72549fbd3ad3e76a3a5b7da56bbfed055",
    ("u_net", "concat"):
        "841c120222139e837f807ba6aa511c92d565ed469d35a666aa3065bd0ebf25fa",
    ("frrn", "sum"):
        "530f8a70cfa670e34eb6ade2c0c5b44c51a309966b2b6e8ad2ca2e21d5e10b7c",
    ("frrn", "concat"):
        "f391d63ea56e52120823f888947bf5a1d7316bca4e197a4a64363d66b9142841",
}

_DESK = RunConfig().grid
# sha256 over (name, bytes) of every parameter at seed 0; initialization draws
# only from numpy's Generator, so the digests hold on any machine
_INIT_DIGESTS = {
    "desk": (_DESK, "a9767ab6f501a946a02ece8e53072fa46720208501c1d10e624112ce4a20249b"),
    "wide": (dataclasses.replace(_DESK, n_streams=3, column_kinds=symmetric_columns(1, 1),
                                 base_channels=16, fusion="concat", vertical_residual=True),
             "edbebc254d07a4f7c30c21e79a3ef237bf37b24734e204bfa967455cbc59a241"),
    "frrn_interleaved": (dataclasses.replace(_DESK, n_streams=3,
                                             column_kinds=("sub", "up", "sub", "up"),
                                             mask="frrn", vertical_residual=True),
                         "a40f2964b5b9792fab5224fcfc15ac5cd64e208da80467ea4971730e13ee7c45"),
}


class TestPlan:
    @pytest.mark.parametrize("spec", _tally_cases())
    def test_activation_tally_counts_every_op_output(self, monkeypatch, spec):
        hw = (12, 10)  # odd halvings: 12x10 -> 6x5 -> 3x3
        model = build_grid(spec, hw, seed=2)
        counter = CountingOps()
        monkeypatch.setattr("gridseg.grid.ops", counter)
        x = np.ones((2, spec.image_channels, *hw), np.float32)
        model.forward(x, training=False)
        assert counter.elements == 2 * activation_tally(model)

    def test_dropped_residual_adds_nothing(self, monkeypatch):
        # dropping every residual unit runs the same ops, with the same
        # result, as switching every residual gate off
        from gridseg.dropout import DropMask
        spec = spec_3s(fusion="concat")
        dropping = build_grid(spec, (12, 10), seed=2)
        mask = preset_mask("full", spec)
        mask.residual_on[...] = False
        gated = build_grid(spec, (12, 10), mask=mask, seed=2)
        drop = DropMask({g: False for g in dropping.residual_gate_ids()}, 0.5, 0, 0)
        x = np.random.default_rng(0).normal(size=(2, 3, 12, 10)).astype(np.float32)
        counts = []
        for model, kw in ((dropping, {"drop_mask": drop}), (gated, {})):
            counter = CountingOps()
            monkeypatch.setattr("gridseg.grid.ops", counter)
            counts.append((counter, model.forward(x, training=True, **kw).data))
        (a, out_a), (b, out_b) = counts
        assert a.elements == b.elements
        assert np.array_equal(out_a, out_b)

    # ids keep the -False suffix of the former (preset, fusion, prune) keys, so each
    # case's test id is unchanged
    @pytest.mark.parametrize("preset,fusion", list(_BLOCK_RULE_DIGESTS),
                             ids=[f"{p}-{f}-False" for p, f in _BLOCK_RULE_DIGESTS])
    def test_block_rule_pinned(self, preset, fusion):
        spec = GridSpec(4, symmetric_columns(3, 2), base_channels=2, num_classes=3,
                        fusion=fusion, mask=preset)
        model = build_grid(spec, (8, 8))
        doc = [[[n, list(p.shape)] for n, p in model.named_parameters()],
               [[n, list(b.shape)] for n, b in model.named_buffers()],
               [[b.row, b.col, b.identity, b.residual, b.src, list(b.proj_slots)]
                for b in model.plan]]
        assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == \
            _BLOCK_RULE_DIGESTS[(preset, fusion)]

    @pytest.mark.parametrize("name", list(_INIT_DIGESTS))
    def test_initial_parameters_pinned(self, name):
        spec, digest = _INIT_DIGESTS[name]
        h = hashlib.sha256()
        for n, p in build_grid(spec, (64, 64), seed=0).named_parameters():
            h.update(n.encode())
            h.update(p.data.tobytes())
        assert h.hexdigest() == digest

    def test_v1_name_tables_pinned(self):
        # 3 streams, 6 sub + 5 up columns, concat fusion with 1x1 vertical
        # shortcuts; the digests are of the [name, shape] tables written
        # into every v1 checkpoint header
        spec = GridSpec(3, symmetric_columns(6, 5), base_channels=2, num_classes=3,
                        fusion="concat", vertical_residual=True)
        model = build_grid(spec, (8, 8))
        params = [[n, list(p.shape)] for n, p in model.named_parameters()]
        buffers = [[n, list(b.shape)] for n, b in model.named_buffers()]
        assert len(params) == 452 and len(buffers) == 170
        assert hashlib.sha256(json.dumps(params).encode()).hexdigest() == \
            "c57aaaa9190a06e40056fd984582bae1a99ea50a61d59b63d18e9eca118afbe1"
        assert hashlib.sha256(json.dumps(buffers).encode()).hexdigest() == \
            "d6de154428c1e01e6b9fd1466dc6d62bff2ba9b6c2182d2cefad1f0a1773e6b0"
        names = [n for n, _ in params]
        assert names[:4] == ["stem.bn.beta", "stem.bn.gamma", "stem.conv.bias",
                             "stem.conv.weight"]
        assert names[-2:] == ["head.bias", "head.weight"]
        # blocks go in (row, col) order, so column 9 precedes column 10
        assert names.index("block.0.9.res.bn1.beta") < names.index("block.0.10.res.bn1.beta")
        assert [r for r in params if r[0].startswith("block.1.8.")] == [
            ["block.1.8.proj.bias", [4]], ["block.1.8.proj.weight", [4, 8, 1, 1]],
            ["block.1.8.res.bn1.beta", [4]], ["block.1.8.res.bn1.gamma", [4]],
            ["block.1.8.res.bn2.beta", [4]], ["block.1.8.res.bn2.gamma", [4]],
            ["block.1.8.res.conv1.bias", [4]], ["block.1.8.res.conv1.weight", [4, 4, 3, 3]],
            ["block.1.8.res.conv2.bias", [4]], ["block.1.8.res.conv2.weight", [4, 4, 3, 3]],
            ["block.1.8.vert.bn.beta", [8]], ["block.1.8.vert.bn.gamma", [8]],
            ["block.1.8.vert.conv.bias", [4]], ["block.1.8.vert.conv.weight", [8, 4, 3, 3]],
            ["block.1.8.vert.shortcut.bias", [4]],
            ["block.1.8.vert.shortcut.weight", [8, 4, 1, 1]],
        ]
        assert [r for r in buffers if r[0].startswith("block.1.8.")] == [
            ["block.1.8.res.bn1.running_mean", [4]], ["block.1.8.res.bn1.running_var", [4]],
            ["block.1.8.res.bn2.running_mean", [4]], ["block.1.8.res.bn2.running_var", [4]],
            ["block.1.8.vert.bn.running_mean", [8]], ["block.1.8.vert.bn.running_var", [8]],
        ]
