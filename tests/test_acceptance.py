"""Acceptance suite: one test per shipping criterion, tolerances pinned.

Each test prints a single ``[criterion NN] PASS`` line once its asserts
hold, so a ``pytest -v`` run shows one line per criterion either way
(pytest itself reports the FAILED line when one does not hold).
"""

import dataclasses
import math
import time
import warnings

import numpy as np
import pytest

from gridseg import (
    ConnectionMask,
    GridSpec,
    approx_activation_count,
    approx_param_count,
    build_grid,
    count_params_exact,
    finite_diff_gradcheck,
    ops,
    sample_drop_mask,
    softmax_cross_entropy,
    stream_dims,
    symmetric_columns,
)
from gridseg.config import RunConfig
from gridseg.data import Scene, generate_dataset
from gridseg.grid import named_leaves
from gridseg.metrics import ConfusionMatrix, InstanceScore, evaluate_scenes, \
    instance_average_sizes
from gridseg.optim import Adam
from gridseg.tensor import Tensor
from gridseg.train import (
    TrainConfig,
    load_checkpoint,
    make_optimizer,
    save_checkpoint,
    train_run,
)


def _ok(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS {text}")


def test_criterion_01_full_grid_gradcheck():
    # three streams, one sub + one up column, checked against central
    # finite differences at 100+ coordinates: max relative error < 1e-4,
    # finishing inside two minutes (coords sitting exactly at 0 are
    # skipped by the checker, so a few extra picks cover the shortfall)
    start = time.perf_counter()
    spec = GridSpec(3, symmetric_columns(1, 1), base_channels=4, num_classes=3)
    model = build_grid(spec, (16, 16), seed=0, dtype=np.float64)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 3, 16, 16))
    labels = rng.integers(0, 3, size=(1, 16, 16))

    def loss_fn(tape):
        return softmax_cross_entropy(model.forward(x, training=True, tape=tape),
                                     labels, tape=tape)

    report = finite_diff_gradcheck(loss_fn, model.named_parameters(),
                                   n_coords=130, seed=1)
    elapsed = time.perf_counter() - start
    assert report.checked >= 100
    assert report.max_rel_error < 1e-4, report.worst
    assert elapsed < 120.0
    _ok(1, f"max rel err {report.max_rel_error:.2e} over {report.checked} "
           f"coords in {elapsed:.1f}s")


def test_criterion_02_parameter_counting():
    # closed-form estimate hits its frozen values, the exact count stays
    # within a factor of two of it, and capacity grows strictly with the
    # stream count
    big = GridSpec(5, symmetric_columns(3, 3), 16, 19)
    assert approx_param_count(big) == 10_027_008.0
    assert approx_param_count(GridSpec(1, symmetric_columns(3, 3), 16, 19)) == 39_168.0
    assert approx_activation_count(big, (400, 400)) == 291_840_000.0

    exact = count_params_exact(build_grid(big, (400, 400)))
    ratio = exact / approx_param_count(big)
    assert 0.5 < ratio < 2.0

    tiny = build_grid(GridSpec(1, (), 4, 2), (8, 8))
    assert count_params_exact(tiny) == 128  # stem bn 6 + stem conv 112 + head 10

    by_streams = [count_params_exact(build_grid(
        GridSpec(n, symmetric_columns(3, 3), 16, 19), (32, 32)))
        for n in range(1, 6)]
    assert all(a < b for a, b in zip(by_streams, by_streams[1:]))
    by_columns = [count_params_exact(build_grid(
        GridSpec(3, symmetric_columns(k, k), 16, 19), (32, 32)))
        for k in range(1, 5)]
    assert all(a < b for a, b in zip(by_columns, by_columns[1:]))
    _ok(2, f"estimate frozen, exact/estimate {ratio:.3f}, strictly monotone in "
           f"streams {by_streams} and columns {by_columns}")


def test_criterion_03_single_path_mask_equals_sequential_chain():
    # the encoder-decoder connection mask must reproduce a plainly
    # composed chain of the same units: max abs gap < 1e-6 on 10 inputs
    spec = GridSpec(3, symmetric_columns(2, 2), 4, 3, mask="conv_deconv")
    model = build_grid(spec, (16, 16), seed=11)
    hw = [stream_dims(model.spec, i, (16, 16))[1:] for i in range(3)]
    b = model.blocks
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(10):
        x = rng.normal(size=(2, 3, 16, 16)).astype(np.float32)
        got = model.forward(x).data
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
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst < 1e-6
    _ok(3, f"10 inputs, max abs gap {worst:.2e}")


def test_criterion_04_unit_dropout_semantics_and_rate():
    # keep-all must be bit-equal to no dropout, drop-all bit-equal to a
    # twin with residuals masked off, and the empirical keep rate over
    # 10,000 step masks must sit inside 0.7 +/- 0.01
    spec = GridSpec(3, symmetric_columns(2, 2), 4, 3)
    x = np.random.default_rng(0).normal(size=(2, 3, 16, 16)).astype(np.float32)

    model = build_grid(spec, (16, 16), seed=3)
    keep_all = sample_drop_mask(model, 1.0, seed=1, step=0)
    a = model.forward(x, training=True, drop_mask=keep_all).data
    b = build_grid(spec, (16, 16), seed=3).forward(x, training=True).data
    assert np.array_equal(a, b)

    model = build_grid(spec, (16, 16), seed=3)
    drop_all = sample_drop_mask(model, 0.0, seed=1, step=0)
    c = model.forward(x, training=True, drop_mask=drop_all).data
    off = ConnectionMask.all_on(spec)
    off.residual_on[...] = False
    d = build_grid(spec, (16, 16), mask=off, seed=3).forward(x, training=True).data
    assert np.array_equal(c, d)

    grid = build_grid(GridSpec(5, symmetric_columns(3, 3), 4, 2), (16, 16))
    n_units = len(grid.residual_gate_ids())
    assert n_units == 26  # 1 gated unit in the first column, 5 in each later one
    kept = sum(sample_drop_mask(grid, 0.7, seed=5, step=s).n_kept
               for s in range(10_000))
    rate = kept / (26 * 10_000)
    assert abs(rate - 0.7) < 0.01
    _ok(4, f"keep-all/drop-all bit-equal, empirical keep rate {rate:.4f}")


def test_criterion_05_zeroed_units_leave_identity_path():
    # with every parameter of every learned unit set to zero, the last
    # stream-0 block equals the stem output exactly (exact equality)
    model = build_grid(GridSpec(3, symmetric_columns(2, 2), 4, 3), (16, 16), seed=5)
    for block in model.blocks.values():
        for unit in (block.res, block.vert):
            if unit is None:
                continue
            for _, p in named_leaves(unit, "u", Tensor):
                p.data[...] = 0.0
    x = np.random.default_rng(4).normal(size=(2, 3, 16, 16)).astype(np.float32)
    trace = {}
    model.forward(x, trace=trace)
    last = trace[(0, model.spec.n_columns - 1)].data
    assert np.array_equal(last, trace["stem"].data)
    _ok(5, "stream-0 output equals the stem bit for bit")


@pytest.mark.slow
def test_criterion_06_desk_training_reaches_target_quality():
    # the stock desk run (5 streams, 2 sub + 2 up, 4 base channels,
    # 200 synthetic 64x64 scenes, 4 classes) must reach mean IoU >= 0.85
    # on 50 held-out scenes within 80 epochs and one hour; 15 epochs are
    # enough in practice
    start = time.perf_counter()
    cfg = RunConfig()
    epochs = 15
    assert epochs <= 80
    train_cfg = dataclasses.replace(cfg.train, epochs=epochs)
    scene_kw = dict(width=cfg.data.width, height=cfg.data.height,
                    num_classes=cfg.grid.num_classes,
                    max_shapes=cfg.data.max_shapes)
    train_scenes = generate_dataset(cfg.data.n_train, seed=cfg.seed, **scene_kw)
    held_out = generate_dataset(cfg.data.n_eval, seed=cfg.seed + cfg.data.n_train,
                                **scene_kw)
    model = build_grid(cfg.grid, (cfg.augment.out_size,) * 2, seed=cfg.seed)
    records = train_run(model, train_scenes, cfg.augment, train_cfg, seed=cfg.seed)
    report = evaluate_scenes(model, held_out, scales=cfg.eval.scales)
    elapsed = time.perf_counter() - start
    assert len(records) == epochs
    assert report["mean_iou"] >= 0.85, report
    assert elapsed < 3600.0
    _ok(6, f"mean IoU {report['mean_iou']:.3f} on {len(held_out)} scenes "
           f"after {epochs} epochs in {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_07_dropout_does_not_hurt_quality():
    # three seeds on a reduced desk run: mean IoU with unit dropout must
    # not trail the no-dropout arm by more than 0.02; a larger gap is
    # flagged as a warning, not a failure
    cfg = RunConfig()
    scene_kw = dict(width=cfg.data.width, height=cfg.data.height,
                    num_classes=cfg.grid.num_classes,
                    max_shapes=cfg.data.max_shapes)
    results = {True: [], False: []}
    for seed in range(3):
        scenes = generate_dataset(80, seed=seed, **scene_kw)
        held = generate_dataset(30, seed=seed + 80, **scene_kw)
        for use_dropout in (True, False):
            train_cfg = dataclasses.replace(cfg.train, epochs=8,
                                            use_dropout=use_dropout)
            model = build_grid(cfg.grid, (cfg.augment.out_size,) * 2, seed=seed)
            train_run(model, scenes, cfg.augment, train_cfg, seed=seed)
            rep = evaluate_scenes(model, held, scales=cfg.eval.scales)
            results[use_dropout].append(rep["mean_iou"])
    gap = float(np.mean(results[True]) - np.mean(results[False]))
    if gap < -0.02:
        warnings.warn(f"unit dropout trails the plain runs by {-gap:.3f} mean IoU "
                      f"({results})", RuntimeWarning)
        _ok(7, f"FLAGGED: dropout gap {gap:+.3f} (warned, not failed)")
    else:
        _ok(7, f"dropout mean IoU gap {gap:+.3f} across 3 seeds")


def test_criterion_08_adam_matches_scalar_reference():
    # float64 parameters driven 100 steps must match a plain scalar
    # transcription of the update rule to 1e-12 relative
    rng = np.random.default_rng(3)
    theta0 = rng.normal(size=5)
    grads = rng.normal(size=(100, 5))
    p = Tensor(theta0.copy(), requires_grad=True)
    opt = Adam([("p", p)], lr=0.02, beta1=0.9, beta2=0.999, eps=1e-8, lr_decay=0.01)
    for g in grads:
        p.grad = g.copy()
        opt.step()
    worst = 0.0
    for k in range(5):
        theta, m, v = float(theta0[k]), 0.0, 0.0
        for t in range(1, 101):
            g = float(grads[t - 1, k])
            lr_t = 0.02 / (1.0 + 0.01 * (t - 1))
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * (g * g)
            theta = theta - lr_t * (m / (1.0 - 0.9 ** t)) \
                / (math.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        rel = abs(float(p.data[k]) - theta) / max(abs(theta), 1e-12)
        worst = max(worst, rel)
    assert worst < 1e-12
    _ok(8, f"100 steps, max relative deviation {worst:.2e}")


def test_criterion_09_checkpoint_resume_is_bit_exact(tmp_path):
    # stop at an epoch boundary, reload, finish: parameters, batch norm
    # statistics, and per-epoch records must match the uninterrupted run
    # exactly
    spec = GridSpec(2, symmetric_columns(1, 1), 4, 4)
    aug = RunConfig().augment
    aug = dataclasses.replace(aug, crop_min=10, crop_max=16, out_size=8)
    scenes = generate_dataset(6, seed=30, width=16, height=16)
    cfg = TrainConfig(epochs=4, batch_size=2, lr=0.01,
                      lr_drop_epoch=3, lr_after_drop=0.002)

    straight = build_grid(spec, (8, 8), seed=4)
    full_records = train_run(straight, scenes, aug, cfg, seed=11)

    half = build_grid(spec, (8, 8), seed=4)
    opt = make_optimizer(half, cfg)
    early = train_run(half, scenes, aug, dataclasses.replace(cfg, epochs=2),
                      seed=11, optim=opt)
    path = str(tmp_path / "half.grdn")
    save_checkpoint(path, half, opt, train_seed=11, epochs_done=2)
    resumed, ropt, info = load_checkpoint(path)
    late = train_run(resumed, scenes, aug, cfg, seed=info["seed"], optim=ropt,
                     epochs_done=info["epochs_done"])

    assert early + late == full_records
    for (n, p), (m, q) in zip(straight.named_parameters(), resumed.named_parameters()):
        assert n == m and np.array_equal(p.data, q.data), n
    for (n, b), (m, c) in zip(straight.named_buffers(), resumed.named_buffers()):
        assert n == m and np.array_equal(b, c), n
    _ok(9, "resumed run reproduces the straight run bit for bit")


def test_criterion_10_metric_definitions():
    # frozen confusion case TP=3 FP=1 FN=2 gives IoU 0.5 exactly; with
    # every instance at the class-average size the weighted score equals
    # the plain one; evaluation order cannot change any reported number
    truth = np.array([1, 1, 1, 1, 1, 0, 0])
    pred = np.array([1, 1, 1, 0, 0, 1, 0])
    conf = ConfusionMatrix(2)
    conf.update(truth, pred)
    assert conf.iou()[1] == 0.5

    labels = np.zeros((4, 4), np.int64)
    inst = np.zeros((4, 4), np.int32)
    labels[0, :4] = 1
    inst[0, :4] = 1
    labels[2, :4] = 1
    inst[2, :4] = 2
    pmap = labels.copy()
    pmap[0, 0] = 0
    pmap[3, 0] = 1
    from gridseg.data import Scene
    scene = Scene(np.zeros((4, 4, 3), np.float32), labels, inst, seed=0)
    conf2 = ConfusionMatrix(2)
    conf2.update(labels, pmap)
    score = InstanceScore(2, instance_average_sizes([scene], 2))
    score.update(labels, inst, pmap)
    assert abs(score.iiou()[1] - conf2.iou()[1]) < 1e-12

    model = build_grid(GridSpec(2, symmetric_columns(1, 1), 4, 4), (32, 32), seed=5)
    scenes = generate_dataset(4, seed=40, width=32, height=32)
    fwd = evaluate_scenes(model, scenes)
    rev = evaluate_scenes(model, scenes[::-1])
    for key in ("iou", "mean_iou", "iiou", "mean_iiou", "pixel_accuracy"):
        assert fwd[key] == rev[key], key
    _ok(10, "frozen IoU 0.5, size-balanced iIoU equals IoU, order independent")
