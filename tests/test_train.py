"""Training loop determinism, scheduling, and checkpoint round-trips."""

import dataclasses
import json
import os
import stat
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridseg import GridSpec, build_grid, symmetric_columns
from gridseg.data import AugmentConfig, Scene, generate_dataset
import gridseg.train
from gridseg.train import (
    KEY_PATCH,
    KEY_SHUFFLE,
    TrainConfig,
    load_checkpoint,
    make_batch,
    make_optimizer,
    sample_drop_mask,
    save_checkpoint,
    train_epoch,
    train_run,
)


SPEC = GridSpec(2, symmetric_columns(1, 1), 4, 4, dropout_p=0.9)
AUG = AugmentConfig(crop_min=10, crop_max=16, out_size=8)


def scenes16(n=6, seed=30):
    return generate_dataset(n, seed=seed, width=16, height=16)


def tiny_model(seed=1, p=0.9):
    return build_grid(dataclasses.replace(SPEC, dropout_p=p), (8, 8), seed=seed)


def params_of(model):
    return {n: p.data.copy() for n, p in model.named_parameters()}


def lerp_axis_ref(arr, out_len, axis):
    """Half-pixel-center linear resampling along one axis, tables computed
    on every call."""
    in_len = arr.shape[axis]
    if in_len == out_len:
        return arr
    pos = (np.arange(out_len) + 0.5) * (in_len / out_len) - 0.5
    lo = np.floor(pos).astype(np.int64)
    frac = pos - lo
    a = np.take(arr, np.clip(lo, 0, in_len - 1), axis=axis)
    b = np.take(arr, np.clip(lo + 1, 0, in_len - 1), axis=axis)
    shape = [1] * arr.ndim
    shape[axis] = out_len
    f = frac.reshape(shape)
    return a * (1.0 - f) + b * f


def nearest_ref(arr, out_len, axis):
    in_len = arr.shape[axis]
    pos = (np.arange(out_len) + 0.5) * (in_len / out_len)
    return np.take(arr, np.clip(np.floor(pos).astype(np.int64), 0, in_len - 1), axis=axis)


def make_batch_ref(scenes, augment, rng):
    """One patch per scene, every map of it resampled, the instance maps
    then dropped."""
    images, labels = [], []
    for scene in scenes:
        h, w = scene.labels.shape
        side = int(rng.integers(augment.crop_min, min(augment.crop_max, h, w) + 1))
        top = int(rng.integers(0, h - side + 1))
        left = int(rng.integers(0, w - side + 1))
        flip = bool(rng.random() < augment.hflip_p)
        sl = (slice(top, top + side), slice(left, left + side))
        s = augment.out_size
        image = lerp_axis_ref(lerp_axis_ref(scene.image[sl].astype(np.float64), s, 0), s, 1)
        image = image.astype(np.float32)
        lab, _ = (nearest_ref(nearest_ref(m[sl], s, 0), s, 1)
                  for m in (scene.labels, scene.instances))
        if flip:
            image, lab = image[:, ::-1].copy(), lab[:, ::-1].copy()
        images.append(image.transpose(2, 0, 1))
        labels.append(lab)
    return np.stack(images), np.stack(labels)


class TestBatching:
    def test_make_batch_shapes(self):
        rng = np.random.default_rng(0)
        x, y = make_batch(scenes16(3), AUG, rng)
        assert x.shape == (3, 3, 8, 8) and x.dtype == np.float32
        assert y.shape == (3, 8, 8) and y.dtype == np.int64

    @settings(max_examples=40, deadline=None)
    @given(crop=st.tuples(st.integers(1, 20), st.integers(0, 20)), out_size=st.integers(1, 24),
           hflip_p=st.sampled_from([0.0, 0.5, 1.0]), seed=st.integers(0, 2**32 - 1))
    def test_make_batch_byte_equal_to_uncached_formulas(self, crop, out_size, hflip_p, seed):
        """Cached resampling tables, and no instance map resampled, change
        neither the draws nor a byte of the batch."""
        scenes = generate_dataset(3, seed=seed % 1000, width=21, height=20)
        augment = AugmentConfig(crop[0], crop[0] + crop[1], out_size, hflip_p)
        for _ in range(2):  # the second round reads the cached tables
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            got, want = make_batch(scenes, augment, rng), make_batch_ref(scenes, augment, ref_rng)
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
            assert rng.random() == ref_rng.random()

    def test_config_round_trip(self):
        cfg = TrainConfig(epochs=3, lr=0.01, lr_drop_epoch=2, lr_after_drop=0.001)
        assert TrainConfig(**cfg.to_dict()) == cfg
        with pytest.raises(ValueError, match="go together"):
            TrainConfig(epochs=1, lr_drop_epoch=1)


class TestTraining:
    def test_loss_decreases_when_overfitting(self):
        model = tiny_model(p=1.0)
        cfg = TrainConfig(epochs=8, batch_size=2, lr=0.01)
        records = train_run(model, scenes16(4), AUG, cfg, seed=5)
        assert records[-1]["loss"] < records[0]["loss"]

    def test_same_seed_same_run(self, tmp_path):
        cfg = TrainConfig(epochs=2, batch_size=2, lr=0.01)
        logs = []
        finals = []
        for run in range(2):
            model = tiny_model(seed=2)
            path = str(tmp_path / f"log{run}.jsonl")
            train_run(model, scenes16(), AUG, cfg, seed=9, log_path=path)
            logs.append(Path(path).read_text())
            finals.append(params_of(model))
        assert logs[0] == logs[1]
        for name in finals[0]:
            assert np.array_equal(finals[0][name], finals[1][name]), name

    def test_keep_all_masks_are_bit_neutral(self, tmp_path):
        """At dropout_p 1 every step still draws a mask; it keeps every unit,
        so the run equals one that draws no mask at all."""
        cfg = TrainConfig(epochs=2, batch_size=2, lr=0.01)
        runs, calls = [], []

        def counted(*args, **kwargs):
            calls.append(args)
            return sample_drop_mask(*args, **kwargs)

        for stand_in in (counted, lambda *args, **kwargs: None):
            model = tiny_model(seed=2, p=1.0)
            optim = make_optimizer(model, cfg)
            log = tmp_path / f"log{len(runs)}.jsonl"
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(gridseg.train, "sample_drop_mask", stand_in)
                train_run(model, scenes16(), AUG, cfg, seed=9, optim=optim, log_path=str(log))
            runs.append([p.data.tobytes() for _, p in model.named_parameters()]
                        + [a.tobytes() for a in optim.m + optim.v] + [log.read_bytes()])
        assert len(calls) == optim.t > 0
        assert runs[0] == runs[1]

    def test_seed_changes_run(self):
        cfg = TrainConfig(epochs=1, batch_size=2, lr=0.01)
        a, b = tiny_model(seed=2), tiny_model(seed=2)
        ra = train_run(a, scenes16(), AUG, cfg, seed=1)
        rb = train_run(b, scenes16(), AUG, cfg, seed=2)
        assert ra[0]["loss"] != rb[0]["loss"]

    def test_lr_drop_schedule(self):
        model = tiny_model()
        cfg = TrainConfig(epochs=3, batch_size=3, lr=0.01,
                          lr_drop_epoch=2, lr_after_drop=0.001)
        records = train_run(model, scenes16(3), AUG, cfg, seed=4)
        assert [r["lr"] for r in records] == [0.01, 0.01, 0.001]

    def test_all_ignored_batches_are_skipped(self):
        model = tiny_model()
        blank = Scene(np.zeros((16, 16, 3), np.float32),
                      np.full((16, 16), 255, np.int64),
                      np.zeros((16, 16), np.int32), seed=0)
        optim = make_optimizer(model, TrainConfig(epochs=1))
        rec = train_epoch(model, optim, [blank, blank], AUG,
                          TrainConfig(epochs=1, batch_size=1), seed=0, epoch=0)
        assert rec["steps"] == 0 and rec["skipped"] == 2
        assert rec["loss"] is None and optim.t == 0

    def test_epoch_record_fields(self):
        model = tiny_model()
        optim = make_optimizer(model, TrainConfig(epochs=1))
        rec = train_epoch(model, optim, scenes16(2), AUG,
                          TrainConfig(epochs=1, batch_size=2), seed=0, epoch=0)
        assert set(rec) == {"epoch", "steps", "skipped", "loss", "lr"}
        assert rec["steps"] == 1 and rec["epoch"] == 0


def philox_state(bit_generator) -> tuple[list[int], list[int]]:
    state = bit_generator.state["state"]
    return state["key"].tolist(), state["counter"].tolist()


class TestStreams:
    """Every run stream is numpy's Philox keyed by ``seed ^ KEY_*``, its
    counter the epoch (shuffle) or the optimizer step (patches, masks)."""

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 2**128 - 1), epoch=st.integers(0, 2**40),
           t=st.integers(0, 2**40))
    @example(seed=0, epoch=0, t=0)
    @example(seed=2**128 - 1, epoch=3, t=7)
    def test_epoch_draws_are_the_direct_philox_draws(self, seed, epoch, t):
        scenes = scenes16()
        cfg = TrainConfig(epochs=epoch + 1, batch_size=2)
        model = tiny_model()
        optim = make_optimizer(model, cfg)
        optim.t = t
        picks, patch_states, mask_calls = [], [], []

        def batch(chosen, augment, rng):
            picks.extend(next(k for k, s in enumerate(scenes) if s is c) for c in chosen)
            patch_states.append(philox_state(rng.bit_generator))
            return make_batch(chosen, augment, rng)

        def drop_mask(model, seed, step):
            mask_calls.append((seed, step))
            return sample_drop_mask(model, seed, step)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(gridseg.train, "make_batch", batch)
            mp.setattr(gridseg.train, "sample_drop_mask", drop_mask)
            train_epoch(model, optim, scenes, AUG, cfg, seed=seed, epoch=epoch)
        shuffle = np.random.Generator(np.random.Philox(key=seed ^ KEY_SHUFFLE, counter=epoch))
        assert picks == shuffle.permutation(len(scenes)).tolist()
        steps = range(t, t + 3)
        assert patch_states == [philox_state(np.random.Philox(key=seed ^ KEY_PATCH, counter=c))
                                for c in steps]
        assert mask_calls == [(seed, c) for c in steps]

    @pytest.mark.parametrize("seed", [2**128, -1])
    def test_seed_outside_the_range_fails_before_any_draw(self, tmp_path, seed):
        model = tiny_model()
        before = params_of(model)
        cfg = TrainConfig(epochs=2, batch_size=2)
        optim = make_optimizer(model, cfg)
        log = tmp_path / "log.jsonl"
        log.write_text('{"epoch": 0}\n')
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
            train_epoch(model, optim, scenes16(), AUG, cfg, seed=seed, epoch=0)
        with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
            train_run(model, scenes16(), AUG, cfg, seed=seed, optim=optim,
                      log_path=str(log))
        assert optim.t == 0 and log.read_text() == '{"epoch": 0}\n'
        for name, p in model.named_parameters():
            assert np.array_equal(p.data, before[name]), name

    def test_negative_epoch_rejected(self):
        model = tiny_model()
        optim = make_optimizer(model, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="counter be non-negative"):
            train_epoch(model, optim, scenes16(), AUG, TrainConfig(epochs=1), seed=0, epoch=-1)


def split_checkpoint(raw: bytes) -> tuple[dict, bytes]:
    header_len = struct.unpack("<Q", raw[8:16])[0]
    return json.loads(raw[16:16 + header_len]), raw[16 + header_len:]


def join_checkpoint(header: dict, payload: bytes) -> bytes:
    blob = json.dumps(header).encode()
    return b"GRDN" + struct.pack("<IQ", 1, len(blob)) + blob + payload


def _valid_checkpoint() -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "m.grdn")
        model = tiny_model()
        save_checkpoint(str(path), model, make_optimizer(model, TrainConfig(epochs=1)), 5, 2)
        return path.read_bytes()


VALID_CHECKPOINT = _valid_checkpoint()
HEADER_END = 16 + struct.unpack("<Q", VALID_CHECKPOINT[8:16])[0]


def _write(path: Path, raw: bytes) -> str:
    path.write_bytes(raw)
    return str(path)


class TestCheckpoints:
    def test_round_trip_is_exact(self, tmp_path):
        model = tiny_model(seed=3)
        cfg = TrainConfig(epochs=1, batch_size=2, lr=0.01)
        optim = make_optimizer(model, cfg)
        train_epoch(model, optim, scenes16(4), AUG, cfg, seed=8, epoch=0)
        path = str(tmp_path / "model.grdn")
        save_checkpoint(path, model, optim, train_seed=8, epochs_done=1)
        loaded, lopt, info = load_checkpoint(path)
        assert info == {"seed": 8, "epochs_done": 1}
        assert lopt.t == optim.t
        for (n, p), (m, q) in zip(model.named_parameters(), loaded.named_parameters()):
            assert n == m and np.array_equal(p.data, q.data), n
        for (n, b), (m, c) in zip(model.named_buffers(), loaded.named_buffers()):
            assert n == m and np.array_equal(b, c), n
        for a, b in zip(optim.m + optim.v, lopt.m + lopt.v):
            assert np.array_equal(a, b)

    def test_loaded_parameters_live_in_loaded_optimizer(self, tmp_path):
        """load_checkpoint fills the parameters through the views of the Adam
        it returns, so the first step after a resume moves the model."""
        path = tmp_path / "m.grdn"
        path.write_bytes(VALID_CHECKPOINT)
        model, optim, _ = load_checkpoint(str(path))
        params = [p for _, p in model.named_parameters()]
        base = params[0].data.base
        assert base is not None and base.size == sum(p.size for p in params)
        assert all(p.data.base is base for p in params)
        assert optim.params == params
        before = params_of(model)
        for p in params:
            p.grad = np.ones_like(p.data)
        optim.step()
        assert all(not np.array_equal(before[n], p.data) for n, p in model.named_parameters())

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        model = tiny_model(seed=3)
        optim = make_optimizer(model, TrainConfig(epochs=1))
        path = tmp_path / "model.grdn"
        save_checkpoint(str(path), model, optim, train_seed=8, epochs_done=1)
        before = path.read_bytes()
        # header, parameters and buffers are written before this moment fails
        optim.m[0] = np.array(["not a number"])
        with pytest.raises(ValueError):
            save_checkpoint(str(path), model, optim, train_seed=8, epochs_done=2)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.grdn"]
        _, _, info = load_checkpoint(str(path))
        assert info == {"seed": 8, "epochs_done": 1}

    def test_save_syncs_directory_after_rename(self, tmp_path, monkeypatch):
        model = tiny_model(seed=3)
        optim = make_optimizer(model, TrainConfig(epochs=1))
        events = []
        replace, fsync = os.replace, os.fsync

        def record_replace(src, dst):
            replace(src, dst)
            events.append("replace")

        def record_fsync(fd):
            fsync(fd)
            events.append("fsync dir" if stat.S_ISDIR(os.fstat(fd).st_mode) else "fsync file")

        monkeypatch.setattr(os, "replace", record_replace)
        monkeypatch.setattr(os, "fsync", record_fsync)
        save_checkpoint(str(tmp_path / "model.grdn"), model, optim, train_seed=8,
                        epochs_done=1)
        assert events == ["fsync file", "replace", "fsync dir"]

    def test_resume_matches_straight_run(self, tmp_path):
        scenes = scenes16(6)
        cfg = TrainConfig(epochs=4, batch_size=2, lr=0.01,
                          lr_drop_epoch=3, lr_after_drop=0.002)
        straight = tiny_model(seed=4)
        full_records = train_run(straight, scenes, AUG, cfg, seed=11)

        half = tiny_model(seed=4)
        half_cfg = dataclasses.replace(cfg, epochs=2)
        opt = make_optimizer(half, cfg)
        early = train_run(half, scenes, AUG, half_cfg, seed=11, optim=opt)
        path = str(tmp_path / "half.grdn")
        save_checkpoint(path, half, opt, train_seed=11, epochs_done=2)

        resumed, ropt, info = load_checkpoint(path)
        late = train_run(resumed, scenes, AUG, cfg, seed=info["seed"],
                         optim=ropt, epochs_done=info["epochs_done"])
        assert early + late == full_records
        for (n, p), (m, q) in zip(straight.named_parameters(),
                                  resumed.named_parameters()):
            assert n == m and np.array_equal(p.data, q.data), n
        for (n, b), (m, c) in zip(straight.named_buffers(), resumed.named_buffers()):
            assert np.array_equal(b, c), n

    def test_rolling_snapshot_lands_on_epoch_boundary(self, tmp_path):
        # a 3-epoch run snapshotting every 2 epochs leaves the epoch-2
        # state on disk; resuming from it reproduces the straight run
        scenes = scenes16(4)
        cfg = TrainConfig(epochs=3, batch_size=2, lr=0.01, snapshot_every=2)
        path = str(tmp_path / "roll.grdn")
        straight = tiny_model(seed=7)
        records = train_run(straight, scenes, AUG, cfg, seed=13,
                            snapshot_path=path)

        resumed, ropt, info = load_checkpoint(path)
        assert info == {"seed": 13, "epochs_done": 2}
        late = train_run(resumed, scenes, AUG, cfg, seed=info["seed"],
                         optim=ropt, epochs_done=info["epochs_done"])
        assert late == records[2:]
        for (n, p), (m, q) in zip(straight.named_parameters(),
                                  resumed.named_parameters()):
            assert n == m and np.array_equal(p.data, q.data), n

    def test_snapshot_every_must_be_positive(self):
        with pytest.raises(ValueError, match="snapshot_every"):
            TrainConfig(epochs=1, snapshot_every=0)

    def test_corrupt_files_rejected(self, tmp_path):
        model = tiny_model()
        optim = make_optimizer(model, TrainConfig(epochs=1))
        path = str(tmp_path / "m.grdn")
        save_checkpoint(path, model, optim, 0, 0)
        raw = Path(path).read_bytes()
        bad_magic = str(tmp_path / "bad1")
        Path(bad_magic).write_bytes(b"XXXX" + raw[4:])
        with pytest.raises(ValueError, match="not a checkpoint"):
            load_checkpoint(bad_magic)
        short = str(tmp_path / "bad2")
        Path(short).write_bytes(raw[:-20])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(short)
        extra = str(tmp_path / "bad3")
        Path(extra).write_bytes(raw + b"\x00" * 8)
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(extra)

    def test_every_short_prefix_rejected(self, tmp_path):
        model = tiny_model()
        optim = make_optimizer(model, TrainConfig(epochs=1))
        path = str(tmp_path / "m.grdn")
        save_checkpoint(path, model, optim, 0, 0)
        raw = Path(path).read_bytes()
        short = str(tmp_path / "short")
        for n in range(18):
            Path(short).write_bytes(raw[:n])
            with pytest.raises(ValueError, match="not a checkpoint|truncated"):
                load_checkpoint(short)

    def test_malformed_header_rejected(self, tmp_path):
        model = tiny_model()
        optim = make_optimizer(model, TrainConfig(epochs=1))
        path = str(tmp_path / "m.grdn")
        save_checkpoint(path, model, optim, 0, 0)
        raw = Path(path).read_bytes()
        header_len = struct.unpack("<Q", raw[8:16])[0]
        header = json.loads(raw[16:16 + header_len])
        payload = raw[16 + header_len:]
        bad = str(tmp_path / "bad")

        def write(blob):
            Path(bad).write_bytes(raw[:8] + struct.pack("<Q", len(blob)) + blob + payload)

        cases = [(b"{", "not valid JSON"), (b"\xff\xfe", "not valid JSON"),
                 (b"[]", "not a JSON object"), (b"{}", "lacks")]
        for key in sorted(header):
            trimmed = {k: v for k, v in header.items() if k != key}
            cases.append((json.dumps(trimmed).encode(), f"lacks \\['{key}'\\]"))
        for blob, message in cases:
            write(blob)
            with pytest.raises(ValueError, match=message):
                load_checkpoint(bad)

    @pytest.mark.parametrize("edit,message", [
        (lambda h: h.update(mask={}), "'mask' must be an object"),
        (lambda h: h["optim"].pop("t"), "'optim' must be an object"),
        (lambda h: h["spec"].pop("n_streams"), "'spec' must be an object"),
        (lambda h: h.update(train={}), "'train' must be an object"),
        (lambda h: h["train"].update(epochs_done=-1), "non-negative integers"),
        (lambda h: h.update(input_hw=[8]), "input_hw must be"),
        (lambda h: h.update(init_seed=0.5), "non-negative integers"),
        (lambda h: h["optim"].update(lr="x"), "malformed checkpoint header"),
        (lambda h: h["spec"].update(n_streams="x"), "malformed checkpoint header"),
        (lambda h: h["optim"].update(lr_decay=float("inf")), "lr_decay must be"),
        (lambda h: h["optim"].update(eps=float("inf")), "eps must be"),
        (lambda h: h["optim"].update(lr_decay=1.5, decay_mode="multiplicative"),
         "lr_decay must be below 1"),
        (lambda h: h.update(prune_masked=0), "prune_masked must be true or false"),
        (lambda h: h.update(prune_masked="false"), "prune_masked must be true or false"),
        (lambda h: h.update(prune_masked=None), "prune_masked must be true or false"),
        (lambda h: h["train"].update(seed=2**128), "the train seed below 2\\*\\*128"),
        (lambda h: h["spec"].update(dropout_p=True), "dropout_p must be a number"),
        (lambda h: h["spec"].update(n_streams=True), "n_streams must be an integer"),
        (lambda h: h["spec"].update(vertical_residual=0), "vertical_residual must be true"),
        (lambda h: h["spec"].update(vertical_residual="yes"), "vertical_residual must be true"),
        (lambda h: h["spec"].update(fusion=1), "fusion must be 'sum' or 'concat'"),
        (lambda h: h["spec"].update(mask="nope"), "unknown mask preset 'nope'"),
        (lambda h: h["optim"].update(beta1=1.5), "betas must lie in"),
        (lambda h: h["mask"].update(residual_on=[[True]]), "mask field shapes differ"),
        (lambda h: h["mask"].update(horizontal_on=[[False] * 2] * 2,
                                    vertical_on=[[False] * 2] * 2), "unreachable"),
        (lambda h: h["params"][0].__setitem__(1, [5]), "parameter table does not match"),
        (lambda h: h["buffers"][0].__setitem__(1, [5]), "buffer table does not match"),
    ], ids=["mask_empty", "optim_without_t", "spec_without_n_streams", "train_empty",
            "negative_epochs_done", "one_side_input_hw", "float_init_seed",
            "lr_not_a_number", "n_streams_not_an_int", "infinite_lr_decay", "infinite_eps",
            "multiplicative_lr_decay_above_one", "prune_masked_int", "prune_masked_string",
            "prune_masked_null", "train_seed_too_large", "bool_dropout_p", "bool_n_streams",
            "int_vertical_residual", "string_vertical_residual", "int_fusion",
            "unknown_mask_preset", "beta1_above_one", "mask_of_wrong_shape",
            "mask_leaving_output_unreachable", "edited_param_shape", "edited_buffer_shape"])
    def test_malformed_nested_value_rejected(self, tmp_path, edit, message):
        header, payload = split_checkpoint(VALID_CHECKPOINT)
        edit(header)
        path = tmp_path / "m.grdn"
        path.write_bytes(join_checkpoint(header, payload))
        with pytest.raises(ValueError, match=message) as info:
            load_checkpoint(str(path))
        assert "\n" not in str(info.value)
        assert str(info.value).startswith(f"{path}: ")

    def test_pruned_header_over_full_mask_loads(self, tmp_path):
        # a model pruned under the all-on mask allocates every unit, so its
        # tables are the full grid's
        header, payload = split_checkpoint(VALID_CHECKPOINT)
        assert header["prune_masked"] is False  # the v1 layout keeps the key
        header["prune_masked"] = True
        model, _, info = load_checkpoint(_write(tmp_path / "m.grdn",
                                                join_checkpoint(header, payload)))
        want, _, _ = load_checkpoint(_write(tmp_path / "v.grdn", VALID_CHECKPOINT))
        assert info == {"seed": 5, "epochs_done": 2}
        for (n, p), (_, q) in zip(model.named_parameters(), want.named_parameters()):
            assert np.array_equal(p.data, q.data), n

    def test_pruned_header_over_path_mask_rejected(self, tmp_path):
        # the file a pruned conv_deconv model wrote: its tables list only
        # the units that run
        model = build_grid(dataclasses.replace(SPEC, mask="conv_deconv"), (8, 8))
        path = str(tmp_path / "m.grdn")
        save_checkpoint(path, model, make_optimizer(model, TrainConfig(epochs=1)), 0, 0)
        header, _ = split_checkpoint(Path(path).read_bytes())
        runs = {"stem", "head"} | {f"{b.name}.{u}" for b in model.plan for u, on in
                                   (("res", b.residual), ("vert", b.src is not None)) if on}

        def kept(table):
            return [[n, shape] for n, shape in table
                    if n.split(".")[0] in runs or ".".join(n.split(".")[:4]) in runs]

        header.update(prune_masked=True, params=kept(header["params"]),
                      buffers=kept(header["buffers"]))
        n_params = sum(int(np.prod(s)) for _, s in header["params"])
        n_buffers = sum(int(np.prod(s)) for _, s in header["buffers"])
        assert len(header["params"]) < len(model.named_parameters())
        payload = bytes(4 * (n_params + n_buffers) + 16 * n_params)
        with pytest.raises(ValueError, match="parameter table does not match") as info:
            load_checkpoint(_write(tmp_path / "p.grdn", join_checkpoint(header, payload)))
        assert "\n" not in str(info.value)

    @settings(max_examples=150, deadline=None)
    @given(pos=st.integers(4, HEADER_END - 1), byte=st.integers(0, 255))
    def test_one_header_byte_overwritten(self, pos, byte):
        raw = bytearray(VALID_CHECKPOINT)
        raw[pos] = byte
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp, "m.grdn")
            path.write_bytes(raw)
            try:
                load_checkpoint(str(path))
            except ValueError:
                pass  # any other exception type fails the test

    def test_float64_model_rejected(self, tmp_path):
        model = build_grid(SPEC, (8, 8), dtype=np.float64)
        optim = make_optimizer(model, TrainConfig(epochs=1))
        with pytest.raises(ValueError, match="float32"):
            save_checkpoint(str(tmp_path / "m.grdn"), model, optim, 0, 0)

    def test_mask_round_trips(self, tmp_path):
        spec = dataclasses.replace(SPEC, mask="frrn")
        model = build_grid(spec, (8, 8), seed=6)
        optim = make_optimizer(model, TrainConfig(epochs=1))
        path = str(tmp_path / "m.grdn")
        save_checkpoint(path, model, optim, 0, 0)
        loaded, _, _ = load_checkpoint(path)
        assert np.array_equal(loaded.mask.residual_on, model.mask.residual_on)
        assert loaded.residual_gate_ids() == model.residual_gate_ids()
