"""Training loop determinism, scheduling, and checkpoint round-trips."""

import dataclasses
import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridseg import GridSpec, build_grid, symmetric_columns
from gridseg.data import AugmentConfig, Scene, generate_dataset
from gridseg.train import (
    TrainConfig,
    load_checkpoint,
    make_batch,
    make_optimizer,
    save_checkpoint,
    train_epoch,
    train_run,
)


SPEC = GridSpec(2, symmetric_columns(1, 1), 4, 4, dropout_p=0.9)
AUG = AugmentConfig(crop_min=10, crop_max=16, out_size=8)


def scenes16(n=6, seed=30):
    return generate_dataset(n, seed=seed, width=16, height=16)


def tiny_model(seed=1):
    return build_grid(SPEC, (8, 8), seed=seed)


def params_of(model):
    return {n: p.data.copy() for n, p in model.named_parameters()}


class TestBatching:
    def test_make_batch_shapes(self):
        rng = np.random.default_rng(0)
        x, y = make_batch(scenes16(3), AUG, rng)
        assert x.shape == (3, 3, 8, 8) and x.dtype == np.float32
        assert y.shape == (3, 8, 8) and y.dtype == np.int64

    def test_config_round_trip(self):
        cfg = TrainConfig(epochs=3, lr=0.01, lr_drop_epoch=2, lr_after_drop=0.001)
        assert TrainConfig(**cfg.to_dict()) == cfg
        with pytest.raises(ValueError, match="go together"):
            TrainConfig(epochs=1, lr_drop_epoch=1)


class TestTraining:
    def test_loss_decreases_when_overfitting(self):
        model = tiny_model()
        cfg = TrainConfig(epochs=8, batch_size=2, lr=0.01, use_dropout=False)
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
    ], ids=["mask_empty", "optim_without_t", "spec_without_n_streams", "train_empty",
            "negative_epochs_done", "one_side_input_hw", "float_init_seed",
            "lr_not_a_number", "n_streams_not_an_int", "infinite_lr_decay", "infinite_eps",
            "multiplicative_lr_decay_above_one", "prune_masked_int", "prune_masked_string",
            "prune_masked_null"])
    def test_malformed_nested_value_rejected(self, tmp_path, edit, message):
        header, payload = split_checkpoint(VALID_CHECKPOINT)
        edit(header)
        path = tmp_path / "m.grdn"
        path.write_bytes(join_checkpoint(header, payload))
        with pytest.raises(ValueError, match=message) as info:
            load_checkpoint(str(path))
        assert "\n" not in str(info.value)

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
