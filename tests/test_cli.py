"""End-to-end command line tests, run in process via cli.main."""

import json
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gridseg.cli import main
from gridseg.config import DataConfig, EvalConfig
from gridseg.data import AugmentConfig, generate_dataset, generate_scene, read_pgm, write_ppm
from gridseg.gradcheck import GradcheckReport
from gridseg.grid import GridSpec, build_grid, symmetric_columns
from gridseg.metrics import evaluate_scenes
from gridseg.train import TrainConfig, load_checkpoint, make_optimizer, save_checkpoint

TINY = {
    "grid": {"n_streams": 2, "column_kinds": ["sub", "up"],
             "base_channels": 4, "num_classes": 4},
    "data": {"n_train": 8, "n_eval": 3, "width": 24, "height": 24},
    "augment": {"crop_min": 16, "crop_max": 24, "out_size": 16},
    "train": {"epochs": 2, "batch_size": 4, "lr": 0.01},
    "eval": {"scales": [1.0]},
    "seed": 3,
}


@pytest.fixture
def tiny_config(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(TINY))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestReport:
    def test_deterministic_bytes(self, capsys, tiny_config):
        code1, out1, _ = run(capsys, "report", "--config", tiny_config)
        code2, out2, _ = run(capsys, "report", "--config", tiny_config)
        assert code1 == code2 == 0
        assert out1 == out2
        doc = json.loads(out1)
        # 2-stream hand count with a 4-class head: 6+112+20 + 2436 block params
        assert doc["exact_params"] == 2574

    def test_input_size_flag(self, capsys, tiny_config):
        code, out, _ = run(capsys, "report", "--config", tiny_config,
                           "--input-size", "32")
        assert code == 0
        assert json.loads(out)["input_hw"] == [32, 32]


class TestTrainEvalInfer:
    def test_full_cycle(self, capsys, tmp_path, tiny_config):
        ckpt = str(tmp_path / "m.grdn")
        log = str(tmp_path / "log.jsonl")
        code, out, _ = run(capsys, "train", "--config", tiny_config,
                           "--checkpoint", ckpt, "--log", log)
        assert code == 0
        summary = json.loads(out)
        assert summary["epochs_run"] == 2 and summary["final_loss"] is not None
        lines = [json.loads(l) for l in Path(log).read_text().splitlines()]
        assert [l["epoch"] for l in lines] == [0, 1]

        code, out, _ = run(capsys, "eval", "--config", tiny_config,
                           "--checkpoint", ckpt)
        assert code == 0
        report = json.loads(out)
        assert report["n_scenes"] == 3
        assert 0.0 <= report["mean_iou"] <= 1.0

        img_path = str(tmp_path / "in.ppm")
        write_ppm(img_path, generate_scene(99, width=24, height=24).image)
        out_path = str(tmp_path / "pred.pgm")
        color_path = str(tmp_path / "pred.ppm")
        code, out, _ = run(capsys, "infer", "--config", tiny_config,
                           "--checkpoint", ckpt, "--image", img_path,
                           "--out", out_path, "--color", color_path)
        assert code == 0
        pred = read_pgm(out_path)
        assert pred.shape == (24, 24) and pred.max() < 4
        assert json.loads(out)["classes_found"] == sorted(np.unique(pred).tolist())

    def test_infer_is_deterministic(self, capsys, tmp_path, tiny_config):
        ckpt = str(tmp_path / "m.grdn")
        run(capsys, "train", "--config", tiny_config, "--checkpoint", ckpt,
            "--epochs", "1")
        img_path = str(tmp_path / "in.ppm")
        write_ppm(img_path, generate_scene(98, width=24, height=24).image)
        outs = []
        for k in range(2):
            out_path = str(tmp_path / f"pred{k}.pgm")
            code, _, _ = run(capsys, "infer", "--config", tiny_config,
                             "--checkpoint", ckpt, "--image", img_path,
                             "--out", out_path)
            assert code == 0
            outs.append(Path(out_path).read_bytes())
        assert outs[0] == outs[1]

    def test_skipped_scale_warns_in_one_line(self, capsys, tmp_path, tiny_config):
        ckpt = str(tmp_path / "m.grdn")
        run(capsys, "train", "--config", tiny_config, "--checkpoint", ckpt, "--epochs", "0")
        path = tmp_path / "scales.json"
        path.write_text(json.dumps({**TINY, "eval": {"scales": [1.0, 0.25]}}))
        img = str(tmp_path / "in.ppm")
        write_ppm(img, generate_scene(97, width=4, height=4).image)
        code, _, err = run(capsys, "infer", "--config", str(path), "--checkpoint", ckpt,
                           "--image", img, "--out", str(tmp_path / "p.pgm"))
        assert code == 0
        assert err == ("gridseg: warning: scale 0.25 gives 1x1, below the 2-pixel minimum "
                       "side; skipping\n")

    def test_every_scale_skipped_is_one_line_error(self, capsys, tmp_path, tiny_config):
        ckpt = str(tmp_path / "m.grdn")
        run(capsys, "train", "--config", tiny_config, "--checkpoint", ckpt, "--epochs", "0")
        img = str(tmp_path / "in.ppm")
        write_ppm(img, generate_scene(97, width=4, height=4).image[:1, :1])
        code, out, err = run(capsys, "infer", "--checkpoint", ckpt, "--image", img,
                             "--out", str(tmp_path / "p.pgm"))
        assert code == 2 and out == ""
        assert err == ("gridseg: every scale fell below the minimum input size: scales "
                       "[1.0] make the 1x1 image smaller than 2 pixels a side\n")

    def test_epochs_zero_writes_initial_checkpoint(self, capsys, tmp_path, tiny_config):
        ckpt = str(tmp_path / "init.grdn")
        code, out, _ = run(capsys, "train", "--config", tiny_config,
                           "--checkpoint", ckpt, "--epochs", "0")
        assert code == 0
        assert json.loads(out)["epochs_run"] == 0
        model, optim, info = load_checkpoint(ckpt)
        assert optim.t == 0 and info["epochs_done"] == 0

    def test_resume_flag_continues(self, capsys, tmp_path, tiny_config):
        first = str(tmp_path / "half.grdn")
        run(capsys, "train", "--config", tiny_config, "--checkpoint", first,
            "--epochs", "1")
        final = str(tmp_path / "full.grdn")
        code, out, _ = run(capsys, "train", "--config", tiny_config,
                           "--checkpoint", final, "--resume", first)
        assert code == 0
        assert json.loads(out)["epochs_run"] == 1  # epoch 1 of 2 remained

        straight = str(tmp_path / "straight.grdn")
        run(capsys, "train", "--config", tiny_config, "--checkpoint", straight)
        a, _, _ = load_checkpoint(final)
        b, _, _ = load_checkpoint(straight)
        for (n, p), (_, q) in zip(a.named_parameters(), b.named_parameters()):
            assert np.array_equal(p.data, q.data), n

    @pytest.mark.parametrize("stop_in", [1, 2], ids=["save1", "save2"])
    def test_resume_after_a_stop_between_log_line_and_snapshot(self, capsys, tmp_path,
                                                               monkeypatch, stop_in):
        """A run stopped inside a snapshot, after that epoch's log line, is run
        again (resumed from the last snapshot, or afresh when none was saved)
        to the unbroken run's log and checkpoint, byte for byte."""
        import gridseg.train

        config = tmp_path / "run.json"
        config.write_text(json.dumps({**TINY, "train": {**TINY["train"], "epochs": 3,
                                                         "snapshot_every": 1}}))
        straight, straight_log = tmp_path / "straight.grdn", tmp_path / "straight.log"
        run(capsys, "train", "--config", str(config), "--checkpoint", str(straight),
            "--log", str(straight_log))

        save, calls = gridseg.train.save_checkpoint, []

        def stop_in_save(*args, **kwargs):
            calls.append(kwargs["epochs_done"])
            if len(calls) == stop_in:
                raise SystemExit("stopped")
            save(*args, **kwargs)

        ckpt, log = tmp_path / "run.grdn", tmp_path / "run.log"
        argv = ["train", "--config", str(config), "--checkpoint", str(ckpt), "--log", str(log)]
        with monkeypatch.context() as patch:
            patch.setattr(gridseg.train, "save_checkpoint", stop_in_save)
            with pytest.raises(SystemExit):
                main(argv)
        assert calls == list(range(1, stop_in + 1))
        epochs = [json.loads(line)["epoch"] for line in log.read_text().splitlines()]
        assert epochs == list(range(stop_in))
        if stop_in == 1:  # no snapshot exists, so the run starts over
            assert not ckpt.exists()
        else:
            assert load_checkpoint(str(ckpt))[2]["epochs_done"] == stop_in - 1
            argv += ["--resume", str(ckpt)]
        code, out, _ = run(capsys, *argv)
        assert code == 0 and json.loads(out)["epochs_run"] == 3 - (stop_in - 1)
        assert log.read_bytes() == straight_log.read_bytes()
        assert ckpt.read_bytes() == straight.read_bytes()

    def test_eval_scores_the_seeds_after_the_training_scenes(self, capsys, tmp_path,
                                                            tiny_config):
        ckpt = str(tmp_path / "m.grdn")
        run(capsys, "train", "--config", tiny_config, "--checkpoint", ckpt, "--epochs", "0")
        code, out, _ = run(capsys, "eval", "--config", tiny_config, "--checkpoint", ckpt)
        model, _, _ = load_checkpoint(ckpt)
        held_out = generate_dataset(3, seed=3 + 8, width=24, height=24, num_classes=4)
        assert code == 0
        assert json.loads(out) == json.loads(json.dumps(evaluate_scenes(model, held_out)))

    def test_resume_with_fewer_epochs_is_usage_error(self, capsys, tmp_path, tiny_config):
        ckpt = tmp_path / "m.grdn"
        run(capsys, "train", "--config", tiny_config, "--checkpoint", str(ckpt))
        before = ckpt.read_bytes()
        code, out, err = run(capsys, "train", "--config", tiny_config, "--checkpoint",
                             str(ckpt), "--resume", str(ckpt), "--epochs", "1")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "2 epochs done" in err and "the 1 asked for" in err
        assert ckpt.read_bytes() == before

    def test_resume_with_another_seed_is_usage_error(self, capsys, tmp_path, tiny_config):
        ckpt = tmp_path / "m.grdn"
        run(capsys, "train", "--config", tiny_config, "--checkpoint", str(ckpt), "--epochs", "1")
        before = ckpt.read_bytes()
        code, out, err = run(capsys, "train", "--config", tiny_config, "--checkpoint",
                             str(ckpt), "--resume", str(ckpt), "--seed", "99")
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "trained with seed 3" in err and "--seed 99" in err
        assert ckpt.read_bytes() == before
        code, out, _ = run(capsys, "train", "--config", tiny_config, "--checkpoint",
                           str(ckpt), "--resume", str(ckpt), "--seed", "3")
        assert code == 0 and json.loads(out)["epochs_run"] == 1
        assert load_checkpoint(str(ckpt))[2] == {"seed": 3, "epochs_done": 2}

    @pytest.mark.parametrize("train, message", [
        ({"beta1": 0.5, "eps": 0.1}, "beta1 is 0.9, expected 0.5"),
        ({"beta2": 0.99}, "beta2 is 0.999, expected 0.99"),
        ({"eps": 0.1}, "eps is 1e-08, expected 0.1"),
        ({"lr_decay": 0.5}, "lr_decay is 0.0, expected 0.5"),
    ])
    def test_resume_with_other_adam_settings_is_usage_error(self, capsys, tmp_path,
                                                            tiny_config, train, message):
        ckpt = tmp_path / "m.grdn"
        run(capsys, "train", "--config", tiny_config, "--checkpoint", str(ckpt), "--epochs", "1")
        before = ckpt.read_bytes()
        path = tmp_path / "other.json"
        path.write_text(json.dumps({**TINY, "train": {**TINY["train"], **train}}))
        code, out, err = run(capsys, "train", "--config", str(path), "--checkpoint",
                             str(ckpt), "--resume", str(ckpt))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "optimizer mismatch: " + message in err
        assert ckpt.read_bytes() == before

    def test_resume_takes_the_configs_lr(self, capsys, tmp_path, tiny_config):
        ckpt = tmp_path / "m.grdn"
        run(capsys, "train", "--config", tiny_config, "--checkpoint", str(ckpt), "--epochs", "1")
        path = tmp_path / "other.json"
        path.write_text(json.dumps({**TINY, "train": {**TINY["train"], "lr": 0.002}}))
        code, _, _ = run(capsys, "train", "--config", str(path), "--checkpoint", str(ckpt),
                         "--resume", str(ckpt))
        assert code == 0 and load_checkpoint(str(ckpt))[1].lr == 0.002


class TestExitCodes:
    def test_unknown_flag_is_usage_error(self, capsys, tiny_config):
        code, _, err = run(capsys, "report", "--config", tiny_config, "--bogus")
        assert code == 1 and "bogus" in err

    def test_bad_config_key_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"epochs": 1, "warmup": 5}}))
        code, _, err = run(capsys, "report", "--config", str(path))
        assert code == 1 and "warmup" in err

    def test_ignore_label_that_is_a_class_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"train": {"ignore_label": 2}}))
        code, out, err = run(capsys, "train", "--config", str(path))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "train.ignore_label 2" in err and "grid.num_classes 4" in err

    def test_invalid_json_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{")
        code, _, err = run(capsys, "report", "--config", str(path))
        assert code == 1 and "invalid JSON" in err

    def test_missing_checkpoint_is_runtime_error(self, capsys, tiny_config):
        code, _, err = run(capsys, "eval", "--config", tiny_config,
                           "--checkpoint", "/nonexistent/m.grdn")
        assert code == 2 and "nonexistent" in err

    def test_spec_mismatch_is_usage_error(self, capsys, tmp_path, tiny_config):
        ckpt = str(tmp_path / "m.grdn")
        run(capsys, "train", "--config", tiny_config, "--checkpoint", ckpt,
            "--epochs", "0")
        other = dict(TINY)
        other["grid"] = {**TINY["grid"], "base_channels": 8}
        other_path = tmp_path / "other.json"
        other_path.write_text(json.dumps(other))
        code, _, err = run(capsys, "eval", "--config", str(other_path),
                           "--checkpoint", ckpt)
        assert code == 1 and "base_channels" in err

    def test_spec_mismatch_names_field(self, capsys, tmp_path, tiny_config):
        # train --resume, eval and infer each compare the configured grid with
        # the checkpoint's, and pass when they are equal
        ckpt = str(tmp_path / "m.grdn")
        run(capsys, "train", "--config", tiny_config, "--checkpoint", ckpt, "--epochs", "1")
        img = str(tmp_path / "in.ppm")
        write_ppm(img, generate_scene(99, width=24, height=24).image)
        other = tmp_path / "other.json"
        other.write_text(json.dumps({**TINY, "grid": {**TINY["grid"], "fusion": "concat"}}))
        argvs = {
            "train": ["--checkpoint", str(tmp_path / "out.grdn"), "--resume", ckpt],
            "eval": ["--checkpoint", ckpt],
            "infer": ["--checkpoint", ckpt, "--image", img, "--out", str(tmp_path / "p.pgm")],
        }
        for command, argv in argvs.items():
            code, out, err = run(capsys, command, "--config", str(other), *argv)
            assert code == 1 and out == "", command
            assert err == (f"gridseg: {ckpt}: checkpoint spec mismatch: fusion is 'sum', "
                           f"expected 'concat'\n")
            assert run(capsys, command, "--config", tiny_config, *argv)[0] == 0, command

    def test_config_without_eval_scenes_is_usage_error(self, capsys, tmp_path, tiny_config):
        ckpt = str(tmp_path / "m.grdn")
        run(capsys, "train", "--config", tiny_config, "--checkpoint", ckpt, "--epochs", "0")
        path = tmp_path / "no_eval.json"
        path.write_text(json.dumps({**TINY, "data": {**TINY["data"], "n_eval": 0}}))
        code, out, err = run(capsys, "eval", "--config", str(path), "--checkpoint", ckpt)
        assert code == 1 and out == ""
        assert "data.n_eval is 0" in err and err.count("\n") == 1

    def test_truncated_checkpoint_is_runtime_error(self, capsys, tmp_path, tiny_config):
        ckpt = tmp_path / "m.grdn"
        ckpt.write_bytes(b"GRDN\x01\x00")
        code, _, err = run(capsys, "eval", "--config", tiny_config,
                           "--checkpoint", str(ckpt))
        assert code == 2 and "truncated" in err and err.count("\n") == 1

    def _edited_checkpoint(self, capsys, tmp_path, tiny_config, edit) -> str:
        ckpt = tmp_path / "m.grdn"
        run(capsys, "train", "--config", tiny_config, "--checkpoint", str(ckpt),
            "--epochs", "0")
        raw = ckpt.read_bytes()
        header_len = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:16 + header_len])
        edit(header)
        blob = json.dumps(header).encode()
        ckpt.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                         + raw[16 + header_len:])
        return str(ckpt)

    def test_malformed_nested_header_is_runtime_error(self, capsys, tmp_path, tiny_config):
        ckpt = self._edited_checkpoint(capsys, tmp_path, tiny_config,
                                       lambda h: h.update(mask={}))
        code, _, err = run(capsys, "eval", "--config", tiny_config, "--checkpoint", ckpt)
        assert code == 2 and "'mask'" in err and err.count("\n") == 1

    def test_header_value_a_constructor_rejects_names_the_file(self, capsys, tmp_path,
                                                              tiny_config):
        ckpt = self._edited_checkpoint(capsys, tmp_path, tiny_config,
                                       lambda h: h["spec"].update(fusion=1))
        img = str(tmp_path / "in.ppm")
        write_ppm(img, generate_scene(98, width=24, height=24).image)
        code, out, err = run(capsys, "infer", "--checkpoint", ckpt, "--image", img,
                             "--out", str(tmp_path / "p.pgm"))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"{ckpt}: fusion must be 'sum' or 'concat', got 1" in err

    def test_infinite_header_lr_decay_is_runtime_error(self, capsys, tmp_path, tiny_config):
        # json writes the float as the bare token Infinity, which it also reads back
        ckpt = self._edited_checkpoint(capsys, tmp_path, tiny_config,
                                       lambda h: h["optim"].update(lr_decay=float("inf")))
        code, _, err = run(capsys, "eval", "--config", tiny_config, "--checkpoint", ckpt)
        assert code == 2 and "lr_decay must be" in err and err.count("\n") == 1

    def test_header_train_seed_of_2_to_the_128_is_runtime_error(self, capsys, tmp_path,
                                                               tiny_config):
        # numpy's Philox would reject the key seed ^ KEY_SHUFFLE only after the
        # scenes were generated
        ckpt = self._edited_checkpoint(capsys, tmp_path, tiny_config,
                                       lambda h: h["train"].update(seed=2**128))
        code, out, err = run(capsys, "train", "--config", tiny_config, "--resume", ckpt,
                             "--checkpoint", str(tmp_path / "next.grdn"))
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"{ckpt}: " in err and "the train seed below 2**128" in err

    def test_multiplicative_decay_mode_in_header_is_runtime_error(self, capsys, tmp_path,
                                                                  tiny_config):
        # the v1 header keeps decay_mode, and inverse time is its one value
        ckpt = self._edited_checkpoint(
            capsys, tmp_path, tiny_config,
            lambda h: h["optim"].update(decay_mode="multiplicative"))
        code, out, err = run(capsys, "eval", "--config", tiny_config, "--checkpoint", ckpt)
        assert code == 2 and out == ""
        assert err == (f"gridseg: {ckpt}: checkpoint decay_mode must be 'inverse_time', "
                       f"got 'multiplicative'\n")

    def test_decay_mode_in_config_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY, "train": {**TINY["train"],
                                                      "decay_mode": "inverse_time"}}))
        code, out, err = run(capsys, "train", "--config", str(path),
                             "--checkpoint", str(tmp_path / "m.grdn"))
        assert code == 1 and out == ""
        assert err == "gridseg: unknown keys in section 'train': ['decay_mode']\n"
        assert not (tmp_path / "m.grdn").exists()

    @pytest.mark.parametrize("grid,message", [
        ({"n_streams": 10**30}, "n_streams must lie in [1, 16]"),
        ({"base_channels": 10**23}, "base_channels must lie in [1, 65536]"),
        ({"num_classes": 10**6}, "num_classes must lie in [2, 65536]"),
        ({"n_streams": 16, "base_channels": 4}, "base_channels * 2**(n_streams - 1)"),
    ])
    def test_oversized_grid_is_usage_error(self, capsys, tmp_path, grid, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY, "grid": {**TINY["grid"], **grid}}))
        code, out, err = run(capsys, "report", "--config", str(path))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert f"section 'grid': {message}" in err

    def test_oversized_header_grid_is_runtime_error(self, capsys, tmp_path, tiny_config):
        ckpt = self._edited_checkpoint(capsys, tmp_path, tiny_config,
                                       lambda h: h["spec"].update(n_streams=10**30))
        code, _, err = run(capsys, "eval", "--config", tiny_config, "--checkpoint", ckpt)
        assert code == 2 and "n_streams must lie in" in err and err.count("\n") == 1

    def test_wrongly_typed_config_value_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY, "train": {**TINY["train"], "epochs": 1.5}}))
        code, _, err = run(capsys, "train", "--config", str(path),
                           "--checkpoint", str(tmp_path / "m.grdn"))
        assert code == 1 and "epochs must be int" in err and err.count("\n") == 1

    @pytest.mark.parametrize("categories", [{"a": "x"}, {"a": [0.5]}, {"a": [0, 1, 2, 4]}])
    def test_malformed_categories_are_usage_error(self, capsys, tmp_path, categories):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY, "eval": {"categories": categories}}))
        code, _, err = run(capsys, "eval", "--config", str(path),
                           "--checkpoint", str(tmp_path / "m.grdn"))
        assert code == 1 and "categories" in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["train", "report"])
    @pytest.mark.parametrize("augment, message", [
        ({"out_size": 1}, "out_size 1 is below the grid's minimum input side 2"),
        ({"crop_min": 30, "crop_max": 40}, "crop_min 30 exceeds the 24x24 scenes"),
    ])
    def test_config_that_cannot_train_is_usage_error(self, capsys, tmp_path, command,
                                                     augment, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY, "augment": {**TINY["augment"], **augment}}))
        argv = ["--checkpoint", str(tmp_path / "m.grdn")] if command == "train" else []
        code, out, err = run(capsys, command, "--config", str(path), *argv)
        assert code == 1 and message in err and err.count("\n") == 1 and out == ""
        assert not (tmp_path / "m.grdn").exists()

    @pytest.mark.parametrize("data", [{"width": 3, "height": 3}, {"width": 24, "height": 2}])
    def test_scenes_too_small_to_draw_is_usage_error(self, capsys, tmp_path, data):
        """Refused when the config is read: a 3x3 scene used to stop the run
        with exit 2 and numpy's bare 'low >= high'."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY, "data": {**TINY["data"], **data},
                                    "augment": {**TINY["augment"], "crop_min": 1}}))
        code, out, err = run(capsys, "train", "--config", str(path),
                             "--checkpoint", str(tmp_path / "m.grdn"))
        assert code == 1 and out == ""
        assert err == (f"gridseg: section 'data': width and height must be at least 4, "
                       f"got {data['width']}x{data['height']}\n")
        assert not (tmp_path / "m.grdn").exists()

    def test_one_scene_batch_at_a_one_pixel_stream_is_usage_error(self, capsys, tmp_path):
        """Refused when the config is read, before the first step: without the
        check, training took one step and then exited 2 from batch norm."""
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"data": {"n_train": 5, "n_eval": 1},
                                    "augment": {"crop_min": 16, "crop_max": 32,
                                                "out_size": 16},
                                    "train": {"epochs": 1, "batch_size": 4}}))
        ckpt, log = tmp_path / "m.grdn", tmp_path / "log.jsonl"
        code, out, err = run(capsys, "train", "--config", str(path), "--checkpoint", str(ckpt),
                             "--log", str(log))
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "augment.out_size 16 makes the deepest stream 1x1" in err
        assert "train.batch_size 4 with data.n_train 5" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize("command", ["train", "report"])
    def test_max_shapes_below_num_classes_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY, "grid": {**TINY["grid"], "num_classes": 10}}))
        argv = ["--checkpoint", str(tmp_path / "m.grdn")] if command == "train" else []
        code, out, err = run(capsys, command, "--config", str(path), *argv)
        assert code == 1 and err.count("\n") == 1 and out == ""
        assert "data.max_shapes 8 does not fit grid.num_classes 10" in err
        assert not (tmp_path / "m.grdn").exists()

    @pytest.mark.parametrize("command", ["eval", "infer"])
    def test_scale_over_the_cap_is_usage_error(self, capsys, tmp_path, command, monkeypatch):
        """Refused when the config is read: the scaled forward never runs."""
        ckpt = str(tmp_path / "m.grdn")
        tiny = tmp_path / "tiny.json"
        tiny.write_text(json.dumps(TINY))
        run(capsys, "train", "--config", str(tiny), "--checkpoint", ckpt, "--epochs", "0")
        for name in ("evaluate_scenes", "multiscale_predict"):
            monkeypatch.setattr(f"gridseg.cli.{name}", pytest.fail)
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY, "eval": {"scales": [1.0, 1000.0]}}))
        img = str(tmp_path / "in.ppm")
        write_ppm(img, generate_scene(97, width=16, height=16).image)
        argv = ["--image", img, "--out", str(tmp_path / "p.pgm")] if command == "infer" else []
        code, out, err = run(capsys, command, "--config", str(path), "--checkpoint", ckpt, *argv)
        assert code == 1 and out == ""
        assert err == (f"gridseg: section 'eval': eval.scales must be at most "
                       f"{EvalConfig.MAX_SCALE:g}, got [1.0, 1000.0]\n")
        assert not (tmp_path / "p.pgm").exists()

    @pytest.mark.parametrize("command", ["train", "report"])
    def test_unbuildable_mask_preset_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY, "grid": {**TINY["grid"], "n_streams": 1,
                                                     "mask": "u_net"}}))
        argv = ["--checkpoint", str(tmp_path / "m.grdn")] if command == "train" else []
        code, out, err = run(capsys, command, "--config", str(path), *argv)
        assert code == 1 and out == "" and err.count("\n") == 1
        assert "section 'grid': mask preset 'u_net' needs at least two streams" in err
        assert not (tmp_path / "m.grdn").exists()

    def test_bad_optimizer_setting_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**TINY, "train": {**TINY["train"], "eps": 0.0}}))
        code, _, err = run(capsys, "train", "--config", str(path),
                           "--checkpoint", str(tmp_path / "m.grdn"))
        assert code == 1 and "eps must be positive" in err and err.count("\n") == 1
        assert not (tmp_path / "m.grdn").exists()

    def test_model_too_large_to_allocate_is_runtime_error(self, capsys, tmp_path,
                                                          tiny_config, monkeypatch):
        ckpt = str(tmp_path / "m.grdn")
        run(capsys, "train", "--config", tiny_config, "--checkpoint", ckpt, "--epochs", "0")

        def build_grid(*args, **kwargs):
            raise MemoryError("Unable to allocate 288. GiB for an array")

        monkeypatch.setattr("gridseg.cli.build_grid", build_grid)
        monkeypatch.setattr("gridseg.train.build_grid", build_grid)
        for argv in (["report", "--config", tiny_config],
                     ["eval", "--config", tiny_config, "--checkpoint", ckpt]):
            code, _, err = run(capsys, *argv)
            assert code == 2 and "Unable to allocate" in err and err.count("\n") == 1

    def test_negative_seed_rejected(self, capsys, tiny_config):
        code, _, err = run(capsys, "report", "--config", tiny_config,
                           "--seed", "-4")
        assert code == 1

    @pytest.mark.parametrize("argv,message", [
        (["report", "--input-size", "0"], "--input-size: must be finite and at least 1"),
        (["report", "--input-size", "2.5"], "--input-size: invalid int value"),
        (["report", "--seed", "x"], "--seed: invalid int value"),
        (["train", "--epochs", "-1"], "--epochs: must be finite and at least 0"),
        (["eval", "--checkpoint", "m.grdn", "--threads", "2"],
         "unrecognized arguments: --threads 2"),
        (["gradcheck", "--coords", "0"], "--coords: must be finite and at least 1"),
        (["gradcheck", "--coords", "-3"], "--coords: must be finite and at least 1"),
        (["gradcheck", "--tol", "nan"], "--tol: must be finite and above 0"),
        (["gradcheck", "--tol", "inf"], "--tol: must be finite and above 0"),
        (["gradcheck", "--tol", "0"], "--tol: must be finite and above 0"),
        (["gradcheck", "--tol", "x"], "--tol: invalid float value"),
        (["report", "--input-size", "3"], "--input-size: must be at least the grid's minimum "
                                          "side 16, got 3"),
        (["train", "--seed", str(2**200)], "seed must be an integer in [0, 2**128)"),
    ])
    def test_out_of_range_flag_is_usage_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert message in err and err.count("\n") == 1


class TestGradcheckCommand:
    def test_passes_by_default(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--coords", "30")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert doc["max_rel_error"] < doc["tolerance"]

    def test_nothing_checked_fails(self, capsys, monkeypatch):
        # every picked coordinate exactly 0: nothing was compared
        monkeypatch.setattr("gridseg.cli.finite_diff_gradcheck",
                            lambda *args, **kwargs: GradcheckReport(0.0, 0.0, 0, 10))
        code, out, _ = run(capsys, "gradcheck", "--coords", "10")
        doc = json.loads(out)
        assert code == 2 and doc["passed"] is False and doc["checked"] == 0

    @pytest.mark.parametrize("flag,value", [("--config", "/nonexistent.json"), ("--seed", "5")])
    def test_config_and_seed_are_usage_errors(self, capsys, flag, value):
        """gradcheck audits a fixed model: a flag it would ignore is refused."""
        code, out, err = run(capsys, "gradcheck", flag, value)
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {flag} {value}" in err and err.count("\n") == 1

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run(capsys, "gradcheck", "--coords", "10", "--tol", "1e-18")
        assert code == 2
        assert json.loads(out)["passed"] is False


# ---------------------------------------------------------------------------
# fuzzing: any config, checkpoint header or image ends in exit 0, 1 or 2
# ---------------------------------------------------------------------------

SECTIONS = {"grid": GridSpec, "data": DataConfig, "augment": AugmentConfig,
            "train": TrainConfig, "eval": EvalConfig}
# the sizes a model is allocated by stay small; values past the GridSpec caps
# are tested one by one in TestExitCodes, never by building a model
SIZES = {"n_streams": st.integers(0, 4), "base_channels": st.integers(0, 6),
         "num_classes": st.integers(1, 12), "image_channels": st.integers(0, 4)}
WORDS = {"fusion": ("sum", "concat"), "mask": ("full", "conv_deconv", "u_net", "frrn")}
# leaves of a type no int field takes, so a wrong-typed value never reaches a size
foreign = (st.none() | st.booleans() | st.floats() | st.text(max_size=4)
           | st.lists(st.none(), max_size=2))


def mostly(usual, odd):
    """``usual`` nine times in ten, else ``odd`` (``|`` would weigh each branch
    of a union alike)."""
    return st.integers(0, 9).flatmap(lambda k: odd if k == 0 else usual)


def _field_values(name, hint):
    if name in SIZES:
        typed = SIZES[name]
    elif name in WORDS:
        typed = mostly(st.sampled_from(WORDS[name]), st.text(max_size=4))
    elif name == "column_kinds":
        typed = st.lists(mostly(st.sampled_from(["sub", "up"]), st.just("down")), max_size=5)
    elif name == "scales":
        typed = st.lists(st.floats(-1, 3), max_size=3)
    elif name == "categories":
        typed = st.none() | st.dictionaries(
            st.text(max_size=2), st.lists(st.integers(-1, 12), max_size=4), max_size=4)
    else:
        by_type = {int: st.integers(-3, 300), float: mostly(st.floats(-2, 2), st.floats()),
                   bool: st.booleans(), str: st.text(max_size=4), type(None): st.none()}
        typed = st.one_of([by_type[h] for h in typing.get_args(hint) or (hint,)])
    return mostly(typed, foreign)


def _section(cls):
    hints = typing.get_type_hints(cls)
    return st.fixed_dictionaries(
        {}, optional={name: _field_values(name, hint) for name, hint in hints.items()})


config_documents = st.fixed_dictionaries({}, optional={
    **{name: mostly(_section(cls), foreign) for name, cls in SECTIONS.items()},
    "seed": mostly(st.integers(-2, 2**70), foreign),
})
input_sizes = st.none() | mostly(st.integers(-2, 300).map(str), st.sampled_from(["x", "1e3"]))

header_values = (st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
                 | st.text(max_size=4) | st.lists(st.integers(-1, 4) | st.booleans(), max_size=4)
                 | st.dictionaries(st.text(max_size=3), st.integers(0, 3), max_size=2))
DELETE = object()

odd_pnm_tokens = st.sampled_from([b"-1", b"0", b"256", b"65535", b"x", b"1e3", b"+5", b"0x10",
                                  b"1_0", "\u0663".encode()])
pnm_separators = mostly(st.sampled_from([b" ", b"\n"]),
                        st.sampled_from([b"\t", b"\r\n", b"\n# note\n", b"#", b""]))
PIXELS = bytes(np.random.default_rng(40).integers(0, 256, 12 * 12 * 3 + 8, np.uint8))

fuzz = settings(max_examples=150, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])


def _assert_clean_exit(code, out, err):
    """Exit 0 with no error, or 1/2 with one ``gridseg:`` line and no output."""
    assert code in (0, 1, 2)
    if code == 0:
        json.loads(out)
    else:
        assert out == "" and err.count("\n") == 1 and err.startswith("gridseg: "), err


def _key_paths(node, path=()):
    """Every key path into a JSON document, containers included."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _key_paths(child, path + (key,))


class TestFuzz:
    @pytest.fixture
    def checkpoint(self, tmp_path):
        """Path of a small untrained checkpoint; writes a valid 8x8 image beside it."""
        spec = GridSpec(2, symmetric_columns(1, 1), base_channels=2, num_classes=3)
        model = build_grid(spec, (8, 8), seed=1)
        path = tmp_path / "m.grdn"
        save_checkpoint(str(path), model, make_optimizer(model, TrainConfig(epochs=1)),
                        train_seed=1, epochs_done=0)
        write_ppm(str(tmp_path / "in.ppm"), generate_scene(5, width=8, height=8).image)
        return path

    @fuzz
    @given(doc=config_documents, side=input_sizes)
    def test_report_on_any_config(self, capsys, tmp_path, doc, side):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(doc))
        argv = [] if side is None else ["--input-size", side]
        _assert_clean_exit(*run(capsys, "report", "--config", str(path), *argv))

    @fuzz
    @given(draw=st.data())
    def test_infer_on_any_checkpoint_header(self, capsys, tmp_path, checkpoint, draw):
        raw = checkpoint.read_bytes()
        header_len = int.from_bytes(raw[8:16], "little")
        header = json.loads(raw[16:16 + header_len])
        # a top-level key first, so the long parameter table does not crowd out the rest
        paths = {key: [(key,), *_key_paths(value, (key,))] if isinstance(value, (dict, list))
                 else [(key,)] for key, value in header.items()}
        for _ in range(draw.draw(st.integers(1, 3))):
            key_path = draw.draw(st.sampled_from(sorted(paths)).flatmap(
                lambda key: st.sampled_from(paths[key])))
            value = draw.draw(mostly(header_values, st.just(DELETE)))
            try:
                parent = header
                for key in key_path[:-1]:
                    parent = parent[key]
                if value is DELETE:
                    del parent[key_path[-1]]
                else:
                    parent[key_path[-1]] = value
            except (KeyError, IndexError, TypeError):
                continue  # an earlier edit removed or replaced this path
        blob = json.dumps(header).encode()
        path = tmp_path / "edited.grdn"
        path.write_bytes(raw[:8] + len(blob).to_bytes(8, "little") + blob
                         + raw[16 + header_len:])
        _assert_clean_exit(*run(capsys, "infer", "--checkpoint", str(path),
                                "--image", str(tmp_path / "in.ppm"),
                                "--out", str(tmp_path / "out.pgm")))

    @fuzz
    @given(draw=st.data())
    def test_infer_on_any_netpbm_header(self, capsys, tmp_path, checkpoint, draw):
        magic = draw.draw(mostly(st.just(b"P6"), st.sampled_from([b"P5", b"P3", b"P", b""])))
        w, h = (draw.draw(st.integers(1, 12)) for _ in range(2))
        tokens = [draw.draw(mostly(st.just(v), odd_pnm_tokens))
                  for v in (str(w).encode(), str(h).encode(), b"255")]
        tokens = tokens[:draw.draw(mostly(st.just(3), st.integers(0, 2)))]
        header = b"".join(draw.draw(pnm_separators) + t for t in tokens)
        n_pixels = draw.draw(mostly(st.integers(-2, 2).map(lambda d: max(w * h * 3 + d, 0)),
                                    st.integers(0, len(PIXELS))))
        image = tmp_path / "fuzz.ppm"
        image.write_bytes(magic + header + draw.draw(pnm_separators) + PIXELS[:n_pixels])
        color = ["--color", str(tmp_path / "out.ppm")] if draw.draw(st.booleans()) else []
        _assert_clean_exit(*run(capsys, "infer", "--checkpoint", str(checkpoint),
                                "--image", str(image), "--out", str(tmp_path / "out.pgm"),
                                *color))
