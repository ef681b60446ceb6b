"""Strict run-configuration parsing tests."""

import pytest

from gridseg.config import ConfigError, RunConfig, load_config


class TestRunConfig:
    def test_defaults_round_trip(self):
        cfg = RunConfig()
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_partial_sections_keep_defaults(self):
        cfg = RunConfig.from_dict({"train": {"epochs": 7}, "seed": 4})
        assert cfg.train.epochs == 7
        assert cfg.train.batch_size == RunConfig().train.batch_size
        assert cfg.grid == RunConfig().grid
        assert cfg.seed == 4

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown config sections"):
            RunConfig.from_dict({"model": {}})

    def test_unknown_key_names_section(self):
        with pytest.raises(ConfigError, match="'train'.*momentum"):
            RunConfig.from_dict({"train": {"epochs": 1, "momentum": 0.9}})

    def test_bad_value_names_section(self):
        with pytest.raises(ConfigError, match="'grid'"):
            RunConfig.from_dict({"grid": {"fusion": "mean"}})

    def test_seed_validation(self):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"seed": -1})
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"seed": "zero"})
        with pytest.raises(ConfigError, match="seed"):
            RunConfig.from_dict({"seed": True})

    def test_non_object_rejected(self):
        with pytest.raises(ConfigError, match="JSON object"):
            RunConfig.from_dict([1, 2])
        with pytest.raises(ConfigError, match="'eval'"):
            RunConfig.from_dict({"eval": 3})

    def test_grid_column_kinds_from_json_list(self):
        cfg = RunConfig.from_dict(
            {"grid": {"n_streams": 2, "column_kinds": ["sub", "up"]}})
        assert cfg.grid.column_kinds == ("sub", "up")

    def test_eval_scales_not_empty(self):
        with pytest.raises(ConfigError, match="'eval'"):
            RunConfig.from_dict({"eval": {"scales": []}})

    def test_float_epochs_rejected(self):
        with pytest.raises(ConfigError, match="'train': epochs must be int, got 1.5"):
            RunConfig.from_dict({"train": {"epochs": 1.5}})

    def test_float_batch_size_rejected(self):
        with pytest.raises(ConfigError, match="'train': batch_size must be int, got 2.5"):
            RunConfig.from_dict({"train": {"batch_size": 2.5}})

    def test_bool_base_channels_rejected(self):
        with pytest.raises(ConfigError, match="'grid': base_channels must be int, got True"):
            RunConfig.from_dict({"grid": {"base_channels": True}})

    def test_string_lr_rejected(self):
        with pytest.raises(ConfigError, match="'train': lr must be float, got 'x'"):
            RunConfig.from_dict({"train": {"lr": "x"}})

    def test_non_positive_eval_scale_rejected(self):
        with pytest.raises(ConfigError, match="'eval'.*positive"):
            RunConfig.from_dict({"eval": {"scales": [-1]}})
        with pytest.raises(ConfigError, match="'eval'.*positive"):
            RunConfig.from_dict({"eval": {"scales": [1.0, 0]}})

    def test_int_for_float_and_none_for_optional_accepted(self):
        cfg = RunConfig.from_dict({"train": {"lr": 1, "snapshot_every": None},
                                   "eval": {"scales": [1, 0.5]}})
        assert cfg.train.lr == 1 and cfg.eval.scales == (1.0, 0.5)


class TestLoadConfig:
    def test_file_round_trip(self, tmp_path):
        import json
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 11, "data": {"n_train": 5}}))
        cfg = load_config(str(path))
        assert cfg.seed == 11 and cfg.data.n_train == 5

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))
