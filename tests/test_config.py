"""Strict run-configuration parsing tests."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridseg.config import ConfigError, DataConfig, EvalConfig, RunConfig, load_config
from gridseg.data import AugmentConfig
from gridseg.grid import GridSpec
from gridseg.metrics import CategoryMap
from gridseg.train import TrainConfig


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

    @pytest.mark.parametrize("doc", [
        {"eval": {"scales": [10**400]}}, {"train": {"lr": float("nan")}},
        {"train": {"eps": float("inf")}}, {"grid": {"dropout_p": -10**400}},
    ])
    def test_non_finite_float_rejected(self, doc):
        with pytest.raises(ConfigError, match="must be (tuple\\[)?float"):
            RunConfig.from_dict(doc)

    def test_int_for_float_and_none_for_optional_accepted(self):
        cfg = RunConfig.from_dict({"train": {"lr": 1, "snapshot_every": None},
                                   "eval": {"scales": [1, 0.5]}})
        assert cfg.train.lr == 1 and cfg.eval.scales == (1.0, 0.5)

    @pytest.mark.parametrize("categories", [
        {"a": "x"}, {"a": None}, {"a": [0.5]}, {"a": [True, 0, 2, 3]}, [[0, 1, 2, 3]],
    ])
    def test_mistyped_categories_rejected(self, categories):
        with pytest.raises(ConfigError, match="'eval': categories must be dict"):
            RunConfig.from_dict({"eval": {"categories": categories}})

    @pytest.mark.parametrize("categories, message", [
        ({"a": [0, 1, 2, 4]}, "class 4 outside"),
        ({"a": [0, 1, 2], "b": [2, 3]}, "class 2 appears in two"),
        ({"a": [0, 1], "b": [3]}, r"classes \[2\] belong to no category"),
        ({}, "no category"),
    ])
    def test_categories_must_cover_each_class_once(self, categories, message):
        with pytest.raises(ConfigError, match="'eval': categories: .*" + message):
            RunConfig.from_dict({"eval": {"categories": categories}})

    @pytest.mark.parametrize("doc, message", [
        ({"augment": {"out_size": 8}}, "out_size 8 is below the grid's minimum input side 16"),
        ({"grid": {"n_streams": 3, "column_kinds": ["sub", "up"]},
          "augment": {"out_size": 3}}, "out_size 3 is below the grid's minimum input side 4"),
        ({"augment": {"crop_min": 70, "crop_max": 80}}, "crop_min 70 exceeds the 64x64 scenes"),
        ({"data": {"width": 96, "height": 24}}, "crop_min 32 exceeds the 96x24 scenes"),
    ])
    def test_configs_that_cannot_train_rejected(self, doc, message):
        with pytest.raises(ConfigError, match="section 'augment': " + message):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("grid, message", [
        ({"n_streams": 1, "mask": "u_net"}, "mask preset 'u_net' needs at least two streams"),
        ({"column_kinds": ["sub", "up", "sub", "up"], "mask": "conv_deconv"},
         "mask preset 'conv_deconv' requires all sub columns before all up columns"),
        ({"column_kinds": ["sub", "sub"], "mask": "u_net"},
         "mask preset 'u_net' needs at least one sub and one up column"),
    ])
    def test_unbuildable_mask_presets_rejected(self, grid, message):
        with pytest.raises(ConfigError, match="section 'grid': " + message):
            RunConfig.from_dict({"grid": grid})

    @pytest.mark.parametrize("channels", [1, 4])
    def test_non_rgb_image_channels_rejected(self, channels):
        # scenes and PPM images are RGB; any other width fails at the first forward
        with pytest.raises(ConfigError, match=f"section 'grid': image_channels must be 3 "
                                              f"for the RGB scenes and images, got {channels}"):
            RunConfig.from_dict({"grid": {"image_channels": channels}})

    def test_smallest_trainable_sizes_accepted(self):
        cfg = RunConfig.from_dict({"augment": {"crop_min": 40, "crop_max": 80, "out_size": 16},
                                   "data": {"width": 96, "height": 40}})
        assert cfg.augment.out_size == cfg.grid.min_side
        assert cfg.augment.crop_min == cfg.data.height

    def test_categories_checked_against_configured_classes(self):
        categories = {"bg": [0], "fg": [1, 2, 3, 4, 5]}
        with pytest.raises(ConfigError, match="outside"):
            RunConfig.from_dict({"eval": {"categories": categories}})
        cfg = RunConfig.from_dict({"grid": {"num_classes": 6},
                                   "eval": {"categories": categories}})
        assert cfg.eval.categories == categories
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("train, message", [
        ({"lr": 0}, "lr must be positive"),
        ({"beta1": 1.5}, "betas must lie in"),
        ({"beta2": -0.1}, "betas must lie in"),
        ({"eps": 0.0}, "eps must be positive"),
        ({"lr_decay": -0.5}, "lr_decay must be non-negative"),
        ({"decay_mode": "staircase"}, "decay_mode must be one of"),
        ({"lr_drop_epoch": 1, "lr_after_drop": -0.5}, "lr_after_drop must be positive"),
        ({"lr_decay": 1.0, "decay_mode": "multiplicative"}, "lr_decay must be below 1"),
    ])
    def test_optimizer_settings_checked_at_parse(self, train, message):
        with pytest.raises(ConfigError, match="'train': " + message):
            RunConfig.from_dict({"train": train})


SECTIONS = {"grid": GridSpec, "data": DataConfig, "augment": AugmentConfig,
            "train": TrainConfig, "eval": EvalConfig}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# category groups are drawn often enough to reach the CategoryMap check
category_like = st.dictionaries(st.text(max_size=3),
                                st.lists(st.integers(-1, 6), max_size=5), max_size=4)


def section(name):
    keys = st.sampled_from([f.name for f in dataclasses.fields(SECTIONS[name])])
    return st.dictionaries(keys, json_values | category_like, max_size=5) | json_values


config_documents = st.fixed_dictionaries(
    {}, optional={**{name: section(name) for name in SECTIONS}, "seed": json_values})


@settings(max_examples=400, deadline=None)
@given(config_documents)
def test_random_documents_parse_or_raise_config_error(doc):
    """Any document over the real section and field names either fails with
    ConfigError or parses to a config whose categories are usable."""
    try:
        cfg = RunConfig.from_dict(doc)
    except ConfigError:
        return
    if cfg.eval.categories is not None:
        CategoryMap(cfg.eval.categories, cfg.grid.num_classes)


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
