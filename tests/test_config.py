"""Strict run-configuration parsing tests."""

import dataclasses
import json
import math
import pathlib
import re

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

    @pytest.mark.parametrize("key,d", [
        pytest.param("momentum", {"train": {"epochs": 1, "momentum": 0.9}}, id="momentum"),
        # gone: grid.dropout_p alone sets unit dropout, 1.0 turning it off
        pytest.param("use_dropout", {"train": {"use_dropout": False}}, id="use_dropout"),
    ])
    def test_unknown_key_names_section(self, key, d):
        with pytest.raises(ConfigError, match=f"'train'.*{key}"):
            RunConfig.from_dict(d)

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
        # the Philox keys, seed ^ a 64-bit constant, must stay below 2**128
        assert RunConfig.from_dict({"seed": 2**128 - 1}).seed == 2**128 - 1
        with pytest.raises(ConfigError, match=r"^seed must be an integer in \[0, 2\*\*128\)"):
            RunConfig.from_dict({"seed": 2**128})
        with pytest.raises(ConfigError, match="seed"):
            dataclasses.replace(RunConfig(), seed=2**200)

    def test_readme_config_block_is_the_default_document(self):
        readme = pathlib.Path(__file__).parents[1] / "README.md"
        block, = re.findall(r"```json\n(.*?)```", readme.read_text(), re.S)
        assert json.loads(block) == RunConfig().to_dict()

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

    def test_nan_eval_scale_rejected(self):
        # JSON carries no NaN, so only a direct EvalConfig can hold one; eval
        # then failed converting the scaled size to an integer
        with pytest.raises(ValueError, match="must be positive, got \\[1.0, nan\\]"):
            EvalConfig(scales=(1.0, float("nan")))

    def test_eval_scale_capped(self):
        cap = EvalConfig.MAX_SCALE
        assert RunConfig.from_dict({"eval": {"scales": [0.5, cap]}}).eval.scales == (0.5, cap)
        with pytest.raises(ConfigError, match=rf"^section 'eval': eval.scales must be at most "
                                              rf"{cap:g}, got \[1.0, 1000.0\]$"):
            RunConfig.from_dict({"eval": {"scales": [1, 1000]}})
        with pytest.raises(ConfigError, match="at most"):
            RunConfig.from_dict({"eval": {"scales": [math.nextafter(cap, math.inf)]}})

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

    @pytest.mark.parametrize("n_train, batch_size, out_size, refused", [
        (5, 4, 16, True),    # a one-scene last batch at a 1x1 deepest stream
        (6, 1, 16, True),    # every batch holds one scene
        (1, 4, 16, True),    # one batch of one scene
        (6, 4, 16, False),   # a last batch of two
        (5, 4, 17, False),   # the deepest stream is 2x2
        (5, 1, 32, False),   # 2x2 again, at batch 1
    ])
    def test_one_scene_batch_at_a_one_pixel_stream_rejected(self, n_train, batch_size,
                                                            out_size, refused):
        # the stock grid has 5 streams: min_side 16 halves to a 1x1 deepest stream,
        # where training batch norm over one scene has one value per channel
        doc = {"data": {"n_train": n_train}, "train": {"batch_size": batch_size},
               "augment": {"crop_min": 16, "crop_max": 32, "out_size": out_size}}
        if not refused:
            RunConfig.from_dict(doc)
            return
        with pytest.raises(ConfigError, match=(
                rf"^augment.out_size {out_size} makes the deepest stream 1x1, .* "
                rf"train.batch_size {batch_size} with data.n_train {n_train} leaves a batch "
                rf"of one$")):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("doc", [
        {"grid": {"num_classes": 10}},
        {"data": {"max_shapes": 2}},
        {"data": {"max_shapes": 256}},
        {"grid": {"num_classes": 300}, "data": {"max_shapes": 255}},
    ])
    def test_max_shapes_checked_against_num_classes(self, doc):
        classes = doc.get("grid", {}).get("num_classes", 4)
        shapes = doc.get("data", {}).get("max_shapes", 8)
        with pytest.raises(ConfigError, match=rf"^data.max_shapes {shapes} does not fit "
                                              rf"grid.num_classes {classes}: "):
            RunConfig.from_dict(doc)

    # 256 classes take class 255, so that row moves the ignore label past them
    @pytest.mark.parametrize("classes, shapes, ignore",
                             [(4, 3, 255), (10, 9, 255), (256, 255, 256), (2, 255, 255)],
                             ids=["4-3", "10-9", "256-255", "2-255"])
    def test_max_shapes_range_edges_accepted(self, classes, shapes, ignore):
        cfg = RunConfig.from_dict({"grid": {"num_classes": classes},
                                   "data": {"max_shapes": shapes},
                                   "train": {"ignore_label": ignore}})
        assert (cfg.grid.num_classes, cfg.data.max_shapes) == (classes, shapes)

    @pytest.mark.parametrize("doc", [
        {"train": {"ignore_label": 2}},
        {"train": {"ignore_label": 0}},
        {"grid": {"num_classes": 256}, "data": {"max_shapes": 255}},
    ])
    def test_ignore_label_that_is_a_class_rejected(self, doc):
        label = doc.get("train", {}).get("ignore_label", 255)
        classes = doc.get("grid", {}).get("num_classes", 4)
        with pytest.raises(ConfigError, match=rf"^train.ignore_label {label} is a class of "
                                              rf"grid.num_classes {classes}: "):
            RunConfig.from_dict(doc)

    @pytest.mark.parametrize("label", [-1, 4, 255])
    def test_ignore_label_outside_the_classes_accepted(self, label):
        assert RunConfig.from_dict({"train": {"ignore_label": label}}).train.ignore_label == label

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

    @pytest.mark.parametrize("data", [{"width": 3}, {"height": 3}, {"width": 0, "height": 0}])
    def test_scenes_too_small_to_draw_rejected(self, data):
        # a disk needs a side of 4; at 3x3 most seeds failed in numpy
        with pytest.raises(ConfigError, match="^section 'data': width and height must be "
                                              "at least 4, got "):
            RunConfig.from_dict({"data": data})
        cfg = RunConfig.from_dict({"data": {"width": 4, "height": 4},
                                   "augment": {"crop_min": 4, "crop_max": 4, "out_size": 16}})
        assert (cfg.data.width, cfg.data.height) == (4, 4)

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
        # gone: the learning rate decays in inverse time only
        ({"decay_mode": "inverse_time"}, r"\['decay_mode'\]"),
        ({"lr_drop_epoch": 1, "lr_after_drop": -0.5}, "lr_after_drop must be positive"),
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
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"seed": 11, "data": {"n_train": 5}}))
        cfg = load_config(str(path))
        assert cfg.seed == 11 and cfg.data.n_train == 5

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(str(path))
