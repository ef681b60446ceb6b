"""Run configuration: one JSON document covering model, data, and training.

Parsing is strict: any key that does not correspond to a dataclass field
is rejected with the section it appeared in, so typos fail fast instead
of silently falling back to defaults, and every value must fit its
field's annotation (an int field takes no float or bool, a float field
takes ints but no infinity or NaN). ``eval.scales`` lie in (0,
``EvalConfig.MAX_SCALE``]. ``grid.image_channels`` must be 3,
since scenes and images are RGB; ``eval.categories`` must put each of
the grid's classes in exactly one category, ``augment.out_size`` must
reach the grid's minimum input side, ``augment.crop_min`` must fit
inside the generated scenes, ``data.max_shapes`` must lie in
[``grid.num_classes`` - 1, 255] so that every class can appear in a
scene, ``train.ignore_label`` must lie outside [0, ``grid.num_classes``)
so that every class is trained and scored, ``seed`` must lie in [0,
2**128) (``train.SEED_LIMIT``), and ``grid.mask`` must name a preset
that can be built for the grid. Sections may be given partially;
missing fields keep their defaults.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import typing
from dataclasses import dataclass, field, fields

from .data import AugmentConfig
from .grid import GridSpec, symmetric_columns
from .metrics import CategoryMap
from .train import SEED_LIMIT, TrainConfig


class ConfigError(ValueError):
    """Bad structure or values in a run configuration."""


@dataclass(frozen=True)
class DataConfig:
    n_train: int = 200
    n_eval: int = 50
    width: int = 64
    height: int = 64
    max_shapes: int = 8

    def __post_init__(self):
        if self.n_train < 1 or self.n_eval < 0:
            raise ValueError(f"need n_train >= 1 and n_eval >= 0, got "
                             f"{self.n_train}, {self.n_eval}")


@dataclass(frozen=True)
class EvalConfig:
    scales: tuple[float, ...] = (1.0,)
    categories: dict[str, list[int]] | None = None

    # a class attribute, not a field. The forward at scale s costs s**2 times
    # the memory and time of one at 1, so the cap keeps a typo such as 1000
    # from asking a 64x64 scene for a 64000x64000 forward
    MAX_SCALE = 8.0

    def __post_init__(self):
        object.__setattr__(self, "scales", tuple(float(s) for s in self.scales))
        if not self.scales:
            raise ValueError("eval.scales must not be empty")
        if min(self.scales) <= 0:
            raise ValueError(f"eval.scales must be positive, got {list(self.scales)}")
        if max(self.scales) > self.MAX_SCALE:
            raise ValueError(f"eval.scales must be at most {self.MAX_SCALE:g}, "
                             f"got {list(self.scales)}")


def _default_grid() -> GridSpec:
    return GridSpec(5, symmetric_columns(2, 2), base_channels=4, num_classes=4)


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec = field(default_factory=_default_grid)
    data: DataConfig = DataConfig()
    augment: AugmentConfig = AugmentConfig(crop_min=32, crop_max=64, out_size=64)
    train: TrainConfig = TrainConfig(epochs=40, batch_size=4, lr=3e-3)
    eval: EvalConfig = EvalConfig()
    seed: int = 0

    def __post_init__(self):  # runs for dataclasses.replace too, as for a --seed override
        if not _fits(self.seed, int) or not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed must be an integer in [0, 2**{SEED_LIMIT.bit_length() - 1}), "
                              f"got {self.seed!r}")

    def to_dict(self) -> dict:
        return {
            "grid": self.grid.to_dict(),
            "data": dataclasses.asdict(self.data),
            "augment": dataclasses.asdict(self.augment),
            "train": self.train.to_dict(),
            "eval": {"scales": list(self.eval.scales),
                     "categories": self.eval.categories},
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        if not isinstance(d, dict):
            raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
        base = cls()
        unknown = set(d) - {"grid", "data", "augment", "train", "eval", "seed"}
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")
        out = {}
        out["grid"] = _merge_section("grid", base.grid, d.get("grid"), GridSpec)
        out["data"] = _merge_section("data", base.data, d.get("data"), DataConfig)
        out["augment"] = _merge_section("augment", base.augment, d.get("augment"),
                                        AugmentConfig)
        out["train"] = _merge_section("train", base.train, d.get("train"), TrainConfig)
        out["eval"] = _merge_section("eval", base.eval, d.get("eval"), EvalConfig)
        out["seed"] = d.get("seed", base.seed)
        aug, grid, data, train = out["augment"], out["grid"], out["data"], out["train"]
        if grid.image_channels != 3:
            raise ConfigError(f"section 'grid': image_channels must be 3 for the RGB "
                              f"scenes and images, got {grid.image_channels}")
        if aug.out_size < grid.min_side:
            raise ConfigError(f"section 'augment': out_size {aug.out_size} is below the "
                              f"grid's minimum input side {grid.min_side}")
        if not grid.num_classes - 1 <= data.max_shapes <= 255:
            raise ConfigError(f"data.max_shapes {data.max_shapes} does not fit grid.num_classes "
                              f"{grid.num_classes}: scenes need num_classes - 1 <= max_shapes "
                              f"<= 255")
        if aug.crop_min > min(data.width, data.height):
            raise ConfigError(f"section 'augment': crop_min {aug.crop_min} exceeds the "
                              f"{data.width}x{data.height} scenes of section 'data'")
        if 0 <= train.ignore_label < grid.num_classes:
            raise ConfigError(f"train.ignore_label {train.ignore_label} is a class of "
                              f"grid.num_classes {grid.num_classes}: the ignore label must "
                              f"lie outside [0, num_classes)")
        if out["eval"].categories is not None:
            try:
                CategoryMap(out["eval"].categories, out["grid"].num_classes)
            except ValueError as e:
                raise ConfigError(f"section 'eval': categories: {e}") from None
        return cls(**out)


def _merge_section(name: str, base, d, cls):
    if d is None:
        return base
    if not isinstance(d, dict):
        raise ConfigError(f"section {name!r} must be a JSON object")
    known = {f.name for f in fields(cls)}
    unknown = set(d) - known
    if unknown:
        raise ConfigError(f"unknown keys in section {name!r}: {sorted(unknown)}")
    for key, hint in typing.get_type_hints(cls).items():
        if key in d and not _fits(d[key], hint):
            want = hint.__name__ if isinstance(hint, type) else hint
            raise ConfigError(f"section {name!r}: {key} must be {want}, got {d[key]!r}")
    try:
        return dataclasses.replace(base, **d)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"section {name!r}: {e}") from None


def _fits(value, hint) -> bool:
    """Whether a JSON value fits a field annotation."""
    if hint is float:  # finite, and an int must convert to a float
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and abs(value) <= sys.float_info.max)
    if hint is int:
        return isinstance(value, int) and not isinstance(value, bool)
    args, origin = typing.get_args(hint), typing.get_origin(hint)
    if origin in (tuple, list):  # tuple[X, ...] or list[X]
        return isinstance(value, (list, tuple)) and all(_fits(v, args[0]) for v in value)
    if origin is dict:
        return isinstance(value, dict) and all(
            _fits(k, args[0]) and _fits(v, args[1]) for k, v in value.items())
    if args:  # a union such as int | None
        return any(_fits(value, a) for a in args)
    return isinstance(value, hint)


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}: invalid JSON ({e})") from None
    return RunConfig.from_dict(doc)
