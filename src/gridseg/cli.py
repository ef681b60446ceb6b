"""Command line interface.

Subcommands: ``report`` (model layout and cost summary), ``train``,
``eval``, ``infer`` (single image to label map), and ``gradcheck``
(finite-difference audit of the backward pass). Exit codes: 0 on
success, 1 for usage or configuration problems, 2 for runtime failures.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import warnings

import numpy as np

from .config import ConfigError, RunConfig, load_config
from .data import (
    generate_dataset,
    load_image,
    render_class_map,
    write_pgm,
    write_ppm,
)
from .gradcheck import finite_diff_gradcheck
from .grid import GridSpec, build_grid, grid_report, symmetric_columns
from .metrics import evaluate_scenes, multiscale_predict
from .ops import softmax_cross_entropy
from .tensor import Tape
from .train import load_checkpoint, make_optimizer, save_checkpoint, train_run


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we map usage to 1
        raise UsageError(message)


def _number(kind, low, strict: bool = False):
    """argparse type: a finite ``kind`` of at least ``low`` (above it if
    ``strict``)."""
    def parse(text: str):
        value = kind(text)
        if not low <= value < math.inf or (strict and value == low):
            bound = "above" if strict else "at least"
            raise argparse.ArgumentTypeError(f"must be finite and {bound} {low}, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names it on a ValueError: "invalid int value"
    return parse


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON run configuration")
    common.add_argument("--seed", type=_number(int, 0), help="override the configured seed")

    p = _Parser(prog="gridseg", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("report", parents=[common],
                        help="print the model layout and cost summary")
    sp.add_argument("--input-size", type=_number(int, 1), default=None,
                    help="square input side (default: augment out_size)")

    sp = sub.add_parser("train", parents=[common], help="train on synthetic scenes")
    sp.add_argument("--checkpoint", default="model.grdn", help="output checkpoint")
    sp.add_argument("--log", default=None, help="JSONL training log path")
    sp.add_argument("--resume", default=None, help="checkpoint to continue from")
    sp.add_argument("--epochs", type=_number(int, 0), default=None,
                    help="override the configured epoch count")

    sp = sub.add_parser("eval", parents=[common],
                        help="evaluate a checkpoint on held-out scenes")
    sp.add_argument("--checkpoint", required=True)

    sp = sub.add_parser("infer", parents=[common], help="segment one PPM image")
    sp.add_argument("--checkpoint", required=True)
    sp.add_argument("--image", required=True, help="input PPM")
    sp.add_argument("--out", required=True, help="output label map (PGM)")
    sp.add_argument("--color", default=None, help="optional color render (PPM)")

    # gradcheck audits a fixed model and reads no config or seed
    sp = sub.add_parser("gradcheck", help="finite-difference gradient audit")
    sp.add_argument("--coords", type=_number(int, 1), default=80,
                    help="parameter coordinates to probe")
    sp.add_argument("--tol", type=_number(float, 0, strict=True), default=1e-4,
                    help="maximum relative error accepted")
    return p


def _load_run_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    return cfg


def _check_spec(path: str, spec: GridSpec, want: GridSpec) -> None:
    """Name the first grid field where a checkpoint's spec differs from the config's."""
    for f in dataclasses.fields(GridSpec):
        have, expected = getattr(spec, f.name), getattr(want, f.name)
        if have != expected:
            raise UsageError(f"{path}: checkpoint spec mismatch: {f.name} is {have!r}, "
                             f"expected {expected!r}")


def _print(doc: dict) -> None:
    print(json.dumps(doc, indent=2, sort_keys=True, allow_nan=False))


def _scenes(cfg: RunConfig, n: int, first_seed: int):
    return generate_dataset(n, seed=first_seed, width=cfg.data.width,
                            height=cfg.data.height, num_classes=cfg.grid.num_classes,
                            max_shapes=cfg.data.max_shapes)


def _cmd_report(args) -> int:
    cfg = _load_run_config(args)
    side = cfg.augment.out_size if args.input_size is None else args.input_size
    if side < cfg.grid.min_side:  # out_size was checked when the config was read
        raise UsageError(f"--input-size: must be at least the grid's minimum side "
                         f"{cfg.grid.min_side}, got {side}")
    model = build_grid(cfg.grid, (side, side), seed=cfg.seed)
    _print(grid_report(model))
    return 0


def _cmd_train(args) -> int:
    cfg = _load_run_config(args)
    if args.epochs is not None:
        cfg = dataclasses.replace(cfg, train=dataclasses.replace(cfg.train, epochs=args.epochs))
    if args.resume:
        model, optim, info = load_checkpoint(args.resume)
        _check_spec(args.resume, model.spec, cfg.grid)
        seed, epochs_done = info["seed"], info["epochs_done"]
        if args.seed is not None and args.seed != seed:
            raise UsageError(f"{args.resume} was trained with seed {seed}, not the "
                             f"--seed {args.seed} given")
        for name, value in optim.hyperparams().items():  # lr follows the config's schedule
            want = getattr(cfg.train, name)
            if name != "lr" and value != want:
                raise UsageError(f"{args.resume}: checkpoint optimizer mismatch: {name} is "
                                 f"{value!r}, expected {want!r}")
        if epochs_done > cfg.train.epochs:
            raise UsageError(f"{args.resume} has {epochs_done} epochs done, more than the "
                             f"{cfg.train.epochs} asked for")
    else:
        side = cfg.augment.out_size
        model = build_grid(cfg.grid, (side, side), seed=cfg.seed)
        optim = make_optimizer(model, cfg.train)
        seed, epochs_done = cfg.seed, 0
    scenes = _scenes(cfg, cfg.data.n_train, seed)
    records = train_run(model, scenes, cfg.augment, cfg.train, seed=seed,
                        optim=optim, epochs_done=epochs_done, log_path=args.log,
                        snapshot_path=args.checkpoint)
    save_checkpoint(args.checkpoint, model, optim, train_seed=seed,
                    epochs_done=cfg.train.epochs)
    _print({
        "checkpoint": args.checkpoint,
        "epochs_done": cfg.train.epochs,
        "epochs_run": len(records),
        "final_loss": records[-1]["loss"] if records else None,
    })
    return 0


def _cmd_eval(args) -> int:
    cfg = _load_run_config(args)
    if cfg.data.n_eval < 1:
        raise UsageError(f"data.n_eval is {cfg.data.n_eval}: evaluation needs at least one scene")
    model, _, info = load_checkpoint(args.checkpoint)
    if args.config:  # without one, the checkpoint's own grid stands
        _check_spec(args.checkpoint, model.spec, cfg.grid)
    scenes = _scenes(cfg, cfg.data.n_eval, info["seed"] + cfg.data.n_train)
    report = evaluate_scenes(model, scenes, scales=cfg.eval.scales,
                             categories=cfg.eval.categories,
                             ignore_label=cfg.train.ignore_label)
    _print(report)
    return 0


def _cmd_infer(args) -> int:
    cfg = _load_run_config(args)
    model, _, _ = load_checkpoint(args.checkpoint)
    if args.config:
        _check_spec(args.checkpoint, model.spec, cfg.grid)
    image = load_image(args.image)
    pred = multiscale_predict(model, image, scales=cfg.eval.scales)
    write_pgm(args.out, pred)
    if args.color:
        write_ppm(args.color, render_class_map(pred, model.spec.num_classes))
    _print({"image": args.image, "out": args.out,
            "classes_found": sorted(int(c) for c in np.unique(pred))})
    return 0


def _cmd_gradcheck(args) -> int:
    # small float64 twin of the real architecture: 3 streams, 1 sub + 1 up
    spec = GridSpec(3, symmetric_columns(1, 1), base_channels=4, num_classes=3)
    model = build_grid(spec, (8, 8), seed=0, dtype=np.float64)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(1, 3, 8, 8))
    labels = rng.integers(0, 3, size=(1, 8, 8))

    def loss_fn(tape: Tape):
        logits = model.forward(x, training=True, tape=tape)
        return softmax_cross_entropy(logits, labels, tape=tape)

    report = finite_diff_gradcheck(loss_fn, model.named_parameters(),
                                   n_coords=args.coords, seed=1)
    doc = report.to_dict()
    doc["tolerance"] = args.tol
    doc["passed"] = report.checked > 0 and report.max_rel_error < args.tol
    _print(doc)
    return 0 if doc["passed"] else 2


def _warn(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"gridseg: warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = _build_parser()
    with warnings.catch_warnings():
        warnings.showwarning = _warn  # one line per warning, without Python's source line
        try:
            args = parser.parse_args(argv)
            handler = {
                "report": _cmd_report,
                "train": _cmd_train,
                "eval": _cmd_eval,
                "infer": _cmd_infer,
                "gradcheck": _cmd_gradcheck,
            }[args.command]
            return handler(args)
        except (UsageError, ConfigError) as e:
            print(f"gridseg: {e}", file=sys.stderr)
            return 1
        except (OSError, ValueError, RuntimeError, MemoryError) as e:
            print(f"gridseg: {e}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
