"""Training loop with counter-based randomness and binary checkpoints.

Every random choice is drawn from a counter-based generator keyed by the
run seed and a purpose constant, with the epoch (shuffling) or the
optimizer step (patch sampling, unit dropout) as the counter. Nothing
random depends on how the process got to a given epoch, so a run resumed
from a checkpoint at an epoch boundary is bit-identical to one that
never stopped.

Checkpoints are a single file: magic ``GRDN``, a version word, a JSON
header (model spec, connection mask, shape tables, optimizer and
progress state), then raw little-endian float32 parameters and batch
norm statistics followed by float64 Adam moments. A save writes the
file beside its target as ``<path>.tmp``, syncs it and renames it over
the target, so a crash mid-write leaves the previous checkpoint whole.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from .data import AugmentConfig, Scene, augment_patch
from .dropout import sample_drop_mask
from .grid import ConnectionMask, GridModel, GridSpec, build_grid
from .ops import softmax_cross_entropy
from .optim import Adam, check_hyperparams
from .tensor import Tape, backward

KEY_SHUFFLE = 0x8AF1DE91C2264F8D
KEY_PATCH = 0x3C6EF372FE94F82B

_MAGIC = b"GRDN"
_VERSION = 1
_HEADER_KEYS = frozenset({"spec", "mask", "input_hw", "init_seed", "prune_masked",
                          "params", "buffers", "optim", "train"})
_MASK_KEYS = ("horizontal_on", "residual_on", "vertical_on")
_NESTED_KEYS = {
    "spec": {"n_streams", "column_kinds"},
    "mask": set(_MASK_KEYS),
    "optim": {"t", "lr", "beta1", "beta2", "eps", "lr_decay", "decay_mode"},
    "train": {"seed", "epochs_done"},
}


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int = 4
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    lr_decay: float = 0.0
    decay_mode: str = "inverse_time"
    lr_drop_epoch: int | None = None
    lr_after_drop: float | None = None
    use_dropout: bool = True
    ignore_label: int = 255
    snapshot_every: int | None = None

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError(f"epochs must be non-negative, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        check_hyperparams(self.lr, self.beta1, self.beta2, self.eps, self.lr_decay,
                          self.decay_mode)
        if (self.lr_drop_epoch is None) != (self.lr_after_drop is None):
            raise ValueError("lr_drop_epoch and lr_after_drop go together")
        if self.lr_after_drop is not None and not self.lr_after_drop > 0:
            raise ValueError(f"lr_after_drop must be positive, got {self.lr_after_drop}")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ValueError(f"snapshot_every must be positive, got "
                             f"{self.snapshot_every}")

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def make_batch(scenes: list[Scene], augment: AugmentConfig, rng):
    """Sample one augmented patch per scene; images come out (n, 3, s, s)."""
    images, labels = [], []
    for scene in scenes:  # the instance maps are not resampled: training reads no instances
        img, lab = augment_patch(augment, rng, scene.image, scene.labels)
        images.append(img.transpose(2, 0, 1))
        labels.append(lab)
    return np.stack(images), np.stack(labels)


def base_lr_for_epoch(cfg: TrainConfig, epoch: int) -> float:
    if cfg.lr_drop_epoch is not None and epoch >= cfg.lr_drop_epoch:
        return cfg.lr_after_drop
    return cfg.lr


def train_epoch(model: GridModel, optim: Adam, scenes: list[Scene],
                augment: AugmentConfig, cfg: TrainConfig, seed: int,
                epoch: int) -> dict:
    """One pass over the data; returns a JSON-ready record (no timestamps)."""
    optim.lr = base_lr_for_epoch(cfg, epoch)
    order = np.random.Generator(
        np.random.Philox(key=seed ^ KEY_SHUFFLE, counter=epoch)
    ).permutation(len(scenes))
    losses, skipped = [], 0
    for start in range(0, len(order), cfg.batch_size):
        picks = [scenes[k] for k in order[start:start + cfg.batch_size]]
        patch_rng = np.random.Generator(
            np.random.Philox(key=seed ^ KEY_PATCH, counter=optim.t)
        )
        x, y = make_batch(picks, augment, patch_rng)
        if (y == cfg.ignore_label).all():
            skipped += 1
            continue
        drop = None
        if cfg.use_dropout and model.spec.dropout_p < 1.0:
            drop = sample_drop_mask(model, model.spec.dropout_p, seed, step=optim.t)
        tape = Tape()
        logits = model.forward(x, training=True, drop_mask=drop, tape=tape)
        loss = softmax_cross_entropy(logits, y, cfg.ignore_label, tape=tape)
        backward(tape, loss)
        optim.step()
        losses.append(float(loss.data))
    return {
        "epoch": epoch,
        "steps": len(losses),
        "skipped": skipped,
        "loss": float(np.mean(losses)) if losses else None,
        "lr": optim.effective_lr(optim.t) if optim.t else optim.lr,
    }


def make_optimizer(model: GridModel, cfg: TrainConfig) -> Adam:
    return Adam(model.named_parameters(), lr=cfg.lr, beta1=cfg.beta1,
                beta2=cfg.beta2, eps=cfg.eps, lr_decay=cfg.lr_decay,
                decay_mode=cfg.decay_mode)


def train_run(model: GridModel, scenes: list[Scene], augment: AugmentConfig,
              cfg: TrainConfig, seed: int, optim: Adam | None = None,
              epochs_done: int = 0, log_path: str | None = None,
              snapshot_path: str | None = None) -> list[dict]:
    """Run epochs epochs_done..epochs-1, appending one log line per epoch.

    With ``snapshot_path`` set and ``cfg.snapshot_every`` = k, a rolling
    checkpoint lands on that path after every k-th finished epoch, so an
    interrupted run can resume from the most recent boundary. A run stopped
    between an epoch's log line and its snapshot leaves lines the snapshot
    does not hold, so every run first drops those of epochs ``epochs_done``
    on; its log then matches an unbroken run's. A fresh run does so too: one
    stopped inside its first snapshot has no checkpoint to resume from.
    """
    if not scenes:
        raise ValueError("training needs at least one scene")
    if optim is None:
        optim = make_optimizer(model, cfg)
    if log_path and os.path.exists(log_path):
        _drop_log_lines(log_path, epochs_done)
    records = []
    log = open(log_path, "a") if log_path else None
    try:
        for epoch in range(epochs_done, cfg.epochs):
            rec = train_epoch(model, optim, scenes, augment, cfg, seed, epoch)
            records.append(rec)
            if log is not None:
                log.write(json.dumps(rec, sort_keys=True) + "\n")
                log.flush()
            if (snapshot_path is not None and cfg.snapshot_every is not None
                    and (epoch + 1) % cfg.snapshot_every == 0):
                save_checkpoint(snapshot_path, model, optim, train_seed=seed,
                                epochs_done=epoch + 1)
    finally:
        if log is not None:
            log.close()
    return records


def _drop_log_lines(path: str, epochs_done: int) -> None:
    """Rewrite the log at ``path``, through a synced temporary file, without
    its records of epochs ``epochs_done`` and later."""
    def stale(line):
        try:
            epoch = json.loads(line).get("epoch")
        except (ValueError, AttributeError):  # not a JSON object: not ours to drop
            return False
        return isinstance(epoch, int) and epoch >= epochs_done

    with open(path) as f:
        keep = [line for line in f if not stale(line)]
    with open(f"{path}.tmp", "w") as f:
        f.writelines(keep)
        f.flush()
        os.fsync(f.fileno())
    _replace_synced(f"{path}.tmp", path)


def _replace_synced(tmp: str, path: str) -> None:
    """Rename ``tmp`` over ``path``, then sync the directory: the rename
    lives there, and without the sync a crash can lose it."""
    os.replace(tmp, path)
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def _payload(params, buffers, optim: Adam) -> list[tuple[np.ndarray, type]]:
    """(array, file dtype) for each payload section, in file order."""
    return ([(p.data, np.float32) for _, p in params] + [(b, np.float32) for _, b in buffers]
            + [(a, np.float64) for a in optim.m + optim.v])


def save_checkpoint(path: str, model: GridModel, optim: Adam, train_seed: int,
                    epochs_done: int) -> None:
    if model.dtype != np.float32:
        raise ValueError(f"checkpoints hold float32 models, got {model.dtype}")
    params = model.named_parameters()
    buffers = model.named_buffers()
    if optim.names != [n for n, _ in params]:
        raise ValueError("optimizer parameter order does not match the model")
    header = {
        "spec": model.spec.to_dict(),
        "mask": {k: getattr(model.mask, k).tolist() for k in _MASK_KEYS},
        "input_hw": list(model.input_hw),
        "init_seed": model.init_seed,
        "prune_masked": False,  # v1 layout; every model allocates the full grid
        "params": [[n, list(p.shape)] for n, p in params],
        "buffers": [[n, list(b.shape)] for n, b in buffers],
        "optim": {**optim.hyperparams(), "t": optim.t},
        "train": {"seed": int(train_seed), "epochs_done": int(epochs_done)},
    }
    blob = json.dumps(header, sort_keys=True).encode()
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<IQ", _VERSION, len(blob)))
            f.write(blob)
            for arr, dtype in _payload(params, buffers, optim):
                f.write(np.ascontiguousarray(arr, dtype).tobytes())
            f.flush()
            os.fsync(f.fileno())
        _replace_synced(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(path: str):
    """Rebuild (model, optimizer, train_state) from a checkpoint file."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    if len(raw) < 16:
        raise ValueError(f"{path}: checkpoint truncated")
    version, header_len = struct.unpack("<IQ", raw[4:16])
    if version != _VERSION:
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    if 16 + header_len > len(raw):
        raise ValueError(f"{path}: checkpoint truncated")
    try:
        header = json.loads(raw[16:16 + header_len].decode())
    except ValueError as e:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: checkpoint header is not valid JSON ({e})") from None
    if not isinstance(header, dict):
        raise ValueError(f"{path}: checkpoint header is not a JSON object")
    missing = _HEADER_KEYS - header.keys()
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks {sorted(missing)}")
    for key, need in _NESTED_KEYS.items():
        if not isinstance(header[key], dict) or not need <= header[key].keys():
            raise ValueError(f"{path}: checkpoint header {key!r} must be an object "
                             f"with keys {sorted(need)}")
    hw = header["input_hw"]
    if not (isinstance(hw, list) and len(hw) == 2):
        raise ValueError(f"{path}: checkpoint input_hw must be [height, width]")
    counters = [*hw, header["init_seed"], header["optim"]["t"], header["train"]["seed"],
                header["train"]["epochs_done"]]
    if not all(type(v) is int and v >= 0 for v in counters):
        raise ValueError(f"{path}: checkpoint input size, seeds, step and epoch count "
                         f"must be non-negative integers")
    if type(header["prune_masked"]) is not bool:
        raise ValueError(f"{path}: checkpoint prune_masked must be true or false")
    try:  # values of the wrong type surface as TypeError in the constructors
        spec = GridSpec.from_dict(header["spec"])
        mask = ConnectionMask(*(np.array(header["mask"][k], bool) for k in _MASK_KEYS))
        model = build_grid(spec, hw, mask=mask, seed=header["init_seed"])
        params = model.named_parameters()
        optim = Adam(params, **{k: v for k, v in header["optim"].items() if k != "t"})
    except TypeError as e:
        raise ValueError(f"{path}: malformed checkpoint header ({e})") from None
    optim.t = header["optim"]["t"]
    if [[n, list(p.shape)] for n, p in params] != header["params"]:
        raise ValueError("checkpoint parameter table does not match the rebuilt model")
    buffers = model.named_buffers()
    if [[n, list(b.shape)] for n, b in buffers] != header["buffers"]:
        raise ValueError("checkpoint buffer table does not match the rebuilt model")
    payload = _payload(params, buffers, optim)
    offset = 16 + header_len
    extra = len(raw) - offset - sum(a.size * np.dtype(t).itemsize for a, t in payload)
    if extra < 0:
        raise ValueError(f"{path}: checkpoint truncated")
    if extra > 0:
        raise ValueError(f"{path}: {extra} trailing bytes")
    for arr, dtype in payload:  # fill the freshly built arrays in place
        section = np.frombuffer(raw, dtype, arr.size, offset)
        arr[...] = section.reshape(arr.shape)
        offset += section.nbytes
    return model, optim, dict(header["train"])
