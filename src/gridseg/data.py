"""Synthetic scenes for desk-scale segmentation runs.

A scene is a flat-shaded background with a handful of randomly placed
shapes (rectangles, disks, triangles) painted in order, so later shapes
occlude earlier ones. Shape k gets class ``1 + (k + offset) % (C - 1)``
with a per-scene offset, which keeps the class census balanced across a
dataset. Pixels carry a class id and an instance id (0 = background).

Images are float32 RGB in [0, 1]; image files are binary PPM/PGM at 8 bits.
The resizers use half-pixel-center sampling and are shared with the
multi-scale evaluator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np


@dataclass
class Scene:
    image: np.ndarray      # (h, w, 3) float32 in [0, 1]
    labels: np.ndarray     # (h, w) int64 class ids
    instances: np.ndarray  # (h, w) int32, 0 where no instance
    seed: int


@dataclass(frozen=True)
class AugmentConfig:
    crop_min: int
    crop_max: int
    out_size: int
    hflip_p: float = 0.5

    def __post_init__(self):
        if not 1 <= self.crop_min <= self.crop_max:
            raise ValueError(f"need 1 <= crop_min <= crop_max, got "
                             f"{self.crop_min}, {self.crop_max}")
        if self.out_size < 1:
            raise ValueError(f"out_size must be positive, got {self.out_size}")
        if not 0.0 <= self.hflip_p <= 1.0:
            raise ValueError(f"hflip_p must lie in [0, 1], got {self.hflip_p}")


def class_palette(num_classes: int) -> np.ndarray:
    """Deterministic distinct base color per class, shape (C, 3)."""
    rng = np.random.default_rng(20250214)
    return rng.uniform(0.1, 0.9, size=(num_classes, 3))


def _shape_mask(rng, kind: str, h: int, w: int) -> np.ndarray:
    yy, xx = np.mgrid[0:h, 0:w]
    lo, hi = min(h, w) // 8, min(h, w) // 3
    if kind == "rect":
        sh = int(rng.integers(lo, hi + 1))
        sw = int(rng.integers(lo, hi + 1))
        top = int(rng.integers(0, h - sh + 1))
        left = int(rng.integers(0, w - sw + 1))
        return (yy >= top) & (yy < top + sh) & (xx >= left) & (xx < left + sw)
    if kind == "disk":
        r = int(rng.integers(lo, hi + 1)) // 2 + 2
        cy = int(rng.integers(r, h - r + 1))
        cx = int(rng.integers(r, w - r + 1))
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    # triangle: three vertices, inside = consistent side of all three edges
    pts = np.stack([rng.integers(0, h, 3), rng.integers(0, w, 3)], axis=1)
    d = []
    for a in range(3):
        p, q = pts[a], pts[(a + 1) % 3]
        d.append((xx - p[1]) * (q[0] - p[0]) - (yy - p[0]) * (q[1] - p[1]))
    d = np.stack(d)
    return (d >= 0).all(0) | (d <= 0).all(0)


def generate_scene(seed: int, width: int = 128, height: int = 128,
                   num_classes: int = 4, max_shapes: int = 8) -> Scene:
    """Render one scene; the caller's seed fully determines the result."""
    if num_classes < 2:
        raise ValueError(f"need at least 2 classes, got {num_classes}")
    if not num_classes - 1 <= max_shapes <= 255:
        raise ValueError(
            f"max_shapes must lie in [{num_classes - 1}, 255], got {max_shapes}"
        )
    rng = np.random.default_rng(seed)
    palette = class_palette(num_classes)
    image = np.empty((height, width, 3))
    image[...] = palette[0] + rng.normal(0.0, 0.03, 3)
    labels = np.zeros((height, width), np.int64)
    instances = np.zeros((height, width), np.int32)

    n_shapes = int(rng.integers(num_classes - 1, max_shapes + 1))
    offset = int(rng.integers(0, num_classes - 1))
    kinds = ("rect", "disk", "triangle")
    for k in range(n_shapes):
        cls = 1 + (k + offset) % (num_classes - 1)
        kind = kinds[int(rng.integers(0, len(kinds)))]
        mask = _shape_mask(rng, kind, height, width)
        color = np.clip(palette[cls] + rng.normal(0.0, 0.05, 3), 0.0, 1.0)
        image[mask] = color
        labels[mask] = cls
        instances[mask] = k + 1
    image = np.clip(image + rng.normal(0.0, 0.02, image.shape), 0.0, 1.0)
    return Scene(image.astype(np.float32), labels, instances, seed)


def generate_dataset(n_scenes: int, seed: int, **scene_kw) -> list[Scene]:
    """Scenes with seeds seed, seed+1, ...; disjoint ranges stay disjoint."""
    return [generate_scene(seed + k, **scene_kw) for k in range(n_scenes)]


# ---------------------------------------------------------------------------
# resizing
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=256)
def _lerp_table(in_len: int, out_len: int):
    """`_lerp_axis`'s source indices and weights, computed once per size
    pair and shared read-only."""
    pos = (np.arange(out_len) + 0.5) * (in_len / out_len) - 0.5
    lo = np.floor(pos).astype(np.int64)
    frac = pos - lo
    table = np.clip(lo, 0, in_len - 1), np.clip(lo + 1, 0, in_len - 1), 1.0 - frac, frac
    for a in table:
        a.flags.writeable = False
    return table


def _lerp_axis(arr: np.ndarray, out_len: int, axis: int) -> np.ndarray:
    in_len = arr.shape[axis]
    if in_len == out_len:
        return arr
    lo, hi, w_lo, w_hi = _lerp_table(in_len, out_len)
    shape = [1] * arr.ndim
    shape[axis] = out_len
    return (np.take(arr, lo, axis=axis) * w_lo.reshape(shape)
            + np.take(arr, hi, axis=axis) * w_hi.reshape(shape))


def resize_bilinear(arr: np.ndarray, out_hw) -> np.ndarray:
    """Half-pixel-center bilinear resize over the two leading axes."""
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if oh < 1 or ow < 1:
        raise ValueError(f"output size must be positive, got {(oh, ow)}")
    out = _lerp_axis(arr.astype(np.float64), oh, 0)
    out = _lerp_axis(out, ow, 1)
    return out.astype(arr.dtype if arr.dtype.kind == "f" else np.float64)


@functools.lru_cache(maxsize=256)
def _nearest_index(out_len: int, in_len: int) -> np.ndarray:
    """Source index of each output, computed once per size pair and shared read-only."""
    pos = (np.arange(out_len) + 0.5) * (in_len / out_len)
    index = np.clip(np.floor(pos).astype(np.int64), 0, in_len - 1)
    index.flags.writeable = False
    return index


def resize_nearest(arr: np.ndarray, out_hw) -> np.ndarray:
    """Half-pixel-center nearest resize over the two leading axes."""
    oh, ow = int(out_hw[0]), int(out_hw[1])
    if oh < 1 or ow < 1:
        raise ValueError(f"output size must be positive, got {(oh, ow)}")
    out = np.take(arr, _nearest_index(oh, arr.shape[0]), axis=0)
    return np.take(out, _nearest_index(ow, arr.shape[1]), axis=1)


def random_patch(scene: Scene, cfg: AugmentConfig, rng) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A scene's image, label map and instance map cropped, rescaled and
    maybe mirrored together (`augment_patch`)."""
    return augment_patch(cfg, rng, scene.image, scene.labels, scene.instances)


def augment_patch(cfg: AugmentConfig, rng, image: np.ndarray, *maps: np.ndarray) -> tuple:
    """Crop a random square, rescale to out_size, maybe mirror.

    The (h, w, 3) image is resampled bilinearly and returned as float32,
    then each (h, w) map (labels, instances) with nearest neighbor, so a
    caller resamples only the maps it passes. Draw order (side, top, left,
    flip) is fixed and does not depend on the maps, so a given generator
    state always yields the same patch.
    """
    h, w = image.shape[:2]
    hi = min(cfg.crop_max, h, w)
    if hi < cfg.crop_min:
        raise ValueError(f"scene {h}x{w} smaller than crop_min {cfg.crop_min}")
    side = int(rng.integers(cfg.crop_min, hi + 1))
    top = int(rng.integers(0, h - side + 1))
    left = int(rng.integers(0, w - side + 1))
    flip = bool(rng.random() < cfg.hflip_p)
    sl = (slice(top, top + side), slice(left, left + side))
    out = (cfg.out_size, cfg.out_size)
    patch = [resize_bilinear(image[sl], out)] + [resize_nearest(m[sl], out) for m in maps]
    if flip:
        patch = [a[:, ::-1].copy() for a in patch]
    patch[0] = patch[0].astype(np.float32, copy=False)
    return tuple(patch)


# ---------------------------------------------------------------------------
# portable binary image IO
# ---------------------------------------------------------------------------


def _write_netpbm(path: str, magic: bytes, arr: np.ndarray) -> None:
    h, w = arr.shape[:2]
    with open(path, "wb") as f:
        f.write(magic + b"\n%d %d\n255\n" % (w, h))
        f.write(arr.astype(np.uint8).tobytes())


def _read_netpbm(path: str, magic: bytes) -> tuple[int, int, bytes]:
    with open(path, "rb") as f:
        data = f.read()
    if not data.startswith(magic):
        raise ValueError(f"{path}: expected {magic.decode()} file")
    fields, i = [], 2
    while len(fields) < 3:
        while i < len(data) and data[i:i + 1].isspace():
            i += 1
        if i == len(data):
            raise ValueError(f"{path}: header ends before width, height and maxval")
        if data[i:i + 1] == b"#":  # comment runs to end of line
            while i < len(data) and data[i:i + 1] != b"\n":
                i += 1
            continue
        j = i
        while j < len(data) and not data[j:j + 1].isspace():
            j += 1
        try:
            fields.append(int(data[i:j]))
        except ValueError:
            raise ValueError(f"{path}: header field {data[i:j]!r} is not an integer") from None
        i = j
    w, h, maxval = fields
    if w < 1 or h < 1:
        raise ValueError(f"{path}: width and height must be positive, got {w}x{h}")
    if maxval != 255:
        raise ValueError(f"{path}: only maxval 255 supported, got {maxval}")
    return w, h, data[i + 1:]


def write_ppm(path: str, image: np.ndarray) -> None:
    """8-bit binary PPM from a float image in [0, 1] or a uint8 image."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"write_ppm expects (h, w, 3), got {image.shape}")
    if image.dtype.kind == "f":
        image = np.clip(np.rint(image * 255.0), 0, 255)
    _write_netpbm(path, b"P6", image)


def read_ppm(path: str) -> np.ndarray:
    w, h, raw = _read_netpbm(path, b"P6")
    n = w * h * 3
    if len(raw) < n:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(raw[:n], np.uint8).reshape(h, w, 3)


def write_pgm(path: str, gray: np.ndarray) -> None:
    if gray.ndim != 2:
        raise ValueError(f"write_pgm expects (h, w), got {gray.shape}")
    if gray.min() < 0 or gray.max() > 255:
        raise ValueError("write_pgm values must fit in one byte")
    _write_netpbm(path, b"P5", gray)


def read_pgm(path: str) -> np.ndarray:
    w, h, raw = _read_netpbm(path, b"P5")
    n = w * h
    if len(raw) < n:
        raise ValueError(f"{path}: truncated pixel data")
    return np.frombuffer(raw[:n], np.uint8).reshape(h, w)


def render_class_map(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Color visualization of a label map, uint8 (h, w, 3)."""
    palette = np.clip(np.rint(class_palette(num_classes) * 255.0), 0, 255)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("labels outside [0, num_classes)")
    return palette.astype(np.uint8)[labels]


def load_image(path: str) -> np.ndarray:
    """PPM file to float32 (h, w, 3) in [0, 1]."""
    return read_ppm(path).astype(np.float32) / 255.0
