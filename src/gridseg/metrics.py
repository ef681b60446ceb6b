"""Segmentation quality metrics and multi-scale inference.

The per-class intersection-over-union comes from a single confusion
matrix with truth along rows, so results do not depend on evaluation
order. The instance-weighted variant rescales each ground-truth pixel by
``avg_size_class / size_of_its_instance`` (false positives keep weight
1), which stops large instances from dominating the score; average sizes
are measured over the whole evaluation set first, so this too is order
independent. Classes never observed are excluded from means rather than
scored as zero. Classes and categories are scored by one path; category
scores are class scores with every label and prediction mapped first.

Multi-scale prediction runs the network on rescaled copies of the image,
maps each argmax back to full resolution with nearest-neighbor sampling,
and lets the scales vote per pixel; ties go to the lowest class id.
"""

from __future__ import annotations

import math
import warnings

import numpy as np

from .data import Scene, resize_bilinear, resize_nearest


class ConfusionMatrix:
    """Accumulated truth-by-prediction counts, ignore-aware."""

    def __init__(self, num_classes: int, ignore_label: int = 255):
        if num_classes < 2:
            raise ValueError(f"need at least 2 classes, got {num_classes}")
        self.num_classes = num_classes
        self.ignore_label = ignore_label
        self.counts = np.zeros((num_classes, num_classes), np.int64)

    def update(self, truth: np.ndarray, pred: np.ndarray) -> None:
        if truth.shape != pred.shape:
            raise ValueError(f"shape mismatch: truth {truth.shape} vs pred {pred.shape}")
        valid = truth != self.ignore_label
        t, p = truth[valid].astype(np.int64), pred[valid].astype(np.int64)
        if t.size and (t.min() < 0 or t.max() >= self.num_classes):
            raise ValueError("truth labels outside [0, num_classes)")
        if p.size and (p.min() < 0 or p.max() >= self.num_classes):
            raise ValueError("predictions outside [0, num_classes)")
        flat = np.bincount(t * self.num_classes + p,
                           minlength=self.num_classes ** 2)
        self.counts += flat.reshape(self.num_classes, self.num_classes)

    def iou(self) -> np.ndarray:
        """Per-class IoU; classes with no pixels anywhere come out NaN."""
        tp = np.diag(self.counts).astype(np.float64)
        return _ratio(tp, self.counts.sum(0) - tp, self.counts.sum(1) - tp)

    def mean_iou(self) -> float:
        return _mean_present(self.iou())

    def pixel_accuracy(self) -> float:
        total = self.counts.sum()
        return float(np.diag(self.counts).sum() / total) if total else float("nan")


def _ratio(tp: np.ndarray, fp: np.ndarray, fn: np.ndarray) -> np.ndarray:
    """tp / (tp + fp + fn) per class, NaN where the denominator is 0."""
    denom = tp + fp + fn
    return np.divide(tp, denom, out=np.full(denom.shape, np.nan), where=denom > 0)


def _mean_present(vals: np.ndarray) -> float:
    """Mean over the non-NaN entries; NaN if there are none."""
    present = ~np.isnan(vals)
    return float(vals[present].mean()) if present.any() else float("nan")


def _instances(truth, instances, num_classes: int, ignore_label: int):
    """One instance-by-class table of the non-ignored instance pixels.

    Returns (majority class, pixel count) per table row, each pixel's row
    and the mask of those pixels. Rows follow ascending instance id, and a
    row with no pixels stands for an id that does not occur; majority ties
    go to the lowest class id. Ids index the rows directly unless they run
    past the pixel count, when they are first renumbered densely in order.
    """
    inside = (truth != ignore_label) & (instances > 0)
    row = instances[inside]
    if row.size and row.max() > row.size:
        row = np.unique(row, return_inverse=True)[1]
    t = truth[inside].astype(np.int64)
    if t.size and (t.min() < 0 or t.max() >= num_classes):
        raise ValueError("truth labels outside [0, num_classes)")
    rows = int(row.max()) + 1 if row.size else 0
    table = np.bincount(row * num_classes + t, minlength=rows * num_classes)
    table = table.reshape(rows, num_classes)
    return table.argmax(1), table.sum(1), row, inside


def instance_average_sizes(scenes: list[Scene], num_classes: int,
                           ignore_label: int = 255) -> np.ndarray:
    """Mean instance pixel count per class over the whole set (NaN if none)."""
    pixels = np.zeros(num_classes, np.int64)
    counts = np.zeros(num_classes, np.int64)
    for scene in scenes:
        cls, size, _, _ = _instances(scene.labels, scene.instances, num_classes, ignore_label)
        present = size > 0
        pixels += np.bincount(cls[present], size[present], num_classes).astype(np.int64)
        counts += np.bincount(cls[present], minlength=num_classes)
    return np.divide(pixels, counts, out=np.full(num_classes, np.nan), where=counts > 0)


class InstanceScore:
    """Instance-size-weighted TP/FN with unweighted FP, per class."""

    def __init__(self, num_classes: int, avg_sizes: np.ndarray,
                 ignore_label: int = 255):
        self.num_classes = num_classes
        self.avg_sizes = avg_sizes
        self.ignore_label = ignore_label
        self.tp = np.zeros(num_classes, np.float64)
        self.fn = np.zeros(num_classes, np.float64)
        self.fp = np.zeros(num_classes, np.float64)

    def update(self, truth: np.ndarray, instances: np.ndarray,
               pred: np.ndarray) -> None:
        wrong = (truth != self.ignore_label) & (pred != truth)
        self.fp += np.bincount(pred[wrong], minlength=self.num_classes)
        cls, size, row, inside = _instances(truth, instances, self.num_classes,
                                            self.ignore_label)
        hits = np.bincount(row[pred[inside] == cls[row]], minlength=cls.size)
        # one instance at a time, in id order, each sum in float64: the
        # same roundings as ever, so reports stay bit-identical
        avg, tp, fn = self.avg_sizes.tolist(), self.tp.tolist(), self.fn.tolist()
        present = size > 0
        for c, n, h in zip(cls[present].tolist(), size[present].tolist(),
                           hits[present].tolist()):
            if not math.isnan(avg[c]):
                w = avg[c] / n
                tp[c] += w * h
                fn[c] += w * (n - h)
        self.tp[:] = tp
        self.fn[:] = fn

    def iiou(self) -> np.ndarray:
        return np.where(np.isnan(self.avg_sizes), np.nan, _ratio(self.tp, self.fp, self.fn))

    def mean_iiou(self) -> float:
        return _mean_present(self.iiou())


class CategoryMap:
    """Groups class ids into named categories covering every class once."""

    def __init__(self, groups: dict[str, list[int]], num_classes: int):
        self.names = sorted(groups)
        owner: dict[int, int] = {}
        for k, name in enumerate(self.names):
            for cls in groups[name]:
                if not 0 <= cls < num_classes:
                    raise ValueError(f"category {name!r} lists class {cls} "
                                     f"outside [0, {num_classes})")
                if cls in owner:
                    raise ValueError(f"class {cls} appears in two categories")
                owner[cls] = k
        if len(owner) < num_classes:
            # names ten at most, so a huge class count costs no huge list
            first = [c for c in range(min(num_classes, len(owner) + 10)) if c not in owner][:10]
            more = num_classes - len(owner) - len(first)
            raise ValueError(f"classes {first}{f' and {more} more' if more else ''} "
                             "belong to no category")
        self.remap = np.array([owner[c] for c in range(num_classes)], np.int64)

    @property
    def num_categories(self) -> int:
        return len(self.names)

    def apply(self, labels: np.ndarray, ignore_label: int = 255) -> np.ndarray:
        out = np.full_like(labels, ignore_label)
        valid = labels != ignore_label
        out[valid] = self.remap[labels[valid]]
        return out


def predict_logits(model, image: np.ndarray) -> np.ndarray:
    """Eval-mode forward for one (h, w, 3) image; returns (C, h, w) logits."""
    x = image.transpose(2, 0, 1)[None].astype(np.float32)
    return model.forward(x, training=False).data[0]


def multiscale_predict(model, image: np.ndarray, scales=(1.0,)) -> np.ndarray:
    """Argmax over per-scale votes for one (h, w, 3) image."""
    if not scales:
        raise ValueError("need at least one scale")
    h, w = image.shape[:2]
    side = model.spec.min_side
    sizes = [(s, int(round(h * s)), int(round(w * s))) for s in scales]
    if all(min(sh, sw) < side for _, sh, sw in sizes):  # one error, no warning before it
        raise ValueError(f"every scale fell below the minimum input size: scales "
                         f"{list(scales)} make the {h}x{w} image smaller than {side} "
                         f"pixels a side")
    if len(sizes) == 1:  # one vote wins outright
        return _predict_at(model, image, *sizes[0][1:])
    classes = np.arange(model.spec.num_classes)
    votes = np.zeros((len(classes), h, w), np.int64)
    for s, sh, sw in sizes:
        if min(sh, sw) < side:
            warnings.warn(f"scale {s} gives {sh}x{sw}, below the {side}-pixel "
                          f"minimum side; skipping", RuntimeWarning)
            continue
        votes += _predict_at(model, image, sh, sw) == classes[:, None, None]
    # argmax takes the first maximum, so vote ties go to the lowest class id
    return votes.argmax(0)


def _predict_at(model, image: np.ndarray, sh: int, sw: int) -> np.ndarray:
    """The argmax of the model on the image resized to (sh, sw), mapped back
    to the image's size with nearest-neighbor sampling."""
    h, w = image.shape[:2]
    if (sh, sw) == (h, w):
        return predict_logits(model, image).argmax(0)
    pred = predict_logits(model, resize_bilinear(image, (sh, sw))).argmax(0)
    return resize_nearest(pred, (h, w))


def _none_if_nan(x: float):
    return None if np.isnan(x) else float(x)


def _score(scenes: list[Scene], preds: list[np.ndarray], num_classes: int,
           ignore_label: int) -> dict:
    """Pixel accuracy, IoU and iIoU of the predictions over one label space."""
    conf = ConfusionMatrix(num_classes, ignore_label)
    avg_sizes = instance_average_sizes(scenes, num_classes, ignore_label)
    inst = InstanceScore(num_classes, avg_sizes, ignore_label)
    for scene, pred in zip(scenes, preds):
        conf.update(scene.labels, pred)
        inst.update(scene.labels, scene.instances, pred)
    return {
        "pixel_accuracy": _none_if_nan(conf.pixel_accuracy()),
        "iou": [_none_if_nan(v) for v in conf.iou()],
        "mean_iou": _none_if_nan(conf.mean_iou()),
        "iiou": [_none_if_nan(v) for v in inst.iiou()],
        "mean_iiou": _none_if_nan(inst.mean_iiou()),
    }


def evaluate_scenes(model, scenes: list[Scene], scales=(1.0,),
                    categories: dict[str, list[int]] | None = None,
                    ignore_label: int = 255, threads: int = 1) -> dict:
    """Full evaluation over a scene list; returns a JSON-ready report.

    Scenes are scored one at a time. ``threads`` accepts only 1; it stays
    while the benchmark harness still passes it, and goes when it stops.
    """
    if not scenes:
        raise ValueError("evaluation needs at least one scene")
    if threads != 1:
        raise ValueError(f"threads must be 1, got {threads}: scenes are scored one at a time")
    num_classes = model.spec.num_classes
    preds = [multiscale_predict(model, s.image, scales) for s in scenes]

    report = {
        "n_scenes": len(scenes),
        "scales": [float(s) for s in scales],
        "num_classes": num_classes,
        **_score(scenes, preds, num_classes, ignore_label),
        "categories": None,
    }
    if categories is not None:
        cmap = CategoryMap(categories, num_classes)
        cat_scenes = [Scene(s.image, cmap.apply(s.labels, ignore_label),
                            s.instances, s.seed) for s in scenes]
        cat_preds = [cmap.apply(p, ignore_label) for p in preds]
        scores = _score(cat_scenes, cat_preds, cmap.num_categories, ignore_label)
        del scores["pixel_accuracy"]
        report["categories"] = {"names": cmap.names, **scores}
    return report
