"""Metric oracles: set-based IoU, hand-worked instance weighting, voting."""

import math
import types
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridseg import GridSpec, build_grid, symmetric_columns
from gridseg.data import Scene, generate_dataset, resize_bilinear, resize_nearest
from gridseg.metrics import (
    CategoryMap,
    ConfusionMatrix,
    InstanceScore,
    _instances,
    evaluate_scenes,
    instance_average_sizes,
    multiscale_predict,
    predict_logits,
)


def iou_loop(truth, pred, num_classes, ignore=255):
    """Scalar reference: per-class TP/FP/FN by direct enumeration."""
    out = []
    for c in range(num_classes):
        tp = fp = fn = 0
        for t, p in zip(truth.ravel(), pred.ravel()):
            if t == ignore:
                continue
            tp += t == c and p == c
            fp += t != c and p == c
            fn += t == c and p != c
        out.append(np.nan if tp + fp + fn == 0 else tp / (tp + fp + fn))
    return out


def scene_of(labels, instances=None):
    labels = np.asarray(labels, np.int64)
    if instances is None:
        instances = np.zeros_like(labels, np.int32)
    image = np.zeros(labels.shape + (3,), np.float32)
    return Scene(image, labels, np.asarray(instances, np.int32), seed=0)


class TestConfusion:
    def test_rows_are_truth(self):
        conf = ConfusionMatrix(3)
        conf.update(np.array([0, 0, 1]), np.array([1, 0, 1]))
        assert conf.counts[0, 1] == 1 and conf.counts[0, 0] == 1
        assert conf.counts[1, 1] == 1 and conf.counts.sum() == 3

    def test_frozen_half_iou(self):
        # TP=3, FN=1, FP=2 for class 1: IoU = 3 / (3 + 1 + 2) = 0.5
        truth = np.array([1, 1, 1, 1, 0, 0, 0])
        pred = np.array([1, 1, 1, 0, 1, 1, 0])
        conf = ConfusionMatrix(2)
        conf.update(truth, pred)
        assert conf.iou()[1] == 0.5

    def test_ignored_pixels_do_not_count(self):
        conf = ConfusionMatrix(2)
        conf.update(np.array([0, 255, 255]), np.array([0, 1, 0]))
        assert conf.counts.sum() == 1

    def test_absent_class_is_nan_and_excluded_from_mean(self):
        conf = ConfusionMatrix(3)
        conf.update(np.array([0, 1]), np.array([0, 1]))
        vals = conf.iou()
        assert vals[0] == 1.0 and vals[1] == 1.0 and np.isnan(vals[2])
        assert conf.mean_iou() == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        truth = rng.integers(0, 5, size=(40, 30))
        truth[rng.random(truth.shape) < 0.1] = 255
        pred = rng.integers(0, 5, size=(40, 30))
        conf = ConfusionMatrix(5)
        conf.update(truth, pred)
        want = iou_loop(truth, pred, 5)
        got = conf.iou()
        for w, g in zip(want, got):
            assert (np.isnan(w) and np.isnan(g)) or abs(w - g) < 1e-12

    def test_update_accumulates_like_one_shot(self):
        rng = np.random.default_rng(1)
        truth = rng.integers(0, 3, size=100)
        pred = rng.integers(0, 3, size=100)
        a = ConfusionMatrix(3)
        a.update(truth, pred)
        b = ConfusionMatrix(3)
        b.update(truth[:37], pred[:37])
        b.update(truth[37:], pred[37:])
        assert np.array_equal(a.counts, b.counts)

    def test_validation(self):
        conf = ConfusionMatrix(2)
        with pytest.raises(ValueError, match="mismatch"):
            conf.update(np.zeros(3, int), np.zeros(4, int))
        with pytest.raises(ValueError, match="outside"):
            conf.update(np.array([5]), np.array([0]))


class TestInstanceScores:
    def test_average_sizes(self):
        labels = np.zeros((8, 8), np.int64)
        inst = np.zeros((8, 8), np.int32)
        labels[:4, :4] = 1
        inst[:4, :4] = 1  # 16 pixels
        labels[6:8, 6:8] = 1
        inst[6:8, 6:8] = 2  # 4 pixels
        sizes = instance_average_sizes([scene_of(labels, inst)], 3)
        assert sizes[1] == 10.0  # (16 + 4) / 2
        assert np.isnan(sizes[0]) and np.isnan(sizes[2])

    def test_equal_sized_instances_reduce_to_iou(self):
        # both instances hold 4 pixels, so every weight is exactly 1 and
        # the weighted score equals the plain one
        labels = np.zeros((4, 4), np.int64)
        inst = np.zeros((4, 4), np.int32)
        labels[0, :4] = 1
        inst[0, :4] = 1
        labels[2, :4] = 1
        inst[2, :4] = 2
        pred = labels.copy()
        pred[0, 0] = 0  # one miss
        pred[3, 0] = 1  # one false positive
        scene = scene_of(labels, inst)
        conf = ConfusionMatrix(2)
        conf.update(labels, pred)
        score = InstanceScore(2, instance_average_sizes([scene], 2))
        score.update(labels, inst, pred)
        assert abs(score.iiou()[1] - conf.iou()[1]) < 1e-12

    def test_frozen_unequal_instance_case(self):
        # big instance (16 px) fully found, small one (4 px) fully missed:
        # avg size 10, iTP = 10/16*16 = 10, iFN = 10/4*4 = 10, no FP,
        # so the weighted score is 0.5 while the plain IoU is 16/20 = 0.8
        labels = np.zeros((8, 8), np.int64)
        inst = np.zeros((8, 8), np.int32)
        labels[:4, :4] = 1
        inst[:4, :4] = 1
        labels[6:8, 6:8] = 1
        inst[6:8, 6:8] = 2
        pred = np.zeros((8, 8), np.int64)
        pred[:4, :4] = 1
        scene = scene_of(labels, inst)
        conf = ConfusionMatrix(2)
        conf.update(labels, pred)
        score = InstanceScore(2, instance_average_sizes([scene], 2))
        score.update(labels, inst, pred)
        assert abs(conf.iou()[1] - 0.8) < 1e-12
        assert abs(score.iiou()[1] - 0.5) < 1e-12

    def test_false_positives_keep_unit_weight(self):
        labels = np.zeros((4, 4), np.int64)
        inst = np.zeros((4, 4), np.int32)
        labels[0, :2] = 1
        inst[0, :2] = 1
        pred = labels.copy()
        pred[3, :] = 1  # 4 false positives
        score = InstanceScore(2, instance_average_sizes([scene_of(labels, inst)], 2))
        score.update(labels, inst, pred)
        assert score.fp[1] == 4.0 and score.tp[1] == 2.0
        assert abs(score.iiou()[1] - 2.0 / 6.0) < 1e-12

    def test_mixed_label_instance_counts_as_majority_class(self):
        # one instance: 3 pixels of class 1, 1 of class 2 and 1 ignored, so
        # it is a class-1 instance of size 4 for both the sizes and the score
        labels = np.array([[1, 1, 1, 2, 255, 0]])
        inst = np.array([[7, 7, 7, 7, 7, 0]])
        pred = np.array([[1, 1, 2, 1, 0, 0]])
        sizes = instance_average_sizes([scene_of(labels, inst)], 3)
        assert sizes[1] == 4.0 and np.isnan(sizes[0]) and np.isnan(sizes[2])
        score = InstanceScore(3, sizes)
        score.update(labels, inst, pred)
        assert score.tp.tolist() == [0.0, 3.0, 0.0]
        assert score.fn.tolist() == [0.0, 1.0, 0.0]
        assert score.fp.tolist() == [0.0, 1.0, 1.0]

    def test_class_without_instances_is_nan(self):
        labels = np.zeros((4, 4), np.int64)
        labels[0] = 1  # class 1 present but uninstanced
        score = InstanceScore(2, instance_average_sizes([scene_of(labels)], 2))
        score.update(labels, np.zeros((4, 4), np.int32), labels)
        assert np.isnan(score.iiou()).all()


def _per_instance_masks(truth, instances, pred, avg_sizes, tp, fn, ignore=255):
    """Reference: a full-image mask per instance id, walked in ascending id
    order, adding into tp and fn; returns the (majority class, size) pairs."""
    num_classes = tp.size
    inside = (truth != ignore) & (instances > 0)
    found = []
    for inst in np.unique(instances[inside]):
        where = inside & (instances == inst)
        cls = int(np.bincount(truth[where], minlength=num_classes).argmax())
        found.append((cls, int(where.sum())))
        if not np.isnan(avg_sizes[cls]):
            w = avg_sizes[cls] / int(where.sum())
            hits = int((pred[where] == cls).sum())
            tp[cls] += w * hits
            fn[cls] += w * (int(where.sum()) - hits)
    return found


def _per_instance_loop(score, truth, instances, pred):
    """Reference: ``InstanceScore.update`` as a loop over the instances, in
    id order, adding Python floats (float64) into each class's tp and fn."""
    wrong = (truth != score.ignore_label) & (pred != truth)
    score.fp += np.bincount(pred[wrong], minlength=score.num_classes)
    cls, size, row, inside = _instances(truth, instances, score.num_classes,
                                        score.ignore_label)
    hits = np.bincount(row[pred[inside] == cls[row]], minlength=cls.size)
    avg, tp, fn = score.avg_sizes.tolist(), score.tp.tolist(), score.fn.tolist()
    present = size > 0
    for c, n, h in zip(cls[present].tolist(), size[present].tolist(), hits[present].tolist()):
        if not math.isnan(avg[c]):
            w = avg[c] / n
            tp[c] += w * h
            fn[c] += w * (n - h)
    score.tp[:] = tp
    score.fn[:] = fn


@st.composite
def labelled_scenes(draw):
    """(num_classes, [(truth, instances, pred)]) with ignored pixels, tied
    majorities and instance ids that skip values."""
    num_classes = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = []
    for _ in range(draw(st.integers(1, 3))):
        h, w = draw(st.integers(1, 9)), draw(st.integers(1, 9))
        truth = rng.integers(0, num_classes, (h, w))
        truth[rng.random((h, w)) < draw(st.sampled_from([0.0, 0.2]))] = 255
        ids = rng.choice(draw(st.integers(1, 300)), size=draw(st.integers(1, 6)))
        images.append((truth, rng.choice(ids, size=(h, w)),
                       rng.integers(0, num_classes, (h, w))))
    return num_classes, images


class TestInstanceTable:
    @settings(max_examples=200, deadline=None)
    @given(labelled_scenes())
    def test_bit_equal_to_per_instance_masks(self, case):
        num_classes, images = case
        scenes = [Scene(np.zeros((*t.shape, 3)), t, i, 0) for t, i, _ in images]
        avg = instance_average_sizes(scenes, num_classes)
        got = InstanceScore(num_classes, avg)
        tp, fn = np.zeros(num_classes), np.zeros(num_classes)
        pixels, counts = np.zeros(num_classes, np.int64), np.zeros(num_classes, np.int64)
        for truth, instances, pred in images:
            for cls, size in _per_instance_masks(truth, instances, pred, avg, tp, fn):
                pixels[cls] += size
                counts[cls] += 1
            got.update(truth, instances, pred)
        want = np.divide(pixels, counts, out=np.full(num_classes, np.nan), where=counts > 0)
        assert avg.tobytes() == want.tobytes()
        assert got.tp.tobytes() == tp.tobytes() and got.fn.tobytes() == fn.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(labelled_scenes(), st.integers(0, 2**32 - 1))
    def test_bit_equal_to_the_per_instance_loop(self, case, seed):
        # average sizes drawn apart from the scenes, some NaN, so that the
        # weights are not integers and every class sum rounds
        num_classes, images = case
        rng = np.random.default_rng(seed)
        avg = rng.uniform(0.5, 50.0, num_classes)
        avg[rng.random(num_classes) < 0.3] = np.nan
        got, want = InstanceScore(num_classes, avg), InstanceScore(num_classes, avg)
        for truth, instances, pred in images:
            got.update(truth, instances, pred)
            _per_instance_loop(want, truth, instances, pred)
        for a, b in ((got.tp, want.tp), (got.fn, want.fn), (got.fp, want.fp)):
            assert a.tobytes() == b.tobytes()

    def test_truth_label_outside_the_classes_rejected(self):
        scene = Scene(np.zeros((1, 2, 3)), np.array([[0, 4]]), np.ones((1, 2), int), 0)
        with pytest.raises(ValueError, match="outside"):
            instance_average_sizes([scene], 4)


class TestCategories:
    def test_roll_up_forgives_within_category_confusion(self):
        truth = np.array([[1, 2], [0, 0]])
        pred = np.array([[2, 1], [0, 0]])  # classes swapped inside "fg"
        cmap = CategoryMap({"bg": [0], "fg": [1, 2]}, 3)
        conf = ConfusionMatrix(2)
        conf.update(cmap.apply(truth), cmap.apply(pred))
        assert conf.mean_iou() == 1.0

    def test_apply_preserves_ignore(self):
        cmap = CategoryMap({"bg": [0], "fg": [1]}, 2)
        out = cmap.apply(np.array([0, 1, 255]))
        assert out.tolist() == [0, 1, 255]

    def test_validation(self):
        with pytest.raises(ValueError, match="two categories"):
            CategoryMap({"a": [0], "b": [0, 1]}, 2)
        with pytest.raises(ValueError, match="no category"):
            CategoryMap({"a": [0]}, 2)
        with pytest.raises(ValueError, match="outside"):
            CategoryMap({"a": [0, 7]}, 2)


def stub_model(pred_by_height, num_classes=3):
    """Fake network: predicted class is a pure function of input height."""

    def forward(x, training=False):
        n, _, h, w = x.shape
        logits = np.zeros((n, num_classes, h, w))
        logits[:, pred_by_height(h)] = 1.0
        return types.SimpleNamespace(data=logits)

    return types.SimpleNamespace(
        spec=GridSpec(1, (), 4, num_classes), forward=forward)


class TestMultiscale:
    def test_single_scale_is_plain_argmax(self):
        """One scale casts the only vote: its argmax, mapped back to full size."""
        model = build_grid(GridSpec(2, symmetric_columns(1, 1), 4, 4), (16, 16), seed=0)
        scene = generate_dataset(1, seed=3, width=16, height=16)[0]
        for scale, size in (1.0, 16), (1.5, 24):
            pred = multiscale_predict(model, scene.image, scales=(scale,))
            scaled = resize_bilinear(scene.image, (size, size))
            want = resize_nearest(predict_logits(model, scaled).argmax(0), (16, 16))
            assert pred.dtype == want.dtype and np.array_equal(pred, want)

    def test_vote_tie_goes_to_lowest_class(self):
        # full scale predicts class 2, half scale class 0: one vote each,
        # every pixel must resolve to class 0
        model = stub_model(lambda h: 2 if h == 16 else 0)
        image = np.zeros((16, 16, 3), np.float32)
        pred = multiscale_predict(model, image, scales=(1.0, 0.5))
        assert (pred == 0).all()

    def test_majority_wins(self):
        model = stub_model(lambda h: 2 if h >= 12 else 0)
        image = np.zeros((16, 16, 3), np.float32)
        pred = multiscale_predict(model, image, scales=(1.0, 0.75, 0.5))
        assert (pred == 2).all()  # scales 1.0 and 0.75 outvote 0.5

    def test_small_scales_skipped_with_warning(self):
        model = build_grid(GridSpec(3, symmetric_columns(2, 2), 4, 4), (16, 16), seed=0)
        image = np.zeros((16, 16, 3), np.float32)
        with pytest.warns(RuntimeWarning, match="minimum side"):
            pred = multiscale_predict(model, image, scales=(1.0, 0.1))
        assert pred.shape == (16, 16)
        with warnings.catch_warnings():  # a failing call raises without warning first
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="every scale"):
                multiscale_predict(model, image, scales=(0.1,))


class TestEvaluate:
    @staticmethod
    def model_and_scenes():
        model = build_grid(GridSpec(2, symmetric_columns(1, 1), 4, 4), (32, 32), seed=5)
        return model, generate_dataset(4, seed=40, width=32, height=32)

    def test_report_shape_and_determinism(self):
        import json
        model, scenes = self.model_and_scenes()
        rep = evaluate_scenes(model, scenes, scales=(1.0, 0.5),
                              categories={"bg": [0], "fg": [1, 2, 3]})
        json.dumps(rep, allow_nan=False)  # strictly JSON-serializable
        assert rep["n_scenes"] == 4 and len(rep["iou"]) == 4
        assert rep["categories"]["names"] == ["bg", "fg"]
        rep2 = evaluate_scenes(model, scenes, scales=(1.0, 0.5),
                               categories={"bg": [0], "fg": [1, 2, 3]})
        assert rep == rep2

    def test_category_section_scores_remapped_scenes(self):
        # the category section equals the class-level scores of the same
        # scenes with labels and predictions passed through CategoryMap.apply
        model, scenes = self.model_and_scenes()
        scenes = [Scene(s.image, np.where(np.arange(32) % 7 == 0, 255, s.labels),
                        np.where(np.arange(32)[:, None] < 10, 99, s.instances), s.seed)
                  for s in scenes]  # ignored columns and one mixed-label instance
        groups, scales = {"bg": [0], "fg": [1, 2], "x": [3]}, (1.0, 0.5)
        rep = evaluate_scenes(model, scenes, scales=scales, categories=groups)
        cmap = CategoryMap(groups, 4)
        cat_scenes = [Scene(s.image, cmap.apply(s.labels), s.instances, s.seed)
                      for s in scenes]
        conf = ConfusionMatrix(3)
        score = InstanceScore(3, instance_average_sizes(cat_scenes, 3))
        for scene, cat in zip(scenes, cat_scenes):
            pred = cmap.apply(multiscale_predict(model, scene.image, scales))
            conf.update(cat.labels, pred)
            score.update(cat.labels, cat.instances, pred)
        got = rep["categories"]
        assert got["names"] == ["bg", "fg", "x"]
        np.testing.assert_array_equal(np.array(got["iou"], float), conf.iou())
        np.testing.assert_array_equal(np.array(got["iiou"], float), score.iiou())
        assert got["mean_iou"] == conf.mean_iou()
        assert got["mean_iiou"] == score.mean_iiou()
        assert not np.isnan(score.iiou()).all()

    def test_order_independent(self):
        model, scenes = self.model_and_scenes()
        a = evaluate_scenes(model, scenes)
        b = evaluate_scenes(model, scenes[::-1])
        for key in ("iou", "mean_iou", "iiou", "mean_iiou", "pixel_accuracy"):
            assert a[key] == b[key], key

    def test_validation(self):
        model, scenes = self.model_and_scenes()
        with pytest.raises(ValueError):
            evaluate_scenes(model, [])
        for threads in (0, 2):
            with pytest.raises(ValueError, match="one at a time"):
                evaluate_scenes(model, scenes, threads=threads)
