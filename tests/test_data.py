"""Synthetic scene generation, resampling, and image IO tests."""

import numpy as np
import pytest

from gridseg.data import (
    AugmentConfig,
    Scene,
    class_palette,
    generate_dataset,
    generate_scene,
    load_image,
    random_patch,
    read_pgm,
    read_ppm,
    render_class_map,
    resize_bilinear,
    resize_nearest,
    write_pgm,
    write_ppm,
)


def bilinear_loop(arr, oh, ow):
    """Scalar reference resampler, same sampling convention."""
    h, w = arr.shape[:2]
    out = np.zeros((oh, ow) + arr.shape[2:])
    for oy in range(oh):
        sy = (oy + 0.5) * h / oh - 0.5
        y0 = int(np.floor(sy))
        fy = sy - y0
        y0c, y1c = min(max(y0, 0), h - 1), min(max(y0 + 1, 0), h - 1)
        for ox in range(ow):
            sx = (ox + 0.5) * w / ow - 0.5
            x0 = int(np.floor(sx))
            fx = sx - x0
            x0c, x1c = min(max(x0, 0), w - 1), min(max(x0 + 1, 0), w - 1)
            top = arr[y0c, x0c] * (1 - fx) + arr[y0c, x1c] * fx
            bot = arr[y1c, x0c] * (1 - fx) + arr[y1c, x1c] * fx
            out[oy, ox] = top * (1 - fy) + bot * fy
    return out


class TestScenes:
    def test_deterministic(self):
        a = generate_scene(17)
        b = generate_scene(17)
        assert np.array_equal(a.image, b.image)
        assert np.array_equal(a.labels, b.labels)
        assert np.array_equal(a.instances, b.instances)
        assert not np.array_equal(a.image, generate_scene(18).image)

    def test_shapes_and_ranges(self):
        s = generate_scene(0, width=96, height=64, num_classes=5)
        assert s.image.shape == (64, 96, 3) and s.image.dtype == np.float32
        assert s.labels.shape == (64, 96) and s.labels.dtype == np.int64
        assert s.instances.shape == (64, 96) and s.instances.dtype == np.int32
        assert s.image.min() >= 0.0 and s.image.max() <= 1.0
        assert 0 <= s.labels.min() and s.labels.max() < 5

    def test_instances_refine_classes(self):
        # one instance id never spans two classes
        s = generate_scene(3)
        for inst in np.unique(s.instances):
            if inst == 0:
                continue
            assert len(np.unique(s.labels[s.instances == inst])) == 1

    def test_background_has_no_instance(self):
        s = generate_scene(4)
        assert (s.instances[s.labels == 0] == 0).all()

    def test_class_census(self):
        # cycled class assignment keeps all classes common: at least 80 of
        # 100 scenes must show every foreground class despite occlusion
        num_classes = 4
        full = 0
        for seed in range(100):
            present = set(np.unique(generate_scene(seed, num_classes=num_classes).labels))
            if set(range(1, num_classes)) <= present:
                full += 1
        assert full >= 80

    def test_dataset_seed_ranges(self):
        train = generate_dataset(3, seed=100)
        assert [s.seed for s in train] == [100, 101, 102]
        held = generate_dataset(2, seed=103)
        assert not np.array_equal(train[2].image, held[0].image)

    def test_validation(self):
        with pytest.raises(ValueError):
            generate_scene(0, num_classes=1)
        with pytest.raises(ValueError):
            generate_scene(0, num_classes=4, max_shapes=2)


class TestResize:
    def test_identity(self):
        x = np.random.default_rng(0).normal(size=(7, 5, 3)).astype(np.float32)
        assert np.array_equal(resize_bilinear(x, (7, 5)), x)
        assert np.array_equal(resize_nearest(x, (7, 5)), x)

    def test_bilinear_frozen_1d_case(self):
        # in=[0,1] to length 4: centers at -0.25, 0.25, 0.75, 1.25 clamp
        # to [0, 0.25, 0.75, 1]
        x = np.array([[0.0], [1.0]])
        out = resize_bilinear(x, (4, 1))
        assert np.allclose(out[:, 0], [0.0, 0.25, 0.75, 1.0], atol=1e-12)

    def test_bilinear_matches_scalar_loop(self):
        rng = np.random.default_rng(1)
        for shape, out_hw in [((9, 13), (5, 7)), ((6, 6, 3), (13, 4)), ((4, 5), (4, 11))]:
            x = rng.normal(size=shape)
            got = resize_bilinear(x, out_hw)
            assert np.max(np.abs(got - bilinear_loop(x, *out_hw))) < 1e-12

    def test_bilinear_preserves_constants(self):
        x = np.full((10, 11), 0.375)
        assert np.allclose(resize_bilinear(x, (23, 3)), 0.375, atol=1e-12)

    def test_nearest_downscale_picks_centers(self):
        x = np.arange(16.0).reshape(4, 4)
        out = resize_nearest(x, (2, 2))
        # src index floor((o+0.5)*2) = 1, 3
        assert np.array_equal(out, [[5.0, 7.0], [13.0, 15.0]])

    def test_nearest_keeps_label_values(self):
        labels = np.random.default_rng(2).integers(0, 4, size=(31, 17))
        out = resize_nearest(labels, (9, 40))
        assert set(np.unique(out)) <= set(np.unique(labels))
        assert out.dtype == labels.dtype


class TestRandomPatch:
    CFG = AugmentConfig(crop_min=32, crop_max=96, out_size=64)

    def test_deterministic_under_same_state(self):
        scene = generate_scene(5)
        a = random_patch(scene, self.CFG, np.random.default_rng(9))
        b = random_patch(scene, self.CFG, np.random.default_rng(9))
        for x, y in zip(a, b):
            assert np.array_equal(x, y)

    def test_output_shapes(self):
        scene = generate_scene(6)
        image, labels, instances = random_patch(scene, self.CFG, np.random.default_rng(0))
        assert image.shape == (64, 64, 3) and image.dtype == np.float32
        assert labels.shape == (64, 64) and instances.shape == (64, 64)

    def test_full_crop_no_flip_is_resize(self):
        scene = generate_scene(7)

        class Fixed:
            def integers(self, lo, hi):
                return hi - 1 if lo < hi - 1 else lo  # max side, then 0 offsets

            def random(self):
                return 1.0  # never below hflip_p, so no flip

        cfg = AugmentConfig(crop_min=128, crop_max=128, out_size=64, hflip_p=0.5)
        image, labels, _ = random_patch(scene, cfg, Fixed())
        assert np.allclose(image, resize_bilinear(scene.image, (64, 64)), atol=1e-6)
        assert np.array_equal(labels, resize_nearest(scene.labels, (64, 64)))

    def test_flip_mirrors_all_maps(self):
        scene = generate_scene(8)

        class Flip:
            def integers(self, lo, hi):
                return lo

            def random(self):
                return 0.0

        class NoFlip(Flip):
            def random(self):
                return 1.0

        cfg = AugmentConfig(crop_min=64, crop_max=64, out_size=32)
        fi, fl, fn = random_patch(scene, cfg, Flip())
        ni, nl, nn = random_patch(scene, cfg, NoFlip())
        assert np.array_equal(fi, ni[:, ::-1])
        assert np.array_equal(fl, nl[:, ::-1])
        assert np.array_equal(fn, nn[:, ::-1])

    def test_crop_larger_than_scene_rejected(self):
        scene = generate_scene(9, width=32, height=32)
        with pytest.raises(ValueError, match="crop_min"):
            random_patch(scene, AugmentConfig(64, 64, 16), np.random.default_rng(0))


class TestImageIO:
    def test_ppm_round_trip(self, tmp_path):
        img = np.random.default_rng(3).integers(0, 256, size=(5, 7, 3)).astype(np.uint8)
        path = str(tmp_path / "x.ppm")
        write_ppm(path, img)
        assert np.array_equal(read_ppm(path), img)

    def test_ppm_float_quantization(self, tmp_path):
        img = np.array([[[0.0, 0.5, 1.0]]], np.float32)
        path = str(tmp_path / "q.ppm")
        write_ppm(path, img)
        assert read_ppm(path).tolist() == [[[0, 128, 255]]]
        assert np.allclose(load_image(path)[0, 0], [0.0, 128 / 255, 1.0])

    def test_pgm_round_trip(self, tmp_path):
        gray = np.random.default_rng(4).integers(0, 200, size=(9, 4))
        path = str(tmp_path / "y.pgm")
        write_pgm(path, gray)
        assert np.array_equal(read_pgm(path), gray)

    def test_header_comments_parsed(self, tmp_path):
        path = str(tmp_path / "c.pgm")
        with open(path, "wb") as f:
            f.write(b"P5\n# a comment\n3 2\n255\n" + bytes(6))
        assert read_pgm(path).shape == (2, 3)

    def test_bad_inputs_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_ppm(str(tmp_path / "b.ppm"), np.zeros((4, 4), np.uint8))
        with pytest.raises(ValueError):
            write_pgm(str(tmp_path / "b.pgm"), np.full((2, 2), 300))
        p = str(tmp_path / "trunc.ppm")
        with open(p, "wb") as f:
            f.write(b"P6\n4 4\n255\n12")
        with pytest.raises(ValueError, match="truncated"):
            read_ppm(p)
        q = str(tmp_path / "wrong.ppm")
        with open(q, "wb") as f:
            f.write(b"P5\n1 1\n255\n\x00")
        with pytest.raises(ValueError, match="expected P6"):
            read_ppm(q)

    @pytest.mark.parametrize("header, message", [
        (b"P6\n-2 2 255", "width and height must be positive, got -2x2"),
        (b"P5\n3 0\n255\n", "width and height must be positive, got 3x0"),
        (b"P6\n4", "header ends before"),
        (b"P6\n4 4 # no maxval", "header ends before"),
        (b"P6", "header ends before"),
        (b"P6\n4 x 255\n", "header field b'x' is not an integer"),
    ])
    def test_malformed_header_rejected(self, tmp_path, header, message):
        path = str(tmp_path / "bad.pnm")
        with open(path, "wb") as f:
            f.write(header)
        read = read_ppm if header.startswith(b"P6") else read_pgm
        with pytest.raises(ValueError) as info:
            read(path)
        text = str(info.value)
        assert text.startswith(f"{path}: ") and message in text and "\n" not in text

    def test_render_class_map(self):
        labels = np.array([[0, 1], [2, 3]])
        vis = render_class_map(labels, 4)
        pal = np.clip(np.rint(class_palette(4) * 255), 0, 255).astype(np.uint8)
        assert np.array_equal(vis, pal[labels])
        with pytest.raises(ValueError):
            render_class_map(np.array([[5]]), 4)
