"""Scene generator, augmentation pipeline, dataset splits, image dumps."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scene_reference
from structseg.synthdata import (SceneDataset, augment, augment_pair,
                                 generate_scene, rasterize_labels, save_pgm,
                                 save_ppm, sample_scene_shapes, sample_seed)


def _contains(shape, y, x):
    """Independent point-in-shape predicate for the re-rasterization oracle."""
    if shape.kind == "rect":
        y0, x0, y1, x1 = shape.params
        return y0 <= y <= y1 and x0 <= x <= x1
    if shape.kind == "disc":
        cy, cx, r = shape.params
        return (y - cy) ** 2 + (x - cx) ** 2 <= r * r
    (ay, ax), (by, bx), (cy, cx) = shape.params
    d1 = (x - bx) * (ay - by) - (ax - bx) * (y - by)
    d2 = (x - cx) * (by - cy) - (bx - cx) * (y - cy)
    d3 = (x - ax) * (cy - ay) - (cx - ax) * (y - ay)
    neg = d1 < 0 or d2 < 0 or d3 < 0
    pos = d1 > 0 or d2 > 0 or d3 > 0
    return not (neg and pos)


class _ScriptedRng:
    """Stand-in generator whose draws are given in advance, so one
    augmentation op can fire alone."""

    def __init__(self, random=(), uniform=()):
        self._random = list(random)
        self._uniform = list(uniform)

    def random(self):
        return self._random.pop(0)

    def uniform(self, lo, hi):
        return self._uniform.pop(0)


class TestGenerateScene:
    def test_zero_shapes_gives_background_only(self):
        s = generate_scene(0, 16, 16, 2, n_shapes=0)
        np.testing.assert_array_equal(s.labels, 0)

    def test_same_seed_identical(self):
        a = generate_scene(7, 32, 32, 4)
        b = generate_scene(7, 32, 32, 4)
        np.testing.assert_array_equal(a.image, b.image)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.seed == b.seed == 7

    def test_labels_match_topmost_shape(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            shapes = sample_scene_shapes(rng, 20, 18, 4)
            labels = rasterize_labels(shapes, 20, 18)
            for y in range(20):
                for x in range(18):
                    expected = 0
                    for shape in shapes:  # later shapes paint over earlier ones
                        if _contains(shape, y, x):
                            expected = shape.cls
                    assert labels[y, x] == expected, (seed, y, x)

    def test_value_ranges(self):
        for seed in range(10):
            s = generate_scene(seed, 24, 24, 5)
            assert s.image.shape == (24, 24, 3)
            assert s.image.min() >= 0.0 and s.image.max() <= 1.0
            assert s.labels.min() >= 0 and s.labels.max() < 5

    def test_needs_two_classes(self):
        with pytest.raises(ValueError):
            generate_scene(0, 16, 16, 1)


def _sha256(*arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(a.tobytes())
    return digest.hexdigest()


class TestSceneBits:
    """The broadcast rasterizer and the palette painter give the bits of the
    per-shape-grid, per-class-mask painter in ``scene_reference``."""

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), height=st.integers(8, 96),
           width=st.integers(8, 96), num_classes=st.integers(2, 19),
           n_shapes=st.one_of(st.none(), st.integers(0, 8)),
           sigma=st.sampled_from([0.0, 0.08, 0.3]))
    def test_matches_the_reference_painter(self, seed, height, width, num_classes,
                                           n_shapes, sigma):
        got = generate_scene(seed, height, width, num_classes, n_shapes=n_shapes,
                             texture_sigma=sigma)
        ref = scene_reference.generate_scene(seed, height, width, num_classes,
                                             n_shapes=n_shapes, texture_sigma=sigma)
        assert (got.image.dtype, got.labels.dtype) == (ref.image.dtype, ref.labels.dtype)
        assert got.image.tobytes() == ref.image.tobytes()
        assert got.labels.tobytes() == ref.labels.tobytes()

    def test_frozen_scenes(self):
        # sha256 of image then labels bytes, from the per-shape-grid generator
        ds = SceneDataset(100)
        labeled, validation = ds.labeled(3), ds.validation(5)
        big = generate_scene(2024, 256, 512, 19)
        assert _sha256(labeled.image, labeled.labels) == \
            "6042f43673eddfca0d7c16142e955d520854f1bca973a0d39c6d869bf15cffca"
        assert _sha256(ds.unlabeled_image(17)) == \
            "516b1c0ba79ca1e29e0d403f0a0c516b8ce096c2a96e62e8d8f219b6111c54a9"
        assert _sha256(validation.image, validation.labels) == \
            "31b65ba5d17fba68240334daaef56a06365ae769a6ad488763d313c55e6c3379"
        assert _sha256(big.image, big.labels) == \
            "1285fba57d87e9ad4a1cfebbfdc9e5ec8ebdfebeb289c29e570c1e4d0f506fbf"


class TestAugment:
    def test_probability_zero_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.random((8, 8, 3))
        out = augment(rng, img, p=0.0)
        np.testing.assert_array_equal(out, img)

    def test_probability_one_applies_all_ops(self):
        rng = np.random.default_rng(1)
        img = rng.random((8, 8, 3)) * 0.5 + 0.25
        out = augment(rng, img, p=1.0)
        assert out.min() >= 0.0 and out.max() <= 1.0
        assert not np.allclose(out, img, atol=0.2)
        # flipped, then shifted by at most 0.1 and lightly noised
        residual = out - img[:, ::-1]
        assert np.abs(residual).max() < 0.2
        assert residual.std() > 0.005

    def test_flip_twice_is_identity(self):
        img = np.random.default_rng(2).random((6, 7, 3))
        once = augment(_ScriptedRng(random=[0.0, 1.0, 1.0]), img)  # flip only
        np.testing.assert_array_equal(once, img[:, ::-1])
        twice = augment(_ScriptedRng(random=[0.0, 1.0, 1.0]), once)
        np.testing.assert_array_equal(twice, img)

    def test_brightness_arithmetic_on_mid_gray(self):
        img = np.full((4, 4, 3), 0.5)
        out = augment(_ScriptedRng(random=[1.0, 0.0, 1.0], uniform=[0.1]), img)
        np.testing.assert_allclose(out, 0.6, rtol=0, atol=1e-15)

    def test_augment_pair_draws_independently(self):
        rng = np.random.default_rng(3)
        img = rng.random((8, 8, 3)) * 0.5 + 0.25
        pair = augment_pair(rng, img, img, p=1.0)
        assert pair.ua.shape == pair.ub.shape == img.shape
        assert not np.array_equal(pair.ua, pair.ub)

    def test_flip_equivariance_of_scene_geometry(self):
        # mirroring the shape coordinates mirrors the rasterized label map
        for seed in range(3):
            rng = np.random.default_rng(seed)
            shapes = sample_scene_shapes(rng, 16, 16, 4)
            labels = rasterize_labels(shapes, 16, 16)
            mirrored = []
            for s in shapes:
                if s.kind == "rect":
                    y0, x0, y1, x1 = s.params
                    p = (y0, 15 - x1, y1, 15 - x0)
                elif s.kind == "disc":
                    cy, cx, r = s.params
                    p = (cy, 15 - cx, r)
                else:
                    p = tuple((vy, 15 - vx) for vy, vx in s.params)
                mirrored.append(type(s)(s.kind, s.cls, p))
            np.testing.assert_array_equal(
                rasterize_labels(mirrored, 16, 16), labels[:, ::-1])


class TestDataset:
    def test_split_content_is_pure_function_of_seed_and_index(self):
        a = SceneDataset(42, height=16, width=16, n_labeled=3, n_unlabeled=4,
                         n_validation=2)
        b = SceneDataset(42, height=16, width=16, n_labeled=3, n_unlabeled=4,
                         n_validation=2)
        np.testing.assert_array_equal(a.labeled(1).image, b.labeled(1).image)
        np.testing.assert_array_equal(a.unlabeled_image(2), b.unlabeled_image(2))
        np.testing.assert_array_equal(a.validation(0).labels, b.validation(0).labels)

    def test_splits_are_disjoint_streams(self):
        ds = SceneDataset(42, height=16, width=16, n_labeled=3, n_unlabeled=3,
                          n_validation=3)
        assert not np.array_equal(ds.labeled(0).image, ds.unlabeled_image(0))
        assert not np.array_equal(ds.labeled(0).image, ds.validation(0).image)

    def test_unlabeled_accessor_returns_bare_image(self):
        ds = SceneDataset(0, height=16, width=16, n_labeled=1, n_unlabeled=2,
                          n_validation=1)
        img = ds.unlabeled_image(0)
        assert isinstance(img, np.ndarray)
        assert not hasattr(img, "labels")

    def test_index_bounds(self):
        ds = SceneDataset(0, height=16, width=16, n_labeled=2, n_unlabeled=2,
                          n_validation=2)
        with pytest.raises(IndexError):
            ds.labeled(2)
        with pytest.raises(IndexError):
            ds.validation(2)

    def test_rereading_a_scene_gives_equal_arrays(self):
        ds = SceneDataset(3, height=16, width=24, n_labeled=2, n_unlabeled=2,
                          n_validation=2)
        for read in (lambda: ds.labeled(1), lambda: ds.validation(1)):
            first, again = read(), read()
            assert first is not again
            np.testing.assert_array_equal(first.image, again.image)
            np.testing.assert_array_equal(first.labels, again.labels)
        first, again = ds.unlabeled_image(1), ds.unlabeled_image(1)
        assert first is not again
        np.testing.assert_array_equal(first, again)

    def test_sample_seed_is_stable(self):
        # frozen: SeedSequence output must not drift across runs
        assert sample_seed(0, 0, 0) == sample_seed(0, 0, 0)
        assert sample_seed(0, 0, 0) != sample_seed(0, 0, 1)
        assert sample_seed(0, 0, 0) != sample_seed(0, 1, 0)


class TestDumps:
    def test_ppm_bytes(self, tmp_path):
        img = np.zeros((2, 2, 3))
        img[0, 0] = [1.0, 0.5, 0.0]
        path = tmp_path / "img.ppm"
        save_ppm(path, img)
        raw = path.read_bytes()
        assert raw.startswith(b"P6\n2 2\n255\n")
        pixels = raw.split(b"255\n", 1)[1]
        assert pixels[:3] == bytes([255, 128, 0])
        assert len(pixels) == 12

    def test_pgm_bytes(self, tmp_path):
        labels = np.array([[0, 1], [2, 3]])
        path = tmp_path / "labels.pgm"
        save_pgm(path, labels, num_classes=4)
        raw = path.read_bytes()
        assert raw.startswith(b"P5\n2 2\n255\n")
        assert raw.split(b"255\n", 1)[1] == bytes([0, 85, 170, 255])
