"""Confusion matrix accumulation and IoU scoring."""

import numpy as np
import pytest

from structseg.maps import IGNORE
from structseg.metrics import ConfusionMatrix, miou


class TestAccumulate:
    def test_perfect_prediction_fills_diagonal_only(self):
        cm = ConfusionMatrix(3)
        labels = np.array([[0, 1], [2, 1]])
        cm.accumulate(labels, labels)
        assert cm.counts.sum() == 4
        np.testing.assert_array_equal(cm.counts, np.diag([1, 2, 1]))

    def test_single_confused_pixel(self):
        cm = ConfusionMatrix(2)
        cm.accumulate(np.array([[1]]), np.array([[0]]))
        np.testing.assert_array_equal(cm.counts, [[0, 1], [0, 0]])

    def test_accumulation_is_additive(self):
        rng = np.random.default_rng(0)
        t = rng.integers(0, 3, size=(8, 8))
        p = rng.integers(0, 3, size=(8, 8))
        combined = ConfusionMatrix(3)
        combined.accumulate(p, t)
        split = ConfusionMatrix(3)
        split.accumulate(p[:4], t[:4])
        split.accumulate(p[4:], t[4:])
        np.testing.assert_array_equal(combined.counts, split.counts)

    def test_ignore_pixels_skipped(self):
        cm = ConfusionMatrix(2)
        cm.accumulate(np.array([[0, 1]]), np.array([[IGNORE, 1]]))
        assert cm.counts.sum() == 1

    def test_out_of_range_class_errors(self):
        cm = ConfusionMatrix(2)
        with pytest.raises(ValueError, match="outside"):
            cm.accumulate(np.array([[2]]), np.array([[0]]))
        with pytest.raises(ValueError, match="outside"):
            cm.accumulate(np.array([[0]]), np.array([[5]]))

    def test_shape_mismatch_errors(self):
        cm = ConfusionMatrix(2)
        with pytest.raises(ValueError, match="shapes"):
            cm.accumulate(np.zeros((2, 2), int), np.zeros((2, 3), int))


class TestMiou:
    def test_perfect_diagonal_is_one(self):
        cm = ConfusionMatrix(3)
        cm.counts = np.diag([5, 2, 9]).astype(np.int64)
        per_class, m = miou(cm)
        assert per_class == [1.0, 1.0, 1.0]
        assert m == 1.0

    def test_uniform_confusion_hand_value(self):
        cm = ConfusionMatrix(2)
        cm.counts = np.array([[1, 1], [1, 1]], dtype=np.int64)
        per_class, m = miou(cm)
        # IoU_c = 1 / (2 + 2 - 1) = 1/3 for both classes
        assert per_class == pytest.approx([1 / 3, 1 / 3])
        assert m == pytest.approx(1 / 3)

    def test_absent_class_excluded_from_mean(self):
        cm = ConfusionMatrix(3)
        cm.counts = np.array([[4, 0, 0], [0, 2, 0], [0, 0, 0]], dtype=np.int64)
        per_class, m = miou(cm)
        assert np.isnan(per_class[2])
        assert m == 1.0

    def test_iou_bounds(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            cm = ConfusionMatrix(4)
            cm.counts = rng.integers(0, 50, size=(4, 4)).astype(np.int64)
            per_class, m = miou(cm)
            for v in per_class:
                assert np.isnan(v) or 0.0 <= v <= 1.0
            assert 0.0 <= m <= 1.0

    def test_label_permutation_permutes_ious(self):
        rng = np.random.default_rng(3)
        t = rng.integers(0, 3, size=(10, 10))
        p = rng.integers(0, 3, size=(10, 10))
        cm = ConfusionMatrix(3)
        cm.accumulate(p, t)
        per_class, m = miou(cm)
        perm = np.array([2, 0, 1])
        cm2 = ConfusionMatrix(3)
        cm2.accumulate(perm[p], perm[t])
        per_class2, m2 = miou(cm2)
        assert per_class2 == pytest.approx([per_class[i] for i in np.argsort(perm)])
        assert m2 == pytest.approx(m)

    def test_empty_matrix_errors(self):
        with pytest.raises(ValueError, match="no scored"):
            miou(ConfusionMatrix(2))
