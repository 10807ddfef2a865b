"""Confusion matrix and intersection-over-union scoring."""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from .maps import IGNORE


class ConfusionMatrix:
    """C x C counts, rows ground truth, columns prediction; ignore-labeled
    pixels are never scored."""

    def __init__(self, num_classes: int):
        if num_classes < 1:
            raise ValueError(f"ConfusionMatrix: need at least one class, got {num_classes}")
        self.num_classes = num_classes
        self.counts = np.zeros((num_classes, num_classes), dtype=np.int64)

    def accumulate(self, predicted: np.ndarray, truth: np.ndarray) -> None:
        predicted = np.asarray(predicted)
        truth = np.asarray(truth)
        if predicted.shape != truth.shape:
            raise ValueError(
                f"accumulate: shapes {predicted.shape} and {truth.shape} differ")
        scored = truth != IGNORE
        p = predicted[scored].ravel()
        t = truth[scored].ravel()
        if p.size and (p.min() < 0 or p.max() >= self.num_classes):
            raise ValueError(f"accumulate: predicted class outside [0, {self.num_classes})")
        if t.size and (t.min() < 0 or t.max() >= self.num_classes):
            raise ValueError(f"accumulate: truth class outside [0, {self.num_classes})")
        c = self.num_classes
        self.counts += np.bincount(t.astype(np.int64) * c + p, minlength=c * c).reshape(c, c)


def miou(cm: ConfusionMatrix) -> Tuple[List[float], float]:
    """Per-class IoU (nan for classes absent from both truth and
    prediction, excluded from the mean) and the mean over present classes."""
    counts = cm.counts
    if counts.sum() == 0:
        raise ValueError("miou: no scored pixels")
    diag = np.diag(counts).astype(np.float64)
    rows = counts.sum(axis=1).astype(np.float64)
    cols = counts.sum(axis=0).astype(np.float64)
    union = rows + cols - diag
    present = union > 0
    if not present.any():
        raise ValueError("miou: every class absent from both truth and prediction")
    per_class = np.full(cm.num_classes, np.nan)
    per_class[present] = diag[present] / union[present]
    return per_class.tolist(), float(np.mean(per_class[present]))
