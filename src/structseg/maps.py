"""Per-pixel prediction and label map types shared across modules."""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, class_sum, softmax

# Sentinel for pixels excluded from supervision and scoring.
IGNORE = -1


class PredictionMap:
    """H x W x C field of per-pixel class probabilities, or a stack of
    them (..., H, W, C).

    Wraps the tensor produced by a channel softmax; every entry must be
    >= 0 and every pixel's class vector sum to 1 within 1e-9, so NaN and
    Inf fail.
    """

    def __init__(self, probs: Tensor, validate: bool = True):
        if probs.data.ndim < 3:
            raise ValueError(f"PredictionMap: expects (..., H,W,C), got {probs.shape}")
        p = probs.data
        if validate and not (np.all(p >= 0.0) and np.all(np.abs(class_sum(p) - 1.0) <= 1e-9)):
            raise ValueError("PredictionMap: pixel class vectors must be a probability simplex")
        self.probs = probs

    @classmethod
    def from_logits(cls, logits: Tensor) -> "PredictionMap":
        return cls(softmax(logits), validate=False)

    @property
    def height(self) -> int:
        return self.probs.data.shape[-3]

    @property
    def width(self) -> int:
        return self.probs.data.shape[-2]

    @property
    def num_classes(self) -> int:
        return self.probs.data.shape[-1]

    @property
    def shape(self) -> tuple:
        return self.probs.data.shape

    def detach(self) -> "PredictionMap":
        return PredictionMap(self.probs.detach(), validate=False)


def check_label_map(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Validate an H x W integer label map (IGNORE sentinel allowed)."""
    labels = np.asarray(labels)
    if labels.ndim != 2:
        raise ValueError(f"label map must be 2-D, got shape {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"label map must be integer, got dtype {labels.dtype}")
    scored = labels[labels != IGNORE]
    if scored.size and (scored.min() < 0 or scored.max() >= num_classes):
        raise ValueError(
            f"label map contains class {int(scored.max())} outside [0, {num_classes})")
    return labels
