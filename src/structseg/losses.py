"""The full loss stack: boundary-relaxed cross entropy for the labeled
branch, pixel-wise consistency against the guessed label, cosine-similarity
structure matching over all pixel pairs (reference form, tiny images only)
and its box-restricted pair-sampled form.
"""

from __future__ import annotations

import logging
import math

import numpy as np

from .cutmix import BoxSet, PairSet
from .maps import IGNORE, PredictionMap, check_label_map
from .tensor import (Tensor, clamp_min, div, log, matmul, mul, reshape,
                     scale, sqrt, square, sub, take_rows, transpose, tsum)

logger = logging.getLogger(__name__)

# Reference full-image pairwise loss is quadratic in pixel count; refuse
# anything beyond this many pixels.
FULL_PAIRWISE_PIXEL_CAP = 256

LOG_FLOOR = 1e-12


def window_class_mask(labels: np.ndarray, window: int, num_classes: int) -> np.ndarray:
    """(H,W,C) 0/1 mask of classes present in the w x w window around each
    pixel; windows clip at borders (one wider than the image spans all of
    it) and ignore-labeled pixels contribute nothing."""
    h, w = labels.shape
    onehot = (labels[:, :, None] == np.arange(num_classes)[None, None, :])
    mask = np.zeros((h, w, num_classes), dtype=bool)
    ry, rx = min(window // 2, h - 1), min(window // 2, w - 1)
    for dy in range(-ry, ry + 1):
        ys0, ys1 = max(0, dy), h + min(0, dy)
        yt0, yt1 = max(0, -dy), h - max(0, dy)
        for dx in range(-rx, rx + 1):
            xs0, xs1 = max(0, dx), w + min(0, dx)
            xt0, xt1 = max(0, -dx), w - max(0, dx)
            mask[yt0:yt1, xt0:xt1] |= onehot[ys0:ys1, xs0:xs1]
    return mask.astype(np.float64)


def relaxed_cross_entropy(probs: PredictionMap, labels: np.ndarray, window: int) -> Tensor:
    """-log of the probability mass on any class present in the local
    label window, averaged over non-ignore pixels. window=1 is standard
    cross entropy."""
    if window < 1 or window % 2 == 0:
        raise ValueError(f"relaxed_cross_entropy: window must be odd and >= 1, got {window}")
    labels = check_label_map(labels, probs.num_classes)
    if labels.shape != (probs.height, probs.width):
        raise ValueError(
            f"relaxed_cross_entropy: labels {labels.shape} do not match "
            f"predictions {(probs.height, probs.width)}")
    valid = labels != IGNORE
    n_valid = int(valid.sum())
    if n_valid == 0:
        raise ValueError("relaxed_cross_entropy: every pixel is ignored")
    window_mask = Tensor(window_class_mask(labels, window, probs.num_classes))
    in_window = tsum(mul(probs.probs, window_mask), axis=2)
    per_pixel = log(clamp_min(in_window, LOG_FLOOR))
    total = tsum(mul(per_pixel, Tensor(valid.astype(np.float64))))
    return scale(total, -1.0 / n_valid)


def consistency_loss(student: PredictionMap, guessed: PredictionMap) -> Tensor:
    """Mean over pixels of the squared L2 distance between student and
    guessed class vectors."""
    if student.shape != guessed.shape:
        raise ValueError(f"consistency_loss: shapes {student.shape} and {guessed.shape} differ")
    if guessed.probs.requires_grad:
        raise ValueError("consistency_loss: guessed label must not carry gradient")
    d = sub(student.probs, guessed.probs)
    return scale(tsum(square(d)), 1.0 / (student.height * student.width))


def cosine_similarity(pi, pj) -> float:
    """Cosine of the angle between two class vectors; in (0, 1] for
    probability vectors."""
    pi = np.asarray(pi, dtype=np.float64)
    pj = np.asarray(pj, dtype=np.float64)
    ni = math.sqrt(float(pi @ pi))
    nj = math.sqrt(float(pj @ pj))
    if ni == 0.0 or nj == 0.0:
        raise ValueError("cosine_similarity: zero-norm vector")
    return float(pi @ pj) / (ni * nj)


def _similarity_matrix(probs: Tensor) -> Tensor:
    h, w, c = probs.data.shape
    p = reshape(probs, (h * w, c))
    norms = sqrt(tsum(square(p), axis=1, keepdims=True))
    pn = div(p, norms)
    return matmul(pn, transpose(pn))


def structured_consistency_full(student: PredictionMap, teacher: PredictionMap) -> Tensor:
    """All-pairs cosine-similarity matching over the whole image,
    normalized by (H*W)^2. Quadratic cost; serves as the reference oracle
    for the box-restricted form and is capped to tiny images."""
    if student.shape != teacher.shape:
        raise ValueError(
            f"structured_consistency_full: shapes {student.shape} and {teacher.shape} differ")
    n_pixels = student.height * student.width
    if n_pixels > FULL_PAIRWISE_PIXEL_CAP:
        raise ValueError(
            f"structured_consistency_full: {n_pixels} pixels exceeds the "
            f"cap of {FULL_PAIRWISE_PIXEL_CAP}")
    a_s = _similarity_matrix(student.probs)
    a_t = _similarity_matrix(teacher.probs.detach())
    d = sub(a_s, a_t)
    return scale(tsum(square(d)), 1.0 / (n_pixels * n_pixels))


def _pair_cosines(p: Tensor, idx_i: np.ndarray, idx_j: np.ndarray) -> Tensor:
    pi = take_rows(p, idx_i)
    pj = take_rows(p, idx_j)
    dots = tsum(mul(pi, pj), axis=1)
    ni2 = tsum(square(pi), axis=1)
    nj2 = tsum(square(pj), axis=1)
    return div(dots, sqrt(mul(ni2, nj2)))


def _pair_cosines_np(p: np.ndarray, idx_i: np.ndarray, idx_j: np.ndarray) -> np.ndarray:
    # Gradient-free twin of _pair_cosines for the detached teacher side.
    # Routing the teacher through _pair_cosines(Tensor(p), ...) instead costs
    # 64 vs 23-30 us per call on 64-128 pairs (2-core CPU, numpy 2.4.6). The
    # structured-loss gradcheck of one seed makes ~385 such calls, so that
    # adds ~15 ms to a ~175 ms gradcheck-plus-oracle pass.
    pi = p[idx_i]
    pj = p[idx_j]
    dots = (pi * pj).sum(axis=1)
    return dots / np.sqrt((pi * pi).sum(axis=1) * (pj * pj).sum(axis=1))


def structured_consistency_box(student: PredictionMap, guessed: PredictionMap,
                               boxset: BoxSet, pairs: PairSet) -> Tensor:
    """Box-restricted structured consistency: per active box, the mean
    squared difference of pair cosine similarities between student and
    guessed predictions over the sampled pairs, averaged over boxes with
    at least one pair."""
    if student.shape != guessed.shape:
        raise ValueError(
            f"structured_consistency_box: shapes {student.shape} and {guessed.shape} differ")
    if guessed.probs.requires_grad:
        raise ValueError("structured_consistency_box: guessed label must not carry gradient")
    if (student.height, student.width) != (boxset.height, boxset.width):
        raise ValueError(
            f"structured_consistency_box: predictions {student.shape[:2]} do not "
            f"match boxes {(boxset.height, boxset.width)}")
    nonempty = [bp for bp in pairs.per_box if len(bp) > 0]
    if not nonempty:
        logger.warning("structured_consistency_box: every active box has an "
                       "empty pair list, returning 0")
        return Tensor(0.0)
    hw = student.height * student.width
    c = student.num_classes
    p_s = reshape(student.probs, (hw, c))
    p_t = guessed.probs.data.reshape(hw, c)
    # The double average (over boxes, then over a box's pairs) is a linear
    # weighting, so all boxes evaluate as one concatenated batch.
    n_boxes = len(nonempty)
    idx_i = np.concatenate([bp.i for bp in nonempty])
    idx_j = np.concatenate([bp.j for bp in nonempty])
    weights = np.concatenate(
        [np.full(len(bp), 1.0 / (n_boxes * len(bp))) for bp in nonempty])
    a_s = _pair_cosines(p_s, idx_i, idx_j)
    a_t = _pair_cosines_np(p_t, idx_i, idx_j)
    d = sub(a_s, Tensor(a_t))
    return tsum(mul(square(d), Tensor(weights)))
