"""The full loss stack: boundary-relaxed cross entropy for the labeled
branch, pixel-wise consistency against the guessed label, cosine-similarity
structure matching over all pixel pairs (reference form, tiny images only)
and its box-restricted form.

The box-restricted loss is two hand-differentiated tape nodes. Boxes whose
m*m ordered pairs all fit the pair budget go through an exact per-box Gram
identity costing O(m*C^2); boxes with sampled pairs go through one fused
node over their pair list.
"""

from __future__ import annotations

import logging

import numpy as np

from .cutmix import BoxSet, PairSet
from .maps import IGNORE, PredictionMap, check_label_map
from .tensor import (Tensor, clamp_min, custom_op, div, log, matmul, mul,
                     reshape, scale, sqrt, square, sub, transpose, tsum)

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


def _unit_rows(p: np.ndarray):
    norms = np.sqrt((p * p).sum(axis=1, keepdims=True))
    return p / norms, norms


def _exact_boxes(probs: Tensor, p_t: np.ndarray, boxes, n_boxes: int) -> Tensor:
    """Sum over boxes b of ||S S^T - T T^T||_F^2 / (n_boxes * m_b^2), with
    S and T the m_b x C row-normalized student and guessed rows of the
    box's effective region: its mean over all m_b^2 ordered pairs.

    With X = S - T and Y = S + T, S S^T - T T^T = (X Y^T + Y X^T) / 2, so
    the squared norm is tr((Y^T X)^2) / 2 + <X^T X, Y^T Y>_F / 2, made of
    C x C Gram matrices only. At S == T, X is exactly 0, and so are the
    value and the gradient. Regions are disjoint, so the boxes' rows are
    gathered once and each box is a segment of them.
    """
    p_s = probs.data.reshape(p_t.shape)
    sizes = np.array([len(bp.region) for bp in boxes])
    rows = np.concatenate([bp.region for bp in boxes])
    starts = np.cumsum(sizes) - sizes
    box_of_row = np.repeat(np.arange(len(boxes)), sizes)
    weights = 1.0 / (n_boxes * sizes.astype(np.float64) ** 2)
    s_hat, s_norms = _unit_rows(p_s.take(rows, axis=0))
    t_hat, _ = _unit_rows(p_t.take(rows, axis=0))
    x = s_hat - t_hat
    y = s_hat + t_hat

    def gram(a, b):  # per box, a_b^T b_b
        return np.add.reduceat(a[:, :, None] * b[:, None, :], starts, axis=0)

    yx, xx, yy = gram(y, x), gram(x, x), gram(y, y)
    per_box = np.einsum("bij,bji->b", yx, yx) + (xx * yy).sum(axis=(1, 2))

    def grad_of(g):
        # d/dS = 2 (X (Y^T S) + Y (X^T S)) per box, with Y^T S = (Y^T Y +
        # Y^T X) / 2 and X^T S = (X^T X + X^T Y) / 2 since S = (X + Y) / 2
        k_x = (yy + yx)[box_of_row]
        k_y = (xx + yx.transpose(0, 2, 1))[box_of_row]
        g_hat = (g * weights)[box_of_row, None] * (
            np.einsum("nc,ncd->nd", x, k_x) + np.einsum("nc,ncd->nd", y, k_y))
        # back through the row normalization s / |s|
        g_rows = (g_hat - s_hat * (s_hat * g_hat).sum(axis=1, keepdims=True)) / s_norms
        grad = np.zeros_like(p_s)
        grad[rows] = g_rows
        return grad.reshape(probs.data.shape)

    return custom_op("structured_exact", 0.5 * (weights @ per_box), probs, grad_of)


def _pair_cosines(p: np.ndarray, idx_i: np.ndarray, idx_j: np.ndarray):
    """Cosines of the pixel pairs (p[idx_i[k]], p[idx_j[k]]), with the
    gathered rows and their squared norms. A squared norm is the same row
    sum whether taken per pixel or per pair, so it is taken per pixel and
    gathered; ``take`` gathers rows several times faster than indexing."""
    sq_norms = (p * p).sum(axis=1)
    pi = p.take(idx_i, axis=0)
    pj = p.take(idx_j, axis=0)
    ni2 = sq_norms.take(idx_i)
    nj2 = sq_norms.take(idx_j)
    return (pi * pj).sum(axis=1) / np.sqrt(ni2 * nj2), pi, pj, ni2, nj2


def _sampled_pairs(probs: Tensor, p_t: np.ndarray, boxes, n_boxes: int) -> Tensor:
    """Sum over boxes b and their sampled pairs (i, j) of (cos_s(i, j) -
    cos_t(i, j))^2 / (n_boxes * n_b), n_b being the box's pair count."""
    p_s = probs.data.reshape(p_t.shape)
    idx_i = np.concatenate([bp.i for bp in boxes])
    idx_j = np.concatenate([bp.j for bp in boxes])
    weights = np.concatenate(
        [np.full(len(bp), 1.0 / (n_boxes * len(bp))) for bp in boxes])
    cos, pi, pj, ni2, nj2 = _pair_cosines(p_s, idx_i, idx_j)
    d = cos - _pair_cosines(p_t, idx_i, idx_j)[0]

    def grad_of(g):
        # d cos / d pi = pj / (|pi| |pj|) - cos pi / |pi|^2, and symmetrically;
        # one class column at a time, since broadcasting a per-pair factor
        # over a few classes runs numpy's inner loops a few elements long
        gd = 2.0 * g * weights * d
        g_cross = gd / np.sqrt(ni2 * nj2)
        g_ii = gd * cos / ni2
        g_jj = gd * cos / nj2
        idx = np.concatenate([idx_i, idx_j])
        grad = np.empty_like(p_s)
        # scatter-add with repeated rows; bincount per column beats np.add.at
        for c in range(grad.shape[1]):
            g_pairs = np.concatenate([g_cross * pj[:, c] - g_ii * pi[:, c],
                                      g_cross * pi[:, c] - g_jj * pj[:, c]])
            grad[:, c] = np.bincount(idx, weights=g_pairs, minlength=len(grad))
        return grad.reshape(probs.data.shape)

    return custom_op("structured_sampled", (d * d * weights).sum(), probs, grad_of)


def structured_consistency_box(student: PredictionMap, guessed: PredictionMap,
                               boxset: BoxSet, pairs: PairSet) -> Tensor:
    """Box-restricted structured consistency: per active box, the mean
    squared difference of pair cosine similarities between student and
    guessed predictions over its pairs (all m*m of them, or the sampled
    ones), averaged over boxes with at least one pair."""
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
    p_t = guessed.probs.data.reshape(-1, guessed.num_classes)
    # The double average (over boxes, then over a box's pairs) is a linear
    # weighting, so each path sums its boxes' weighted terms in one node.
    n_boxes = len(nonempty)
    exact = [bp for bp in nonempty if bp.q is None]
    sampled = [bp for bp in nonempty if bp.q is not None]
    parts = [node(student.probs, p_t, group, n_boxes)
             for node, group in ((_exact_boxes, exact), (_sampled_pairs, sampled)) if group]
    return parts[0] if len(parts) == 1 else parts[0] + parts[1]
