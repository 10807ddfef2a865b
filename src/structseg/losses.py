"""The full loss stack: boundary-relaxed cross entropy for the labeled
branch, pixel-wise consistency against the guessed label, cosine-similarity
structure matching over all pixel pairs (reference form, tiny images only)
and its box-restricted form.

Each training loss is one hand-differentiated tape node (``relaxed_ce``,
``consistency``, ``structured_box``) that computes its value and its
gradient on the probabilities in numpy. The full-image reference is value
only.

The box-restricted loss row-normalizes the student's and the guessed
probabilities once; boxes whose m*m ordered pairs all fit the pair budget
add an exact term from three C x C Gram matrices of their own rows, costing
O(m*C^2), boxes with sampled pairs add their pairs' squared differences of
dot products on the same unit rows, and one backward pass goes through the
normalization for both.

What depends only on the labels (``WindowTarget``) or only on the pairs
(``PairSet.layout``) is built once per label map or pair set, so repeated
evaluations, such as a gradient check's, redo only the probability part.
"""

from __future__ import annotations

import logging
from typing import Union

import numpy as np

from .cutmix import BoxSet, PairSet
from .maps import IGNORE, PredictionMap, check_label_map
from .tensor import Tensor, class_sum, custom_op

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


class WindowTarget:
    """The label-only inputs of ``relaxed_cross_entropy`` for one label
    map and window: the checked labels, the 0/1 weights of non-ignore
    pixels, 1 / their count and the window class mask. Build it once to
    evaluate the loss many times on the same labels."""

    def __init__(self, labels: np.ndarray, window: int, num_classes: int):
        if window < 1 or window % 2 == 0:
            raise ValueError(f"relaxed_cross_entropy: window must be odd and >= 1, got {window}")
        self.labels = check_label_map(labels, num_classes)
        self.window = window
        self.valid = (self.labels != IGNORE).astype(np.float64)
        n_valid = int(self.valid.sum())
        if n_valid == 0:
            raise ValueError("relaxed_cross_entropy: every pixel is ignored")
        self.inv_valid = 1.0 / n_valid
        self.mask = window_class_mask(self.labels, window, num_classes)


def relaxed_cross_entropy(probs: PredictionMap, labels: Union[np.ndarray, WindowTarget],
                          window: int) -> Tensor:
    """-log of the probability mass on any class present in the local
    label window, averaged over non-ignore pixels. window=1 is standard
    cross entropy. ``labels`` is a label map or a ``WindowTarget`` built
    for this window and these predictions."""
    target = (labels if isinstance(labels, WindowTarget)
              else WindowTarget(labels, window, probs.num_classes))
    if target.window != window:
        raise ValueError(
            f"relaxed_cross_entropy: target built for window {target.window}, got {window}")
    if target.mask.shape != probs.shape[-3:]:
        raise ValueError(
            f"relaxed_cross_entropy: labels {target.labels.shape} of "
            f"{target.mask.shape[2]} classes do not match predictions {probs.shape}")
    valid, mask = target.valid, target.mask
    s = -target.inv_valid
    in_window = class_sum(probs.probs.data * mask)[..., 0]
    clamped = np.maximum(in_window, LOG_FLOOR)

    def grad_of(g):
        # zero where the floor binds, as the clamp's derivative is
        return (g * s * valid / clamped * (in_window > LOG_FLOOR))[:, :, None] * mask

    value = (np.log(clamped) * valid).sum(axis=(-2, -1)) * s
    return custom_op("relaxed_ce", value, probs.probs, grad_of)


def consistency_loss(student: PredictionMap, guessed: PredictionMap) -> Tensor:
    """Mean over pixels of the squared L2 distance between student and
    guessed class vectors."""
    if student.shape[-3:] != guessed.shape:
        raise ValueError(f"consistency_loss: shapes {student.shape} and {guessed.shape} differ")
    if guessed.probs.requires_grad:
        raise ValueError("consistency_loss: guessed label must not carry gradient")
    d = student.probs.data - guessed.probs.data
    c = 1.0 / (student.height * student.width)
    return custom_op("consistency", (d * d).sum(axis=(-3, -2, -1)) * c, student.probs,
                     lambda g: g * c * 2.0 * d)


def _unit_rows(p: np.ndarray):
    norms = np.sqrt(class_sum(p * p))
    return p / norms, norms


def structured_consistency_full(student: PredictionMap, teacher: PredictionMap) -> Tensor:
    """All-pairs cosine-similarity matching over the whole image,
    normalized by (H*W)^2. Quadratic cost and value only; serves as the
    reference oracle for the box-restricted form and is capped to tiny
    images."""
    if student.shape != teacher.shape:
        raise ValueError(
            f"structured_consistency_full: shapes {student.shape} and {teacher.shape} differ")
    n_pixels = student.height * student.width
    if n_pixels > FULL_PAIRWISE_PIXEL_CAP:
        raise ValueError(
            f"structured_consistency_full: {n_pixels} pixels exceeds the "
            f"cap of {FULL_PAIRWISE_PIXEL_CAP}")
    s_hat, _ = _unit_rows(student.probs.data.reshape(-1, student.num_classes))
    t_hat, _ = _unit_rows(teacher.probs.data.reshape(-1, teacher.num_classes))
    # .copy(): numpy sends q @ q.T to a symmetric-product BLAS kernel that rounds differently
    d = s_hat @ s_hat.T.copy() - t_hat @ t_hat.T.copy()
    return Tensor((d * d).sum() * (1.0 / (n_pixels * n_pixels)))


def structured_consistency_box(student: PredictionMap, guessed: PredictionMap,
                               boxset: BoxSet, pairs: PairSet) -> Tensor:
    """Box-restricted structured consistency: per active box, the mean
    squared difference of pair cosine similarities between student and
    guessed predictions over its pairs (all m*m of them, or the sampled
    ones), averaged over boxes with at least one pair."""
    if student.shape[-3:] != guessed.shape:
        raise ValueError(
            f"structured_consistency_box: shapes {student.shape} and {guessed.shape} differ")
    if guessed.probs.requires_grad:
        raise ValueError("structured_consistency_box: guessed label must not carry gradient")
    if (student.height, student.width) != (boxset.height, boxset.width):
        raise ValueError(
            f"structured_consistency_box: predictions {student.shape[-3:-1]} do not "
            f"match boxes {(boxset.height, boxset.width)}")
    lay = pairs.layout
    if lay.n_boxes == 0:
        logger.warning("structured_consistency_box: every active box has an "
                       "empty pair list, returning 0")
        return Tensor(np.zeros(student.shape[:-3]))
    # The double average (over boxes, then over a box's pairs) is a linear
    # weighting, so every box adds its weighted term to one node.
    exact, sampled = len(lay.box_w) > 0, len(lay.pair_w) > 0
    s_hat, s_norms = _unit_rows(student.probs.data.reshape(
        *student.shape[:-3], -1, student.num_classes))
    t_hat, _ = _unit_rows(guessed.probs.data.reshape(-1, guessed.num_classes))
    terms = []
    if exact:
        # ||S S^T - T T^T||_F^2 per box, S and T its m x C unit rows: with
        # X = S - T and Y = S + T, S S^T - T T^T = (X Y^T + Y X^T) / 2, so
        # it is tr((Y^T X)^2) / 2 + <X^T X, Y^T Y>_F / 2, made of C x C Gram
        # matrices only, and exactly 0 at S == T.
        grams = []
        for region in lay.regions:
            s_b, t_b = s_hat[..., region, :], t_hat[region]
            x, y = s_b - t_b, s_b + t_b
            xt, yt = x.swapaxes(-1, -2), y.swapaxes(-1, -2)
            grams.append((region, x, y, yt @ x, xt @ x, yt @ y))
        per_box = np.stack([(yx * yx.swapaxes(-1, -2)).sum(axis=(-2, -1))
                            + (xx * yy).sum(axis=(-2, -1)) for *_, yx, xx, yy in grams], -1)
        # a row times a column, which keeps a dot product's bits on a stack too
        terms.append(0.5 * np.matmul(per_box[..., None, :], lay.box_w[:, None])[..., 0, 0])
    if sampled:
        # (s_i . s_j - t_i . t_j)^2 per sampled pair, over its box's pair count;
        # two (n, C) gathers at a time, s_j becoming delta = s_j - s_i in place
        t_dots = np.einsum("nc,nc->n", t_hat.take(lay.i, axis=0), t_hat.take(lay.j, axis=0))
        s_i, delta = s_hat.take(lay.i, axis=-2), s_hat.take(lay.j, axis=-2)
        d = np.einsum("...nc,...nc->...n", s_i, delta) - t_dots
        delta -= s_i  # all the backward pass reads of s_i and s_j
        terms.append((d * d * lay.pair_w).sum(axis=-1))

    def grad_of(g):
        g_hat = np.zeros_like(s_hat)
        if exact:
            # d/dS = 2 (X (Y^T S) + Y (X^T S)) per box, with Y^T S = (Y^T Y +
            # Y^T X) / 2 and X^T S = (X^T X + X^T Y) / 2 since S = (X + Y) / 2.
            # Regions are disjoint, so each box writes its own rows
            for w, (region, x, y, yx, xx, yy) in zip(g * lay.box_w, grams):
                g_hat[region] = w * (x @ (yy + yx) + y @ (xx + yx.T))
        if sampled:
            # d(s_i . s_j)/ds_i = s_j on unit rows. Only the part orthogonal
            # to s_i survives the normalization backward, so row i takes
            # s_j - s_i and row j takes s_i - s_j, which cancel less. Scatter-
            # add with repeated rows, one bincount per class (beats np.add.at)
            gd = 2.0 * g * lay.pair_w * d
            idx = np.concatenate([lay.i, lay.j])
            for c in range(g_hat.shape[1]):
                g_hat[:, c] += np.bincount(idx, weights=np.concatenate(
                    [gd * delta[:, c], -gd * delta[:, c]]), minlength=len(g_hat))
        # back through the row normalization s / |s|, once for both groups
        grad = (g_hat - s_hat * class_sum(s_hat * g_hat)) / s_norms
        return grad.reshape(student.probs.data.shape)

    value = terms[0] if len(terms) == 1 else terms[0] + terms[1]
    return custom_op("structured_box", value, student.probs, grad_of)
