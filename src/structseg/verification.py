"""Finite-difference gradient checking and the pairwise-loss oracle
comparison, shared by the CLI and the test suite.

The numerical oracle is central differences at h=1e-3 in float64; the
reported error for a loss is max|analytic - numeric| normalized by the
largest gradient component, so near-zero entries are judged against the
gradient's scale rather than against themselves. The losses accept
stacks of maps, so one call gives the differences of a whole input slice.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .cutmix import Box, boxset_from_boxes, drop_pairs, generate_boxes
from .losses import (WindowTarget, consistency_loss, relaxed_cross_entropy,
                     structured_consistency_box, structured_consistency_full)
from .maps import IGNORE, PredictionMap
from .tensor import Tensor, backward, tape

FD_STEP = 1e-3
GRAD_TOLERANCE = 1e-4
ORACLE_TOLERANCE = 1e-10

# Negative control for gradient checking: the recorded backward rule of
# every op with this name scales its incoming gradient by 1.01;
# CORRUPTED_NODES counts the nodes it reached.
CORRUPT_OP: Optional[str] = None
CORRUPTED_NODES = 0


def numerical_gradient(f: Callable[[np.ndarray], np.ndarray], x0: np.ndarray,
                       h: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array. ``f``
    maps a stack (k, *x0.shape) to its k values; each call takes the rows
    x0 + h e_j, then x0 - h e_j, for the n entries j of one slice x0[i]."""
    g = np.empty(x0.shape)
    n = x0[0].size
    k = np.arange(n)
    for i in range(len(x0)):
        stack = np.repeat(x0[None], 2 * n, axis=0)
        stack.reshape(2, n, len(x0), n)[:, k, i, k] += [[h], [-h]]
        values = f(stack)
        g[i] = ((values[:n] - values[n:]) / (2.0 * h)).reshape(g[i].shape)
    return g


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray,
                  loss_value: float = 0.0) -> float:
    """max|analytic - numeric| over the gradient's scale, with the scale
    floored at the rounding noise of the central differences.

    Each loss value carries rounding of about eps * max(1, |f|), and the
    central difference divides the difference of two of them by 2h, so the
    numeric gradient is only known to about eps * max(1, |f|) / h. A
    gradient smaller than that noise over GRAD_TOLERANCE (an identically
    zero one, where the loss is constant) is judged against that floor, so
    that rounding alone stays below the tolerance while any discrepancy
    larger than the noise still fails.
    """
    noise = np.finfo(np.float64).eps * max(1.0, abs(loss_value)) / FD_STEP
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), noise / GRAD_TOLERANCE)
    return float(np.abs(analytic - numeric).max() / scale)


def _random_probs(rng: np.random.Generator, shape) -> PredictionMap:
    logits = Tensor(rng.normal(size=shape))
    return PredictionMap.from_logits(logits)


def _loss_grad_error(loss_of_logits: Callable[[Tensor], Tensor],
                     logits0: np.ndarray) -> float:
    global CORRUPTED_NODES
    t = Tensor(logits0, requires_grad=True)
    loss = loss_of_logits(t)
    for node in tape().nodes:
        if node.op == CORRUPT_OP:
            CORRUPTED_NODES += 1
            node.backward = lambda g, inner=node.backward: inner(g * 1.01)
    backward(loss)
    analytic = t.grad.copy()

    def f(x: np.ndarray) -> np.ndarray:
        return loss_of_logits(Tensor(x)).data

    return max_rel_error(analytic, numerical_gradient(f, logits0), loss.item())


def check_relaxed_ce(seed: int, window: int, shape=(8, 8, 3)) -> float:
    rng = np.random.default_rng(seed)
    h, w, c = shape
    logits0 = rng.normal(size=shape)
    labels = rng.integers(0, c, size=(h, w))
    if rng.random() < 0.5:  # exercise the ignore path some of the time
        labels[rng.integers(0, h), rng.integers(0, w)] = IGNORE
    target = WindowTarget(labels, window, c)

    def loss(t: Tensor) -> Tensor:
        return relaxed_cross_entropy(PredictionMap.from_logits(t), target, window)

    return _loss_grad_error(loss, logits0)


def check_consistency(seed: int, shape=(8, 8, 3)) -> float:
    rng = np.random.default_rng(seed)
    logits0 = rng.normal(size=shape)
    guessed = _random_probs(rng, shape)

    def loss(t: Tensor) -> Tensor:
        return consistency_loss(PredictionMap.from_logits(t), guessed)

    return _loss_grad_error(loss, logits0)


def check_structured_box(seed: int, shape=(8, 8, 3), n_boxes: int = 4,
                         n_active: int = 2, budget: int = 64) -> float:
    rng = np.random.default_rng(seed)
    h, w, _ = shape
    logits0 = rng.normal(size=shape)
    guessed = _random_probs(rng, shape)
    boxset = generate_boxes(rng, h, w, n_boxes, n_box=n_active)
    pairs = drop_pairs(boxset, budget, rng)

    def loss(t: Tensor) -> Tensor:
        return structured_consistency_box(
            PredictionMap.from_logits(t), guessed, boxset, pairs)

    return _loss_grad_error(loss, logits0)


LOSS_CHECKS: Dict[str, Callable[[int], float]] = {
    "relaxed_ce_w1": lambda seed: check_relaxed_ce(seed, window=1),
    "relaxed_ce_w3": lambda seed: check_relaxed_ce(seed, window=3),
    "consistency": check_consistency,
    "structured_box": check_structured_box,
    # an 8x8 region has at most 64**2 pairs, so this budget never binds
    # and every box takes the exact per-box path
    "structured_exact": lambda seed: check_structured_box(seed, budget=64 ** 2),
    # every box with two or more pixels is sampled
    "structured_sampled": lambda seed: check_structured_box(seed, budget=1),
}


def run_gradcheck(n_seeds: int = 20, seed0: int = 0) -> Dict[str, float]:
    """Worst finite-difference error per loss over n_seeds random inputs."""
    report = {}
    for name, check in LOSS_CHECKS.items():
        report[name] = max(check(seed0 + s) for s in range(n_seeds))
    return report


# ---------------------------------------------------------------------------
# pairwise-loss oracle
# ---------------------------------------------------------------------------

def strip_tiling_boxset(height: int, width: int, n_strips: int):
    """Exhaustive non-overlapping horizontal strips covering the image."""
    if height % n_strips != 0:
        raise ValueError(f"{n_strips} strips do not tile height {height}")
    sh = height // n_strips
    boxes = [Box(x0=0, y0=k * sh, w=width, h=sh, paste_index=k + 1)
             for k in range(n_strips)]
    return boxset_from_boxes(boxes, height, width, n_box=n_strips)


def _crop_map(pm: PredictionMap, box: Box) -> PredictionMap:
    sub = pm.probs.data[box.y0:box.y0 + box.h, box.x0:box.x0 + box.w, :]
    return PredictionMap(Tensor(sub), validate=False)


def oracle_comparison(seed: int, height: int = 6, width: int = 6,
                      num_classes: int = 3, n_strips: int = 3) -> Tuple[float, float]:
    """Fast box-restricted loss (full budget, exhaustive boxes) against the
    per-box full-image reference; returns (fast, reference)."""
    rng = np.random.default_rng(seed)
    student = _random_probs(rng, (height, width, num_classes))
    guessed = _random_probs(rng, (height, width, num_classes))
    boxset = strip_tiling_boxset(height, width, n_strips)
    budget = (height * width) ** 2 + 1  # never binds
    pairs = drop_pairs(boxset, budget, rng)
    fast = structured_consistency_box(student, guessed, boxset, pairs).item()
    ref = float(np.mean([
        structured_consistency_full(_crop_map(student, b), _crop_map(guessed, b)).item()
        for b in boxset.boxes]))
    return fast, ref


def run_oracle(n_seeds: int = 50, seed0: int = 0) -> float:
    return max(abs(f - r) for f, r in
               (oracle_comparison(seed0 + s) for s in range(n_seeds)))


def pair_reduction_report(height: int = 1024, width: int = 2048,
                          n_boxes: int = 32, n_active: int = 16, budget: int = 9000,
                          num_classes: int = 19, seed: int = 0) -> List[str]:
    """Pair counts of one box set that ``generate_boxes`` draws from
    ``seed`` at production geometry, from its active boxes' effective
    region sizes m: full enumeration takes sum m^2 pairs, the loss
    sum min(m^2, budget), and the exact form's Grams scale as sum m*C^2."""
    boxset = generate_boxes(seed, height, width, n_boxes, n_box=n_active)
    lo, hi = boxset.active_range
    m = np.array([len(r) for r in boxset.effective_regions[lo - 1:hi]], dtype=np.int64)
    enumerated, used = int((m * m).sum()), int(np.minimum(m * m, budget).sum())
    return [
        f"geometry: {width}x{height}, {num_classes} classes, {n_boxes} boxes "
        f"({n_active} active, {int(m.sum()):,} rows, {int((m == 0).sum())} empty) "
        f"drawn from seed {seed}, pair budget {budget}",
        f"full enumeration: sum m^2 = {enumerated:,} pairs",
        f"budgeted pairs: sum min(m^2, {budget}) = {used:,}",
        f"reduction factor: {enumerated / max(used, 1):,.1f}x",
        f"exact Gram form: sum m*C^2 = {int(m.sum()) * num_classes ** 2:,} multiply-adds per Gram",
    ]
