"""CutMix box geometry: random box sets, mask composition, effective
regions with covered-region exclusion, and budgeted pair selection.

Boxes are pasted in order; a pixel belongs to the effective region of the
box that pasted it last, so regions tile the composed mask disjointly.
Per box, the pair selector keeps every ordered pixel pair when they fit a
fixed budget, recorded as the region alone, and otherwise samples flat
pair indices; neither builds the full pair universe.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, NamedTuple, Optional, Sequence, Union

import numpy as np

from .maps import PredictionMap
from .tensor import Tensor

logger = logging.getLogger(__name__)

COVERAGE_LOW = 0.45
COVERAGE_HIGH = 0.55
MAX_COVERAGE_ATTEMPTS = 100


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle; paste_index is 1-based position in paste order."""
    x0: int
    y0: int
    w: int
    h: int
    paste_index: int

    def validate(self, height: int, width: int) -> None:
        if self.w < 1 or self.h < 1:
            raise ValueError(f"box {self.paste_index}: extents must be >= 1, got {self.w}x{self.h}")
        if self.x0 < 0 or self.y0 < 0 or self.x0 + self.w > width or self.y0 + self.h > height:
            raise ValueError(
                f"box {self.paste_index}: [{self.x0},{self.y0},{self.w},{self.h}] "
                f"outside {width}x{height} image")


@dataclass
class BoxSet:
    """Ordered boxes plus the composed mask and per-box effective regions.

    mask is 1 where a pixel comes from the pasted image; effective_regions
    holds flat pixel indices of each box minus later-pasted boxes; boxes
    with paste indices in active_range (inclusive) feed the structured
    loss.
    """
    boxes: List[Box]
    mask: np.ndarray
    effective_regions: List[np.ndarray]
    active_range: tuple
    height: int
    width: int
    seed: Optional[int] = None
    coverage_warning: Optional[str] = None

    @property
    def coverage(self) -> float:
        return float(self.mask.sum()) / (self.height * self.width)

    def to_json(self) -> str:
        return json.dumps({
            "height": self.height,
            "width": self.width,
            "seed": self.seed,
            "active_range": list(self.active_range),
            "coverage_warning": self.coverage_warning,
            "boxes": [[b.x0, b.y0, b.w, b.h, b.paste_index] for b in self.boxes],
        }, sort_keys=True)


@dataclass
class BoxPairs:
    """Ordered pixel pairs of one active box's effective region (flat
    pixel indices): all m*m of them when ``q`` is None, else the sampled
    flat pairs ``q``, pair q being (region[q // m], region[q % m])."""
    paste_index: int
    region: np.ndarray
    q: Optional[np.ndarray] = None

    @property
    def i(self) -> np.ndarray:
        if self.q is None:
            return np.repeat(self.region, len(self.region))
        return self.region[self.q // len(self.region)]

    @property
    def j(self) -> np.ndarray:
        if self.q is None:
            return np.tile(self.region, len(self.region))
        return self.region[self.q % len(self.region)]

    def __len__(self) -> int:
        return len(self.region) ** 2 if self.q is None else len(self.q)


class PairLayout(NamedTuple):
    """A pair set gathered for a loss that averages over the boxes with at
    least one pair, then over each box's pairs, so that a pair of a box
    with n pairs weighs 1 / (n_boxes * n).

    Boxes that keep all m*m pairs are their effective ``regions``, each
    pair of region k weighing ``box_w[k]``; sampled pairs are ``i``, ``j``
    with weights ``pair_w``. A part no box takes is empty."""
    n_boxes: int
    regions: List[np.ndarray]
    box_w: np.ndarray
    i: np.ndarray
    j: np.ndarray
    pair_w: np.ndarray


@dataclass
class PairSet:
    """Ordered pixel pairs per active box under a shared budget: every
    pair of a box whose pairs fit it, a uniform sample of the rest."""
    per_box: List[BoxPairs] = field(default_factory=list)
    budget: int = 0

    @property
    def total_pairs(self) -> int:
        return sum(len(bp) for bp in self.per_box)

    def counts(self) -> List[int]:
        return [len(bp) for bp in self.per_box]

    @cached_property
    def layout(self) -> PairLayout:
        """The gathered layout, built on first use, so that a loss
        evaluated many times on one pair set gathers it once; ``per_box``
        must not change after that."""
        nonempty = [bp for bp in self.per_box if len(bp) > 0]
        n_boxes = len(nonempty)
        exact = [bp for bp in nonempty if bp.q is None]
        sampled = [bp for bp in nonempty if bp.q is not None]
        no_rows = [np.empty(0, dtype=np.int64)]  # so that an unused part is empty
        sizes = np.array([len(bp.region) for bp in exact], dtype=np.float64)
        return PairLayout(
            n_boxes=n_boxes,
            regions=[bp.region for bp in exact],
            box_w=1.0 / (n_boxes * sizes ** 2),
            i=np.concatenate(no_rows + [bp.i for bp in sampled]),
            j=np.concatenate(no_rows + [bp.j for bp in sampled]),
            pair_w=np.concatenate([np.empty(0)] + [
                np.full(len(bp), 1.0 / (n_boxes * len(bp))) for bp in sampled]))


def boxset_from_boxes(boxes: Sequence[Box], height: int, width: int,
                      n_box: Optional[int] = None) -> BoxSet:
    """Build mask and effective regions for an explicit box list."""
    n = len(boxes)
    if n == 0:
        raise ValueError("boxset_from_boxes: need at least one box")
    if sorted(b.paste_index for b in boxes) != list(range(1, n + 1)):
        raise ValueError("boxset_from_boxes: paste indices must be 1..N")
    for b in boxes:
        b.validate(height, width)
    n_box = n if n_box is None else n_box
    if not 1 <= n_box <= n:
        raise ValueError(f"boxset_from_boxes: n_box {n_box} outside [1, {n}]")
    owner = np.zeros((height, width), dtype=np.int32)
    for b in sorted(boxes, key=lambda b: b.paste_index):
        owner[b.y0:b.y0 + b.h, b.x0:b.x0 + b.w] = b.paste_index
    flat = owner.reshape(-1)
    regions = [np.flatnonzero(flat == pi) for pi in range(1, n + 1)]
    return BoxSet(
        boxes=list(boxes),
        mask=(owner > 0).astype(np.uint8),
        effective_regions=regions,
        active_range=(n - n_box + 1, n),
        height=height,
        width=width,
    )


def _sample_boxes(rng: np.random.Generator, height: int, width: int, n: int) -> List[Box]:
    # Mean side fraction chosen so the expected union covers half the
    # image for any box count: per-box area ~ 1 - 0.5**(1/N).
    s_bar = np.sqrt(1.0 - 0.5 ** (1.0 / n))
    lo, hi = 0.5 * s_bar, min(1.5 * s_bar, 0.95)
    boxes = []
    for k in range(n):
        fw, fh = rng.uniform(lo, hi, size=2)
        w = min(max(round(fw * width), 1), width)
        h = min(max(round(fh * height), 1), height)
        x0 = int(rng.integers(0, width - w + 1))
        y0 = int(rng.integers(0, height - h + 1))
        boxes.append(Box(x0, y0, w, h, paste_index=k + 1))
    return boxes


def generate_boxes(rng: Union[np.random.Generator, int], height: int, width: int,
                   n: int, n_box: Optional[int] = None) -> BoxSet:
    """Sample N random boxes whose composed mask covers 45-55% of pixels.

    Whole sets are resampled until coverage lands in range; after 100
    attempts the closest-to-half attempt is returned with a warning
    record attached.
    """
    seed = None
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)
    if height < 8 or width < 8:
        raise ValueError(f"generate_boxes: image must be at least 8x8, got {height}x{width}")
    if not 1 <= n <= height * width:
        raise ValueError(f"generate_boxes: N {n} outside [1, {height * width}]")
    total = height * width
    best = None
    best_gap = np.inf
    for attempt in range(MAX_COVERAGE_ATTEMPTS):
        boxes = _sample_boxes(rng, height, width, n)
        owner = np.zeros((height, width), dtype=np.int32)
        for b in boxes:
            owner[b.y0:b.y0 + b.h, b.x0:b.x0 + b.w] = b.paste_index
        cov = float(np.count_nonzero(owner)) / total
        gap = abs(cov - 0.5)
        if gap < best_gap:
            best, best_gap = boxes, gap
        if COVERAGE_LOW <= cov <= COVERAGE_HIGH:
            bs = boxset_from_boxes(boxes, height, width, n_box=n_box)
            bs.seed = seed
            return bs
    bs = boxset_from_boxes(best, height, width, n_box=n_box)
    bs.seed = seed
    bs.coverage_warning = (
        f"coverage {bs.coverage:.4f} outside [{COVERAGE_LOW}, {COVERAGE_HIGH}] "
        f"after {MAX_COVERAGE_ATTEMPTS} attempts")
    logger.warning("generate_boxes: %s", bs.coverage_warning)
    return bs


def compose_image(ua: np.ndarray, ub: np.ndarray, boxset: BoxSet) -> np.ndarray:
    """Per-pixel select: pasted-image pixel where mask=1, base pixel elsewhere."""
    a, b = np.asarray(ua), np.asarray(ub)
    if a.shape != b.shape:
        raise ValueError(f"compose_image: shapes {a.shape} and {b.shape} differ")
    if a.shape[:2] != (boxset.height, boxset.width):
        raise ValueError(
            f"compose_image: image {a.shape[:2]} does not match boxes "
            f"{(boxset.height, boxset.width)}")
    sel = boxset.mask.astype(bool)
    if a.ndim == 3:
        sel = sel[:, :, None]
    return np.where(sel, b, a)


def compose_predictions(pa: PredictionMap, pb: PredictionMap, boxset: BoxSet) -> PredictionMap:
    """CutMix two probability fields into the guessed label; carries no gradient."""
    if pa.shape != pb.shape:
        raise ValueError(f"compose_predictions: shapes {pa.shape} and {pb.shape} differ")
    mixed = compose_image(pa.probs.data, pb.probs.data, boxset)
    return PredictionMap(Tensor(mixed), validate=False)


def _sorted_unique(v: np.ndarray) -> np.ndarray:
    """``np.unique`` of an integer array by one sort: the same values,
    several times faster than numpy 2's hash-based unique at these sizes."""
    v = np.sort(v)
    first = np.ones(len(v), dtype=bool)
    first[1:] = v[1:] != v[:-1]
    return v[first]


def _sample_distinct(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    """k distinct integers from [0, n), uniform, O(k) memory, sorted.

    Rejection-style: oversample with replacement, deduplicate, then thin a
    surplus down uniformly. Values are exchangeable at every stage, so the
    result is a uniform k-subset. When k exceeds n/2 the complement is
    sampled instead, which keeps the expected draw count O(k).
    """
    if k >= n:
        return np.arange(n, dtype=np.int64)

    def reject(count: int) -> np.ndarray:
        vals = np.empty(0, dtype=np.int64)
        while vals.size < count:
            need = count - vals.size
            draw = rng.integers(0, n, size=max(32, int(need * 1.4) + 16), dtype=np.int64)
            vals = _sorted_unique(np.concatenate([vals, draw]))
        if vals.size > count:
            vals = rng.choice(vals, size=count, replace=False)
            vals.sort()
        return vals

    if 2 * k <= n:
        return reject(k)
    # dense draw: sample the complement instead (n < 2k keeps this small)
    kept = np.ones(n, dtype=bool)
    kept[reject(n - k)] = False
    return np.flatnonzero(kept)


def drop_pairs(boxset: BoxSet, n_pair: int, rng: np.random.Generator) -> PairSet:
    """Per active box, keep all m*m ordered pixel pairs when they fit the
    budget, drawing nothing, else sample exactly n_pair of them uniformly
    without replacement; flat pair q decodes to (q // m, q % m)."""
    if n_pair < 1:
        raise ValueError(f"drop_pairs: budget must be >= 1, got {n_pair}")
    lo, hi = boxset.active_range
    per_box = []
    for paste_index in range(lo, hi + 1):
        region = boxset.effective_regions[paste_index - 1]
        m = len(region)
        q = None if m * m <= n_pair else _sample_distinct(rng, m * m, n_pair)
        per_box.append(BoxPairs(paste_index, region, q))
    return PairSet(per_box=per_box, budget=n_pair)
