"""Procedural toy scenes for segmentation plus the minimal augmentation
pipeline for the unlabeled branch.

A scene is a background plus a few filled shapes (rectangles, discs,
triangles), one class per shape, drawn with per-class base colors and
Gaussian texture noise. Labels are rasterized from the same geometry, so
they match the image exactly. Everything is a pure function of its seed.
"""

from __future__ import annotations

import colorsys
from dataclasses import dataclass
from typing import List, Optional, Union

import numpy as np

from .maps import IGNORE

SPLIT_LABELED = 0
SPLIT_UNLABELED = 1
SPLIT_VALIDATION = 2

DEFAULT_TEXTURE_SIGMA = 0.08
AUGMENT_NOISE_SIGMA = 0.02
AUGMENT_BRIGHTNESS = 0.1


@dataclass
class SceneSample:
    image: np.ndarray
    labels: Optional[np.ndarray]
    seed: int


@dataclass(frozen=True)
class Shape:
    kind: str            # "rect" | "disc" | "triangle"
    cls: int
    params: tuple        # rect: (y0,x0,y1,x1); disc: (cy,cx,r); triangle: 3 (y,x) vertices


@dataclass
class AugmentedPair:
    ua: np.ndarray
    ub: np.ndarray


def class_color(cls: int, num_classes: int) -> np.ndarray:
    """Deterministic base color per class, spread around the hue wheel."""
    return np.array(colorsys.hsv_to_rgb(cls / num_classes, 0.55, 0.75))


def sample_scene_shapes(rng: np.random.Generator, height: int, width: int,
                        num_classes: int, n_shapes: Optional[int] = None) -> List[Shape]:
    if n_shapes is None:
        n_shapes = int(rng.integers(2, 7))
    dim = min(height, width)
    shapes = []
    for _ in range(n_shapes):
        cls = int(rng.integers(1, num_classes))
        kind = ("rect", "disc", "triangle")[int(rng.integers(0, 3))]
        cy = rng.uniform(0.15, 0.85) * height
        cx = rng.uniform(0.15, 0.85) * width
        if kind == "rect":
            hh = rng.uniform(0.08, 0.28) * height
            hw = rng.uniform(0.08, 0.28) * width
            shapes.append(Shape(kind, cls, (cy - hh, cx - hw, cy + hh, cx + hw)))
        elif kind == "disc":
            r = rng.uniform(0.08, 0.25) * dim
            shapes.append(Shape(kind, cls, (cy, cx, r)))
        else:
            angles = rng.uniform(0, 2 * np.pi, size=3)
            radii = rng.uniform(0.1, 0.3, size=3) * dim
            verts = tuple((cy + r * np.sin(a), cx + r * np.cos(a))
                          for a, r in zip(angles, radii))
            shapes.append(Shape(kind, cls, verts))
    return shapes


def _shape_mask(shape: Shape, yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
    """Pixels inside ``shape``, from an (H,1) column of row coordinates and a
    (1,W) row of column coordinates; each test broadcasts to (H,W)."""
    if shape.kind == "rect":
        y0, x0, y1, x1 = shape.params
        return (yy >= y0) & (yy <= y1) & (xx >= x0) & (xx <= x1)
    if shape.kind == "disc":
        cy, cx, r = shape.params
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    # triangle: point is inside when it sits on the same side of all edges
    (ay, ax), (by, bx), (cy, cx) = shape.params
    d1 = (xx - bx) * (ay - by) - (ax - bx) * (yy - by)
    d2 = (xx - cx) * (by - cy) - (bx - cx) * (yy - cy)
    d3 = (xx - ax) * (cy - ay) - (cx - ax) * (yy - ay)
    neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
    pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
    return ~(neg & pos)


def rasterize_labels(shapes: List[Shape], height: int, width: int) -> np.ndarray:
    """Paint shapes in order; the topmost shape owns each pixel."""
    yy = np.arange(height, dtype=np.float64)[:, None]
    xx = np.arange(width, dtype=np.float64)[None, :]
    labels = np.zeros((height, width), dtype=np.int64)
    for shape in shapes:
        labels[_shape_mask(shape, yy, xx)] = shape.cls
    return labels


def generate_scene(rng: Union[np.random.Generator, int], height: int, width: int,
                   num_classes: int, n_shapes: Optional[int] = None,
                   texture_sigma: float = DEFAULT_TEXTURE_SIGMA) -> SceneSample:
    """Background class 0 plus 2-6 random shapes of classes 1..C-1."""
    if num_classes < 2:
        raise ValueError(f"generate_scene: need at least 2 classes, got {num_classes}")
    seed = -1
    if isinstance(rng, (int, np.integer)):
        seed = int(rng)
        rng = np.random.default_rng(seed)
    shapes = sample_scene_shapes(rng, height, width, num_classes, n_shapes)
    labels = rasterize_labels(shapes, height, width)
    palette = np.array([class_color(cls, num_classes) for cls in range(num_classes)])
    image = palette.take(labels, axis=0)  # palette[labels], about 4x faster at 64x64
    image += rng.normal(0.0, texture_sigma, size=image.shape)
    np.clip(image, 0.0, 1.0, out=image)
    return SceneSample(image=image, labels=labels, seed=seed)


def augment(rng: np.random.Generator, image: np.ndarray, p: float = 0.5) -> np.ndarray:
    """Photometric/flip augmentation; each op (horizontal flip, brightness
    shift, Gaussian noise) fires with probability p."""
    out = image.copy()
    if rng.random() < p:
        out = out[:, ::-1, :].copy()
    if rng.random() < p:
        out = out + float(rng.uniform(-AUGMENT_BRIGHTNESS, AUGMENT_BRIGHTNESS))
    if rng.random() < p:
        out = out + rng.normal(0.0, AUGMENT_NOISE_SIGMA, size=out.shape)
    return np.clip(out, 0.0, 1.0)


def augment_pair(rng: np.random.Generator, ua: np.ndarray, ub: np.ndarray,
                 p: float = 0.5) -> AugmentedPair:
    return AugmentedPair(ua=augment(rng, ua, p=p), ub=augment(rng, ub, p=p))


def sample_seed(global_seed: int, split_code: int, index: int) -> int:
    """Stable per-sample seed derivation shared by all splits."""
    return int(np.random.SeedSequence([global_seed, split_code, index]).generate_state(1)[0])


class SceneDataset:
    """Deterministic labeled/unlabeled/validation splits of generated scenes.

    Sample content is a pure function of (seed, split, index). Every
    accessor generates its scene on each call and keeps nothing, so memory
    does not grow with the splits (at the paper's 1024x2048 one float64
    image is 50 MB). The unlabeled accessor returns the bare image.
    """

    def __init__(self, seed: int, height: int = 64, width: int = 64,
                 num_classes: int = 4, n_labeled: int = 20, n_unlabeled: int = 200,
                 n_validation: int = 50, texture_sigma: float = DEFAULT_TEXTURE_SIGMA):
        self.seed = seed
        self.height = height
        self.width = width
        self.num_classes = num_classes
        self.n_labeled = n_labeled
        self.n_unlabeled = n_unlabeled
        self.n_validation = n_validation
        self.texture_sigma = texture_sigma

    def _generate(self, split: int, index: int, count: int) -> SceneSample:
        if not 0 <= index < count:
            raise IndexError(f"index {index} outside split of size {count}")
        return generate_scene(
            sample_seed(self.seed, split, index), self.height, self.width,
            self.num_classes, texture_sigma=self.texture_sigma)

    def labeled(self, index: int) -> SceneSample:
        return self._generate(SPLIT_LABELED, index, self.n_labeled)

    def unlabeled_image(self, index: int) -> np.ndarray:
        return self._generate(SPLIT_UNLABELED, index, self.n_unlabeled).image

    def validation(self, index: int) -> SceneSample:
        return self._generate(SPLIT_VALIDATION, index, self.n_validation)


def save_ppm(path, image: np.ndarray) -> None:
    """Binary P6 dump of an (H,W,3) image in [0,1]."""
    if image.ndim != 3 or image.shape[2] != 3:
        raise ValueError(f"save_ppm: expected (H,W,3), got {image.shape}")
    h, w = image.shape[:2]
    data = np.round(np.clip(image, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        f.write(data.tobytes())


def save_pgm(path, labels: np.ndarray, num_classes: int) -> None:
    """Binary P5 dump of a label map, classes spread over gray levels."""
    if labels.ndim != 2:
        raise ValueError(f"save_pgm: expected (H,W), got {labels.shape}")
    h, w = labels.shape
    step = 255 // max(num_classes - 1, 1)
    gray = np.where(labels == IGNORE, 0, labels * step).astype(np.uint8)
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(gray.tobytes())
