"""The scene painter as first written, the reference for the generator's
bit-identity tests: one full ``np.mgrid`` coordinate grid per shape, and an
image painted as a repeated background and then one boolean mask per class."""

import numpy as np

from structseg.synthdata import SceneSample, class_color, sample_scene_shapes


def shape_mask(shape, height, width):
    yy, xx = np.mgrid[0:height, 0:width].astype(np.float64)
    if shape.kind == "rect":
        y0, x0, y1, x1 = shape.params
        return (yy >= y0) & (yy <= y1) & (xx >= x0) & (xx <= x1)
    if shape.kind == "disc":
        cy, cx, r = shape.params
        return (yy - cy) ** 2 + (xx - cx) ** 2 <= r * r
    (ay, ax), (by, bx), (cy, cx) = shape.params
    d1 = (xx - bx) * (ay - by) - (ax - bx) * (yy - by)
    d2 = (xx - cx) * (by - cy) - (bx - cx) * (yy - cy)
    d3 = (xx - ax) * (cy - ay) - (cx - ax) * (yy - ay)
    neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
    pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
    return ~(neg & pos)


def rasterize_labels(shapes, height, width):
    labels = np.zeros((height, width), dtype=np.int64)
    for shape in shapes:
        labels[shape_mask(shape, height, width)] = shape.cls
    return labels


def generate_scene(seed, height, width, num_classes, n_shapes=None, texture_sigma=0.08):
    rng = np.random.default_rng(seed)
    shapes = sample_scene_shapes(rng, height, width, num_classes, n_shapes)
    labels = rasterize_labels(shapes, height, width)
    image = class_color(0, num_classes)[None, None, :].repeat(height, 0).repeat(width, 1)
    for cls in range(1, num_classes):
        sel = labels == cls
        if sel.any():
            image[sel] = class_color(cls, num_classes)
    image = image + rng.normal(0.0, texture_sigma, size=image.shape)
    image = np.clip(image, 0.0, 1.0)
    return SceneSample(image=image, labels=labels, seed=seed)
