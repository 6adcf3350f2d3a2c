"""Bounding boxes and their embedding into model space.

A box is normalized to [cx/W, cy/H, w/W, h/H] (all in (0, 1]) and embedded by
relu(affine), row by row, so a padded batch of scenes embeds in one call.
Visual regions and dense-caption regions use separate embedding parameters;
both live in the model, this module only defines the math.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .errors import GeometryError
from .nn import Linear, init_linear


@dataclass(frozen=True)
class BoundingBox:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_min < 0 or self.y_min < 0:
            raise GeometryError(f"negative box coordinates: {self}")
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise GeometryError(f"empty or inverted box: {self}")

    @property
    def width(self):
        return self.x_max - self.x_min

    @property
    def height(self):
        return self.y_max - self.y_min

    @property
    def center(self):
        return (0.5 * (self.x_min + self.x_max), 0.5 * (self.y_min + self.y_max))

    def as_list(self):
        return [self.x_min, self.y_min, self.x_max, self.y_max]


def union_box(a: BoundingBox, b: BoundingBox) -> BoundingBox:
    return BoundingBox(
        min(a.x_min, b.x_min),
        min(a.y_min, b.y_min),
        max(a.x_max, b.x_max),
        max(a.y_max, b.y_max),
    )


def iou(a: BoundingBox, b: BoundingBox) -> float:
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0 or iy <= 0:
        return 0.0
    inter = ix * iy
    union = a.width * a.height + b.width * b.height - inter
    return inter / union


def normalize_box(box: BoundingBox, image_w, image_h):
    """[cx/W, cy/H, w/W, h/H] as a plain float64 array of 4."""
    if image_w <= 0 or image_h <= 0:
        raise GeometryError(f"non-positive image size {image_w}x{image_h}")
    if box.x_max > image_w or box.y_max > image_h:
        raise GeometryError(f"box {box} outside image {image_w}x{image_h}")
    cx, cy = box.center
    return np.array([cx / image_w, cy / image_h, box.width / image_w, box.height / image_h])


def init_geometry(rng, d_out) -> Linear:
    return init_linear(rng, 4, d_out)


def normalize_boxes(boxes, image_wh):
    """A scene's boxes as the rows [N x 4] that `embed_geometry` takes."""
    if not boxes:
        raise GeometryError("empty box list")
    w, h = image_wh
    return np.stack([normalize_box(b, w, h) for b in boxes])


def embed_geometry(rows, params: Linear):
    """Normalized boxes [..., 4] (`normalize_boxes`; one scene's, or a padded
    batch's [B x N x 4]) -> relu(affine) rows [..., d_out]."""
    return T.relu(T.affine(T.Tensor(rows), params.w, params.b))
