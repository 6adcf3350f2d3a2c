import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gevst.errors import GeometryError
from gevst.geometry import BoundingBox, embed_geometry, iou, normalize_box, normalize_boxes, union_box
from util import init_geometry

coord = st.floats(min_value=0.0, max_value=500.0, allow_nan=False)
side = st.floats(min_value=0.5, max_value=200.0, allow_nan=False)


def box(x0, y0, w, h):
    return BoundingBox(x0, y0, x0 + w, y0 + h)


def test_degenerate_boxes_rejected():
    with pytest.raises(GeometryError):
        BoundingBox(0, 0, 0, 5)  # zero width
    with pytest.raises(GeometryError):
        BoundingBox(3, 1, 2, 4)  # x1 < x0
    with pytest.raises(GeometryError):
        BoundingBox(-1, 0, 2, 2)


def test_iou_known_values():
    a = box(0, 0, 10, 10)
    assert iou(a, box(0, 0, 10, 10)) == 1.0
    assert iou(a, box(20, 20, 5, 5)) == 0.0
    # half-overlap: intersection 50, union 150
    assert abs(iou(a, box(5, 0, 10, 10)) - 50.0 / 150.0) < 1e-12


@given(coord, coord, side, side, coord, coord, side, side)
def test_union_contains_both(x0, y0, w0, h0, x1, y1, w1, h1):
    a, b = box(x0, y0, w0, h0), box(x1, y1, w1, h1)
    u = union_box(a, b)
    for inner in (a, b):
        assert u.x_min <= inner.x_min and u.y_min <= inner.y_min
        assert u.x_max >= inner.x_max and u.y_max >= inner.y_max


def test_normalize_box_values_and_scale_invariance():
    b = box(10, 20, 30, 40)
    got = normalize_box(b, 100, 200)
    assert np.allclose(got, [25 / 100, 40 / 200, 30 / 100, 40 / 200])
    doubled = normalize_box(BoundingBox(20, 40, 80, 120), 200, 400)
    assert np.allclose(got, doubled)


def test_normalize_box_rejects_bad_inputs():
    b = box(10, 10, 20, 20)
    with pytest.raises(GeometryError):
        normalize_box(b, 0, 100)
    with pytest.raises(GeometryError):
        normalize_box(b, 25, 100)  # box sticks out of the image


def test_embed_geometry_shape_and_nonnegativity():
    rng = np.random.default_rng(4)
    p = init_geometry(rng, 8)
    boxes = [box(0, 0, 10, 10), box(30, 40, 20, 10), box(5, 70, 15, 25)]
    out = embed_geometry(normalize_boxes(boxes, (100, 100)), p)
    assert out.data.shape == (3, 8)
    assert (out.data >= 0.0).all()  # relu output
    with pytest.raises(GeometryError, match="empty box list"):
        normalize_boxes([], (100, 100))
