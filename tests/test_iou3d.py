import itertools
import math
import unittest.mock
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mot3d import association
from mot3d.association import footprint_corners, iou_affinity, iou_pairs
from mot3d.core import Box, checked_rows, observation_rows, wrap_angle
from mot3d.kalman import AxisPrediction
from tests.test_association import runtime_warnings


# The scalar reference: Sutherland-Hodgman clipping of one pair at a time
# over Python floats, in the frame of the clip box.  iou_pairs must give
# every pair exactly its floats.  A seen Counter, where given, records the
# rare branches a pair takes.

def reference_corners(x: float, y: float, a: float, l: float, w: float) -> np.ndarray:
    """Corners of a footprint centered at (x, y) and turned by a, counter-clockwise."""
    cos_a = math.cos(a)
    sin_a = math.sin(a)
    half_l = l / 2.0
    half_w = w / 2.0
    local = np.array([
        [half_l, half_w],
        [-half_l, half_w],
        [-half_l, -half_w],
        [half_l, -half_w],
    ])
    rotation = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
    return local @ rotation.T + np.array([x, y])


def clip_polygon(subject, half_l: float, half_w: float, seen=None) -> list:
    """Clip a convex polygon against the rectangle |u| <= half_l, |v| <= half_w.

    The sides are taken counter-clockwise from v = half_w.  Points on a
    side count as inside, so clipping the rectangle itself returns it
    unchanged.
    """
    output = [tuple(map(float, p)) for p in subject]
    for axis, sign, half in ((1, 1.0, half_w), (0, -1.0, half_l), (1, -1.0, half_w),
                             (0, 1.0, half_l)):
        bound = sign * half
        if not output:
            if seen is not None:
                seen["clipped away before the last side"] += 1
            break

        def inside(p):
            if seen is not None and p[axis] == bound:
                seen["vertex exactly on a side"] += 1
            return sign * p[axis] <= half

        def intersect(p, q):
            # From the inside end p toward the outside end q of the segment.
            t = (bound - p[axis]) / (q[axis] - p[axis])
            crossed = [p[0] + t * (q[0] - p[0]), p[1] + t * (q[1] - p[1])]
            crossed[axis] = bound
            return tuple(crossed)

        polygon = output
        output = []
        for idx in range(len(polygon)):
            current = polygon[idx]
            previous = polygon[idx - 1]
            if inside(current):
                if not inside(previous):
                    output.append(intersect(current, previous))
                output.append(current)
            elif inside(previous):
                output.append(intersect(previous, current))
    return output


def polygon_area(points) -> float:
    """Shoelace area of a simple polygon, sign-free."""
    if len(points) < 3:
        return 0.0
    area = 0.0
    for idx in range(len(points)):
        x1, y1 = points[idx]
        x2, y2 = points[(idx + 1) % len(points)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


def reference_iou_3d(box_a: Box, box_b: Box, seen=None) -> float:
    """3D IOU of two upright yawed boxes, footprint overlap times height overlap.

    Box a's footprint is placed in box b's frame from raw floats: its yaw
    there, box_a.a - box_b.a, is left unwrapped.
    """
    with np.errstate(all="ignore"):  # overflowing footprints give NaN silently
        cos_b, sin_b = math.cos(box_b.a), math.sin(box_b.a)
        dx, dy = box_a.x - box_b.x, box_a.y - box_b.y
        corners = reference_corners(cos_b * dx + sin_b * dy, cos_b * dy - sin_b * dx,
                                    box_a.a - box_b.a, box_a.l, box_a.w)
        overlap = polygon_area(clip_polygon(corners, box_b.l / 2.0, box_b.w / 2.0, seen))
        z_overlap = max(
            0.0,
            min(box_a.z + box_a.h / 2.0, box_b.z + box_b.h / 2.0)
            - max(box_a.z - box_a.h / 2.0, box_b.z - box_b.h / 2.0),
        )
        intersection = overlap * z_overlap
        if intersection <= 0.0:
            return 0.0
        volume_a = box_a.l * box_a.w * box_a.h
        volume_b = box_b.l * box_b.w * box_b.h
        union = volume_a + volume_b - intersection
        if intersection > union:
            if seen is not None:
                seen["ratio past one"] += 1
            return 1.0
        return intersection / union


def box(x=0.0, y=0.0, z=0.0, a=0.0, l=2.0, w=2.0, h=2.0) -> Box:
    return Box(x, y, z, a, l, w, h, "car", 0)


def one_pair_iou(box_a: Box, box_b: Box) -> float:
    """iou_pairs on the single pair (box_a, box_b)."""
    return float(iou_pairs(observation_rows([box_a]), observation_rows([box_b]))[0])


def one_box_corners(box: Box) -> np.ndarray:
    """footprint_corners of a single box: its (4, 2) corners."""
    return footprint_corners(observation_rows([box]))[0]


def volume(o: Box) -> float:
    return o.l * o.w * o.h


def as_prediction(observations) -> AxisPrediction:
    """A stacked per-axis prediction whose row k is box k at rest, with unit variances."""
    mean = np.zeros((len(observations), 11))
    mean[:, :7] = observation_rows(observations)
    cov = np.zeros((len(mean), 15))
    cov[:, :11] = 1.0
    return AxisPrediction(mean, cov, np.ones((len(mean), 7)))


def test_corners_axis_aligned():
    corners = one_box_corners(box(x=1, y=2, a=0.0, l=4, w=2))
    expected = {(3.0, 3.0), (3.0, 1.0), (-1.0, 1.0), (-1.0, 3.0)}
    assert {(round(cx, 9), round(cy, 9)) for cx, cy in corners} == expected


def test_corners_rotation_quarter_turn():
    # quarter turn swaps the roles of length and width
    corners = one_box_corners(box(a=math.pi / 2, l=4, w=2))
    xs = sorted(round(cx, 9) for cx, _ in corners)
    ys = sorted(round(cy, 9) for _, cy in corners)
    assert xs == [-1.0, -1.0, 1.0, 1.0]
    assert ys == [-2.0, -2.0, 2.0, 2.0]


def test_polygon_area_shoelace():
    assert polygon_area([(0, 0), (2, 0), (2, 3), (0, 3)]) == pytest.approx(6.0)
    # orientation does not flip the sign
    assert polygon_area([(0, 3), (2, 3), (2, 0), (0, 0)]) == pytest.approx(6.0)
    assert polygon_area([(0, 0), (1, 1)]) == 0.0


def test_clip_polygon_self_is_identity():
    rectangle = [(2, 1), (-2, 1), (-2, -1), (2, -1)]
    assert clip_polygon(rectangle, 2.0, 1.0) == [(2.0, 1.0), (-2.0, 1.0), (-2.0, -1.0), (2.0, -1.0)]


def test_identical_boxes():
    b = box(x=3, y=-2, z=1, a=0.7, l=4.5, w=1.9, h=1.6)
    assert one_pair_iou(b, b) == pytest.approx(1.0, abs=1e-12)


def test_half_offset_unit_cubes():
    a = box(l=1, w=1, h=1)
    b = box(x=0.5, l=1, w=1, h=1)
    # overlap 0.5, union 1.5
    assert one_pair_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_cross_at_right_angle():
    # 2x1 rectangles crossed: intersection 1, union 3, full z overlap
    a = box(l=2, w=1, h=1)
    b = box(a=math.pi / 2, l=2, w=1, h=1)
    assert one_pair_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_vertical_offset():
    a = box(l=1, w=1, h=1)
    b = box(z=0.5, l=1, w=1, h=1)
    assert one_pair_iou(a, b) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_disjoint_in_plane_and_height():
    a = box(l=1, w=1, h=1)
    assert one_pair_iou(a, box(x=5.0, l=1, w=1, h=1)) == 0.0
    assert one_pair_iou(a, box(z=5.0, l=1, w=1, h=1)) == 0.0
    # touching faces share zero volume
    assert one_pair_iou(a, box(x=1.0, l=1, w=1, h=1)) == 0.0


def test_containment():
    outer = box(l=4, w=4, h=4)
    inner = box(l=2, w=2, h=2)
    assert one_pair_iou(outer, inner) == pytest.approx(8.0 / 64.0, abs=1e-12)


def test_rotated_square_overlap_is_octagon():
    # square rotated 45 degrees against an identical axis-aligned square:
    # the footprint overlap is a regular octagon of area 8*(sqrt(2)-1)
    a = box(l=2, w=2, h=1)
    b = box(a=math.pi / 4, l=2, w=2, h=1)
    overlap = polygon_area(clip_polygon(one_box_corners(b), a.l / 2.0, a.w / 2.0))
    expected = 8.0 * (math.sqrt(2.0) - 1.0)
    assert overlap == pytest.approx(expected, abs=1e-9)
    assert one_pair_iou(a, b) == pytest.approx(expected / (8.0 - expected), abs=1e-9)


def test_yaw_flip_invariance():
    a = box(a=0.4, l=3, w=1.5, h=1.2)
    flipped = box(a=wrap_angle(0.4 + math.pi), l=3, w=1.5, h=1.2)
    assert one_pair_iou(a, flipped) == pytest.approx(1.0, abs=1e-12)


box_strategy = st.builds(
    box,
    x=st.floats(-5, 5), y=st.floats(-5, 5), z=st.floats(-2, 2),
    a=st.floats(-math.pi, math.pi - 1e-9),
    l=st.floats(0.5, 6), w=st.floats(0.5, 6), h=st.floats(0.5, 4))


@settings(max_examples=80, deadline=None)
@given(box_strategy, box_strategy)
def test_symmetry_and_range(a, b):
    ab = one_pair_iou(a, b)
    ba = one_pair_iou(b, a)
    assert ab == pytest.approx(ba, abs=1e-12)
    assert 0.0 <= ab <= 1.0 + 1e-12


@settings(max_examples=60, deadline=None)
@given(box_strategy, box_strategy,
       st.floats(-8, 8), st.floats(-8, 8), st.floats(-math.pi, math.pi - 1e-9))
# two unit boxes 4.4e-9 rad apart, whose IOU lies within 5e-9 of 1
@example(box(l=1, w=1, h=1), box(a=4.4e-9, l=1, w=1, h=1), 3.0, -2.0, 1.0)
def test_rigid_motion_invariance(a, b, tx, ty, rot):
    def moved(o: Box) -> Box:
        c, s = math.cos(rot), math.sin(rot)
        return box(c * o.x - s * o.y + tx, s * o.x + c * o.y + ty, o.z,
                   wrap_angle(o.a + rot), o.l, o.w, o.h)

    assert one_pair_iou(moved(a), moved(b)) == pytest.approx(one_pair_iou(a, b), abs=1e-9)


def mc_iou(a: Box, b: Box, rng, samples=200_000) -> float:
    """Monte Carlo IOU via points sampled uniformly inside box a."""
    pts = rng.uniform(-0.5, 0.5, size=(samples, 3)) * np.array([a.l, a.w, a.h])
    ca, sa = math.cos(a.a), math.sin(a.a)
    world = np.stack([ca * pts[:, 0] - sa * pts[:, 1] + a.x,
                      sa * pts[:, 0] + ca * pts[:, 1] + a.y,
                      pts[:, 2] + a.z], axis=1)
    cb, sb = math.cos(b.a), math.sin(b.a)
    rel = world - np.array([b.x, b.y, b.z])
    local = np.stack([cb * rel[:, 0] + sb * rel[:, 1],
                      -sb * rel[:, 0] + cb * rel[:, 1],
                      rel[:, 2]], axis=1)
    inside = (np.abs(local[:, 0]) <= b.l / 2) & (np.abs(local[:, 1]) <= b.w / 2) \
        & (np.abs(local[:, 2]) <= b.h / 2)
    inter = inside.mean() * volume(a)
    union = volume(a) + volume(b) - inter
    return inter / union


def test_against_monte_carlo():
    rng = np.random.default_rng(42)
    for _ in range(10):
        a = box(x=rng.uniform(-2, 2), y=rng.uniform(-2, 2), z=rng.uniform(-1, 1),
                a=rng.uniform(-math.pi, math.pi),
                l=rng.uniform(1, 5), w=rng.uniform(1, 4), h=rng.uniform(1, 3))
        b = box(x=a.x + rng.uniform(-1.5, 1.5), y=a.y + rng.uniform(-1.5, 1.5),
                z=a.z + rng.uniform(-0.5, 0.5),
                a=rng.uniform(-math.pi, math.pi),
                l=rng.uniform(1, 5), w=rng.uniform(1, 4), h=rng.uniform(1, 3))
        exact = one_pair_iou(a, b)
        estimate = mc_iou(a, b, rng)
        assert exact == pytest.approx(estimate, abs=6e-3)


def test_iou_affinity_matrix():
    preds = as_prediction([box(), box(x=10)])
    dets = [box(x=0.1), box(x=10.2), box(x=50)]
    matrix = iou_affinity(preds, observation_rows(dets))
    assert matrix.values.shape == (2, 3)
    assert matrix.values[0, 0] > 0.8
    assert matrix.values[1, 1] > 0.7
    assert matrix.values[0, 2] == 0.0


def per_pair_iou(boxes, detections, seen=None) -> np.ndarray:
    return np.array([[reference_iou_3d(b, d, seen) for d in detections] for b in boxes]).reshape(
        len(boxes), len(detections))


def corner_to_corner(turn: float, side: float = 2.0) -> tuple:
    """Two squares turned by turn whose corners meet on their center line.

    The center distance is the sum of the two half-diagonals, up to the
    rounding of the placement.
    """
    reach = 2.0 * (0.5 * math.hypot(side, side))
    direction = turn + math.pi / 4.0
    return (box(a=turn, l=side, w=side),
            box(x=reach * math.cos(direction), y=reach * math.sin(direction),
                a=turn, l=side, w=side))


EDGE_FRAMES = {
    "far apart": ([box(), box(x=-30, y=7)], [box(x=100.0), box(y=-40.0, a=1.2)]),
    "faces touching in x": ([box(l=1, w=1, h=1), box(x=5, a=0.3, l=3)],
                            [box(x=1.0, l=1, w=1, h=1), box(x=-1.0, l=1, w=1, h=1),
                             box(x=8, a=0.3, l=3)]),
    "corners touching": tuple(zip(*[corner_to_corner(turn)
                                    for turn in np.linspace(-3.0, 3.0, 13)])),
    "nested and coincident centers": ([box(l=4, w=4, h=4), box(x=3, a=0.7)],
                                      [box(l=2, w=2, h=2), box(x=3, a=-0.2, l=5, w=1),
                                       box(l=4, w=4, h=4), box(x=3, a=0.7)]),
    "disjoint and touching in z": ([box(h=1)],
                                   [box(z=5.0, h=1), box(z=1.0, h=1), box(z=-1.0, h=1),
                                    box(z=0.999, h=1), box(z=-0.5, h=0.5)]),
    "no predictions": ([], [box(), box(x=3)]),
    "no detections": ([box(), box(x=3)], []),
}


def random_frame(rng) -> tuple:
    """Boxes on a 12 m square, half the detections placed near a prediction."""
    def random_box(x, y, z):
        return box(x=x, y=y, z=z, a=rng.choice([0.0, rng.uniform(-math.pi, math.pi)]),
                   l=rng.uniform(0.5, 5.0), w=rng.uniform(0.5, 3.0), h=rng.uniform(0.5, 3.0))

    boxes = [random_box(*rng.uniform(-6, 6, 2), rng.uniform(-1, 1))
             for _ in range(rng.integers(0, 10))]
    detections = []
    for _ in range(rng.integers(0, 10)):
        if boxes and rng.random() < 0.5:
            near = boxes[rng.integers(len(boxes))]
            detections.append(random_box(near.x + rng.uniform(-2, 2),
                                         near.y + rng.uniform(-2, 2),
                                         near.z + rng.choice([0.0, near.h, -2.5])))
        else:
            detections.append(random_box(*rng.uniform(-6, 6, 2), rng.uniform(-1, 1)))
    return boxes, detections


@pytest.mark.parametrize("name", sorted(EDGE_FRAMES))
def test_iou_affinity_equals_per_pair_iou_on_edge_cases(name, monkeypatch):
    boxes, detections = EDGE_FRAMES[name]
    expected = per_pair_iou(boxes, detections)
    clipped = []
    clip = association.iou_pairs
    monkeypatch.setattr(association, "iou_pairs",
                        lambda a, b: clipped.append(len(a)) or clip(a, b))
    values = iou_affinity(as_prediction(boxes), observation_rows(detections)).values
    assert np.array_equal(values, expected)
    if name == "corners touching":
        # every center distance is the sum of the radii up to rounding,
        # so every pair must be clipped rather than pruned
        assert sum(clipped) == len(boxes) * len(detections)
    if name == "far apart":
        assert sum(clipped) == 0


def test_iou_affinity_equals_per_pair_iou_on_random_frames():
    rng = np.random.default_rng(6)
    scored = 0
    for _ in range(300):
        boxes, detections = random_frame(rng)
        expected = per_pair_iou(boxes, detections)
        values = iou_affinity(as_prediction(boxes), observation_rows(detections)).values
        assert np.array_equal(values, expected)
        scored += np.count_nonzero(expected)
    assert scored > 300


def near_identical_pairs(rng, count: int) -> list:
    """Boxes at offsets up to 1e6 paired with copies nudged by up to 1e-9.

    Clipping two almost equal footprints leaves rounding slivers, and
    their vertices fall on the clip box's sides.
    """
    def nudge(value):
        return value + rng.choice([0.0, rng.uniform(-1e-9, 1e-9)])

    pairs = []
    for _ in range(count):
        offset = 10.0 ** rng.uniform(0, 6)
        a = box(x=rng.uniform(-offset, offset), y=rng.uniform(-offset, offset),
                z=rng.uniform(-1, 1), a=rng.uniform(-math.pi, math.pi),
                l=rng.uniform(0.5, 5.0), w=rng.uniform(0.5, 3.0), h=rng.uniform(0.5, 3.0))
        pairs.append((a, box(x=nudge(a.x), y=nudge(a.y), z=a.z, a=wrap_angle(nudge(a.a)),
                             l=nudge(a.l), w=nudge(a.w), h=a.h)))
    return pairs


def slid_pairs(rng, count: int) -> list:
    """Boxes at coordinates up to 1e4 paired with one slid along their own long axis.

    The long sides of the two lie on one line up to rounding, so their
    segments straddle each other's sides only through rounding.  Both
    share the yaw and the width, so the true overlap is 1-D.
    """
    pairs = []
    for _ in range(count):
        reach = 10.0 ** rng.uniform(0, 4)
        a = box(x=rng.uniform(-reach, reach), y=rng.uniform(-reach, reach),
                a=rng.uniform(-math.pi, math.pi), l=rng.uniform(1.0, 5.0), w=rng.uniform(0.5, 3.0))
        shift = rng.uniform(-a.l, a.l)
        pairs.append((a, box(x=a.x + shift * math.cos(a.a), y=a.y + shift * math.sin(a.a),
                             a=a.a, l=rng.uniform(1.0, 5.0), w=a.w)))
    return pairs


def test_iou_pairs_equals_the_scalar_reference_bit_for_bit():
    rng = np.random.default_rng(17)
    huge = [box(l=1e200, w=1e200), box(x=0.99e200, l=1e200, w=1e200, a=0.3),
            box(l=1e160, w=1e150), box(y=1e150, l=1e160, w=1e150, a=1.0)]
    groups = {
        "random frames": [pair for boxes, detections in (random_frame(rng) for _ in range(300))
                          for pair in itertools.product(boxes, detections)],
        "near-identical": near_identical_pairs(rng, 1000),
        "slid along the long axis": slid_pairs(rng, 1000),
        "touching, nested and identical": [
            *(pair for boxes, detections in EDGE_FRAMES.values()
              for pair in itertools.product(boxes, detections)),
            *((b, b) for b in itertools.chain(*EDGE_FRAMES["nested and coincident centers"]))],
        "huge extents": list(itertools.product(huge, huge)),
    }
    seen = Counter()
    for name, pairs in groups.items():
        expected = np.array([reference_iou_3d(a, b, seen) for a, b in pairs])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # overflow stays silent
            values = iou_pairs(observation_rows([a for a, _ in pairs]),
                               observation_rows([b for _, b in pairs]))
        assert np.array_equal(values, expected, equal_nan=True), name
        seen["NaN"] += np.count_nonzero(np.isnan(expected))
        seen["positive"] += np.count_nonzero(expected > 0.0)
    assert seen.keys() == {"vertex exactly on a side", "clipped away before the last side",
                           "ratio past one", "NaN", "positive"}


def test_near_identical_boxes_far_from_the_origin_score_one():
    # the true IOU of every pair is above 1 - 1e-6 wherever the pair lies
    pairs = near_identical_pairs(np.random.default_rng(17), 1000)
    values = iou_pairs(observation_rows([a for a, _ in pairs]),
                       observation_rows([b for _, b in pairs]))
    assert (values >= 1.0 - 1e-6).all(), np.sort(values)[:5]


def test_boxes_slid_along_their_long_axis_match_the_closed_form():
    pairs = slid_pairs(np.random.default_rng(17), 1000)
    expected = []
    for a, b in pairs:
        shift = (b.x - a.x) * math.cos(a.a) + (b.y - a.y) * math.sin(a.a)
        length = max(0.0, min(a.l / 2.0, shift + b.l / 2.0) - max(-a.l / 2.0, shift - b.l / 2.0))
        expected.append(length / (a.l + b.l - length))
    values = iou_pairs(observation_rows([a for a, _ in pairs]),
                       observation_rows([b for _, b in pairs]))
    np.testing.assert_allclose(values, expected, rtol=0.0, atol=1e-9)


def test_iou_affinity_rejects_an_invalid_prediction_that_overlaps_nothing():
    prediction = as_prediction([box(), box(x=100.0, y=100.0)])
    prediction.mean[1, 4] = -1.0  # l <= 0
    with pytest.raises(ValueError, match="l must be positive"):
        iou_affinity(prediction, observation_rows([box(), box(x=1.0)]))


def all_cells_iou_affinity(prediction: AxisPrediction, detected: np.ndarray, blocks) -> np.ndarray:
    """iou_affinity as it tested every cell of each block before clipping the candidates."""
    candidates = [(np.empty((0, 7)), np.empty(0, int), np.empty(0, int))]
    for rows, cols in blocks:
        predicted, boxes = checked_rows(prediction.mean[rows, :7].copy()), detected[cols]
        (bottoms_a, tops_a), (bottoms_b, tops_b) = ((side[:, 2] - side[:, 6] / 2.0,
                                                     side[:, 2] + side[:, 6] / 2.0)
                                                    for side in (predicted, boxes))
        radii_a, radii_b = (0.5 * np.hypot(side[:, 4], side[:, 5]) for side in (predicted, boxes))
        near = (np.hypot(predicted[:, None, 0] - boxes[None, :, 0],
                         predicted[:, None, 1] - boxes[None, :, 1])
                <= (radii_a[:, None] + radii_b[None, :]) * (1.0 + 1e-9))
        z_overlap = (np.minimum(tops_a[:, None], tops_b[None, :])
                     > np.maximum(bottoms_a[:, None], bottoms_b[None, :]))
        i, j = np.nonzero(near & z_overlap)
        candidates.append((predicted[i], i + rows.start, j + cols.start))
    picked, rows, cols = (np.concatenate(side) for side in zip(*candidates))
    values = np.zeros((len(prediction.mean), len(detected)))
    values[rows, cols] = iou_pairs(picked, detected[cols])
    return values


# x values near the float range's ends, and shared ones: ties and duplicates
window_xs = st.sampled_from([0.0, 1.0, 2.5, 1e308, -1e308, 1.7976931348623157e308,
                             -1.7976931348623157e308]) | st.floats(-8.0, 8.0)
window_extents = (st.sampled_from([1.0, 2.0, 1e150, 1e300]) | st.floats(0.1, 6.0))


@st.composite
def window_frames(draw) -> tuple:
    """Prediction and detection boxes whose x values come from one small pool."""
    pool = draw(st.lists(window_xs, min_size=1, max_size=3))
    x = st.sampled_from(pool) | st.sampled_from(pool) | window_xs
    y = st.sampled_from([0.0, 1.0]) | st.sampled_from([-1e308, 1e308]) | st.floats(-3.0, 3.0)

    def boxes():
        return [box(x=draw(x), y=draw(y), z=draw(st.sampled_from([0.0, 0.0, 0.5, 3.0])),
                    a=draw(st.floats(-math.pi, math.pi)), l=draw(window_extents),
                    w=draw(window_extents), h=draw(st.sampled_from([1.0, 2.0]) | window_extents))
                for _ in range(draw(st.integers(0, 6)))]
    return boxes(), boxes()


@settings(max_examples=200, deadline=None)
@given(window_frames())
@example(([box(), box(x=2.0), box(x=2.0, y=1.0)], [box(x=2.0), box(x=4.0), box(x=-2.0)]))
@example(([box(x=1.7976931348623157e308, l=1e300)], [box(x=-1.7976931348623157e308, l=1e300),
                                                      box(x=1.7976931348623157e308)]))
def test_windowed_iou_affinity_equals_the_all_cells_affinity(frame):
    boxes, detections = frame
    prediction, detected = as_prediction(boxes), observation_rows(detections)
    n, m = len(boxes), len(detections)
    splits = ([(slice(0, cut), slice(0, split)), (slice(cut, n), slice(split, m))]
              for cut, split in itertools.product(range(n + 1), range(m + 1)))  # every cut
    for blocks in [None, *splits]:
        expected, allowed = runtime_warnings(lambda: all_cells_iou_affinity(
            prediction, detected, blocks or [(slice(0, n), slice(0, m))]))
        for least in (association._GATE_MIN_PAIRS, 1):  # every pair here, then the window
            with unittest.mock.patch.object(association, "_GATE_MIN_PAIRS", least):
                values, raised = runtime_warnings(
                    lambda: iou_affinity(prediction, detected, blocks=blocks).values)
            # the same values, and no warning that the all-cells prune does not raise
            assert np.array_equal(values, expected, equal_nan=True) and raised <= allowed


def test_an_iou_window_bound_past_the_float_range_raises_no_warning():
    top = box(x=1.7976931348623157e308, l=1e300, w=1e300)  # x + reach rounds to inf
    prediction, detected = as_prediction([top]), observation_rows([top])
    expected = all_cells_iou_affinity(prediction, detected, [(slice(0, 1), slice(0, 1))])
    with unittest.mock.patch.object(association, "_GATE_MIN_PAIRS", 1), warnings.catch_warnings():
        warnings.simplefilter("error")
        # NaN, as the volumes overflow: the pair is scored, as the all-cells prune scores it
        assert np.array_equal(iou_affinity(prediction, detected).values, expected, equal_nan=True)
