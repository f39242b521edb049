import itertools
import math
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mot3d import association
from mot3d.association import footprint_corners, iou_affinity, iou_pairs
from mot3d.core import Observation, observation_rows, wrap_angle
from mot3d.kalman import Prediction


# The scalar reference: Sutherland-Hodgman clipping of one pair at a time
# over Python tuples.  iou_pairs must give every pair exactly its floats.
# A seen Counter, where given, records the rare branches a pair takes.

def reference_corners(box: Observation) -> np.ndarray:
    """Corners of the box footprint in the x-y plane, counter-clockwise."""
    cos_a = math.cos(box.a)
    sin_a = math.sin(box.a)
    half_l = box.l / 2.0
    half_w = box.w / 2.0
    local = np.array([
        [half_l, half_w],
        [-half_l, half_w],
        [-half_l, -half_w],
        [half_l, -half_w],
    ])
    rotation = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
    return local @ rotation.T + np.array([box.x, box.y])


def clip_polygon(subject, clip, seen=None) -> list:
    """Clip a convex polygon against a counter-clockwise convex polygon.

    Points on an edge count as inside, so clipping a polygon against
    itself returns it unchanged.
    """
    output = [tuple(p) for p in subject]
    clip = [tuple(p) for p in clip]
    for k in range(len(clip)):
        if not output:
            break
        edge_start = clip[k]
        edge_end = clip[(k + 1) % len(clip)]

        def inside(p):
            return ((edge_end[0] - edge_start[0]) * (p[1] - edge_start[1])
                    - (edge_end[1] - edge_start[1]) * (p[0] - edge_start[0])) >= 0.0

        def intersect(p, q):
            # Line (edge_start, edge_end) crossed with segment (p, q).
            dc = (edge_start[0] - edge_end[0], edge_start[1] - edge_end[1])
            dp = (p[0] - q[0], p[1] - q[1])
            denom = dc[0] * dp[1] - dc[1] * dp[0]
            if abs(denom) <= 1e-12 * math.hypot(*dc) * math.hypot(*dp):
                if seen is not None:
                    seen["near-parallel shortcut"] += 1
                return q
            n1 = edge_start[0] * edge_end[1] - edge_start[1] * edge_end[0]
            n2 = p[0] * q[1] - p[1] * q[0]
            return ((n1 * dp[0] - n2 * dc[0]) / denom,
                    (n1 * dp[1] - n2 * dc[1]) / denom)

        polygon = output
        output = []
        for idx in range(len(polygon)):
            current = polygon[idx]
            previous = polygon[idx - 1]
            if inside(current):
                if not inside(previous):
                    output.append(intersect(previous, current))
                output.append(current)
            elif inside(previous):
                output.append(intersect(previous, current))
    if seen is not None and len(output) > 8:
        seen["more than 8 vertices"] += 1
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


def reference_iou_3d(box_a: Observation, box_b: Observation, seen=None) -> float:
    """3D IOU of two upright yawed boxes, footprint overlap times height overlap."""
    with np.errstate(all="ignore"):  # overflowing footprints give NaN silently
        overlap = polygon_area(clip_polygon(reference_corners(box_a), reference_corners(box_b),
                                            seen))
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
        return 1.0 if intersection > union else intersection / union


def box(x=0.0, y=0.0, z=0.0, a=0.0, l=2.0, w=2.0, h=2.0) -> Observation:
    return Observation(x, y, z, a, l, w, h)


def one_pair_iou(box_a: Observation, box_b: Observation) -> float:
    """iou_pairs on the single pair (box_a, box_b)."""
    return float(iou_pairs(observation_rows([box_a]), observation_rows([box_b]))[0])


def one_box_corners(box: Observation) -> np.ndarray:
    """footprint_corners of a single box: its (4, 2) corners."""
    return footprint_corners(observation_rows([box]))[0]


def volume(o: Observation) -> float:
    return o.l * o.w * o.h


def as_prediction(observations) -> Prediction:
    """A stacked prediction whose row k is box k at rest."""
    mean = np.zeros((len(observations), 11))
    mean[:, :7] = observation_rows(observations)
    return Prediction(mean, np.broadcast_to(np.eye(11), (len(mean), 11, 11)),
                      np.broadcast_to(np.eye(7), (len(mean), 7, 7)))


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
    square = [(0, 0), (2, 0), (2, 2), (0, 2)]
    clipped = clip_polygon(square, square)
    assert polygon_area(clipped) == pytest.approx(4.0, abs=1e-12)


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
    overlap = polygon_area(clip_polygon(one_box_corners(a), one_box_corners(b)))
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
def test_rigid_motion_invariance(a, b, tx, ty, rot):
    def moved(o: Observation) -> Observation:
        c, s = math.cos(rot), math.sin(rot)
        return Observation(c * o.x - s * o.y + tx, s * o.x + c * o.y + ty, o.z,
                           wrap_angle(o.a + rot), o.l, o.w, o.h)

    assert one_pair_iou(moved(a), moved(b)) == pytest.approx(one_pair_iou(a, b), abs=1e-9)


def mc_iou(a: Observation, b: Observation, rng, samples=200_000) -> float:
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

    Clipping two almost equal footprints leaves rounding slivers, so
    the scalar clipper can emit more than 8 vertices.
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
    segments straddle each other's edges only through rounding and take
    the near-parallel shortcut.
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
    assert seen.keys() == {"near-parallel shortcut", "more than 8 vertices", "NaN", "positive"}


def test_near_parallel_bounds_give_the_hypot_test_exactly():
    # denominators at the threshold, one ulp either side of it and a
    # relative 1e-15 or 1e-9 off it, for segments from 1e-160 to 1e160
    # long (a quarter of them short enough for a subnormal threshold),
    # with zero, subnormal, infinite and NaN components mixed in
    rng = np.random.default_rng(23)
    count = 20_000
    exponents = np.where(rng.random((count, 1, 1)) < 0.25, rng.uniform(-160, -145, (count, 2, 1)),
                         rng.uniform(-160, 160, (count, 2, 1)))
    vectors = rng.normal(size=(count, 2, 2)) * 10.0 ** exponents
    special = rng.random(vectors.shape) < 0.02
    vectors[special] = rng.choice([0.0, -0.0, 5e-324, 1e-300, 1e300, math.inf, math.nan],
                                  np.count_nonzero(special))
    dc, dp = vectors[:, 0], vectors[:, 1]
    with np.errstate(all="ignore"):
        thresholds = np.array([1e-12 * math.hypot(*c) * math.hypot(*p)
                               for c, p in zip(dc.tolist(), dp.tolist())])
        offsets = rng.choice([0.0, 0.5, 1 - 1e-9, 1 - 1e-15, 1.0, 1 + 1e-15, 1 + 1e-9, 2.0], count)
        denom = np.select([rng.random(count) < 0.2, rng.random(count) < 0.25],
                          [np.nextafter(thresholds, math.inf), np.nextafter(thresholds, 0.0)],
                          thresholds * offsets)
        denom *= rng.choice([1.0, -1.0], count)
        near = association._near_parallel(denom, dc, dp)
    assert np.array_equal(near, np.abs(denom) <= thresholds)
    assert 0 < np.count_nonzero(near) < count


def test_iou_affinity_rejects_an_invalid_prediction_that_overlaps_nothing():
    prediction = as_prediction([box(), box(x=100.0, y=100.0)])
    prediction.mean[1, 4] = -1.0  # l <= 0
    with pytest.raises(ValueError, match="l must be positive"):
        iou_affinity(prediction, observation_rows([box(), box(x=1.0)]))
