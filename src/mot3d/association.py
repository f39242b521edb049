"""Data association between predicted tracks and detections.

Two affinities score the pairs within blocks (the tracker's classes) of a
stacked prediction of N tracks and M detections: the Mahalanobis distance
between a detection and the predicted observation distribution (whose
diagonal S makes it elementwise), and the 3D intersection-over-union of
the two boxes.  IOU has one implementation, iou_pairs: it places each
candidate pair's first footprint (footprint_corners, which viz draws too)
in the second box's own frame, clips all the pairs of a call together,
one array pass per axis-aligned side, and gives each pair the floats
that clipping it alone with Python floats would give.  In that frame a
crossing divides by no cancelled difference of products, and the IOU
does not depend on where the pair lies.
The Mahalanobis affinity also returns each scored pair's
orientation-corrected predicted yaw, which the tracker's update takes.
The tracker turns either affinity into a plain (N, M) distance array and
a limit per class (1 - IOU under 1 - T for a minimum IOU T), and two
bipartite matchers return only matched index pairs, never a non-finite
one: a greedy nearest-first matcher, which takes a frame's whole array at
once, and an optimal assignment (Hungarian) matcher with post-assignment
thresholding, which takes one class's block.  Greedy reads only pairs
below the limit, so for it the Mahalanobis affinity takes the limits and,
on large blocks, scores only the pairs whose (x, y) terms of the squared
distance, a lower bound of the whole sum, fall within the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core import ANGLE_INDEX, OBS_DIM, checked_rows, wrap_angle_array, wrap_finite_array
from .kalman import AxisPrediction


@dataclass(frozen=True)
class AffinityMatrix:
    """Pairwise affinities, rows = predictions, columns = detections.

    mahalanobis_affinity adds yaws, the (N, M) orientation-corrected
    predicted yaw of each scored pair, which the tracker's update takes.
    perfbench/layers.py reads values; ROADMAP item 3 returns the bare
    array, with yaws kept as a second output beside it.
    """

    values: np.ndarray
    yaws: np.ndarray | None = None


@dataclass(frozen=True)
class MatchResult:
    """One-to-one matching outcome over a distance array.

    pairs hold (prediction_index, detection_index) tuples sorted
    best-first; every index not in a pair is unmatched.
    perfbench/layers.py reads pairs; ROADMAP item 3 returns them bare.
    """

    pairs: tuple


def orientation_correct(predicted_angle, detected_angle):
    """Flip the predicted yaw by pi where it faces away from the detection.

    Detectors cannot tell a box from its 180-degree flip, so where the
    wrapped difference lies beyond pi/2 in magnitude the prediction is
    rotated by pi before residuals are formed.  The angles are arrays that
    broadcast; returns the corrected predicted yaws, wrapped, as an array
    of their broadcast shape.  Covariances are left alone: the flip
    relabels an orientation the box cannot distinguish, it adds no
    information.
    """
    predicted_angle = wrap_angle_array(predicted_angle)
    delta = wrap_angle_array(np.subtract(detected_angle, predicted_angle))
    return np.where(np.abs(delta) > math.pi / 2.0,
                    wrap_angle_array(predicted_angle + math.pi), predicted_angle)


# The (x, y) gate's relative margin, the limits within which it prunes, and
# the coordinate magnitude within which no residual it skips can overflow.
_GATE_MARGIN, _GATE_LIMITS, _GATE_SCALE = 1e-9, (1e-10, 1e10), 1e300
# Smaller blocks are scored in full: the bound costs more than it saves.
_GATE_MIN_PAIRS = 512
# Residuals are formed this many pairs at a time, capping their memory.
_STACK_PAIRS = 1024


def _kept_pairs(weights: np.ndarray, predicted: np.ndarray, detected: np.ndarray,
                blocks, limits) -> np.ndarray:
    """The (N, M) mask of the pairs to score: every cell of each block the gate keeps.

    A NaN bound keeps its pair: a coordinate on either side beyond
    _GATE_SCALE or not finite gives one (a failing S raises in any case).
    """
    kept, xy = np.zeros((len(predicted), len(detected)), dtype=bool), None
    for (rows, cols), limit in zip(blocks, limits or [None] * len(blocks)):
        cells = kept[rows, cols]
        if (limit is None or cells.size < _GATE_MIN_PAIRS
                or not _GATE_LIMITS[0] <= limit <= _GATE_LIMITS[1]):
            cells[...] = True
            continue
        with np.errstate(all="ignore"):
            if xy is None:
                xy = np.where(np.abs(detected).max(axis=1, keepdims=True) <= _GATE_SCALE,
                              detected[:, :2], math.nan)
            scaled = np.where(np.abs(predicted[rows]).max(axis=1, keepdims=True) <= _GATE_SCALE,
                              weights[rows, :2], math.nan)
            bound = np.square((xy[cols, 0] - predicted[rows, 0, None]) * scaled[:, 0, None])
            bound += np.square((xy[cols, 1] - predicted[rows, 1, None]) * scaled[:, 1, None])
            np.logical_not(bound > (limit * (1.0 + _GATE_MARGIN)) ** 2, out=cells)
    return kept


def _distances(detected: np.ndarray, predicted: np.ndarray, weights: np.ndarray,
               rows: np.ndarray, cols: np.ndarray) -> tuple:
    """Squared distances of the pairs (rows[k], cols[k]), their corrected yaws, finite residuals.

    The pairs are taken _STACK_PAIRS at a time, so temporaries stay small.
    Each pair's yaw residual is taken against the row's yaw and against
    that yaw flipped by pi, both wrapped in one call, and the flip is kept
    where the first lies beyond pi/2 in magnitude: orientation_correct's
    floats.  The distance is nu . ((nu * w) * w), a stack of 1 x 7 by 7 x 1
    matmuls, which add the products in a dot product's order.
    """
    scores, corrected, finite = np.empty(len(rows)), np.empty(len(rows)), np.empty(len(rows), bool)
    yaws = np.empty((len(predicted), 2))  # each row's yaw, and its flip
    yaws[:, 0] = predicted[:, ANGLE_INDEX]
    yaws[:, 1] = wrap_finite_array(predicted[:, ANGLE_INDEX] + math.pi)
    for start in range(0, len(rows), _STACK_PAIRS):
        stack = slice(start, start + _STACK_PAIRS)
        nu, pair_yaws = detected.take(cols[stack], axis=0), yaws.take(rows[stack], axis=0)
        deltas = wrap_angle_array(nu[:, ANGLE_INDEX, None] - pair_yaws)
        nu -= predicted.take(rows[stack], axis=0)  # yaws less the wrapped yaws
        flip = np.abs(deltas[:, 0]) > math.pi / 2.0
        nu[:, ANGLE_INDEX] = np.where(flip, deltas[:, 1], deltas[:, 0])
        corrected[stack] = np.where(flip, pair_yaws[:, 1], pair_yaws[:, 0])
        finite[stack] = np.isfinite(nu).all(axis=1)
        w = weights.take(rows[stack], axis=0)
        np.matmul(nu[:, None, :], ((nu * w) * w)[:, :, None], out=scores[stack, None, None])
    return scores, corrected, finite


def mahalanobis_affinity(prediction: AxisPrediction, detected: np.ndarray,
                         blocks=None, limits=None) -> AffinityMatrix:
    """Pairwise Mahalanobis distances of a stacked per-axis prediction and (M, 7) detection rows.

    Each scored pair gets the floats of a Cholesky solve with its dense S.
    Only the pairs of blocks, (rows, columns) slices in ascending rows, no
    two sharing a row (by default all pairs), are scored; the others score
    inf.  The first failing row of the blocks (AxisPrediction.check) is
    named.  The result's yaws hold each scored pair's predicted yaw as
    orientation_correct corrects it, bit for bit; the other cells are NaN.

    limits, one per block, gate each block of at least _GATE_MIN_PAIRS
    pairs for the greedy matcher, which reads only pairs below their
    limit.  A pair whose (x, y) terms alone, (dx * w_x)^2 + (dy * w_y)^2,
    exceed the squared limit by a relative 2e-9 scores inf with no
    residual: the squared distance adds five non-negative terms, and each
    term is within a few ulps of exact.  The gate prunes only where the
    limit lies within _GATE_LIMITS (no term underflows) and every
    coordinate of both sides within _GATE_SCALE (no skipped residual
    overflows), so a NaN, inf or huge entry raises its error as ungated.
    """
    predicted = prediction.mean[:, :OBS_DIM].copy()
    blocks = blocks or [(slice(0, len(predicted)), slice(0, len(detected)))]
    predicted[:, ANGLE_INDEX] = wrap_angle_array(predicted[:, ANGLE_INDEX])
    weights = prediction.weights
    kept = _kept_pairs(weights, predicted, detected, blocks, limits)
    pair_rows, pair_cols = np.divmod(np.flatnonzero(kept), len(detected))  # block by block
    with np.errstate(all="ignore"):  # a failing row raises below; inf distances never match
        scores, pair_yaws, finite = _distances(detected, predicted, weights, pair_rows, pair_cols)
    rows = np.concatenate([np.arange(len(predicted))[block_rows] for block_rows, _ in blocks])
    prediction.check(rows, ~np.isin(rows, pair_rows[~finite]))
    values, yaws = np.full(kept.shape, math.inf), np.full(kept.shape, math.nan)
    values[kept], yaws[kept] = scores, pair_yaws
    return AffinityMatrix(np.sqrt(values, out=values), yaws)


def _z_extents(rows: np.ndarray) -> tuple:
    """Bottoms and tops of (K, 7) box rows."""
    z, half_h = rows[:, 2], rows[:, 6] / 2.0
    return z - half_h, z + half_h


def iou_affinity(prediction: AxisPrediction, detected: np.ndarray, blocks=None) -> AffinityMatrix:
    """Pairwise 3D IOU between the boxes of a stacked (N, 11) prediction and (M, 7) detection rows.

    Only the pairs of blocks, (rows, columns) slices (by default all
    pairs), are computed; the others score 0.  A pair whose footprint
    circles (centered on the box, radius half the footprint diagonal) or
    height intervals are disjoint scores 0 without clipping, as clipping
    would score it; the other pairs go to iou_pairs in one call.  Circles
    within a relative 1e-9 of touching count as overlapping, so rounding
    cannot drop a pair that iou_pairs scores above 0.
    """
    candidates = []  # per block: the predicted rows of its candidate pairs, and their cells
    for rows, cols in blocks or [(slice(0, len(prediction.mean)), slice(0, len(detected)))]:
        predicted, boxes = checked_rows(prediction.mean[rows, :OBS_DIM].copy()), detected[cols]
        bottoms_a, tops_a = _z_extents(predicted)
        bottoms_b, tops_b = _z_extents(boxes)
        radii_a, radii_b = (0.5 * np.hypot(side[:, 4], side[:, 5]) for side in (predicted, boxes))
        near = (center_distances(predicted, boxes)
                <= (radii_a[:, None] + radii_b[None, :]) * (1.0 + 1e-9))
        # The same sums iou_pairs forms: its height overlap is positive exactly here.
        z_overlap = (np.minimum(tops_a[:, None], tops_b[None, :])
                     > np.maximum(bottoms_a[:, None], bottoms_b[None, :]))
        i, j = np.nonzero(near & z_overlap)
        candidates.append((predicted[i], i + rows.start, j + cols.start))
    picked, rows, cols = (np.concatenate(side) for side in zip(*candidates))
    values = np.zeros((len(prediction.mean), len(detected)))
    values[rows, cols] = iou_pairs(picked, detected[cols])
    return AffinityMatrix(values)


# Footprint corner offsets in units of (l/2, w/2), counter-clockwise.
_CORNER_SIGNS = np.array([[1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])


def _cos_sin(angles: np.ndarray) -> tuple:
    """cos and sin of each angle from math, one at a time: np.cos can differ in the last bit."""
    angles = angles.tolist()
    return (np.fromiter(map(math.cos, angles), float, len(angles)),
            np.fromiter(map(math.sin, angles), float, len(angles)))


def footprint_corners(rows: np.ndarray) -> np.ndarray:
    """(K, 4, 2) footprint corners in the x-y plane of (K, 7) box rows, counter-clockwise.

    The l extent runs along the yaw direction, w across it.  The rotation
    is one stacked matmul, which gives each box the floats of its own
    (4, 2) @ (2, 2) matmul; an elementwise product would not, where BLAS
    fuses a multiply and an add.
    """
    cos_a, sin_a = _cos_sin(rows[:, ANGLE_INDEX])
    rotation = np.stack([cos_a, -sin_a, sin_a, cos_a], axis=1).reshape(-1, 2, 2)
    return (_CORNER_SIGNS * (rows[:, None, 4:6] / 2.0)) @ rotation.transpose(0, 2, 1) \
        + rows[:, None, :2]


# The sides of a box in its own frame, in footprint_corners' counter-clockwise
# order, as (axis, sign): the inside of a side holds sign * coordinate <= the
# half extent along axis (v <= w/2, u >= -l/2, v >= -w/2, u <= l/2).
_SIDES = ((1, 1.0), (0, -1.0), (1, -1.0), (0, 1.0))


def _clip_side(points: np.ndarray, counts: np.ndarray, axis: int, sign: float, half: np.ndarray):
    """One Sutherland-Hodgman pass: K convex polygons clipped against one side each.

    Polygon k holds its counts[k] vertices in the first slots of row k
    of the (K, n, 2) points, in the clip box's frame; its side is the
    line where coordinate axis equals c = sign * half[k], and points on
    it count as inside.  Each vertex emits, in order, the crossing of the
    side with the segment from its predecessor (where the two lie on
    different sides) and itself (where it is inside).  A crossing runs
    from the segment's inside end p toward its outside end q, at
    t = (c - p_axis) / (q_axis - p_axis): the divisor never cancels, and
    the crossing lies on the side exactly.  Rounding can leave a polygon
    a few ulps from convex, so the result takes as many slots as its
    longest polygon needs; the slots past a polygon's count hold junk.
    """
    owner, slots = np.arange(len(counts))[:, None], np.arange(points.shape[1])
    valid = slots < counts[:, None]
    inside = valid & (sign * points[..., axis] <= half[:, None])
    previous = np.where(slots == 0, counts[:, None] - 1, slots - 1)
    crossing = valid & (inside != inside[owner, previous])

    k, j = np.nonzero(crossing)
    current, before = points[k, j], points[k, previous[k, j]]
    current_inside = inside[k, j, None]
    p, q = np.where(current_inside, current, before), np.where(current_inside, before, current)
    bound = sign * half[k]
    t = (bound - p[:, axis]) / (q[:, axis] - p[:, axis])
    crossed = p + t[:, None] * (q - p)
    crossed[:, axis] = bound

    # Slot 2i holds vertex i's crossing, slot 2i + 1 the vertex itself; a
    # stable sort moves the emitted slots to the front, in order.
    emitted = np.empty((len(counts), 2 * points.shape[1]), dtype=bool)
    emitted[:, 0::2], emitted[:, 1::2] = crossing, inside
    candidates = np.repeat(points, 2, axis=1)
    candidates[k, 2 * j] = crossed
    counts = np.count_nonzero(emitted, axis=1)
    order = np.argsort(~emitted, axis=1, kind="stable")[:, :counts.max(initial=0)]
    return candidates[owner, order], counts


def _shoelace(points: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sign-free shoelace areas of the polygons _clip_side leaves, 0 below 3 vertices."""
    slots = np.arange(points.shape[1])
    following = points[np.arange(len(counts))[:, None],
                       np.where(slots + 1 < counts[:, None], slots + 1, 0)]
    terms = np.where(slots < counts[:, None],
                     points[..., 0] * following[..., 1] - following[..., 0] * points[..., 1], 0.0)
    area = np.zeros(len(counts))
    for column in terms.T:  # in vertex order: np.sum would add pairwise
        area = area + column
    return np.where(counts < 3, 0.0, np.abs(area) / 2.0)


def iou_pairs(rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
    """3D intersection-over-union of row k of rows_a with row k of rows_b.

    Both are (K, 7) rows of upright yawed boxes.  The intersection
    volume factors into the overlap area of the yawed footprints times
    the vertical extent overlap, because both boxes rotate only around
    the vertical axis.  The footprint of a is placed in the frame of b
    (its center difference turned by -yaw_b, its corners at the relative
    yaw yaw_a - yaw_b), clipped against b's four sides |u| <= l/2 and
    |v| <= w/2 (Sutherland-Hodgman, all K pairs per side at once), then
    measured by the shoelace formula.  In b's frame every side is
    axis-aligned, so a crossing divides by no cancelled product, and
    the result does not depend on where the pair lies.  Footprints whose
    coordinate products overflow (extents near 1e200) give NaN silently,
    and a NaN never matches.
    """
    with np.errstate(all="ignore"):
        cos_b, sin_b = _cos_sin(rows_b[:, ANGLE_INDEX])
        dx, dy = rows_a[:, 0] - rows_b[:, 0], rows_a[:, 1] - rows_b[:, 1]
        local = rows_a.copy()  # box a in the frame of box b
        local[:, 0], local[:, 1] = cos_b * dx + sin_b * dy, cos_b * dy - sin_b * dx
        local[:, ANGLE_INDEX] -= rows_b[:, ANGLE_INDEX]
        points, counts = footprint_corners(local), np.full(len(rows_a), 4)
        half = rows_b[:, 4:6] / 2.0
        for axis, sign in _SIDES:
            points, counts = _clip_side(points, counts, axis, sign, half[:, axis])
        overlap = _shoelace(points, counts)
        bottoms_a, tops_a = _z_extents(rows_a)
        bottoms_b, tops_b = _z_extents(rows_b)
        # min and max as Python's builtins take them, NaN included
        height = (np.where(tops_b < tops_a, tops_b, tops_a)
                  - np.where(bottoms_b > bottoms_a, bottoms_b, bottoms_a))
        intersection = overlap * np.where(height > 0.0, height, 0.0)
        union = (rows_a[:, 4] * rows_a[:, 5] * rows_a[:, 6]
                 + rows_b[:, 4] * rows_b[:, 5] * rows_b[:, 6] - intersection)
        # clipping noise on near-identical boxes can push the ratio a few ulps
        # past one; a NaN ratio (footprint areas that overflow) never matches
        return np.where(intersection <= 0.0, 0.0,
                        np.where(intersection > union, 1.0, intersection / union))


def candidate_order(distances: np.ndarray, limit: float) -> tuple:
    """Row and column index lists of an (N, M) array's candidate pairs, best first.

    Only finite pairs strictly below the limit are candidates, so NaN
    and +-inf entries never match.  Candidates are listed in ascending
    distance, ties broken by row index and then column index (a stable
    sort of the row-major candidate indices).  Keeping any subset of
    the columns keeps the order of the candidates left.
    """
    flat = distances.ravel()
    candidates = np.flatnonzero(flat < limit)
    candidates = candidates[flat[candidates] > -math.inf]
    order = candidates[np.argsort(flat[candidates], kind="stable")]
    rows, cols = divmod(order, distances.shape[1])
    return rows.tolist(), cols.tolist()


def greedy_scan(rows: Sequence[int], cols: Sequence[int], free_rows: list,
                free_cols: list) -> list:
    """Accept the ordered candidates whose row and column are both still free.

    Marks the accepted rows and columns taken in the two flag lists and
    returns the accepted (row, column) pairs in candidate order.
    """
    pairs = []
    for i, j in zip(rows, cols):
        if free_rows[i] and free_cols[j]:
            free_rows[i] = free_cols[j] = False
            pairs.append((i, j))
    return pairs


def greedy_match(distances: np.ndarray, limit: float) -> MatchResult:
    """Greedy nearest-first one-to-one matching over an (N, M) distance array.

    A candidate pair (candidate_order) is accepted while both its
    prediction and its detection are still free.
    """
    n_pred, n_det = distances.shape
    rows, cols = candidate_order(distances, limit)
    return MatchResult(tuple(greedy_scan(rows, cols, [True] * n_pred, [True] * n_det)))


# hungarian_match scales costs whose stand-in would exceed this, far
# beyond any ordinary total, so the solver's own sums cannot overflow.
_LARGEST_STAND_IN = 2.0 ** 960


def hungarian_match(distances: np.ndarray, limit: float) -> MatchResult:
    """Optimal-assignment matching with post-assignment thresholding.

    The assignment minimizes the total over an (N, M) distance array;
    pairs at or beyond the limit are then removed, mirroring trackers
    that filter an optimal assignment instead of gating inside it.
    NaN and +-inf pairs never match: the assignment keeps as many finite
    pairs as any can, and among those minimizes their total.  The first
    call that solves imports scipy.optimize, which greedy runs never load.
    """
    if distances.size == 0:
        return MatchResult(())
    finite = np.isfinite(distances)
    # The solver needs finite costs.  Any two assignments' finite totals
    # differ by at most twice the sum of |finite entries|, so a stand-in
    # above that makes one more non-finite pair always cost more, and
    # stays small enough not to round the finite totals away.
    magnitudes = np.abs(distances[finite])
    with np.errstate(over="ignore"):
        infeasible = 1.0 + 2.0 * magnitudes.sum()
    costs = distances
    if not infeasible <= _LARGEST_STAND_IN:
        # Costs near the float range: scaling them all by one power of two
        # is exact (bar subnormals), so it keeps every comparison of totals.
        scale = 2.0 ** -math.frexp(magnitudes.max())[1]
        costs, infeasible = distances * scale, 1.0 + 2.0 * (magnitudes * scale).sum()
    from scipy.optimize import linear_sum_assignment  # loaded on first use, never by greedy runs
    rows, cols = linear_sum_assignment(np.where(finite, costs, infeasible))
    pairs = [(i, j) for i, j in zip(rows.tolist(), cols.tolist())
             if finite[i, j] and distances[i, j] < limit]
    pairs.sort(key=lambda pair: (distances[pair], *pair))
    return MatchResult(tuple(pairs))


def center_distances(boxes_a, boxes_b) -> np.ndarray:
    """2D distances between the centers of two sides, as greedy_center_match takes them."""
    a, b = (boxes[:, :2] if isinstance(boxes, np.ndarray)
            else np.array([(box.x, box.y) for box in boxes], dtype=float).reshape(-1, 2)
            for boxes in (boxes_a, boxes_b))
    return np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])


def greedy_center_match(boxes_a, boxes_b, gate: float) -> MatchResult:
    """Greedy one-to-one matching (greedy_match) by ascending 2D center distance.

    Each side is a sequence of Boxes or an (n, >= 2) array whose
    first two columns are x and y.  Used by the evaluation protocol and
    by observation-noise calibration; z is ignored, and a pair at or
    beyond the gate never matches.
    """
    return greedy_match(center_distances(boxes_a, boxes_b), gate)


MATCHERS = {
    "greedy": greedy_match,
    "hungarian": hungarian_match,
}
