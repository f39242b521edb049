"""Data association between predicted tracks and detections.

Two affinities score the pairs within blocks (the tracker's classes) of a
stacked prediction of N tracks and M detections: the Mahalanobis distance
between a detection and the predicted observation distribution, and the
3D intersection-over-union of the two boxes.  IOU has one implementation,
iou_pairs: it clips the footprints of all the candidate pairs of a call
together, one array pass per clip edge, and gives each pair the floats
that clipping it alone with Python floats would give.  The tracker turns
either into a plain (N, M) distance array and a limit per class (1 - IOU
under 1 - T for a minimum IOU T), and two bipartite matchers take a
class's block of it and return index pairs, never a non-finite one: a
greedy nearest-first matcher and an optimal assignment (Hungarian)
matcher with post-assignment thresholding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import (ANGLE_INDEX, OBS_DIM, Observation, checked_rows, observation_residual,
                   observation_rows, wrap_angle_array)
from .kalman import Prediction, finite_blocks


@dataclass(frozen=True)
class AffinityMatrix:
    """Pairwise affinities, rows = predictions, columns = detections.

    perfbench/layers.py reads values; ROADMAP item 3 returns the bare array.
    """

    values: np.ndarray


@dataclass(frozen=True)
class MatchResult:
    """One-to-one matching outcome over a distance array.

    pairs hold (prediction_index, detection_index) tuples sorted
    best-first; the unmatched index tuples are sorted ascending.
    """

    pairs: tuple
    unmatched_predictions: tuple
    unmatched_detections: tuple


def orientation_correct(predicted_angle, detected_angle):
    """Flip the predicted yaw by pi where it faces away from the detection.

    Detectors cannot tell a box from its 180-degree flip, so where the
    wrapped difference lies beyond pi/2 in magnitude the prediction is
    rotated by pi before residuals are formed.  The angles are scalars or
    arrays that broadcast; returns the corrected predicted yaw, wrapped,
    in their shape.  Covariances are left alone: the flip relabels
    an orientation the box cannot distinguish, it adds no information.
    """
    predicted_angle = wrap_angle_array(predicted_angle)
    delta = wrap_angle_array(np.subtract(detected_angle, predicted_angle))
    flipped = np.where(np.abs(delta) > math.pi / 2.0,
                       wrap_angle_array(predicted_angle + math.pi), predicted_angle)
    return flipped if flipped.ndim else float(flipped)


def mahalanobis(prediction: Prediction, observation: Observation) -> float:
    """Mahalanobis distance sqrt(nu^T S^-1 nu) of an observation.

    The caller is expected to have orientation-corrected the prediction
    (see orientation_correct); the yaw residual is wrapped here.
    """
    nu = observation_residual(observation.to_array(), prediction.mean[:OBS_DIM])
    return math.sqrt(nu @ prediction.solve(nu, (), bool(np.isfinite(nu).all())))


def _block_differences(minuends: np.ndarray, subtrahends: np.ndarray, blocks) -> np.ndarray:
    """minuends[cols] - subtrahends[rows, None] of each block, pairs row-major, blocks joined."""
    parts = [np.subtract(minuends[cols], subtrahends[rows, None]).reshape(-1, *minuends.shape[1:])
             for rows, cols in blocks]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def mahalanobis_affinity(prediction: Prediction, detected: np.ndarray,
                         blocks=None) -> AffinityMatrix:
    """Pairwise Mahalanobis distances of a stacked prediction and (M, 7) detection rows.

    Only the pairs of blocks, (rows, columns) slices in ascending rows (by
    default all pairs), are computed; the others score inf.  Each pair's
    yaw is flipped as orientation_correct flips it, with the same floats,
    but a track's yaw and its flip are wrapped once per row.  A block's
    residuals are checked for finiteness in one pass; then each row takes
    one potrs and one quadratic form, so the first failing row is named,
    its residual checked before its factor.
    """
    predicted = prediction.mean[:, :OBS_DIM].copy()
    blocks = blocks or [(slice(0, len(predicted)), slice(0, len(detected)))]
    predicted[:, ANGLE_INDEX] = wrap_angle_array(predicted[:, ANGLE_INDEX])
    flipped_delta = wrap_angle_array(_block_differences(
        detected[:, ANGLE_INDEX], wrap_angle_array(predicted[:, ANGLE_INDEX] + math.pi), blocks))
    values = np.empty((len(predicted), len(detected)))
    with np.errstate(over="ignore"):  # inf residuals fail the solve; inf distances never match
        nu = _block_differences(detected, predicted, blocks)  # yaws less the wrapped yaws
        if len(nu) < values.size:  # some pairs lie outside the blocks
            values.fill(math.inf)
        delta = wrap_angle_array(nu[:, ANGLE_INDEX])
        nu[:, ANGLE_INDEX] = np.where(np.abs(delta) > math.pi / 2.0, flipped_delta, delta)
        start = 0
        for rows, cols in blocks:
            scored = values[rows, cols]
            pairs = nu[start:start + scored.size].reshape(*scored.shape, OBS_DIM)
            start += scored.size
            for i, (block, finite, row) in enumerate(zip(pairs, finite_blocks(pairs), scored),
                                                     rows.start):
                solved = prediction.solve(block.T, i, finite)
                # Column j is nu_j . solved_j, as a stack of 1x7 by 7x1 products.
                row[:] = (block[:, None, :] @ solved.T[:, :, None]).ravel()
    return AffinityMatrix(np.sqrt(values, out=values))


def _z_extents(rows: np.ndarray) -> tuple:
    """Bottoms and tops of (K, 7) box rows."""
    z, half_h = rows[:, 2], rows[:, 6] / 2.0
    return z - half_h, z + half_h


def iou_affinity(prediction: Prediction, detected: np.ndarray, blocks=None) -> AffinityMatrix:
    """Pairwise 3D IOU between the boxes of a stacked (N, 11) prediction and (M, 7) detection rows.

    Only the pairs of blocks, (rows, columns) slices (by default all
    pairs), are computed; the others score 0.  A pair whose footprint
    circles (centered on the box, radius half the footprint diagonal) or
    height intervals are disjoint scores 0 without clipping, the value
    iou_3d gives it; the other pairs go to iou_pairs in one call.  Circles
    within a relative 1e-9 of touching count as overlapping, so rounding
    cannot drop a pair that iou_3d scores.
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


def _corners(rows: np.ndarray) -> np.ndarray:
    """(K, 4, 2) footprint corners in the x-y plane of (K, 7) box rows, counter-clockwise.

    The l extent runs along the yaw direction, w across it.  cos and sin
    come from math one box at a time (np.cos can differ in the last bit),
    and the rotation is one stacked matmul, which gives each box the
    floats of its own (4, 2) @ (2, 2) matmul; an elementwise product
    would not, where BLAS fuses a multiply and an add.
    """
    yaws = rows[:, ANGLE_INDEX].tolist()
    cos_a = np.fromiter(map(math.cos, yaws), float, len(yaws))
    sin_a = np.fromiter(map(math.sin, yaws), float, len(yaws))
    rotation = np.stack([cos_a, -sin_a, sin_a, cos_a], axis=1).reshape(-1, 2, 2)
    return (_CORNER_SIGNS * (rows[:, None, 4:6] / 2.0)) @ rotation.transpose(0, 2, 1) \
        + rows[:, None, :2]


def box_corners_bev(box: Observation) -> np.ndarray:
    """(4, 2) corners of one box footprint in the x-y plane, counter-clockwise."""
    return _corners(observation_rows([box]))[0]


def _near_parallel(denom: np.ndarray, dc: np.ndarray, dp: np.ndarray) -> np.ndarray:
    """|denom| <= 1e-12 * math.hypot(*dc[k]) * math.hypot(*dp[k]) for each k.

    A vector's norm lies between its largest component magnitude and the
    sum of its component magnitudes, and math.hypot rounds it by under an
    ulp.  Where |denom| clears the bounds this gives by a relative 1e-9,
    far beyond the few ulps of rounding in the products, the bounds settle
    the test, provided both bounds of both vectors lie within 1e-140..1e140
    so that every product is a normal float.  Only the other rows
    (crossings near the threshold, and values out of that range or NaN)
    call math.hypot; np.hypot can differ in the last bit.
    """
    size = np.abs(denom)
    magnitudes = np.abs(np.stack([dc, dp], axis=1))  # (K, 2 vectors, 2 components)
    largest, total = magnitudes.max(axis=2), magnitudes.sum(axis=2)
    near = size <= 1e-12 * largest[:, 0] * largest[:, 1] * (1.0 - 1e-9)
    settled = ((largest.min(axis=1) >= 1e-140) & (total.max(axis=1) <= 1e140)
               & (near | (size > 1e-12 * total[:, 0] * total[:, 1] * (1.0 + 1e-9))))
    for k in np.flatnonzero(~settled).tolist():
        (a, b), (c, d) = dc[k].tolist(), dp[k].tolist()
        near[k] = size[k] <= 1e-12 * math.hypot(a, b) * math.hypot(c, d)
    return near


def _clip_edge(points: np.ndarray, counts: np.ndarray, start: np.ndarray, end: np.ndarray):
    """One Sutherland-Hodgman pass: K convex polygons clipped against one edge each.

    Polygon k holds its counts[k] vertices in the first slots of row k
    of the (K, n, 2) points; its edge runs from start[k] to end[k].
    Points on the edge count as inside.  Each vertex emits, in order,
    the crossing of the edge with the segment from its predecessor
    (where the two lie on different sides) and itself (where it is
    inside).  Rounding can emit more than the 8 vertices two convex
    quadrilaterals allow, so the result takes as many slots as its
    longest polygon needs; the slots past a polygon's count hold junk.
    """
    owner, slots = np.arange(len(counts))[:, None], np.arange(points.shape[1])
    sx, sy, ex, ey = start[:, :1], start[:, 1:], end[:, :1], end[:, 1:]
    xs, ys = points[..., 0], points[..., 1]
    valid = slots < counts[:, None]
    inside = valid & ((ex - sx) * (ys - sy) - (ey - sy) * (xs - sx) >= 0.0)
    previous = np.where(slots == 0, counts[:, None] - 1, slots - 1)
    crossing = valid & (inside != inside[owner, previous])

    # Line (start, end) crossed with segment (p, q), for each crossing.
    k, j = np.nonzero(crossing)
    p, q = points[k, previous[k, j]], points[k, j]
    dc, dp = (start - end)[k], p - q
    denom = dc[:, 0] * dp[:, 1] - dc[:, 1] * dp[:, 0]
    near_parallel = _near_parallel(denom, dc, dp)
    n1 = (start[:, 0] * end[:, 1] - start[:, 1] * end[:, 0])[k]
    n2 = p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]
    # Nearly parallel segments only straddle the edge through rounding, so
    # q sits on it to working precision; dividing by the tiny cross term
    # would blow up.
    crossed = np.where(near_parallel[:, None], q,
                       (n1[:, None] * dp - n2[:, None] * dc) / denom[:, None])

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
    """Sign-free shoelace areas of the polygons _clip_edge leaves, 0 below 3 vertices."""
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
    the vertical axis.  The footprint of a is clipped against the four
    edges of the footprint of b (Sutherland-Hodgman, all K pairs per
    edge at once), then measured by the shoelace formula.  Footprints
    whose coordinate products overflow (extents near 1e200) give NaN
    silently, and a NaN never matches.
    """
    with np.errstate(all="ignore"):
        clip = _corners(rows_b)
        points, counts = _corners(rows_a), np.full(len(rows_a), 4)
        for k in range(4):
            points, counts = _clip_edge(points, counts, clip[:, k], clip[:, (k + 1) % 4])
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


def iou_3d(box_a: Observation, box_b: Observation) -> float:
    """3D intersection-over-union of two upright yawed boxes: iou_pairs on one pair."""
    return float(iou_pairs(observation_rows([box_a]), observation_rows([box_b]))[0])


def _match_result(pairs: list, n_pred: int, n_det: int) -> MatchResult:
    matched_pred = {i for i, _ in pairs}
    matched_det = {j for _, j in pairs}
    return MatchResult(
        tuple(pairs),
        tuple(i for i in range(n_pred) if i not in matched_pred),
        tuple(j for j in range(n_det) if j not in matched_det),
    )


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
    pairs = greedy_scan(rows, cols, [True] * n_pred, [True] * n_det)
    return _match_result(pairs, n_pred, n_det)


# hungarian_match scales costs whose stand-in would exceed this, far
# beyond any ordinary total, so the solver's own sums cannot overflow.
_LARGEST_STAND_IN = 2.0 ** 960


def hungarian_match(distances: np.ndarray, limit: float) -> MatchResult:
    """Optimal-assignment matching with post-assignment thresholding.

    The assignment minimizes the total over an (N, M) distance array;
    pairs at or beyond the limit are then removed, mirroring trackers
    that filter an optimal assignment instead of gating inside it.
    NaN and +-inf pairs never match: the assignment keeps as many finite
    pairs as any can, and among those minimizes their total.
    """
    n_pred, n_det = distances.shape
    if n_pred == 0 or n_det == 0:
        return _match_result([], n_pred, n_det)
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
    rows, cols = linear_sum_assignment(np.where(finite, costs, infeasible))
    pairs = [(i, j) for i, j in zip(rows.tolist(), cols.tolist())
             if finite[i, j] and distances[i, j] < limit]
    pairs.sort(key=lambda pair: (distances[pair], *pair))
    return _match_result(pairs, n_pred, n_det)


def center_distances(boxes_a, boxes_b) -> np.ndarray:
    """2D distances between the centers of two sides, as greedy_center_match takes them."""
    a, b = (boxes[:, :2] if isinstance(boxes, np.ndarray)
            else np.array([(box.x, box.y) for box in boxes], dtype=float).reshape(-1, 2)
            for boxes in (boxes_a, boxes_b))
    return np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])


def greedy_center_match(boxes_a, boxes_b, gate: float) -> MatchResult:
    """Greedy one-to-one matching by ascending 2D center distance.

    Each side is a sequence of Observations or an (n, >= 2) array whose
    first two columns are x and y.  Used by the evaluation protocol and
    by observation-noise calibration; z is ignored, and pairs at or
    beyond the gate stay unmatched.
    """
    return greedy_match(center_distances(boxes_a, boxes_b), gate)


MATCHERS = {
    "greedy": greedy_match,
    "hungarian": hungarian_match,
}
