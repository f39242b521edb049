"""Data association between predicted tracks and detections.

Two affinities score a stacked prediction of N tracks against M
detections: the Mahalanobis distance between a detection and the
predicted observation distribution, and the 3D intersection-over-union
of the two boxes.  The tracker turns either into a plain (N, M)
distance array and limit (1 - IOU under 1 - T for a minimum IOU T),
and two bipartite matchers take that array and return index pairs,
never a non-finite one: a greedy nearest-first matcher and an optimal
assignment (Hungarian) matcher with post-assignment thresholding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import (ANGLE_INDEX, OBS_DIM, Observation, observation_residual, observation_rows,
                   wrap_angle_array)
from .kalman import Prediction


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
    return math.sqrt(nu @ prediction.solve(nu))


def mahalanobis_affinity(prediction: Prediction,
                         observations: Sequence[Observation]) -> AffinityMatrix:
    """Pairwise Mahalanobis distances of a stacked prediction, flipped per pair.

    One potrs per row, in row order, on the residual block formed in place.
    """
    detected = observation_rows(observations)
    nu = prediction.mean[:, None, :OBS_DIM].repeat(len(detected), axis=1)
    nu[..., ANGLE_INDEX] = orientation_correct(nu[..., ANGLE_INDEX], detected[:, ANGLE_INDEX])
    with np.errstate(over="ignore"):  # inf residuals fail the solve; inf distances never match
        observation_residual(detected, nu, out=nu)
        values = np.zeros(nu.shape[:2])
        for i, block in enumerate(nu):
            solved = prediction.solve(block.T, i)
            # Row j is nu_j . solved_j, as a stack of 1x7 by 7x1 products.
            values[i] = np.sqrt((block[:, None, :] @ solved.T[:, :, None]).ravel())
    return AffinityMatrix(values)


def _bounds(rows: np.ndarray):
    """Centers (K, 2), footprint circle radii, and z bottoms and tops of (K, 7) box rows."""
    z, half_h = rows[:, 2], rows[:, 6] / 2.0
    return rows[:, :2], 0.5 * np.hypot(rows[:, 4], rows[:, 5]), z - half_h, z + half_h


def iou_affinity(prediction: Prediction,
                 observations: Sequence[Observation]) -> AffinityMatrix:
    """Pairwise 3D IOU between the boxes of a stacked (N, 11) prediction and detections.

    A pair whose footprint circles (centered on the box, radius half
    the footprint diagonal) or height intervals are disjoint scores 0
    without clipping, the value iou_3d gives it; iou_3d runs on the
    other pairs only.  Circles within a relative 1e-9 of touching count
    as overlapping, so rounding cannot drop a pair that iou_3d scores.
    """
    predicted = [Observation(*row) for row in prediction.mean[:, :OBS_DIM].tolist()]
    centers_a, radii_a, bottoms_a, tops_a = _bounds(observation_rows(predicted))
    centers_b, radii_b, bottoms_b, tops_b = _bounds(observation_rows(observations))
    offsets = centers_a[:, None, :] - centers_b[None, :, :]
    near = (np.hypot(offsets[..., 0], offsets[..., 1])
            <= (radii_a[:, None] + radii_b[None, :]) * (1.0 + 1e-9))
    # The same sums iou_3d forms: its height overlap is positive exactly here.
    z_overlap = (np.minimum(tops_a[:, None], tops_b[None, :])
                 > np.maximum(bottoms_a[:, None], bottoms_b[None, :]))
    values = np.zeros((len(predicted), len(observations)))
    with np.errstate(over="ignore", invalid="ignore"):  # as in iou_3d, once per call
        for i, j in zip(*np.nonzero(near & z_overlap)):
            values[i, j] = _iou_3d(predicted[i], observations[j])
    return AffinityMatrix(values)


def box_corners_bev(box: Observation) -> np.ndarray:
    """Corners of the box footprint in the x-y plane, counter-clockwise.

    The l extent runs along the yaw direction, w across it.
    """
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


def clip_polygon(subject: Sequence, clip: Sequence) -> list:
    """Clip a convex polygon against another convex polygon.

    Sutherland-Hodgman: the subject is clipped against each edge of the
    counter-clockwise clip polygon in turn.  Points on an edge count as
    inside, so clipping a polygon against itself returns it unchanged.
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
                # Nearly parallel segments only straddle the edge through
                # rounding, so either endpoint sits on it to working
                # precision; dividing by the tiny cross term would blow up.
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
    return output


def polygon_area(points: Sequence) -> float:
    """Shoelace area of a simple polygon, sign-free."""
    if len(points) < 3:
        return 0.0
    area = 0.0
    for idx in range(len(points)):
        x1, y1 = points[idx]
        x2, y2 = points[(idx + 1) % len(points)]
        area += x1 * y2 - x2 * y1
    return abs(area) / 2.0


def iou_3d(box_a: Observation, box_b: Observation) -> float:
    """3D intersection-over-union of two upright yawed boxes.

    The intersection volume factors into the overlap area of the yawed
    footprints (convex polygon clipping) times the vertical extent
    overlap, because both boxes rotate only around the vertical axis.
    Footprints whose coordinate products overflow (extents near 1e200)
    give NaN silently, and a NaN never matches.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _iou_3d(box_a, box_b)


def _iou_3d(box_a: Observation, box_b: Observation) -> float:
    """iou_3d without its np.errstate, which the caller sets."""
    corners_a = box_corners_bev(box_a)
    corners_b = box_corners_bev(box_b)
    overlap = polygon_area(clip_polygon(corners_a, corners_b))
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
    # clipping noise on near-identical boxes can push the ratio a few ulps
    # past one; a NaN ratio (footprint areas that overflow) never matches
    return 1.0 if intersection > union else intersection / union


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
    infeasible = 1.0 + 2.0 * np.abs(distances[finite]).sum()
    rows, cols = linear_sum_assignment(np.where(finite, distances, infeasible))
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
