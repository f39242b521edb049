"""Data association between predicted tracks and detections.

Two affinities score the pairs within blocks (the tracker's classes) of a
stacked prediction of N tracks and M detections: the Mahalanobis distance
between a detection and the predicted observation distribution, and the
3D intersection-over-union of the two boxes.  IOU has one implementation,
iou_pairs: it clips the footprints (footprint_corners, which viz draws
too) of all the candidate pairs of a call together, one array pass per
clip edge, and gives each pair the floats that clipping it alone with
Python floats would give.  The Mahalanobis affinity also returns each
scored pair's orientation-corrected predicted yaw, which the tracker's
update takes.  The tracker turns either affinity into a plain (N, M)
distance array and a limit per class (1 - IOU under 1 - T for a minimum
IOU T), and two bipartite matchers return only matched index pairs, never
a non-finite one: a greedy nearest-first matcher, which takes a frame's
whole array at once, and an optimal assignment (Hungarian) matcher with
post-assignment thresholding, which takes one class's block.  Greedy
reads only pairs below the limit, so for it the Mahalanobis affinity
takes the limits and, on large blocks, solves only the pairs whose
(x, y) marginal distance, a lower bound of the full one, falls within
the gate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.optimize import linear_sum_assignment

from .core import ANGLE_INDEX, OBS_DIM, checked_rows, wrap_angle_array, wrap_finite_array
from .kalman import Prediction


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


# The (x, y) gate's relative margin, and the limits and magnitudes (S's
# diagonal, every coordinate) within which it prunes.
_GATE_MARGIN, _GATE_LIMITS, _GATE_SCALES = 1e-9, (1e-10, 1e10), (1e-50, 1e50)
# Smaller blocks are scored in full: the bound costs more than it saves.
_GATE_MIN_PAIRS = 512
# Quadratic forms are stacked this many pairs at a time, capping their memory.
_STACK_PAIRS = 1024
# A flattened 7 x 7 matrix times this sums the entries below its diagonal.
_BELOW_DIAGONAL = np.tril(np.ones((OBS_DIM, OBS_DIM)), -1).ravel()


def _marginal_coefficients(s: np.ndarray, predicted: np.ndarray, limit: float) -> tuple:
    """Per row, (A, B, C): A dx^2 + B dx dy + C dy^2 > 1 puts (dx, dy) beyond the cut.

    The form is the squared distance under the leading 2 x 2 block of S
    (as potrf reads it: the lower triangle) over (limit * (1 + margin))^2.
    A row gets NaN, which never prunes, unless its diagonal and predicted
    row lie within _GATE_SCALES and its correlations below the diagonal
    sum to at most a half in magnitude: then the matrix potrf factors has
    a correlation matrix diagonally dominant by a half (condition <= 3).
    """
    diagonal = np.diagonal(s, axis1=1, axis2=2)
    inside = ((diagonal >= _GATE_SCALES[0]) & (diagonal <= _GATE_SCALES[1])
              & (np.abs(predicted) <= _GATE_SCALES[1]))
    scale = np.where(inside, 1.0 / np.sqrt(diagonal), math.nan)
    correlations = np.abs(s) * (scale[:, :, None] * scale[:, None, :])
    usable = correlations.reshape(-1, OBS_DIM * OBS_DIM) @ _BELOW_DIAGONAL <= 0.5
    a, b, c = s[:, 0, 0], s[:, 1, 0], s[:, 1, 1]
    k = np.where(usable, 1.0 / ((a * c - b * b) * (limit * (1.0 + _GATE_MARGIN)) ** 2), math.nan)
    return c * k, -2.0 * b * k, a * k


def _kept_pairs(prediction: Prediction, predicted: np.ndarray, detected: np.ndarray,
                blocks, limits) -> np.ndarray:
    """The (N, M) mask of the pairs to score: every cell of each block the gate keeps."""
    kept, xs = np.zeros((len(predicted), len(detected)), dtype=bool), None
    for (rows, cols), limit in zip(blocks, limits or [None] * len(blocks)):
        cells = kept[rows, cols]
        if (limit is None or cells.size < _GATE_MIN_PAIRS
                or not _GATE_LIMITS[0] <= limit <= _GATE_LIMITS[1]):
            cells[...] = True
            continue
        with np.errstate(all="ignore"):  # rows and detections out of range give NaN: kept
            if xs is None:  # a NaN x keeps the detection's pairs, as NaN coefficients keep a row's
                xs = np.where(np.abs(detected).max(axis=1) <= _GATE_SCALES[1],
                              detected[:, 0], math.nan)
            a, b, c = _marginal_coefficients(prediction.innovation_cov[rows], predicted[rows],
                                             limit)
            dx = xs[cols] - predicted[rows, 0, None]
            dy = detected[cols, 1] - predicted[rows, 1, None]
            bound = a[:, None] * dx
            bound += b[:, None] * dy
            bound *= dx
            bound += c[:, None] * dy * dy
            np.logical_not(bound > 1.0, out=cells)
    return kept


def _residuals(detected: np.ndarray, predicted: np.ndarray, rows: np.ndarray,
               cols: np.ndarray) -> tuple:
    """Detection less prediction over the pairs (rows[k], cols[k]), and their predicted yaws.

    One pass covers every pair of the call, in stacks of _STACK_PAIRS so
    that its temporaries stay small.  The predicted yaws come wrapped,
    hence finite.  Each pair's yaw residual is taken against the row's
    yaw and against that yaw flipped by pi, both wrapped in one call, and
    the flip is kept where the first lies beyond pi/2 in magnitude: the
    floats orientation_correct gives, with each row's flipped yaw wrapped
    once.  The second array holds each pair's predicted yaw so corrected.
    """
    nu, corrected = detected.take(cols, axis=0), np.empty(len(cols))
    yaws = np.empty((len(predicted), 2))  # each row's yaw, and its flip
    yaws[:, 0] = predicted[:, ANGLE_INDEX]
    yaws[:, 1] = wrap_finite_array(predicted[:, ANGLE_INDEX] + math.pi)
    for start in range(0, len(nu), _STACK_PAIRS):
        stack = slice(start, start + _STACK_PAIRS)
        pair_yaws = yaws.take(rows[stack], axis=0)
        deltas = wrap_angle_array(nu[stack, ANGLE_INDEX, None] - pair_yaws)
        nu[stack] -= predicted.take(rows[stack], axis=0)  # yaws less the wrapped yaws
        flip = np.abs(deltas[:, 0]) > math.pi / 2.0
        nu[stack, ANGLE_INDEX] = np.where(flip, deltas[:, 1], deltas[:, 0])
        corrected[stack] = np.where(flip, pair_yaws[:, 1], pair_yaws[:, 0])
    return nu, corrected


def _quadratic_forms(prediction: Prediction, nu: np.ndarray, rows: list,
                     counts: list) -> np.ndarray:
    """nu_k . S^-1 nu_k of each residual, where rows[i] owns the next counts[i] residuals.

    Each row in turn has its residuals checked, its S factored and one
    potrs over its residuals; the products are stacks of 1x7 by 7x1 matmuls.
    """
    failing = (set() if np.isfinite(nu).all()
               else set(np.repeat(rows, counts)[~np.isfinite(nu).all(axis=1)].tolist()))
    scores, solved, start, done = np.empty(len(nu)), [], 0, 0
    for row, count in zip(rows, counts):
        solved.append(prediction.solve(nu[start:start + count].T, row, row not in failing).T)
        start += count
        if start - done >= _STACK_PAIRS or start == len(nu):
            stack = solved[0] if len(solved) == 1 else np.concatenate(solved)
            np.matmul(nu[done:start, None, :], stack[:, :, None],
                      out=scores[done:start, None, None])
            solved, done = [], start
    return scores


def mahalanobis_affinity(prediction: Prediction, detected: np.ndarray,
                         blocks=None, limits=None) -> AffinityMatrix:
    """Pairwise Mahalanobis distances of a stacked prediction and (M, 7) detection rows.

    Only the pairs of blocks, (rows, columns) slices in ascending rows, no
    two sharing a row (by default all pairs), are scored; the others score
    inf.  Every row of a block is checked, factored and solved in order
    (_quadratic_forms), so the first failing row is named, its residuals
    checked before its factor, and every scored pair gets the floats it
    gets alone.  The result's yaws hold each scored pair's predicted yaw
    as orientation_correct corrects it, bit for bit; the other cells are
    NaN.

    limits, one per block, gate each block of at least _GATE_MIN_PAIRS
    pairs for the greedy matcher, which reads only pairs below their
    limit.  A pair whose distance under the leading 2 x 2 block of S (its
    (x, y) marginal) exceeds the limit by a relative 1e-9 scores inf with
    no residual and no potrs column.  By the Schur complement that
    marginal distance never exceeds the full one, and rounding cannot
    reverse it: pairs are pruned only in rows whose correlation matrix is
    diagonally dominant by a half, and only where the row's scales and
    coordinates and the detection's coordinates lie within _GATE_SCALES.
    There the bound errs by a few dozen ulps, and potrs with its quadratic
    form by a few hundred (its backward error is under 22u |L||L^T|;
    Higham, Accuracy and Stability of Numerical Algorithms, 2002,
    Thm 10.4), far inside the margin.  Every other pair is scored, so a
    NaN, inf or huge entry raises the error it raises without limits.
    """
    predicted = prediction.mean[:, :OBS_DIM].copy()
    blocks = blocks or [(slice(0, len(predicted)), slice(0, len(detected)))]
    predicted[:, ANGLE_INDEX] = wrap_angle_array(predicted[:, ANGLE_INDEX])
    kept = _kept_pairs(prediction, predicted, detected, blocks, limits)
    pair_rows, pair_cols = np.divmod(np.flatnonzero(kept), len(detected))  # block by block
    counts = np.bincount(pair_rows, minlength=len(predicted)).tolist()
    rows = [row for block_rows, _ in blocks for row in range(len(predicted))[block_rows]]
    with np.errstate(over="ignore"):  # inf residuals fail the solve, inf distances never match
        nu, pair_yaws = _residuals(detected, predicted, pair_rows, pair_cols)
        del pair_rows, pair_cols  # kept through the solves, they would pass two blocks
        scores = _quadratic_forms(prediction, nu, rows, [counts[row] for row in rows])
    values, yaws = np.full(kept.shape, math.inf), np.full(kept.shape, math.nan)
    values[kept], yaws[kept] = scores, pair_yaws
    return AffinityMatrix(np.sqrt(values, out=values), yaws)


def _z_extents(rows: np.ndarray) -> tuple:
    """Bottoms and tops of (K, 7) box rows."""
    z, half_h = rows[:, 2], rows[:, 6] / 2.0
    return z - half_h, z + half_h


def iou_affinity(prediction: Prediction, detected: np.ndarray, blocks=None) -> AffinityMatrix:
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


def footprint_corners(rows: np.ndarray) -> np.ndarray:
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
        clip = footprint_corners(rows_b)
        points, counts = footprint_corners(rows_a), np.full(len(rows_a), 4)
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
    pairs as any can, and among those minimizes their total.
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

    Each side is a sequence of Observations or an (n, >= 2) array whose
    first two columns are x and y.  Used by the evaluation protocol and
    by observation-noise calibration; z is ignored, and a pair at or
    beyond the gate never matches.
    """
    return greedy_match(center_distances(boxes_a, boxes_b), gate)


MATCHERS = {
    "greedy": greedy_match,
    "hungarian": hungarian_match,
}
