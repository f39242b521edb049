import dataclasses
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
import unittest.mock
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import example, given, settings, strategies as st

import mot3d
from mot3d import association
from mot3d.association import (greedy_center_match, greedy_match, hungarian_match, iou_affinity,
                               mahalanobis_affinity, orientation_correct)
from mot3d.core import (OBS_DIM, Box, observation_residual, observation_rows, wrap_angle,
                        wrap_angle_array)
from mot3d.dataset_io import DEFAULT_MAHA_GATE
from mot3d.errors import NumericalError
from mot3d.kalman import AxisPrediction
from tests.test_kalman import dense_distance

# The per-axis covariance row of the identity.
UNIT_COV = np.concatenate([np.ones(11), np.zeros(4)])


def pose(*values) -> Box:
    """A box of the pose (x, y, z, a, l, w, h); its class and frame play no part."""
    return Box(*values, "car", 0)


def make_prediction(obs: Box, innovation_var=None) -> AxisPrediction:
    """One belief at obs, its S the diagonal innovation_var (by default I)."""
    mean = np.concatenate([observation_rows([obs])[0], np.zeros(4)])
    if innovation_var is None:
        innovation_var = np.ones(7)
    return AxisPrediction(mean, UNIT_COV, np.asarray(innovation_var, dtype=float))


def reference_mahalanobis(prediction: AxisPrediction, observation: Box) -> float:
    """sqrt(nu^T S^-1 nu) of one observation against one belief: the scalar oracle.

    A LAPACK Cholesky factor and solve of the dense S.  The caller
    orientation-corrects the prediction (orientation_correct); the yaw
    residual is wrapped here.
    """
    nu = observation_residual(observation_rows([observation])[0], prediction.mean[:OBS_DIM])
    return dense_distance(np.diag(prediction.innovation_var), nu)


def stacked(predictions) -> AxisPrediction:
    """The single-belief predictions as one stacked prediction, rows in order."""
    return AxisPrediction(np.array([p.mean for p in predictions]).reshape(-1, 11),
                          np.array([p.cov for p in predictions]).reshape(-1, 15),
                          np.array([p.innovation_var for p in predictions]).reshape(-1, 7))


def random_variances(rng, size=7) -> np.ndarray:
    """A random diagonal of S, spanning a factor of 50."""
    return rng.uniform(0.1, 5.0, size)


def test_orientation_correct_flips_beyond_quarter_turn():
    # detection nearly opposite: flip
    assert orientation_correct(0.0, 3.0) == pytest.approx(wrap_angle(math.pi))
    # within a quarter turn: unchanged
    assert orientation_correct(0.3, 0.3 + math.pi / 2) == pytest.approx(0.3)
    # strictly beyond: flipped
    flipped = orientation_correct(0.3, 0.3 + math.pi / 2 + 1e-6)
    assert flipped == pytest.approx(wrap_angle(0.3 + math.pi))


def test_orientation_correct_near_seam():
    # predicted +179 deg, detected -179 deg: only 2 deg apart, no flip
    pred = math.radians(179.0)
    det = math.radians(-179.0)
    assert orientation_correct(pred, det) == pytest.approx(pred)


@given(st.floats(-math.pi, math.pi - 1e-9), st.floats(-math.pi, math.pi - 1e-9))
def test_orientation_correct_lands_within_quarter_turn(pred, det):
    corrected = orientation_correct(pred, det)
    assert abs(wrap_angle(det - corrected)) <= math.pi / 2 + 1e-9


def test_orientation_correct_array_matches_scalar():
    rng = np.random.default_rng(8)
    detected = rng.uniform(-math.pi, math.pi, size=200)
    for predicted in (0.0, 0.3, -2.9, math.radians(179.0)):
        corrected = orientation_correct(predicted, detected)
        assert corrected.shape == detected.shape
        np.testing.assert_array_equal(
            corrected, [orientation_correct(predicted, float(d)) for d in detected])


def test_mahalanobis_identity_innovation():
    pred = make_prediction(pose(0, 0, 0, 0, 1, 1, 1))
    assert reference_mahalanobis(pred, pose(1.0, 0, 0, 0, 1, 1, 1)) == pytest.approx(1.0)
    # scaled innovation covariance halves the normalized distance
    pred4 = make_prediction(pose(0, 0, 0, 0, 1, 1, 1), np.full(7, 4.0))
    assert reference_mahalanobis(pred4, pose(1.0, 0, 0, 0, 1, 1, 1)) == pytest.approx(0.5)


def test_mahalanobis_sign_symmetric():
    pred = make_prediction(pose(0, 0, 0, 0, 1, 1, 1), [1, 2, 3, 0.5, 1, 1, 1.0])
    plus = reference_mahalanobis(pred, pose(0.7, -0.3, 0.2, 0.1, 1.2, 0.9, 1.1))
    minus = reference_mahalanobis(pred, pose(-0.7, 0.3, -0.2, -0.1, 0.8, 1.1, 0.9))
    assert plus == pytest.approx(minus, abs=1e-12)


def test_mahalanobis_affinity_applies_orientation_correction():
    # prediction faces backwards; raw distance is huge, corrected is small
    pred = make_prediction(pose(0, 0, 0, wrap_angle(math.pi), 1, 1, 1))
    obs = pose(0, 0, 0, 0.01, 1, 1, 1)
    raw = reference_mahalanobis(pred, obs)
    corrected = mahalanobis_affinity(stacked([pred]), observation_rows([obs])).values[0, 0]
    assert raw > 2.0
    assert corrected == pytest.approx(0.01, abs=1e-9)


@pytest.mark.parametrize("gated", [False, True], ids=["ungated", "gated"])
def test_affinity_yaws_equal_orientation_correct_bit_for_bit(gated):
    # the tracker's update takes each matched pair's corrected yaw from
    # the affinity; it must be the float orientation_correct gives.
    # Predicted yaws span +-pi (some unwrapped), and detections sit a
    # quarter turn away, to within an ulp either side, or anywhere.
    rng = np.random.default_rng(23)
    quarter = math.pi / 2.0
    offsets = [quarter, -quarter, math.nextafter(quarter, 0.0), math.nextafter(quarter, 4.0),
               math.nextafter(-quarter, 0.0), math.nextafter(-quarter, -4.0), math.pi, 0.0]
    n, m = 24, 30
    mean = np.zeros((n, 11))
    mean[:, :2] = rng.normal(scale=2.0, size=(n, 2))
    mean[:, 3] = rng.choice([-math.pi, math.nextafter(math.pi, 0.0), 0.0, 3.0 * math.pi, -7.0,
                             *rng.uniform(-math.pi, math.pi, 8)], n)
    mean[:, 4:7] = rng.uniform(1.0, 5.0, (n, 3))
    detected = mean[rng.integers(n, size=m), :7].copy()
    detected[:, :2] += rng.normal(size=(m, 2))
    detected[:, 3] = [rng.choice([rng.uniform(-math.pi, math.pi), yaw + rng.choice(offsets)])
                      for yaw in mean[rng.integers(n, size=m), 3]]
    prediction = AxisPrediction(mean, np.broadcast_to(UNIT_COV, (n, 15)), np.ones((n, 7)))
    if gated:  # one block of 720 pairs, gated
        blocks, limits = [(slice(0, n), slice(0, m))], [1.0]
    else:  # two blocks; the cells between them are not scored
        blocks, limits = [(slice(0, 10), slice(0, 12)), (slice(10, n), slice(12, m))], None
    result = mahalanobis_affinity(prediction, detected, blocks=blocks, limits=limits)
    expected = orientation_correct(mean[:, 3, None], detected[None, :, 3])
    scored = ~np.isnan(result.yaws)
    in_blocks = np.zeros((n, m), dtype=bool)
    for rows, cols in blocks:
        in_blocks[rows, cols] = True
    assert (scored <= in_blocks).all() and (np.isfinite(result.values) <= scored).all()
    assert (0 < scored.sum() < n * m) if gated else (scored == in_blocks).all()
    assert result.yaws[scored].tobytes() == expected[scored].tobytes()
    flipped = result.yaws[scored] != wrap_angle_array(mean[np.nonzero(scored)[0], 3])
    assert flipped.any() and not flipped.all()


def test_mahalanobis_affinity_matches_per_pair_loop():
    # the row-at-a-time affinity repeats the per-pair arithmetic exactly:
    # flip the predicted yaw toward the detection, then mahalanobis
    rng = np.random.default_rng(9)
    predictions = []
    for _ in range(6):
        obs = pose(*rng.normal(scale=5.0, size=3), rng.uniform(-math.pi, math.pi),
                   *rng.uniform(1.0, 5.0, size=3))
        predictions.append(make_prediction(obs, random_variances(rng)))
    detections = [pose(*rng.normal(scale=5.0, size=3), rng.uniform(-4.0, 4.0),
                       *rng.uniform(1.0, 5.0, size=3)) for _ in range(9)]
    values = mahalanobis_affinity(stacked(predictions), observation_rows(detections)).values
    for i, prediction in enumerate(predictions):
        for j, obs in enumerate(detections):
            mean = prediction.mean.copy()
            mean[3] = orientation_correct(mean[3], obs.a)
            flipped = dataclasses.replace(prediction, mean=mean)
            assert values[i, j] == reference_mahalanobis(flipped, obs)


def per_pair_mahalanobis(prediction, obs):
    """The flip and distance of one pair, as the per-pair reference computes them."""
    mean = prediction.mean.copy()
    mean[3] = orientation_correct(mean[3], obs.a)
    return reference_mahalanobis(dataclasses.replace(prediction, mean=mean), obs)


@pytest.mark.parametrize("n_pred, n_det", [(1, 1), (2, 9), (7, 3), (16, 16), (30, 45)])
def test_mahalanobis_affinity_matches_per_pair_loop_on_random_frames(n_pred, n_det):
    # the one-pass residual and flip repeat the per-pair arithmetic exactly,
    # also for yaws on either side of +-pi and detections a quarter turn off
    rng = np.random.default_rng(100 * n_pred + n_det)
    for _ in range(4):
        predictions = []
        for _ in range(n_pred):
            yaw = rng.choice([rng.uniform(-math.pi, math.pi),
                              wrap_angle(math.pi - rng.uniform(0.0, 1e-3)),
                              wrap_angle(-math.pi + rng.uniform(0.0, 1e-3))])
            obs = pose(*rng.normal(scale=5.0, size=3), yaw, *rng.uniform(1.0, 5.0, size=3))
            predictions.append(make_prediction(obs, random_variances(rng)))
        detections = []
        for _ in range(n_det):
            base = predictions[rng.integers(n_pred)].mean[3]
            yaw = rng.choice([rng.uniform(-math.pi, math.pi),
                              wrap_angle(base + math.pi / 2), wrap_angle(base - math.pi / 2),
                              wrap_angle(base + math.pi), wrap_angle(-base)])
            detections.append(pose(*rng.normal(scale=5.0, size=3), yaw,
                                   *rng.uniform(1.0, 5.0, size=3)))
        values = mahalanobis_affinity(stacked(predictions), observation_rows(detections)).values
        assert values.shape == (n_pred, n_det)
        for i, prediction in enumerate(predictions):
            for j, obs in enumerate(detections):
                assert values[i, j] == per_pair_mahalanobis(prediction, obs)


def test_mahalanobis_affinity_keeps_empty_shapes():
    predictions = [make_prediction(pose(i, 0, 0, 0, 1, 1, 1)) for i in range(3)]
    observations = [pose(0, i, 0, 0, 1, 1, 1) for i in range(4)]
    assert mahalanobis_affinity(stacked([]), observation_rows(observations)).values.shape == (0, 4)
    assert mahalanobis_affinity(stacked(predictions), observation_rows([])).values.shape == (3, 0)
    assert mahalanobis_affinity(stacked([]), observation_rows([])).values.shape == (0, 0)


def test_mahalanobis_affinity_error_names_the_failing_row():
    obs = pose(0, 0, 0, 0, 1, 1, 1)
    good = make_prediction(obs)
    singular = make_prediction(obs, np.zeros(7))
    with pytest.raises(NumericalError, match="not positive definite") as info:
        mahalanobis_affinity(stacked([good, good, singular]), observation_rows([obs]))
    assert info.value.row == 2
    # a residual that overflows, against an otherwise valid factor
    far = make_prediction(pose(1e308, 0, 0, 0, 1, 1, 1))
    with pytest.raises(NumericalError, match="not finite") as info:
        mahalanobis_affinity(stacked([good, far]),
                             observation_rows([pose(-1e308, 0, 0, 0, 1, 1, 1)]))
    assert info.value.row == 1


def test_mahalanobis_affinity_names_a_bad_covariance_before_a_later_bad_residual():
    # residuals are checked for the whole stack at once, yet rows fail in
    # row order: row 1's S is NaN, row 2's residual overflows
    obs = pose(0, 0, 0, 0, 1, 1, 1)
    nan_s = np.ones(7)
    nan_s[2] = math.nan
    predictions = [make_prediction(obs), make_prediction(obs, nan_s),
                   make_prediction(pose(1e308, 0, 0, 0, 1, 1, 1))]
    detected = observation_rows([obs, pose(-1e308, 0, 0, 0, 1, 1, 1)])
    with pytest.raises(NumericalError, match="^innovation covariance is not finite") as info:
        mahalanobis_affinity(stacked(predictions), detected)
    assert info.value.row == 1


def test_mahalanobis_affinity_allocates_under_two_residual_blocks():
    # 100 x 100 pairs take one (N, M, 7) residual block; solving every row
    # into a second block before reducing it would push the peak past two
    rng = np.random.default_rng(12)
    n = m = 100
    mean = np.zeros((n, 11))
    mean[:, :3] = rng.normal(scale=50.0, size=(n, 3))
    mean[:, 3] = rng.uniform(-math.pi, math.pi, n)
    mean[:, 4:7] = rng.uniform(1.0, 5.0, (n, 3))
    prediction = AxisPrediction(mean, np.broadcast_to(UNIT_COV, (n, 15)),
                                random_variances(rng, (n, 7)))
    detected = mean[rng.permutation(n)[:m], :7].copy()
    detected[:, :3] += rng.normal(size=(m, 3))
    detected[:, 3] = rng.uniform(-math.pi, math.pi, m)
    tracemalloc.start()
    try:
        values = mahalanobis_affinity(prediction, detected).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.isfinite(values).all()
    assert peak < 2 * n * m * 7 * np.dtype(float).itemsize


def test_gated_mahalanobis_affinity_allocates_under_one_residual_block():
    # with limits, a pair beyond its (x, y) gate never gets a residual, so
    # 100 x 100 well-separated pairs never take a full (N, M, 7) block
    rng = np.random.default_rng(12)
    n = m = 100
    mean = np.zeros((n, 11))
    mean[:, :2] = 15.0 * np.stack(np.divmod(np.arange(n), 10), axis=1)  # a 15 m grid
    mean[:, 2] = rng.normal(size=n)
    mean[:, 3] = rng.uniform(-math.pi, math.pi, n)
    mean[:, 4:7] = rng.uniform(1.0, 5.0, (n, 3))
    prediction = AxisPrediction(mean, np.broadcast_to(UNIT_COV, (n, 15)),
                                rng.uniform(0.5, 4.0, (n, 7)))
    detected = mean[rng.permutation(n)[:m], :7].copy()
    detected[:, :3] += rng.normal(size=(m, 3))
    detected[:, 3] = rng.uniform(-math.pi, math.pi, m)
    tracemalloc.start()
    try:
        values = mahalanobis_affinity(prediction, detected, limits=[DEFAULT_MAHA_GATE]).values
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    ungated = mahalanobis_affinity(dataclasses.replace(prediction), detected).values
    below = ungated < DEFAULT_MAHA_GATE
    assert below.any(axis=1).all()
    assert np.array_equal(values[below], ungated[below])
    assert peak < n * m * 7 * np.dtype(float).itemsize


# Specials that reach the gate: NaN and +-inf fail a row, 1e308 overflows a
# residual, and 1e301 lies beyond the coordinates the gate prunes within.
SPECIALS = (math.nan, math.inf, -math.inf, 1e308, -1e308, 1e301)
INNOVATION_FAMILIES = ("scaled", "unit", "extreme")
FAILURES = ("not positive", "special innovation", "special prediction", "special detection")


def random_innovation(rng, family: str) -> np.ndarray:
    """One diagonal of S of a family: scales spanning up to 1e12, or near the float range's ends."""
    if family == "scaled":
        return 10.0 ** rng.uniform(-6.0, 6.0, 7)
    if family == "extreme":
        return 10.0 ** rng.choice([-300.0, -150.0, 0.0, 150.0, 300.0], 7)
    return rng.uniform(0.2, 5.0, 7)


def outcome(call):
    """The call's values, or its exception as (type, message, row)."""
    try:
        return call().values
    except (NumericalError, ValueError) as exc:
        return type(exc), str(exc), getattr(exc, "row", None)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7),
                          st.sampled_from([DEFAULT_MAHA_GATE, DEFAULT_MAHA_GATE, 1.0, 11.0,
                                           1e-12, 1e12])),
                min_size=1, max_size=3),
       st.lists(st.sampled_from(INNOVATION_FAMILIES), min_size=15, max_size=15),
       st.sampled_from([(), (), (), (), *((failure,) for failure in FAILURES),
                        ("special prediction", "special detection")]))
def test_gated_affinity_prunes_only_pairs_the_greedy_matcher_cannot_take(
        seed, shape, families, failures):
    # every pair below its limit keeps its floats, inf appears only where
    # the full distance reaches the limit (including pairs placed within
    # 1e-9 of it on the (x, y) terms), greedy takes the same pairs, a pair
    # whose bound is NaN (a coordinate beyond the gate's range) keeps its
    # floats, and a failing call fails with the same error and row
    rng = np.random.default_rng(seed)
    n, m = sum(rows for rows, _, _ in shape), sum(cols for _, cols, _ in shape)
    blocks, limits, r0, c0 = [], [], 0, 0
    for rows, cols, limit in shape:
        blocks.append((slice(r0, r0 + rows), slice(c0, c0 + cols)))
        limits.append(limit)
        r0, c0 = r0 + rows, c0 + cols
    mean = np.zeros((n, 11))
    mean[:, :3] = rng.normal(scale=4.0, size=(n, 3))
    mean[:, 3] = rng.uniform(-math.pi, math.pi, n)
    mean[:, 4:7] = rng.uniform(1.0, 5.0, (n, 3))
    innovation = np.array([random_innovation(rng, family) for family in families[:n]])
    innovation = innovation.reshape(n, 7)
    detected = np.empty((m, 7))
    for (rows, cols), limit in zip(blocks, limits):
        for j in range(cols.start, cols.stop):
            i = int(rng.integers(rows.start, rows.stop)) if rows.stop > rows.start else 0
            detected[j] = mean[i, :7] if n else [0, 0, 0, 0, 1, 1, 1]
            if rows.stop > rows.start and rng.random() < 0.5:
                # x alone, within 1e-9 of the limit on the (x, y) terms
                detected[j, 0] += (limit * (1.0 + rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0]) * 1e-9)
                                   * math.sqrt(innovation[i, 0]))
            else:
                detected[j, :3] += rng.normal(scale=rng.choice([0.3, 3.0]), size=3)
                detected[j, 3] = rng.uniform(-math.pi, math.pi)
    for failure, side in zip(failures, (innovation, mean, detected)):
        if failure == "not positive" and n:
            innovation[rng.integers(n), rng.integers(7)] = rng.choice([0.0, -0.0, -1e-3])
        elif failure == "special innovation" and n:
            innovation[rng.integers(n), rng.integers(7)] = rng.choice(SPECIALS)
        elif failure == "special prediction" and n:
            mean[rng.integers(n), rng.integers(7)] = rng.choice(SPECIALS)
        elif failure == "special detection" and m:
            detected[rng.integers(m), rng.integers(7)] = rng.choice(SPECIALS)

    def call(gates):
        prediction = AxisPrediction(mean, np.broadcast_to(UNIT_COV, (n, 15)), innovation)
        return lambda: mahalanobis_affinity(prediction, detected, blocks=blocks, limits=gates)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # as the ungated call always may
        ungated = outcome(call(None))
        with unittest.mock.patch.object(association, "_GATE_MIN_PAIRS", 1):  # gate every block
            gated = outcome(call(limits))
    if isinstance(ungated, tuple):
        assert gated == ungated
        return
    assert isinstance(gated, np.ndarray)
    for (rows, cols), limit in zip(blocks, limits):
        u, g = ungated[rows, cols], gated[rows, cols]
        below = u < limit
        assert np.array_equal(g[below], u[below])
        changed = ~((g == u) | (np.isnan(g) & np.isnan(u)))
        assert np.isinf(g[changed]).all() and (u[changed] >= limit).all()
        assert greedy_match(g, limit).pairs == greedy_match(u, limit).pairs
    with np.errstate(invalid="ignore"):  # the predicted yaws are wrapped before the gate
        beyond = (~(np.abs(mean[:, [0, 1, 2, 4, 5, 6]]) <= association._GATE_SCALE).all(axis=1)
                  [:, None] | ~(np.abs(detected) <= association._GATE_SCALE).all(axis=1)[None, :])
    assert np.array_equal(gated[beyond], ungated[beyond], equal_nan=True)


def unmatched(result, shape) -> tuple:
    """The indices in no pair of a match over an array of shape: (rows, columns), ascending."""
    rows, cols = {i for i, _ in result.pairs}, {j for _, j in result.pairs}
    return ([i for i in range(shape[0]) if i not in rows],
            [j for j in range(shape[1]) if j not in cols])


def test_greedy_match_known_matrix():
    result = greedy_match(np.array([[1.0, 4.0], [2.0, 0.5]]), 3.0)
    assert result.pairs == ((1, 1), (0, 0))
    assert unmatched(result, (2, 2)) == ([], [])


def test_greedy_match_threshold_strict():
    result = greedy_match(np.array([[3.0]]), 3.0)
    assert result.pairs == ()
    assert unmatched(result, (1, 1)) == ([0], [0])
    accepted = greedy_match(np.array([[2.999999]]), 3.0)
    assert len(accepted.pairs) == 1


def test_greedy_match_tie_break_deterministic():
    # equal distances resolve by (prediction_index, detection_index)
    result = greedy_match(np.array([[1.0, 1.0], [1.0, 1.0]]), 2.0)
    assert result.pairs == ((0, 0), (1, 1))


def test_greedy_is_locally_not_globally_optimal():
    matrix = np.array([[1.0, 2.0], [1.5, 100.0]])
    greedy = greedy_match(matrix, 1e6)
    optimal = hungarian_match(matrix, 1e6)
    greedy_cost = sum(matrix[pair] for pair in greedy.pairs)
    optimal_cost = sum(matrix[pair] for pair in optimal.pairs)
    assert greedy_cost == pytest.approx(101.0)
    assert optimal_cost == pytest.approx(3.5)
    assert set(optimal.pairs) == {(0, 1), (1, 0)}


def test_hungarian_filters_on_original_distances():
    # optimal assignment exists, but one leg exceeds the gate and is cut
    matrix = np.array([[1.0, 9.0], [9.0, 5.0]])
    result = hungarian_match(matrix, 4.0)
    assert result.pairs == ((0, 0),)
    assert unmatched(result, (2, 2)) == ([1], [1])


def test_hungarian_imports_its_solver_on_first_use():
    # this process loaded scipy.optimize long ago; only a fresh one shows when
    script = "\n".join([
        "import sys",
        "import numpy as np",
        "from mot3d.association import hungarian_match",
        "before = 'scipy.optimize' in sys.modules",
        "nan, inf = float('nan'), float('inf')",
        "values = np.array([[nan, 1.0, 4.0], [2.0, inf, 0.5], [0.25, 3.0, inf]])",
        "print(before, hungarian_match(values, 3.5).pairs, 'scipy.optimize' in sys.modules)"])
    src = os.path.dirname(os.path.dirname(mot3d.__file__))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                         check=True, env=dict(os.environ, PYTHONPATH=src))
    assert out.stdout == "False ((2, 0), (1, 2), (0, 1)) True\n"


def test_match_empty_inputs():
    empty = np.zeros((0, 3))
    for matcher in (greedy_match, hungarian_match):
        result = matcher(empty, 1.0)
        assert result.pairs == ()
        assert unmatched(result, empty.shape) == ([], [0, 1, 2])


@pytest.mark.parametrize("matcher", [greedy_match, hungarian_match])
def test_iou_scores_match_as_one_minus_iou_under_one_minus_the_minimum(matcher):
    # the tracker's IOU association: distances 1 - IOU under the limit 1 - T
    scores = np.array([[0.9, 0.05], [0.1, 0.8]])
    result = matcher(1.0 - scores, 1.0 - 0.25)
    # the highest IOU is the best pair
    assert result.pairs == ((0, 0), (1, 1))
    # an IOU exactly at the minimum is rejected; one just above it matches
    assert matcher(1.0 - np.array([[0.25]]), 1.0 - 0.25).pairs == ()
    assert len(matcher(1.0 - np.array([[0.2500001]]), 1.0 - 0.25).pairs) == 1


# Entries include NaN, +-inf and negative distances: the matchers do not
# validate their input, and a NaN or infinite pair must never match.
matrix_strategy = st.integers(0, 5).flatmap(
    lambda rows: st.integers(0, 5).flatmap(
        lambda cols: st.lists(
            st.lists(st.floats(-10.0, 10.0) | st.sampled_from([math.nan, math.inf, -math.inf]),
                     min_size=cols, max_size=cols),
            min_size=rows, max_size=rows)))


@settings(max_examples=60, deadline=None)
@given(matrix_strategy, st.floats(0.1, 12.0))
@example([[-math.inf, 1.0], [1.0, 5.0]], 3.0)  # -inf is no best pair
def test_greedy_properties(rows, threshold):
    values = np.array(rows, dtype=float).reshape(len(rows), len(rows[0]) if rows else 0)
    result = greedy_match(values, threshold)
    pairs, free_a, free_b = reference_greedy(values.tolist(), values.shape[1], threshold)
    assert list(result.pairs) == pairs
    assert unmatched(result, values.shape) == (free_a, free_b)
    dists = [values[pair] for pair in result.pairs]
    assert dists == sorted(dists)
    assert all(math.isfinite(d) and d < threshold for d in dists)
    matched_preds = [p[0] for p in result.pairs]
    matched_dets = [p[1] for p in result.pairs]
    assert len(set(matched_preds)) == len(matched_preds)
    assert len(set(matched_dets)) == len(matched_dets)
    free_preds, free_dets = unmatched(result, values.shape)
    assert sorted(matched_preds + free_preds) == list(range(values.shape[0]))
    assert sorted(matched_dets + free_dets) == list(range(values.shape[1]))


@settings(max_examples=60, deadline=None)
@given(matrix_strategy, st.floats(0.1, 12.0))
# two finite pairs must be kept, and their best total (0.9375) is within
# rounding of the next (1.0) only when non-finite cells cost about 1e15
@example([[0.0, math.nan, math.nan, 1.0], [0.0, math.nan, math.nan, 1.0],
          [0.0, math.nan, math.nan, 0.9375]], 1.0)
@example([[-math.inf, 1.0], [1.0, 5.0]], 3.0)  # -inf is kept by no assignment
def test_hungarian_properties(rows, threshold):
    """Ungated, the optimal matcher keeps as many finite pairs as any
    assignment can, at the least total, as enumeration finds; NaN and
    +-inf pairs never match.  Gated, it keeps only within-gate pairs; it
    may keep fewer than greedy because the gate filters an assignment
    optimized over the whole matrix.
    """
    values = np.array(rows, dtype=float).reshape(len(rows), len(rows[0]) if rows else 0)
    full = hungarian_match(values, math.inf)
    size, cost = reference_assignment(values)
    assert len(full.pairs) == size
    assert all(math.isfinite(values[pair]) for pair in full.pairs)
    assert sum(values[pair] for pair in full.pairs) == pytest.approx(cost, rel=1e-9, abs=1e-9)

    optimal = hungarian_match(values, threshold)
    matched_preds = [p[0] for p in optimal.pairs]
    matched_dets = [p[1] for p in optimal.pairs]
    assert len(set(matched_preds)) == len(matched_preds)
    assert len(set(matched_dets)) == len(matched_dets)
    free_preds, free_dets = unmatched(optimal, values.shape)
    assert sorted(matched_preds + free_preds) == list(range(values.shape[0]))
    assert sorted(matched_dets + free_dets) == list(range(values.shape[1]))
    assert all(values[pair] < threshold for pair in optimal.pairs)
    gated_cells = {(i, j) for i in range(values.shape[0])
                   for j in range(values.shape[1]) if values[i, j] < threshold}
    assert {(p[0], p[1]) for p in optimal.pairs} <= gated_cells


def test_hungarian_matches_costs_near_the_float_range():
    # the stand-in for non-finite pairs, 1 + 2 * (sum of |finite costs|),
    # must stay finite: had it overflowed, the solver would call these
    # matrices infeasible, after an overflow warning
    inf = math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert hungarian_match(np.array([[1e308, inf], [1e308, inf]]), 3.0) == \
            hungarian_match(np.array([[5.0, inf], [5.0, inf]]), 3.0)
        assert hungarian_match(np.array([[1e308, inf], [1.5e308, inf]]), inf).pairs == ((0, 0),)
        assert hungarian_match(np.array([[1e308, 1e308], [1e308, 1.7e308]]), inf).pairs == \
            ((0, 1), (1, 0))
        # scaling every cost by a power of two keeps the matching
        rng = np.random.default_rng(8)
        for _ in range(50):
            values = rng.uniform(0.0, 10.0, (4, 5))
            values[rng.random(values.shape) < 0.3] = inf
            scale = 2.0 ** 1020
            assert hungarian_match(values * scale, 6.0 * scale) == hungarian_match(values, 6.0)


def test_gated_hungarian_can_keep_fewer_pairs_than_greedy():
    """The optimal matcher minimizes cost over the whole matrix and only
    then drops pairs beyond the gate, so gating can leave it with fewer
    surviving pairs than greedy.  Pinned so nobody "fixes" it into a
    cardinality guarantee.
    """
    values = np.array([[3.0, 0.0, 1.0],
                       [1.0, 0.0, 0.0],
                       [3.0, 0.0, 1.0]])
    greedy = greedy_match(values, 1.0)
    optimal = hungarian_match(values, 1.0)
    assert len(greedy.pairs) == 2
    # both equal-cost optima keep exactly one zero-distance pair
    assert len(optimal.pairs) == 1
    assert values[optimal.pairs[0]] == 0.0


def test_center_distance_2d_ignores_z():
    # the center distance is planar: z, yaw and extents play no part
    a = pose(0, 0, 0, 0, 1, 1, 1)
    b = pose(3.0, 4.0, 50.0, 1.0, 2, 2, 2)
    # the distance is exactly 5.0: a gate just above it matches, one at it does not
    assert greedy_center_match([a], [b], gate=math.nextafter(5.0, 6.0)).pairs == ((0, 0),)
    assert greedy_center_match([a], [b], gate=5.0).pairs == ()


def test_greedy_center_match_gate():
    a = [pose(0, 0, 0, 0, 1, 1, 1), pose(10, 0, 0, 0, 1, 1, 1)]
    b = [pose(0.5, 0, 0, 0, 1, 1, 1), pose(14, 0, 0, 0, 1, 1, 1)]
    result = greedy_center_match(a, b, gate=2.0)
    assert result.pairs == ((0, 0),)
    assert unmatched(result, (2, 2)) == ([1], [1])


def reference_greedy(dist, n_cols, limit):
    """Per-pair greedy matching by the documented rule.

    Pairs whose distance is finite and < limit are visited by ascending
    (distance, row, column); a pair is accepted while both sides are free.
    """
    n_rows = len(dist)
    order = sorted((dist[i][j], i, j) for i in range(n_rows) for j in range(n_cols)
                   if math.isfinite(dist[i][j]) and dist[i][j] < limit)
    free_rows, free_cols = set(range(n_rows)), set(range(n_cols))
    pairs = []
    for _, i, j in order:
        if i in free_rows and j in free_cols:
            free_rows.discard(i)
            free_cols.discard(j)
            pairs.append((i, j))
    return pairs, sorted(free_rows), sorted(free_cols)


def reference_assignment(values: np.ndarray) -> tuple:
    """(size, total) of the best assignment's finite pairs, by enumeration.

    NaN and +-inf cells cannot be kept: the best assignment keeps the
    most finite cells any assignment can, and among those the least
    total.
    """
    if values.shape[0] > values.shape[1]:
        values = values.T
    n_rows, n_cols = values.shape
    best = (0, 0.0)
    for columns in itertools.permutations(range(n_cols), n_rows):
        kept = [values[i, j] for i, j in enumerate(columns) if math.isfinite(values[i, j])]
        best = min(best, (-len(kept), sum(kept)))
    return -best[0], best[1]


def test_greedy_matchers_equal_per_pair_reference():
    rng = np.random.default_rng(20)
    gate = 2.0

    def box(x, y):
        return pose(float(x), float(y), 0.0, 0.0, 1.0, 1.0, 1.0)

    frames = []
    for _ in range(150):
        n, m = rng.integers(0, 9, size=2)
        # half the frames sit on a quarter-metre grid, where exact
        # distance ties and distances equal to the gate are common
        scale = 0.25 if rng.random() < 0.5 else None
        points = rng.uniform(-4.0, 4.0, size=(n + m, 2))
        if scale:
            points = np.round(points / scale) * scale
        frames.append(([box(*p) for p in points[:n]], [box(*p) for p in points[n:]]))
    # explicit ties, gate-equal distances and empty sides
    frames += [
        ([box(0, 0), box(4, 0)], [box(2, 0), box(6, 0)]),
        ([box(0, 0)], [box(2, 0), box(0, 2), box(-2, 0)]),
        ([box(0, 0), box(0, 1)], [box(1.2, 1.6), box(0, 3)]),
        ([], [box(0, 0), box(1, 1)]),
        ([box(0, 0), box(1, 1)], []),
        ([], []),
    ]
    gated_at_boundary = tied = 0
    for boxes_a, boxes_b in frames:
        dist = [[math.hypot(a.x - b.x, a.y - b.y) for b in boxes_b] for a in boxes_a]
        pairs, free_a, free_b = reference_greedy(dist, len(boxes_b), gate)
        result = greedy_center_match(boxes_a, boxes_b, gate)
        assert list(result.pairs) == pairs
        assert unmatched(result, (len(boxes_a), len(boxes_b))) == (free_a, free_b)
        flat = [d for row in dist for d in row]
        gated_at_boundary += flat.count(gate)
        tied += len(flat) - len(set(flat))

        # the same frame as a plain distance matrix, with +inf entries
        values = np.array(dist, dtype=float).reshape(len(boxes_a), len(boxes_b))
        values[rng.random(values.shape) < 0.2] = math.inf
        for limit in (gate, math.inf):
            pairs, free_a, free_b = reference_greedy(values.tolist(), len(boxes_b), limit)
            result = greedy_match(values, limit)
            assert list(result.pairs) == pairs
            assert unmatched(result, values.shape) == (free_a, free_b)
    assert gated_at_boundary > 0 and tied > 0


def test_an_empty_block_list_scores_no_pair():
    # two identical boxes: scored, every pair is at distance 0 and IOU 1
    rows = observation_rows([pose(0, 0, 0, 0, 2, 2, 2)] * 2)
    prediction = AxisPrediction(np.concatenate([rows, np.zeros((2, 4))], axis=1),
                                np.tile(UNIT_COV, (2, 1)), np.ones((2, OBS_DIM)))
    assert (mahalanobis_affinity(prediction, rows).values == 0.0).all()
    assert (iou_affinity(prediction, rows).values == 1.0).all()
    for limits in (None, []):
        unscored = mahalanobis_affinity(prediction, rows, blocks=[], limits=limits)
        assert (unscored.values == math.inf).all() and np.isnan(unscored.yaws).all()
    assert (iou_affinity(prediction, rows, blocks=[]).values == 0.0).all()


def runtime_warnings(call) -> tuple:
    """call()'s result and the set of RuntimeWarning messages it raised."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = call()
    return result, {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}


def all_cells_center_match(a: np.ndarray, b: np.ndarray, gate: float) -> tuple:
    """greedy_center_match as it measured every pair: the full hypot array, then greedy_match."""
    distances = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    flat = distances.ravel()
    candidates = np.flatnonzero(flat < gate)
    candidates = candidates[flat[candidates] > -math.inf]
    order = candidates[np.argsort(flat[candidates], kind="stable")]
    free_rows, free_cols, pairs = [True] * len(a), [True] * len(b), []
    for i, j in zip(*divmod(order, distances.shape[1])):
        if free_rows[i] and free_cols[j]:
            free_rows[i] = free_cols[j] = False
            pairs.append((int(i), int(j)))
    return distances, tuple(pairs)


# Center coordinates: a few shared values (ties and duplicate centers),
# values at the float range's ends, and NaN and +-inf, which never match.
center_coordinates = (st.floats(-6.0, 6.0) | st.floats(allow_nan=True, allow_infinity=True)
                      | st.sampled_from([0.0, -0.0, 1.0, 1.5, 1.7e308, -1.7e308, 1e308,
                                         -1e308, math.nan, math.inf, -math.inf]))


@st.composite
def center_sides(draw) -> tuple:
    """Two (n, 2) center arrays whose x values are drawn from one small pool."""
    pool = draw(st.lists(center_coordinates, min_size=1, max_size=4))
    x = st.sampled_from(pool) | center_coordinates
    return tuple(np.array([[draw(x), draw(center_coordinates)]
                           for _ in range(draw(st.integers(0, 9)))]).reshape(-1, 2)
                 for _ in range(2))


@settings(max_examples=300, deadline=None)
@given(center_sides(), st.integers(-300, 200).map(lambda e: 10.0 ** e)
       | st.floats(1e-300, 1e200) | st.sampled_from([1.0, 1.5, 2.0, 2.5]))
@example((np.array([[0.0, 0.0], [2.0, 0.0]]), np.array([[1.0, 0.0], [1.0, 0.0]])), 1.0 + 2e-16)
@example((np.array([[1.7e308, 0.0]]), np.array([[-1.7e308, 0.0], [1.7e308, 1.0]])), 1e200)
def test_windowed_center_match_equals_the_all_cells_match(sides, gate):
    a, b = sides
    (distances, expected), allowed = runtime_warnings(lambda: all_cells_center_match(a, b, gate))
    measured, _ = runtime_warnings(lambda: association.center_distances(a, b))
    assert np.array_equal(measured, distances, equal_nan=True)
    for least in (association._GATE_MIN_PAIRS, 1):  # all cells here, then the window
        with unittest.mock.patch.object(association, "_GATE_MIN_PAIRS", least):
            result, raised = runtime_warnings(lambda: greedy_center_match(a, b, gate))
        # the same pairs, and no warning that measuring every cell does not raise (inf - inf)
        assert result.pairs == expected and raised <= allowed


def test_a_window_bound_past_the_float_range_raises_no_warning():
    top = np.array([[1.7976931348623157e308, 0.0]])  # top + gate rounds to inf
    with unittest.mock.patch.object(association, "_GATE_MIN_PAIRS", 1), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert greedy_center_match(top, top, 1e300).pairs == ((0, 0),)
        assert greedy_center_match(top, top, math.inf).pairs == ((0, 0),)
        # inf - inf: a NaN bound, for a pair at an infinite distance, which never matches
        assert greedy_center_match(np.array([[math.inf, 0.0]]), top, math.inf).pairs == ()


def test_large_center_matches_take_the_window_and_keep_their_pairs():
    rng = np.random.default_rng(36)
    sizes, windows = ((16, 32), (32, 16), (40, 40), (23, 23), (22, 23)), []
    real_window_pairs = association._window_pairs
    with unittest.mock.patch.object(
            association, "_window_pairs",
            lambda a_x, b_x, reach: windows.append(len(a_x) * len(b_x))
            or real_window_pairs(a_x, b_x, reach)):
        for n, m in sizes:
            # a half-metre grid: many equal x values, equal distances and gate ties
            a, b = (np.round(rng.uniform(-5.0, 5.0, size=(k, 2)) * 2.0) / 2.0 for k in (n, m))
            boxes_a, boxes_b = ([pose(x, y, 0, 0, 1, 1, 1) for x, y in side] for side in (a, b))
            for gate in (0.75, 1.0, 1.5, 4.0):
                expected = all_cells_center_match(a, b, gate)[1]
                assert len(expected) > 0
                assert greedy_center_match(a, b, gate).pairs == expected
                assert greedy_center_match(boxes_a, boxes_b, gate).pairs == expected
    # one window per call from _GATE_MIN_PAIRS pairs on (16 x 32 = 512), none below
    assert windows == [n * m for n, m in sizes[:4] for _ in range(8)]


def keyed_hungarian_tail(distances: np.ndarray, rows, cols, limit: float) -> tuple:
    """The assigned pairs kept and ordered per pair: finite and below limit, keyed by (d, i, j)."""
    pairs = [(i, j) for i, j in zip(rows.tolist(), cols.tolist())
             if math.isfinite(distances[i, j]) and distances[i, j] < limit]
    pairs.sort(key=lambda pair: (distances[pair], *pair))
    return tuple(pairs)


# Few distinct values, so equal costs abound; -0.0 beside 0.0, and NaN and +-inf.
tied_matrix = st.integers(0, 6).flatmap(lambda rows: st.integers(0, 6).flatmap(
    lambda cols: st.lists(st.lists(
        st.sampled_from([0.0, -0.0, 0.5, 1.0, 1.0, 2.0, math.nan, math.inf, -math.inf])
        | st.floats(-3.0, 3.0), min_size=cols, max_size=cols), min_size=rows, max_size=rows)))


@settings(max_examples=300, deadline=None)
@given(tied_matrix, st.sampled_from([math.inf, 1.0, 0.5, 0.0, -0.0, math.nan])
       | st.floats(-3.0, 3.0))
@example([[0.0, -0.0], [-0.0, 0.0], [0.0, 0.0]], math.inf)
@example([[1.0, math.nan, 1.0], [math.inf, 1.0, -math.inf], [1.0, 1.0, 1.0]], 1.0)
def test_hungarian_orders_its_pairs_as_the_keyed_sort(rows, limit):
    values = np.array(rows, dtype=float).reshape(len(rows), len(rows[0]) if rows else 0)
    solve = scipy.optimize.linear_sum_assignment
    for least in (association._GATE_MIN_PAIRS, 1):  # the per-pair tail here, then the lexsort
        assignments = []
        with unittest.mock.patch.object(scipy.optimize, "linear_sum_assignment",
                                        lambda costs: assignments.append(solve(costs))
                                        or assignments[-1]), \
                unittest.mock.patch.object(association, "_GATE_MIN_PAIRS", least):
            pairs = hungarian_match(values, limit).pairs
        if not values.size:
            assert pairs == () and not assignments
            continue
        (assigned_rows, assigned_cols), = assignments
        assert pairs == keyed_hungarian_tail(values, assigned_rows, assigned_cols, limit)
        assert all(type(i) is int and type(j) is int for i, j in pairs)
