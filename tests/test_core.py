import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from mot3d.core import (ANGLE_INDEX, CLASS_LABELS, OBS_DIM, OBSERVATION_MATRIX,
                        STATE_DIM, TRANSITION_MATRIX, Box, Observation, checked_rows,
                        observation_residual, observation_rows, symmetrize,
                        wrap_angle, wrap_angle_array)
from mot3d.kalman import predict

finite_angles = st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False, allow_infinity=False)


def test_wrap_angle_known_values():
    assert wrap_angle(0.0) == 0.0
    assert wrap_angle(3.5) == pytest.approx(3.5 - 2.0 * math.pi, abs=1e-15)
    assert wrap_angle(-math.pi) == -math.pi
    # +pi maps to the half-open interval's lower edge
    assert wrap_angle(math.pi) == -math.pi
    assert wrap_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)


def test_wrap_angle_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            wrap_angle(bad)


@given(finite_angles)
def test_wrap_angle_range(theta):
    wrapped = wrap_angle(theta)
    assert -math.pi <= wrapped < math.pi


@given(st.floats(min_value=-100.0, max_value=100.0, allow_nan=False),
       st.integers(min_value=-5, max_value=5))
def test_wrap_angle_periodic(theta, k):
    shifted = wrap_angle(theta + 2.0 * math.pi * k)
    assert abs(wrap_angle(shifted - wrap_angle(theta))) < 1e-9


def test_wrap_angle_array_matches_scalar():
    thetas = np.linspace(-10.0, 10.0, 97)
    wrapped = wrap_angle_array(thetas)
    expected = np.array([wrap_angle(t) for t in thetas])
    np.testing.assert_allclose(wrapped, expected, atol=1e-15)


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_symmetrize_fixpoint(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(5, 5))
    once = symmetrize(m)
    np.testing.assert_array_equal(symmetrize(once), once)
    np.testing.assert_allclose(once, once.T, atol=0)


def test_observation_validation():
    obs = Observation(1.0, 2.0, 3.0, 4.0, 1.0, 1.0, 1.0)
    assert obs.a == pytest.approx(wrap_angle(4.0))
    with pytest.raises(ValueError):
        Observation(0, 0, 0, 0, 0.0, 1, 1)
    with pytest.raises(ValueError):
        Observation(0, 0, 0, 0, 1, -1.0, 1)
    with pytest.raises(ValueError):
        Observation(math.nan, 0, 0, 0, 1, 1, 1)


@pytest.mark.parametrize("bad", ["1.5", True, False, None, [1.0], np.bool_(True),
                                 pytest.param(10 ** 400, id="10**400")], ids=repr)
@pytest.mark.parametrize("index", range(OBS_DIM))
def test_observation_rejects_non_real_fields(index, bad):
    # a string used to be kept as is and failed a frame later in numpy;
    # a bool passed as 0 or 1; an int beyond the float range raised
    # OverflowError, which named no field
    values = [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0]
    values[index] = bad
    name = "xyzalwh"[index]
    rule = "finite" if type(bad) is int else "a real number"
    with pytest.raises(ValueError, match=f"^{name} must be {rule}, got "):
        Observation(*values)
    if bad is not None:  # a None score means the box has none
        with pytest.raises(ValueError, match=f"^score must be {rule}, got "):
            Box(Observation(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0), "car", 0, score=bad)


def test_observation_reports_the_first_faulty_field():
    with pytest.raises(ValueError, match=r"^y must be finite, got nan$"):
        Observation(0.0, math.nan, "z", 0.0, -1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match=r"^w must be positive, got -2.0$"):
        Observation(0.0, 0.0, 0.0, 0.0, 1.0, -2.0, -1.0)
    with pytest.raises(ValueError, match=r"^h must be positive, got 0$"):
        Observation(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0)
    with pytest.raises(ValueError, match=r"^a must be finite, got inf$"):
        Observation(0.0, 0.0, 0.0, math.inf, 1.0, 1.0, 1.0)


def test_observation_accepts_any_finite_real():
    # ints, numpy scalars, and finite floats whose sum overflows
    obs = Observation(1, np.float64(2.5), np.float32(0.5), 7, 1e308, 1e308, 1e308)
    assert (obs.x, obs.y, obs.z, obs.l) == (1, 2.5, 0.5, 1e308)
    assert type(obs.a) is float and obs.a == wrap_angle(7.0)
    assert Observation(*observation_rows([obs])[0].tolist()).x == 1.0


def test_observation_from_array_holds_python_floats():
    obs = Observation(*np.array([1.5, -2.0, 0.3, 4.0, 4.5, 1.9, 1.6]).tolist())
    assert all(type(getattr(obs, name)) is float for name in "xyzalwh")
    assert obs.a == wrap_angle(4.0)


def test_observation_array_round_trip():
    obs = Observation(1.5, -2.0, 0.3, 1.1, 4.5, 1.9, 1.6)
    again = Observation(*observation_rows([obs])[0].tolist())
    assert again == obs


def test_observation_rows_are_bit_equal_to_stacked_arrays():
    observations = [Observation(1.5, -2.0, 0.3, 1.1, 4.5, 1.9, 1.6),
                    Observation(1, np.float64(2.5), np.float32(0.1), 7, 1e308, 1e308, 1e308),
                    Observation(-1e-300, 0.0, -0.0, -math.pi, 5e-324, 1.0, 2.0)]
    stacked = np.stack([np.array([o.x, o.y, o.z, o.a, o.l, o.w, o.h]) for o in observations])
    rows = observation_rows(observations)
    assert rows.dtype == stacked.dtype and rows.tobytes() == stacked.tobytes()
    assert observation_rows(iter(observations)).tobytes() == stacked.tobytes()
    assert observation_rows([]).shape == (0, OBS_DIM)


def test_checked_rows_wrap_yaws_as_observations_do():
    rows = np.array([[1.0, 2.0, 0.5, 3 * math.pi, 4.0, 2.0, 1.5],
                     [1, 2, 3, -3 * math.pi, 1e308, 5e-324, 2.0],
                     [0.0, -0.0, 0.0, math.pi, 1.0, 1.0, 1.0]])
    expected = [[getattr(Observation(*row), name) for name in "xyzalwh"] for row in rows.tolist()]
    assert checked_rows(rows) is rows
    assert rows.tolist() == expected
    assert rows[:, ANGLE_INDEX].tolist() == [wrap_angle(3 * math.pi), wrap_angle(-3 * math.pi),
                                             -math.pi]
    assert checked_rows(np.empty((0, OBS_DIM))).shape == (0, OBS_DIM)


@pytest.mark.parametrize("row, message", [
    ((0.0, math.nan, 0.0, 0.0, 1.0, 1.0, 1.0), r"^y must be finite, got nan$"),
    ((0.0, 0.0, 0.0, -math.inf, 1.0, 1.0, 1.0), r"^a must be finite, got -inf$"),
    ((0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0), r"^w must be positive, got 0.0$"),
])
def test_checked_rows_raise_the_first_faulty_rows_error(row, message):
    rows = np.array([(0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0), row,
                     (0.0, 0.0, 0.0, 0.0, -1.0, 1.0, 1.0)])
    with pytest.raises(ValueError, match=message):
        checked_rows(rows)


def test_transition_matrix_structure():
    expected = np.eye(STATE_DIM)
    for pose_row, velocity_col in ((0, 7), (1, 8), (2, 9), (3, 10)):
        expected[pose_row, velocity_col] = 1.0
    np.testing.assert_array_equal(TRANSITION_MATRIX, expected)
    assert not TRANSITION_MATRIX.flags.writeable


def test_observation_matrix_selects_observed_block():
    expected = np.hstack([np.eye(OBS_DIM), np.zeros((OBS_DIM, STATE_DIM - OBS_DIM))])
    np.testing.assert_array_equal(OBSERVATION_MATRIX, expected)
    state = np.arange(1.0, 12.0)
    np.testing.assert_array_equal(OBSERVATION_MATRIX @ state, state[:OBS_DIM])


def transition(state: np.ndarray) -> np.ndarray:
    """The constant-velocity transition as predict applies it to the mean."""
    prediction = predict(state, np.eye(STATE_DIM), np.zeros((STATE_DIM, STATE_DIM)),
                         np.eye(OBS_DIM))
    return prediction.mean


def test_apply_transition_zero_velocity_is_identity():
    state = np.array([1.0, 2.0, 3.0, 0.5, 4.0, 2.0, 1.5, 0.0, 0.0, 0.0, 0.0])
    np.testing.assert_array_equal(transition(state), state)


def test_apply_transition_matches_matrix_product():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        arr = rng.normal(scale=3.0, size=STATE_DIM)
        arr[4:7] = np.abs(arr[4:7]) + 0.1
        arr[ANGLE_INDEX] = wrap_angle(arr[ANGLE_INDEX])
        moved = transition(arr)
        expected = TRANSITION_MATRIX @ arr
        expected[ANGLE_INDEX] = wrap_angle(expected[ANGLE_INDEX])
        np.testing.assert_allclose(moved, expected, atol=1e-12)


def test_apply_transition_wraps_angle():
    state = np.array([0, 0, 0, 3.0, 1, 1, 1, 0, 0, 0, 1.0])
    assert transition(state)[ANGLE_INDEX] == pytest.approx(wrap_angle(4.0))


def test_observation_residual_wraps_yaw():
    # detection at -179 degrees against +179 degrees: 2 degrees, not 358
    predicted = Observation(0, 0, 0, math.radians(179.0), 1, 1, 1)
    detected = Observation(0, 0, 0, math.radians(-179.0), 1, 1, 1)
    detected_row, predicted_row = observation_rows([detected, predicted])
    residual = observation_residual(detected_row, predicted_row)
    assert residual[ANGLE_INDEX] == pytest.approx(math.radians(2.0), abs=1e-12)
    assert np.all(residual[:3] == 0.0)
    # a block of residuals is formed row by row
    block = observation_residual(np.array([detected_row, predicted_row]), predicted_row)
    np.testing.assert_array_equal(block[0], residual)
    np.testing.assert_array_equal(block[1], np.zeros(OBS_DIM))


def test_detection_validation():
    obs = Observation(0, 0, 0, 0, 1, 1, 1)
    det = Box(obs, "car", 0, score=0.5)
    assert det.scene_id == ""
    with pytest.raises(ValueError):
        Box(obs, "plane", 0, score=0.5)
    with pytest.raises(ValueError):
        Box(obs, "car", 0, score=1.5)
    with pytest.raises(ValueError):
        Box(obs, "car", -1, score=0.5)
    assert "car" in CLASS_LABELS and len(CLASS_LABELS) == 7
    assert Box(obs, "car", 0, score=1, track_id=3).score == 1.0
    assert Box(obs, "car", 0, instance_id="a").instance_id == "a"
    # a string or bool score used to pass as its float value
    for fields in (dict(score=math.nan), dict(score="high"), dict(score="0.5"),
                   dict(score=True), dict(track_id=0),
                   dict(track_id=True), dict(track_id=1.0), dict(instance_id=""),
                   dict(instance_id=7), dict(instance_id=["a"])):
        with pytest.raises(ValueError):
            Box(obs, "car", 0, **fields)
    with pytest.raises(ValueError):
        Box(obs, "car", True, score=0.5)
