"""Filter algebra against two independently coded oracles.

Oracle A recomputes predict/update from explicitly built dense
matrices using plain inverses.  Oracle B treats the update as exact
conditioning of an 18-D joint Gaussian over (state, measurement) and
solves the Schur complement directly.  The implementation under test
uses Cholesky solves, so agreement is numerical, not definitional.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from mot3d.association import orientation_correct
from mot3d.core import OBS_DIM, OBSERVATION_MATRIX, STATE_DIM, TRANSITION_MATRIX, wrap_angle
from mot3d.errors import NumericalError
from mot3d.kalman import _POTRF, Prediction, predict, update

ANGLE = 3


def build_transition():
    a = [[1.0 if i == j else 0.0 for j in range(STATE_DIM)] for i in range(STATE_DIM)]
    for pose, vel in ((0, 7), (1, 8), (2, 9), (3, 10)):
        a[pose][vel] = 1.0
    return a


def build_observation():
    return [[1.0 if i == j else 0.0 for j in range(STATE_DIM)] for i in range(OBS_DIM)]


def matmul(a, b):
    rows, inner, cols = len(a), len(b), len(b[0])
    out = [[0.0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            if a[i][k] == 0.0:
                continue
            for j in range(cols):
                out[i][j] += a[i][k] * b[k][j]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def random_spd(rng, size, scale=1.0):
    b = rng.normal(size=(size, size))
    return scale * (b @ b.T) + 0.1 * scale * np.eye(size)


def random_estimate(rng):
    arr = rng.normal(scale=5.0, size=STATE_DIM)
    # extents stay far from zero so posterior means keep them positive
    arr[4:7] = np.abs(arr[4:7]) + 8.0
    arr[ANGLE] = wrap_angle(arr[ANGLE])
    return arr, random_spd(rng, STATE_DIM)


def state(x, y, z, a, l, w, h, dx=0.0, dy=0.0, dz=0.0, da=0.0):
    """An 11-D state mean; velocities default to zero."""
    return np.array([x, y, z, a, l, w, h, dx, dy, dz, da], dtype=float)


def oracle_predict(estimate, q):
    """Dense-matrix predict with pure-Python matrix products."""
    a = build_transition()
    h = build_observation()
    mean, covariance = estimate
    mu = [[v] for v in mean]
    mu_hat = [row[0] for row in matmul(a, mu)]
    mu_hat[ANGLE] = wrap_angle(mu_hat[ANGLE])
    sigma = [list(row) for row in covariance]
    sigma_hat = matmul(matmul(a, sigma), transpose(a))
    for i in range(STATE_DIM):
        for j in range(STATE_DIM):
            sigma_hat[i][j] += q[i][j]
    sigma_hat = [[0.5 * (sigma_hat[i][j] + sigma_hat[j][i]) for j in range(STATE_DIM)]
                 for i in range(STATE_DIM)]
    hs = matmul(h, sigma_hat)
    s = matmul(hs, transpose(h))
    return np.array(mu_hat), np.array(sigma_hat), np.array(s)


def oracle_update_inverse(prediction, obs_arr, r_unused=None):
    """Dense-matrix update via an explicit matrix inverse."""
    h = np.array(build_observation())
    sigma_hat = np.asarray(prediction.cov)
    mu_hat = prediction.mean
    s = np.asarray(prediction.innovation_cov)
    gain = sigma_hat @ h.T @ np.linalg.inv(s)
    nu = obs_arr - h @ mu_hat
    nu[ANGLE] = wrap_angle(nu[ANGLE])
    mu = mu_hat + gain @ nu
    mu[ANGLE] = wrap_angle(mu[ANGLE])
    cov = (np.eye(STATE_DIM) - gain @ h) @ sigma_hat
    return mu, 0.5 * (cov + cov.T)


def oracle_update_conditioning(prediction, obs_arr):
    """Update as conditioning of the joint Gaussian over (state, z)."""
    h = np.array(build_observation())
    sigma_hat = np.asarray(prediction.cov)
    mu_hat = prediction.mean
    s = np.asarray(prediction.innovation_cov)
    cross = sigma_hat @ h.T
    nu = obs_arr - h @ mu_hat
    nu[ANGLE] = wrap_angle(nu[ANGLE])
    mu = mu_hat + cross @ np.linalg.solve(s, nu)
    mu[ANGLE] = wrap_angle(mu[ANGLE])
    cov = sigma_hat - cross @ np.linalg.solve(s, cross.T)
    return mu, 0.5 * (cov + cov.T)


def one_row(prediction: Prediction) -> Prediction:
    """A single belief's prediction as a one-row stack."""
    return Prediction(prediction.mean[None], prediction.cov[None], prediction.innovation_cov[None])


def update_one_row(prediction: Prediction, obs_arr: np.ndarray) -> tuple:
    """update of a single belief's prediction as a one-row stack, at its predicted yaw.

    Returns the posterior (11,) mean and (11, 11) covariance.
    """
    stack = one_row(prediction)
    means, covs = update(stack, obs_arr[None], stack.mean[:, ANGLE], [0])
    return means[0], covs[0]


def angle_aware_diff(got, expected):
    diff = np.abs(got - expected)
    diff[ANGLE] = abs(wrap_angle(got[ANGLE] - expected[ANGLE]))
    return diff


def test_predict_matches_dense_oracle():
    rng = np.random.default_rng(42)
    for _ in range(100):
        estimate = random_estimate(rng)
        q = random_spd(rng, STATE_DIM, scale=0.5)
        r = random_spd(rng, OBS_DIM, scale=0.5)
        prediction = predict(*estimate, q, r)
        mu_hat, sigma_hat, s_part = oracle_predict(estimate, q)
        assert np.all(angle_aware_diff(prediction.mean,
                                       mu_hat) < 1e-9)
        np.testing.assert_allclose(prediction.cov,
                                   sigma_hat, atol=1e-9)
        np.testing.assert_allclose(prediction.innovation_cov, s_part + r, atol=1e-9)


def test_update_matches_both_oracles():
    rng = np.random.default_rng(43)
    for _ in range(100):
        estimate = random_estimate(rng)
        q = random_spd(rng, STATE_DIM, scale=0.5)
        r = random_spd(rng, OBS_DIM, scale=0.5)
        prediction = predict(*estimate, q, r)
        obs_arr = prediction.mean[:OBS_DIM] + rng.normal(size=OBS_DIM)
        obs_arr[ANGLE] = wrap_angle(obs_arr[ANGLE])
        obs_arr[4:7] = np.abs(obs_arr[4:7]) + 0.2
        posterior_mean, posterior_cov = update_one_row(prediction, obs_arr)

        mu_a, cov_a = oracle_update_inverse(prediction, obs_arr)
        mu_b, cov_b = oracle_update_conditioning(prediction, obs_arr)
        got = posterior_mean
        assert np.all(angle_aware_diff(got, mu_a) < 1e-8)
        assert np.all(angle_aware_diff(got, mu_b) < 1e-8)
        np.testing.assert_allclose(posterior_cov, cov_a, atol=1e-8)
        np.testing.assert_allclose(posterior_cov, cov_b, atol=1e-8)


def test_posterior_trace_never_exceeds_predicted():
    rng = np.random.default_rng(44)
    for _ in range(200):
        estimate = random_estimate(rng)
        q = random_spd(rng, STATE_DIM, scale=0.3)
        r = random_spd(rng, OBS_DIM, scale=0.3)
        prediction = predict(*estimate, q, r)
        obs_arr = prediction.mean[:OBS_DIM] + rng.normal(size=OBS_DIM)
        obs_arr[ANGLE] = wrap_angle(obs_arr[ANGLE])
        obs_arr[4:7] = np.abs(obs_arr[4:7]) + 0.2
        posterior_mean, posterior_cov = update_one_row(prediction, obs_arr)
        predicted_trace = float(np.trace(prediction.cov))
        assert float(np.trace(posterior_cov)) <= predicted_trace + 1e-9


def test_huge_observation_noise_leaves_mean():
    # R = 1e12 I carries no information; the mean must not move
    rng = np.random.default_rng(45)
    estimate = random_estimate(rng)
    q = random_spd(rng, STATE_DIM)
    r = 1e12 * np.eye(OBS_DIM)
    prediction = predict(*estimate, q, r)
    predicted_mean = prediction.mean
    obs_arr = predicted_mean[:OBS_DIM] + rng.normal(size=OBS_DIM)
    obs_arr[ANGLE] = wrap_angle(obs_arr[ANGLE])
    obs_arr[4:7] = np.abs(obs_arr[4:7]) + 0.2
    posterior_mean, posterior_cov = update_one_row(prediction, obs_arr)
    assert np.all(angle_aware_diff(posterior_mean, predicted_mean) < 1e-4)


def test_tiny_predicted_covariance_ignores_measurement():
    # a near-certain prediction barely moves toward the measurement
    prediction = predict(state(1.0, 2.0, 3.0, 0.4, 2.0, 1.0, 1.5, dx=0.1), 1e-12 * np.eye(STATE_DIM),
                         np.zeros((STATE_DIM, STATE_DIM)), np.eye(OBS_DIM))
    predicted_mean = prediction.mean
    shifted = predicted_mean[:OBS_DIM] + 0.5
    shifted[ANGLE] = wrap_angle(shifted[ANGLE])
    posterior_mean, _ = update_one_row(prediction, shifted)
    assert np.all(angle_aware_diff(posterior_mean, predicted_mean) < 1e-6)


def test_predict_unit_covariance_zero_noise():
    # with Sigma = I and Q = 0 the predicted covariance is exactly A A^T
    prediction = predict(state(0, 0, 0, 0, 1, 1, 1), np.eye(STATE_DIM),
                         np.zeros((STATE_DIM, STATE_DIM)), np.eye(OBS_DIM))
    a = np.array(build_transition())
    np.testing.assert_allclose(prediction.cov,
                               a @ a.T, atol=1e-14)


def test_update_wraps_residual_across_seam():
    # prediction and measurement straddle +-pi; the posterior stays at
    # the seam instead of swinging through zero
    prediction = predict(state(0, 0, 0, 3.1, 1, 1, 1), np.eye(STATE_DIM),
                         np.zeros((STATE_DIM, STATE_DIM)), np.eye(OBS_DIM))
    posterior_mean, _ = update_one_row(prediction, np.array([0, 0, 0, -3.1, 1, 1, 1]))
    assert abs(posterior_mean[ANGLE]) > 3.05


def test_singular_innovation_raises_numerical_error():
    prediction = predict(state(0, 0, 0, 0, 1, 1, 1), np.zeros((STATE_DIM, STATE_DIM)),
                         np.zeros((STATE_DIM, STATE_DIM)),
                         np.zeros((OBS_DIM, OBS_DIM)))
    with pytest.raises(NumericalError) as exc_info:
        update_one_row(prediction, np.array([0, 0, 0, 0, 1, 1, 1]))
    assert "condition" in str(exc_info.value)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_innovation_raises_numerical_error(bad):
    prediction = predict(state(0, 0, 0, 0, 1, 1, 1), np.eye(STATE_DIM),
                         np.zeros((STATE_DIM, STATE_DIM)), np.eye(OBS_DIM))
    s = prediction.innovation_cov.copy()
    s[2, 2] = bad
    with pytest.raises(NumericalError, match="not finite"):
        update_one_row(Prediction(prediction.mean, prediction.cov, s),
                       np.array([0, 0, 0, 0, 1, 1, 1]))


@pytest.mark.parametrize("bad_sigma_row, bad_s_row, named, message", [
    (0, 2, 0, "residual or covariance is not finite"),
    (2, 0, 0, "innovation covariance is not positive definite"),
])
def test_stacked_update_names_the_first_failing_row_in_update_order(bad_sigma_row, bad_s_row,
                                                                    named, message):
    # Sigma blocks are checked for the whole stack at once, yet rows fail
    # in the order the update visits them, each Sigma block before its S
    rng = np.random.default_rng(50)
    estimates = [random_estimate(rng) for _ in range(4)]
    prediction = predict(np.array([m for m, _ in estimates]), np.array([c for _, c in estimates]),
                         random_spd(rng, STATE_DIM, scale=0.5),
                         random_spd(rng, OBS_DIM, scale=0.5))
    prediction.cov[bad_sigma_row, 1, 5] = math.nan
    prediction.innovation_cov[bad_s_row] = -np.eye(OBS_DIM)
    rows = [3, 0, 2]
    with pytest.raises(NumericalError, match=f"^{message}") as info:
        update(prediction, prediction.mean[rows, :OBS_DIM], prediction.mean[rows, ANGLE], rows)
    assert info.value.row == named


def test_update_of_no_rows_is_empty():
    prediction = predict(np.zeros((2, STATE_DIM)), np.stack([np.eye(STATE_DIM)] * 2),
                         np.eye(STATE_DIM), np.eye(OBS_DIM))
    mean, cov = update(prediction, np.zeros((0, OBS_DIM)), np.zeros(0), [])
    assert mean.shape == (0, STATE_DIM) and cov.shape == (0, STATE_DIM, STATE_DIM)


def test_numerical_error_survives_pickling():
    # worker processes hand errors back pickled: message, condition and
    # location must come through unchanged
    error = NumericalError("innovation covariance is not positive definite", condition=12.5)
    error.row = 3
    error.location = "scene s, frame 1, class car, track 4"
    copy = pickle.loads(pickle.dumps(error))
    assert str(copy) == str(error) == (
        "scene s, frame 1, class car, track 4: innovation covariance is not "
        "positive definite (condition estimate: 1.250e+01)")
    assert (copy.condition, copy.row) == (12.5, 3)


def test_update_with_yaw_equals_update_of_the_flipped_prediction():
    # passing the flipped yaw is the same arithmetic as updating a
    # prediction whose mean carries it (at its own yaw), bit for bit
    rng = np.random.default_rng(48)
    for _ in range(100):
        estimate = random_estimate(rng)
        prediction = predict(*estimate, random_spd(rng, STATE_DIM, scale=0.5),
                             random_spd(rng, OBS_DIM, scale=0.5))
        obs_arr = prediction.mean[:OBS_DIM] + rng.normal(size=OBS_DIM)
        obs_arr[ANGLE] = wrap_angle(obs_arr[ANGLE])
        yaw = wrap_angle(prediction.mean[ANGLE] + math.pi)
        flipped_mean = prediction.mean.copy()
        flipped_mean[ANGLE] = yaw
        expected = update_one_row(dataclasses.replace(prediction, mean=flipped_mean), obs_arr)
        got = update(one_row(prediction), obs_arr[None], [yaw], [0])
        for a, b in zip((got[0][0], got[1][0]), expected):
            np.testing.assert_array_equal(a, b)


def test_stacked_calls_equal_one_row_stacks_bit_for_bit():
    # the tracker's bank predicts and updates every track per call; each
    # row must carry exactly the bits of a one-row stack, which in turn
    # equals the dense H and A products, so stacking changes no output
    rng = np.random.default_rng(49)
    h, a = OBSERVATION_MATRIX, TRANSITION_MATRIX
    for n in (1, 2, 5, 17, 40):
        q = random_spd(rng, STATE_DIM, scale=0.5)
        r = random_spd(rng, OBS_DIM, scale=0.5)
        estimates = [random_estimate(rng) for _ in range(n)]
        for mean, _ in estimates[::3]:  # yaws on either side of the +-pi seam
            mean[ANGLE] = wrap_angle(rng.choice([math.pi, -math.pi]) + rng.normal(scale=1e-4))
        stacked = predict(np.array([m for m, _ in estimates]), np.array([c for _, c in estimates]),
                          q, r)
        ones = [predict(m[None], c[None], q, r) for m, c in estimates]
        for k, (one, (mean, cov)) in enumerate(zip(ones, estimates)):
            assert np.array_equal(stacked.mean[k], one.mean[0])
            assert np.array_equal(stacked.cov[k], one.cov[0])
            assert np.array_equal(stacked.innovation_cov[k], one.innovation_cov[0])
            expected_mean = a @ mean
            expected_mean[ANGLE] = wrap_angle(expected_mean[ANGLE])
            assert np.array_equal(one.mean[0], expected_mean)
            s = h @ one.cov[0] @ h.T + r
            assert np.array_equal(one.innovation_cov[0], (s + s.T) / 2.0)
            # one LAPACK potrf per row, never a batched Cholesky with other rounding
            expected = np.tril(_POTRF(one.innovation_cov[0], lower=True, clean=False)[0])
            assert np.array_equal(np.tril(stacked.factor(k)), expected)
            assert np.array_equal(np.tril(one.factor(0)), expected)

        # a subset of rows in shuffled order, against observations that
        # straddle the seam or face away from the prediction
        rows = rng.permutation(n)[:rng.integers(1, n + 1)].tolist()
        observed = stacked.mean[rows, :OBS_DIM] + rng.normal(size=(len(rows), OBS_DIM))
        observed[:, ANGLE] = [wrap_angle(stacked.mean[row, ANGLE] + rng.choice([0.0, math.pi])
                                         + rng.normal(scale=0.1)) for row in rows]
        yaws = orientation_correct(stacked.mean[rows, ANGLE], observed[:, ANGLE])
        means, covs = update(stacked, observed, yaws, rows)
        for k, row in enumerate(rows):
            mean, cov = update(ones[row], observed[k:k + 1], yaws[k:k + 1], [0])
            assert np.array_equal(means[k], mean[0])
            assert np.array_equal(covs[k], cov[0])


def test_thousand_cycles_stay_symmetric_psd():
    # calibrated-magnitude noise; covariance must remain a valid
    # covariance (symmetric, eigenvalues >= -1e-9)
    rng = np.random.default_rng(47)
    q = np.diag(np.concatenate([np.full(4, 0.01), np.zeros(3), np.full(4, 0.01)]))
    r = np.diag(np.concatenate([np.full(3, 0.09), [0.0025], np.full(3, 0.0004)]))
    mean = state(0, 0, 0, 0, 4.5, 1.9, 1.6, dx=0.5, da=0.01)
    cov = np.diag(np.concatenate([np.diag(r), np.full(4, 0.01)]))
    for step in range(1000):
        prediction = predict(mean, cov, q, r)
        obs_arr = prediction.mean[:OBS_DIM].copy()
        obs_arr[:4] += rng.normal(scale=0.3, size=4) * [1, 1, 1, 0.05]
        obs_arr[ANGLE] = wrap_angle(obs_arr[ANGLE])
        obs_arr[4:7] = np.maximum(obs_arr[4:7] + rng.normal(scale=0.02, size=3), 0.05)
        mean, cov = update_one_row(prediction, obs_arr)
        np.testing.assert_array_equal(cov, cov.T)
        if step % 100 == 0:
            assert np.linalg.eigvalsh(cov).min() >= -1e-9
    assert np.linalg.eigvalsh(cov).min() >= -1e-9
    assert math.isfinite(mean[0])
