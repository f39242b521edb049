"""Kalman predict and update for the 11-dimensional box state.

The motion model is linear constant-velocity over discrete frames, so
both steps are the textbook equations.  The only non-linearity is the
yaw component, which gets re-wrapped after every additive operation.
Innovation covariances are inverted through a Cholesky factorization;
a factorization failure is surfaced as NumericalError rather than
silently regularized.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .core import (
    ANGLE_INDEX,
    OBS_DIM,
    OBSERVATION_MATRIX,
    STATE_DIM,
    TRANSITION_MATRIX,
    Observation,
    StateEstimate,
    StateVector,
    observation_residual,
    symmetrize,
    validate_covariance,
    wrap_angle,
)
from .errors import CalibrationError, NumericalError


@dataclass(frozen=True)
class Prediction:
    """Belief forecast one frame ahead, with its observation-space moments.

    predicted_observation is the projection of the predicted mean, and
    innovation_cov is the covariance of (observation - predicted
    observation), i.e. the gating distribution for data association.
    """

    predicted_estimate: StateEstimate
    predicted_observation: Observation
    innovation_cov: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self,
            "innovation_cov",
            validate_covariance(self.innovation_cov, OBS_DIM, "innovation covariance"),
        )


def _require_noise(matrix: np.ndarray, size: int, name: str) -> np.ndarray:
    try:
        return validate_covariance(matrix, size, name)
    except ValueError as exc:
        raise CalibrationError(str(exc)) from None


def predict(estimate: StateEstimate, process_noise: np.ndarray,
            observation_noise: np.ndarray) -> Prediction:
    """Forecast a belief one frame ahead.

    Returns the predicted state estimate together with the predicted
    observation and the innovation covariance
    S = H (A Sigma A^T + Q) H^T + R.
    """
    q = _require_noise(process_noise, STATE_DIM, "process noise")
    r = _require_noise(observation_noise, OBS_DIM, "observation noise")

    a = TRANSITION_MATRIX
    h = OBSERVATION_MATRIX
    mean = a @ estimate.mean.to_array()
    mean[ANGLE_INDEX] = wrap_angle(mean[ANGLE_INDEX])
    cov = symmetrize(a @ estimate.covariance @ a.T + q)
    innovation = symmetrize(h @ cov @ h.T + r)

    predicted = StateEstimate(StateVector.from_array(mean), cov)
    return Prediction(predicted, predicted.mean.observed(), innovation)


def update(prediction: Prediction, observation: Observation) -> StateEstimate:
    """Condition a prediction on a matched observation.

    K = Sigma H^T S^-1, mean <- mean + K nu, Sigma <- (I - K H) Sigma,
    with the yaw residual wrapped before it enters the correction.
    """
    sigma = prediction.predicted_estimate.covariance
    s = prediction.innovation_cov
    h = OBSERVATION_MATRIX

    try:
        factor = cho_factor(s, lower=True)
    except LinAlgError:
        raise NumericalError(
            "innovation covariance is not positive definite",
            condition=float(np.linalg.cond(s)),
        ) from None

    # K = Sigma H^T S^-1, computed as S^-1 (H Sigma) transposed.
    gain = cho_solve(factor, h @ sigma).T

    nu = observation_residual(observation, prediction.predicted_observation)

    mean = prediction.predicted_estimate.mean.to_array() + gain @ nu
    mean[ANGLE_INDEX] = wrap_angle(mean[ANGLE_INDEX])
    cov = symmetrize((np.eye(STATE_DIM) - gain @ h) @ sigma)
    return StateEstimate(StateVector.from_array(mean), cov)
