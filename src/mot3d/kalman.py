"""Kalman predict and update for the 11-dimensional box state.

A belief is a mean array of shape (11,) and a covariance array of
shape (11, 11).  The motion model is linear constant-velocity over
discrete frames, so both steps are the textbook equations.  The only
non-linearity is the yaw component, which gets re-wrapped after every
additive operation.  Innovation covariances are factored once by
Cholesky (innovation_factor); a factorization failure is surfaced as
NumericalError rather than silently regularized.
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
    observation_residual,
    symmetrize,
    wrap_angle,
)
from .errors import NumericalError


@dataclass(frozen=True)
class Prediction:
    """Belief forecast one frame ahead.

    mean[:7] is the predicted observation, and innovation_cov is the
    covariance of (observation - predicted observation), i.e. the
    gating distribution for data association.
    """

    mean: np.ndarray
    cov: np.ndarray
    innovation_cov: np.ndarray


def innovation_factor(innovation_cov: np.ndarray):
    """Lower Cholesky factor of S for cho_solve; NumericalError if S is not PD."""
    try:
        return cho_factor(innovation_cov, lower=True)
    except LinAlgError:
        raise NumericalError(
            "innovation covariance is not positive definite",
            condition=float(np.linalg.cond(innovation_cov)),
        ) from None


def predict(mean: np.ndarray, cov: np.ndarray, process_noise: np.ndarray,
            observation_noise: np.ndarray) -> Prediction:
    """Forecast a belief one frame ahead.

    Returns the predicted mean and covariance together with the
    innovation covariance S = H (A Sigma A^T + Q) H^T + R.  Q and R are
    used as given: they are validated once, where a noise model is
    built (ClassNoise accepts only finite non-negative diagonals).
    """
    a = TRANSITION_MATRIX
    h = OBSERVATION_MATRIX
    mean = a @ mean
    mean[ANGLE_INDEX] = wrap_angle(mean[ANGLE_INDEX])
    cov = symmetrize(a @ cov @ a.T + process_noise)
    return Prediction(mean, cov, symmetrize(h @ cov @ h.T + observation_noise))


def update(prediction: Prediction, observation: np.ndarray) -> tuple:
    """Condition a prediction on a matched observation of shape (7,).

    K = Sigma H^T S^-1, mean <- mean + K nu, Sigma <- (I - K H) Sigma,
    with the yaw residual wrapped before it enters the correction.
    Returns the posterior (mean, cov).
    """
    sigma = prediction.cov
    h = OBSERVATION_MATRIX

    # K = Sigma H^T S^-1, computed as S^-1 (H Sigma) transposed.
    gain = cho_solve(innovation_factor(prediction.innovation_cov), h @ sigma).T

    nu = observation_residual(observation, prediction.mean[:OBS_DIM])

    mean = prediction.mean + gain @ nu
    mean[ANGLE_INDEX] = wrap_angle(mean[ANGLE_INDEX])
    cov = symmetrize((np.eye(STATE_DIM) - gain @ h) @ sigma)
    return mean, cov
