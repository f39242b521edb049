"""Kalman predict and update for the 11-dimensional box state.

A belief is a mean array of shape (11,) and a covariance array of
shape (11, 11).  The motion model is linear constant-velocity over
discrete frames, so both steps are the textbook equations.  The only
non-linearity is the yaw component, which gets re-wrapped after every
additive operation.  Each prediction factors S by Cholesky once, on first
use, for association and update to share; bad input or a failed
factorization is surfaced as NumericalError, never silently regularized.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import get_lapack_funcs

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

# What scipy.linalg.cho_factor and cho_solve call, minus their per-call checks.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.zeros((OBS_DIM, OBS_DIM)),))


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

    @cached_property
    def factor(self) -> np.ndarray:
        """Lower Cholesky factor of S; NumericalError if S is not finite and PD."""
        if not np.isfinite(self.innovation_cov).all():
            raise NumericalError("innovation covariance is not finite")
        factor, info = _POTRF(self.innovation_cov, lower=True, clean=False)
        if info:
            raise NumericalError("innovation covariance is not positive definite",
                                 condition=float(np.linalg.cond(self.innovation_cov)))
        return factor

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """S^-1 rhs for rhs of shape (7,) or (7, K); NumericalError if rhs is not finite."""
        if not np.isfinite(rhs).all():
            raise NumericalError("residual or covariance is not finite")
        return _POTRS(self.factor, rhs, lower=True)[0]


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


def update(prediction: Prediction, observation: np.ndarray, yaw=None) -> tuple:
    """Condition a prediction on a matched observation of shape (7,).

    K = Sigma H^T S^-1, mean <- mean + K nu, Sigma <- (I - K H) Sigma,
    with the yaw residual wrapped before it enters the correction.
    yaw, if given, replaces the predicted yaw (an orientation flip).
    Returns the posterior (mean, cov).
    """
    sigma = prediction.cov
    h = OBSERVATION_MATRIX
    predicted = prediction.mean.copy()
    predicted[ANGLE_INDEX] = predicted[ANGLE_INDEX] if yaw is None else yaw

    # K = Sigma H^T S^-1, computed as S^-1 (H Sigma) transposed.
    gain = prediction.solve(h @ sigma).T

    nu = observation_residual(observation, predicted[:OBS_DIM])

    mean = predicted + gain @ nu
    mean[ANGLE_INDEX] = wrap_angle(mean[ANGLE_INDEX])
    cov = symmetrize((np.eye(STATE_DIM) - gain @ h) @ sigma)
    return mean, cov
