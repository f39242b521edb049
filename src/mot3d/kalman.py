"""Kalman predict and update for the 11-dimensional box state.

The motion model is linear constant-velocity over discrete frames, with the
yaw re-wrapped after every additive operation.  Beliefs are stacked along a
leading axis; an update conditions a list of rows of a stack, each row
getting the bits of a one-row stack.  Bad input or a failed factorization
raises NumericalError, never silently regularized.

The tracker runs the per-axis filter.  Its Q, R and initial covariance are
diagonal and A pairs each position with its own velocity only, so each
covariance is a (position, velocity) 2 x 2 block for x, y, z and yaw plus
three extent variances, and S is diagonal (Bar-Shalom, Li and Kirubarajan,
2001).  It is kept as 15 numbers, Sigma's diagonal then Sigma[i, i + 7] for
the four axes, and S^-1 b is (b * w) * w for w = 1 / sqrt(s): elementwise.
predict and update are the dense filter, one LAPACK factor and solve per
row (scipy.linalg, imported on first use).  On block-structured input both
give the same floats (on OpenBLAS, whose solve multiplies by reciprocals).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import (ANGLE_INDEX, OBS_DIM, OBSERVATION_MATRIX, STATE_DIM, TRANSITION_MATRIX,
                   observation_residual, symmetrize, wrap_angle_array)
from .errors import NumericalError

AXES = 4  # x, y, z and yaw: position i moves with velocity i + 7


def _failure(row: int, finite: bool, s: np.ndarray) -> NumericalError:
    """The error of a row whose right-hand side (finite) or S (dense, or its diagonal) fails."""
    if not finite:
        return NumericalError("residual or covariance is not finite", row=row)
    if not np.isfinite(s).all():
        return NumericalError("innovation covariance is not finite", row=row)
    if s.ndim == 2:
        condition = float(np.linalg.cond(s))
    else:  # np.linalg.cond of the diagonal matrix: max |s| / min |s|, inf at a 0
        smallest = np.abs(s).min()
        condition = float(np.abs(s).max() / smallest) if smallest > 0.0 else math.inf
    return NumericalError("innovation covariance is not positive definite",
                          condition=condition, row=row)


def _posterior_mean(mean: np.ndarray, rows) -> np.ndarray:
    """mean with its yaws wrapped; NumericalError at the first row with an extent not above 0."""
    mean[:, ANGLE_INDEX] = wrap_angle_array(mean[:, ANGLE_INDEX])
    if not (positive := mean[:, 4:OBS_DIM] > 0.0).all():  # a gain of 1 can round l + (z - l) to 0
        raise NumericalError("posterior extent is not positive", row=rows[positive.all(1).argmin()])
    return mean


@dataclass(frozen=True)
class Prediction:
    """Dense beliefs forecast one frame ahead: mean (..., 11), cov (..., 11, 11) and S."""

    mean: np.ndarray
    cov: np.ndarray
    innovation_cov: np.ndarray


def predict(mean: np.ndarray, cov: np.ndarray, process_noise: np.ndarray,
            observation_noise: np.ndarray) -> Prediction:
    """Forecast a belief, or a stack of beliefs, one frame ahead.

    Returns the predicted mean and covariance together with the innovation
    covariance S = H (A Sigma A^T + Q) H^T + R.  Q and R, one matrix each
    or one per row, are used as given.
    """
    a = TRANSITION_MATRIX
    mean = mean @ a.T
    mean[..., ANGLE_INDEX] = wrap_angle_array(mean[..., ANGLE_INDEX])
    cov = symmetrize(a @ cov @ a.T + process_noise)
    return Prediction(mean, cov, symmetrize(cov[..., :OBS_DIM, :OBS_DIM] + observation_noise))


def update(prediction: Prediction, observation: np.ndarray, yaw: np.ndarray,
           rows: list) -> tuple:
    """Condition K rows of a stacked prediction on their matched (K, 7) observations.

    yaw (K,) replaces each row's predicted yaw (the orientation-corrected
    one).  K = Sigma H^T S^-1, mean <- mean + K nu, Sigma <- (I - K H) Sigma,
    with the yaw residual wrapped.  NumericalError names the first row whose
    H Sigma or S is not finite or whose S fails to factor, then the first
    with a non-positive posterior extent.  Returns the posterior (mean, cov).
    """
    from scipy.linalg.lapack import dpotrf, dpotrs  # loaded on first use, never by the tracker

    sigma, predicted = prediction.cov[rows], prediction.mean[rows]
    predicted[:, ANGLE_INDEX] = yaw
    blocks = sigma[:, :OBS_DIM]
    gain = np.empty((len(rows), STATE_DIM, OBS_DIM))  # K, per row S^-1 (H Sigma) transposed
    for k, (row, finite) in enumerate(zip(rows, np.isfinite(blocks).all(axis=(1, 2)).tolist())):
        s = prediction.innovation_cov[row]
        usable = finite and np.isfinite(s).all()
        factor, info = dpotrf(s, lower=True, clean=False) if usable else (None, 1)
        if info:
            raise _failure(row, finite, s)
        gain[k] = dpotrs(factor, blocks[k], lower=True)[0].T
    nu = observation_residual(observation, predicted[:, :OBS_DIM])
    mean = _posterior_mean(predicted + (gain @ nu[:, :, None])[:, :, 0], rows)
    return mean, symmetrize((np.eye(STATE_DIM) - gain @ OBSERVATION_MATRIX) @ sigma)


@dataclass(frozen=True)
class AxisPrediction:
    """Per-axis beliefs forecast one frame ahead: mean (N, 11), cov (N, 15), S's diagonal (N, 7)."""

    mean: np.ndarray
    cov: np.ndarray
    innovation_var: np.ndarray

    @cached_property
    def weights(self) -> np.ndarray:
        """w = 1 / sqrt(s) of every row, taken once for the affinity and the update."""
        with np.errstate(all="ignore"):  # a row whose S fails check is never solved
            return 1.0 / np.sqrt(self.innovation_var)

    def check(self, rows, finite: np.ndarray):
        """NumericalError at the first of rows whose right-hand side (finite False) or S fails."""
        s = self.innovation_var[rows]
        usable = (s > 0.0) & (s < math.inf)
        if not (finite.all() and usable.all()):
            k = int((~finite | ~usable.all(axis=1)).argmax())
            raise _failure(int(rows[k]), bool(finite[k]), s[k])


def predict_per_axis(mean: np.ndarray, cov: np.ndarray, process_noise: np.ndarray,
                     observation_noise: np.ndarray) -> AxisPrediction:
    """predict's floats for (N, 15) per-axis covariances and (N, 11) and (N, 7) Q and R diagonals.

    For an axis's position variance pp, covariance pv and velocity variance
    vv, A Sigma A^T's sums: pp' = ((pp + pv) + (pv + vv)) + q_p, pv' = pv + vv.
    """
    predicted = mean.copy()
    predicted[:, :AXES] += mean[:, OBS_DIM:]
    predicted[:, ANGLE_INDEX] = wrap_angle_array(predicted[:, ANGLE_INDEX])
    pp, vv, pv = cov[:, :AXES], cov[:, OBS_DIM:STATE_DIM], cov[:, STATE_DIM:]
    out = np.empty_like(cov)
    out[:, :AXES] = ((pp + pv) + (pv + vv)) + process_noise[:, :AXES]
    out[:, AXES:STATE_DIM] = cov[:, AXES:STATE_DIM] + process_noise[:, AXES:]  # extents, vv
    out[:, STATE_DIM:] = pv + vv
    return AxisPrediction(predicted, out, out[:, :OBS_DIM] + observation_noise)


def update_per_axis(prediction: AxisPrediction, observation: np.ndarray, yaw: np.ndarray,
                    rows: list) -> tuple:
    """update's floats and errors for K rows of a stacked per-axis prediction.

    An observed component's gain is k = (sigma * w) * w of its variance, a
    velocity's k_v that of its axis's pv.  pp+ = (1 - k_p) pp, e+ likewise,
    vv+ = vv - k_v pv and pv+ = ((1 - k_p) pv + (pv - k_v pp)) / 2, the
    mean of the two products (I - K H) Sigma holds.
    """
    sigma = prediction.cov[rows]  # finite exactly where H Sigma is, as predict's pp' sums vv
    prediction.check(rows, np.isfinite(sigma).all(axis=1))
    w, mean = prediction.weights[rows], prediction.mean[rows]
    mean[:, ANGLE_INDEX] = yaw
    nu = observation_residual(observation, mean[:, :OBS_DIM])
    pp, vv, pv = sigma[:, :AXES], sigma[:, OBS_DIM:STATE_DIM], sigma[:, STATE_DIM:]
    gain, k_v = (sigma[:, :OBS_DIM] * w) * w, (pv * w[:, :AXES]) * w[:, :AXES]
    mean[:, :OBS_DIM] += gain * nu
    mean[:, OBS_DIM:] += k_v * nu[:, :AXES]
    cov = np.empty_like(sigma)
    cov[:, :OBS_DIM] = (1.0 - gain) * sigma[:, :OBS_DIM]
    cov[:, OBS_DIM:STATE_DIM] = vv - k_v * pv
    cov[:, STATE_DIM:] = ((1.0 - gain[:, :AXES]) * pv + (pv - k_v * pp)) / 2.0
    return _posterior_mean(mean, rows), cov
