"""Kalman predict and update for the 11-dimensional box state.

A belief is a mean (11,) and a covariance (11, 11); the tracker holds its
beliefs as a stack along a leading axis, and update conditions a list of
rows of such a stack.  The motion model is linear constant-velocity over
discrete frames, so both steps are the textbook equations, with the yaw
re-wrapped after every additive operation.  A row gets exactly the bits
it gets in a one-row stack: A and H hold only 0/1 entries, numpy runs
one BLAS kernel per slice, and each row's S is factored once, by LAPACK
potrf on the row's first solve.  Finiteness is checked once per stack,
not per row: the S of every row on the first solve, and the right-hand
sides of a stack of solves by their caller, whose Python bools the
solves then test row by row.  Bad input or a failed factorization is
surfaced as NumericalError, never silently regularized.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    wrap_angle_array,
)
from .errors import NumericalError

# What scipy.linalg.cho_factor and cho_solve call, minus their per-call checks.
_POTRF, _POTRS = get_lapack_funcs(("potrf", "potrs"), (np.zeros((OBS_DIM, OBS_DIM)),))


@dataclass(frozen=True)
class Prediction:
    """Beliefs forecast one frame ahead, stacked along a leading axis.

    mean[k, :7] is row k's predicted observation, and innovation_cov[k]
    is the covariance of (observation - predicted observation), i.e. the
    gating distribution for data association.  solve and update take
    int rows of the stack.  The first solve checks every row's S for
    finiteness in one pass; a row's S is factored on the row's first
    solve, and its factor kept for the rest.
    """

    mean: np.ndarray
    cov: np.ndarray
    innovation_cov: np.ndarray
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _finite(self) -> np.ndarray:
        """Whether each row's S is finite, for the whole stack at once."""
        return np.isfinite(self.innovation_cov).all(axis=(-2, -1))

    def solve(self, rhs: np.ndarray, row: int, finite: bool) -> np.ndarray:
        """S^-1 rhs at a row, rhs (7,) or (7, K), factoring S on the row's first solve.

        finite is the caller's check of rhs, one of the bools it took for
        its whole stack; NumericalError if it failed, then if S is not
        finite and positive definite.
        """
        if not finite:
            raise NumericalError("residual or covariance is not finite", row=row)
        factor = self._factors.get(row)
        if factor is None:
            if not self._finite[row]:
                raise NumericalError("innovation covariance is not finite", row=row)
            factor, info = _POTRF(s := self.innovation_cov[row], lower=True, clean=False)
            if info:
                raise NumericalError("innovation covariance is not positive definite",
                                     condition=float(np.linalg.cond(s)), row=row)
            self._factors[row] = factor
        return _POTRS(factor, rhs, lower=True)[0]


def predict(mean: np.ndarray, cov: np.ndarray, process_noise: np.ndarray,
            observation_noise: np.ndarray) -> Prediction:
    """Forecast a belief, or a stack of beliefs, one frame ahead.

    Returns the predicted mean and covariance together with the
    innovation covariance S = H (A Sigma A^T + Q) H^T + R, where H
    selects the leading 7 x 7 block.  Q and R, one matrix each or one per
    row, are used as given: they are validated once, where a noise model
    is built (ClassNoise accepts only finite non-negative diagonals).
    """
    a = TRANSITION_MATRIX
    mean = mean @ a.T
    mean[..., ANGLE_INDEX] = wrap_angle_array(mean[..., ANGLE_INDEX])
    cov = symmetrize(a @ cov @ a.T + process_noise)
    return Prediction(mean, cov, symmetrize(cov[..., :OBS_DIM, :OBS_DIM] + observation_noise))


def update(prediction: Prediction, observation: np.ndarray, yaw: np.ndarray,
           rows: list) -> tuple:
    """Condition K rows of a stacked prediction on their matched (K, 7) observations.

    rows are listed in the order their factors are first needed, and yaw (K,)
    replaces each row's predicted yaw (the orientation-corrected one).
    K = Sigma H^T S^-1, mean <- mean + K nu, Sigma <- (I - K H) Sigma, with the
    yaw residual wrapped before it enters the correction.  Returns the rows'
    posterior (mean, cov); NumericalError at the first non-positive extent.
    """
    sigma = prediction.cov[rows]
    predicted = prediction.mean[rows]
    predicted[:, ANGLE_INDEX] = yaw

    # K = Sigma H^T S^-1, computed per row as S^-1 (H Sigma) transposed.
    blocks = sigma[:, :OBS_DIM]
    checked = zip(rows, blocks, np.isfinite(blocks).all(axis=(1, 2)).tolist())
    gain = np.array([prediction.solve(block, row, finite).T for row, block, finite in checked])
    gain = gain.reshape(len(rows), STATE_DIM, OBS_DIM)  # also when rows is empty

    nu = observation_residual(observation, predicted[:, :OBS_DIM])

    mean = predicted + (gain @ nu[:, :, None])[:, :, 0]
    mean[:, ANGLE_INDEX] = wrap_angle_array(mean[:, ANGLE_INDEX])
    if not (positive := mean[:, 4:OBS_DIM] > 0.0).all():  # a gain of 1 can round l + (z - l) to 0
        raise NumericalError("posterior extent is not positive", row=rows[positive.all(1).argmin()])
    cov = symmetrize((np.eye(STATE_DIM) - gain @ OBSERVATION_MATRIX) @ sigma)
    return mean, cov
