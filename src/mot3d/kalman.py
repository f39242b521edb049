"""Kalman predict and update for the 11-dimensional box state.

A belief is a mean (11,) and a covariance (11, 11); predict and update
also take a stack of beliefs along a leading axis.  The motion model is
linear constant-velocity over discrete frames, so both steps are the
textbook equations, with the yaw re-wrapped after every additive
operation.  A stacked row gets exactly the bits of the single-belief
call: A and H hold only 0/1 entries, numpy runs one BLAS kernel per
slice, and each row's S is factored once, on first use, by LAPACK potrf.
Finiteness is checked once per stack, not per row: the S of every row on
the first factor, and the right-hand sides of a stack of solves by their
caller (finite_blocks), whose Python bools the solves then test row by
row.  Bad input or a failed factorization is surfaced as NumericalError,
never silently regularized.
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
    """Beliefs forecast one frame ahead, one or a stack of them.

    mean[..., :7] is the predicted observation, and innovation_cov is the
    covariance of (observation - predicted observation), i.e. the
    gating distribution for data association.  A row is an int into a
    stack, or () for a single belief.  The first factor checks every
    row's S for finiteness in one pass; each row is then factored once,
    on first use.
    """

    mean: np.ndarray
    cov: np.ndarray
    innovation_cov: np.ndarray
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @cached_property
    def _finite(self) -> np.ndarray:
        """Whether each row's S is finite, for the whole stack at once."""
        return np.isfinite(self.innovation_cov).all(axis=(-2, -1))

    def factor(self, row=()) -> np.ndarray:
        """Lower Cholesky factor of S at a row; NumericalError if S is not finite and PD."""
        factor = self._factors.get(row)
        if factor is None:
            if not self._finite[row]:
                raise NumericalError("innovation covariance is not finite", row=row)
            s = self.innovation_cov[row]
            factor, info = _POTRF(s, lower=True, clean=False)
            if info:
                raise NumericalError("innovation covariance is not positive definite",
                                     condition=float(np.linalg.cond(s)), row=row)
            self._factors[row] = factor
        return factor

    def solve(self, rhs: np.ndarray, row, finite: bool) -> np.ndarray:
        """S^-1 rhs at a row, rhs (7,) or (7, K).

        finite is the caller's check of rhs, one of the bools finite_blocks
        gives for its stack; NumericalError if it failed, before S is checked.
        """
        if not finite:
            raise NumericalError("residual or covariance is not finite", row=row)
        return _POTRS(self.factor(row), rhs, lower=True)[0]


def finite_blocks(stack: np.ndarray) -> list:
    """Whether each block along the leading axis of a stack is finite: one pass, Python bools."""
    return np.isfinite(stack).all(axis=tuple(range(1, stack.ndim))).tolist()


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


def update(prediction: Prediction, observation: np.ndarray, yaw=None, rows=()) -> tuple:
    """Condition a prediction on matched observations.

    rows is () for a single belief, observed as (7,), or a list of K rows
    of a stack, observed as (K, 7), in the order their factors are first
    needed.  yaw, if given, replaces each row's predicted yaw (an
    orientation flip).  K = Sigma H^T S^-1, mean <- mean + K nu,
    Sigma <- (I - K H) Sigma, with the yaw residual wrapped before it
    enters the correction.  Returns the posterior (mean, cov) of the rows.
    """
    sigma = prediction.cov[rows]
    predicted = prediction.mean[rows].copy()
    if yaw is not None:
        predicted[..., ANGLE_INDEX] = yaw

    # K = Sigma H^T S^-1, computed per row as S^-1 (H Sigma) transposed.
    blocks = sigma.reshape(-1, STATE_DIM, STATE_DIM)[:, :OBS_DIM]
    checked = zip(rows if isinstance(rows, list) else [rows], blocks, finite_blocks(blocks))
    gain = np.array([prediction.solve(block, row, finite).T for row, block, finite in checked])
    gain = gain.reshape(predicted.shape + (OBS_DIM,))

    nu = observation_residual(observation, predicted[..., :OBS_DIM])

    mean = predicted + (gain @ nu[..., None])[..., 0]
    mean[..., ANGLE_INDEX] = wrap_angle_array(mean[..., ANGLE_INDEX])
    cov = symmetrize((np.eye(STATE_DIM) - gain @ OBSERVATION_MATRIX) @ sigma)
    return mean, cov
