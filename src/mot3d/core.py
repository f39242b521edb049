"""Core state-space model for 3D multi-object tracking.

A tracked object carries an 11-dimensional state

    s = (x, y, z, a, l, w, h, dx, dy, dz, da)

where (x, y, z) is the box center in meters, a is the yaw angle around
the vertical axis, (l, w, h) are box extents, and (dx, dy, dz, da) are
per-frame displacements of the center and yaw.  Detections observe the
first seven components.  Time is discrete; one step equals one frame,
so velocities are stored in units per frame.
"""

from __future__ import annotations

import math
from dataclasses import FrozenInstanceError, dataclass, fields
from numbers import Real

import numpy as np

STATE_DIM = 11
OBS_DIM = 7

# Index of the yaw angle within both the state and the observation vector.
ANGLE_INDEX = 3

CLASS_LABELS = (
    "bicycle",
    "bus",
    "car",
    "motorcycle",
    "pedestrian",
    "trailer",
    "truck",
)

_TWO_PI = 2.0 * math.pi


def wrap_angle(theta: float) -> float:
    """Wrap an angle to the half-open interval [-pi, pi)."""
    theta = float(theta)
    if not math.isfinite(theta):
        raise ValueError(f"angle must be finite, got {theta!r}")
    return (theta + math.pi) % _TWO_PI - math.pi


def wrap_angle_array(theta: np.ndarray) -> np.ndarray:
    """Vectorized wrap to [-pi, pi); inputs must be finite."""
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise ValueError("angles must be finite")
    return wrap_finite_array(theta)


def wrap_finite_array(theta: np.ndarray) -> np.ndarray:
    """wrap_angle_array's floats, unchecked: for a float array its caller knows is finite."""
    return (theta + math.pi) % _TWO_PI - math.pi


def symmetrize(matrix: np.ndarray) -> np.ndarray:
    """Return (M + M^T) / 2, over the last two axes of a stack of matrices.

    Applied after every covariance product so accumulated float error
    cannot drift a covariance away from symmetry.
    """
    matrix = np.asarray(matrix, dtype=float)
    return (matrix + np.swapaxes(matrix, -1, -2)) / 2.0


def finite_real(name: str, value) -> float:
    """value as a float; ValueError unless it is a finite real number, not a bool."""
    # float and int first: an isinstance check against the Real ABC is slow
    if isinstance(value, bool) or not isinstance(value, (float, int, Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf if value > 0 else -math.inf
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number!r}")
    return number


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _build_transition() -> np.ndarray:
    a = np.eye(STATE_DIM)
    # Center and yaw advance by their per-frame velocities; extents are constant.
    a[0, 7] = 1.0
    a[1, 8] = 1.0
    a[2, 9] = 1.0
    a[3, 10] = 1.0
    a.flags.writeable = False
    return a


def _build_observation() -> np.ndarray:
    h = np.hstack([np.eye(OBS_DIM), np.zeros((OBS_DIM, STATE_DIM - OBS_DIM))])
    h.flags.writeable = False
    return h


TRANSITION_MATRIX = _build_transition()
OBSERVATION_MATRIX = _build_observation()


def observation_rows(boxes) -> np.ndarray:
    """The (k, 7) float array of an iterable of Boxes' poses (x, ..., h), one row each."""
    return np.array([(b.x, b.y, b.z, b.a, b.l, b.w, b.h) for b in boxes],
                    dtype=float).reshape(-1, OBS_DIM)


def _check_pose(values) -> None:
    """Raise Box's ValueError for the first of seven pose values (x, ..., h) at fault."""
    for name, value in zip("xyzalwh", values):
        finite_real(name, value)
    for name, value in zip("lwh", values[4:]):
        if value <= 0.0:
            raise ValueError(f"{name} must be positive, got {value}")


def checked_rows(rows: np.ndarray) -> np.ndarray:
    """(k, 7) rows, yaws wrapped in place; the first that breaks a rule raises Box's message."""
    valid = np.isfinite(rows).all(axis=1) & (rows[:, 4:] > 0.0).all(axis=1)
    if not valid.all():
        _check_pose(rows[np.argmin(valid)].tolist())
    rows[:, ANGLE_INDEX] = wrap_finite_array(rows[:, ANGLE_INDEX])
    return rows


def observation_residual(observation: np.ndarray, predicted: np.ndarray) -> np.ndarray:
    """observation - predicted over (..., k) arrays, k >= 4, with the yaw (column 3) wrapped."""
    nu = np.subtract(observation, predicted)
    nu[..., ANGLE_INDEX] = wrap_angle_array(nu[..., ANGLE_INDEX])
    return nu


@dataclass(frozen=True, slots=True)
class Box:
    """A 3D box of a known class in one frame of one scene.

    Its pose is the center (x, y, z), the yaw a, stored wrapped to [-pi, pi), and the
    positive extents (l, w, h), each a finite real number, not a bool.  Each source fills
    in what else it knows: detections a score, tracker output a score and a track_id,
    ground truth an instance_id.  The loader and the tracker check these rules in bulk and
    build through trusted_box; only a failing value comes here for its message.  Box is a
    frozen slotted dataclass: no instance __dict__ and no vars(), but pickling, ==, hash
    and dataclasses.replace work as usual.
    """

    x: float
    y: float
    z: float
    a: float
    l: float
    w: float
    h: float
    class_label: str
    frame_index: int
    scene_id: str = ""
    score: float | None = None
    track_id: int | None = None
    instance_id: str | None = None

    def __post_init__(self):
        x, y, z, a, l, w, h = self.x, self.y, self.z, self.a, self.l, self.w, self.h
        # One pass for seven Python floats: their sum is finite only when
        # every term is.  Any other input takes the per-field checks, which
        # name the first field at fault.
        if not (type(x) is type(y) is type(z) is type(a) is type(l) is type(w) is type(h) is float
                and math.isfinite(x + y + z + a + l + w + h) and l > 0.0 and w > 0.0 and h > 0.0):
            _check_pose((x, y, z, a, l, w, h))
        object.__setattr__(self, "a", wrap_angle(a))
        if self.class_label not in CLASS_LABELS:
            raise ValueError(f"unknown class label {self.class_label!r}")
        if not _is_int(self.frame_index) or self.frame_index < 0:
            raise ValueError(f"frame_index must be a non-negative int, got {self.frame_index!r}")
        if self.score is not None:
            score = finite_real("score", self.score)
            if not 0.0 <= score <= 1.0:
                raise ValueError(f"score must lie in [0, 1], got {score}")
            object.__setattr__(self, "score", score)
        if self.track_id is not None and (not _is_int(self.track_id) or self.track_id < 1):
            raise ValueError(f"track_id must be a positive int, got {self.track_id!r}")
        if self.instance_id is not None and (
                not isinstance(self.instance_id, str) or not self.instance_id):
            raise ValueError(f"instance_id must be a non-empty string, got {self.instance_id!r}")


def _refuse_assignment(self, name, value):
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_deletion(self, name):
    raise FrozenInstanceError(f"cannot delete field {name!r}")


# dataclasses' own frozen methods refer to the class that slots=True replaced, so for a name
# that is not a field they raise TypeError; a frozen class body may not define these.
Box.__setattr__ = _refuse_assignment
Box.__delattr__ = _refuse_deletion

(_SET_X, _SET_Y, _SET_Z, _SET_A, _SET_L, _SET_W, _SET_H, _SET_CLASS, _SET_FRAME, _SET_SCENE,
 _SET_SCORE, _SET_TRACK, _SET_INSTANCE) = (  # each slot's setter, in field order, for trusted_box
    Box.__dict__[f.name].__set__ for f in fields(Box))


def trusted_box(x, y, z, a, l, w, h, class_label, frame_index, scene_id="", score=None,
                track_id=None, instance_id=None) -> Box:
    """Box(x, ..., instance_id) for fields that passed every rule, a wrapped.

    One store per field, through its slot's setter; __post_init__ does not run, so only a
    caller that has just checked the rules may use it.
    """
    box = object.__new__(Box)
    _SET_X(box, x)
    _SET_Y(box, y)
    _SET_Z(box, z)
    _SET_A(box, a)
    _SET_L(box, l)
    _SET_W(box, w)
    _SET_H(box, h)
    _SET_CLASS(box, class_label)
    _SET_FRAME(box, frame_index)
    _SET_SCENE(box, scene_id)
    _SET_SCORE(box, score)
    _SET_TRACK(box, track_id)
    _SET_INSTANCE(box, instance_id)
    return box
