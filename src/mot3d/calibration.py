"""Data-driven estimation of the tracker's noise covariances.

Process noise Q is read off annotated trajectories: under the
constant-velocity model the one-step prediction error of a position
component equals its second difference, so the per-class variance of
those second differences over consecutive frame triples estimates the
diagonal of Q.  Velocity components reuse the matching position
variances, and box extents get zero process noise because annotated
extents are constant.

Observation noise R is the per-class variance of the residual between
detections and the annotations they match (greedy, 2D center distance
under a 2 meter gate), read frame by frame from the ground truth.
calibrate builds the initial covariances: R for the observed
components and the Q velocity entries for the velocity components.

Both passes run over arrays.  A track's second differences are one
difference of its (n, 4) poses, the yaw column wrapped, the difference
of neighbouring rows, and a mask that keeps the rows whose three frames
are consecutive.  Residuals are formed per frame and class with one
call over the matched (k, 7) rows.  Q's samples keep the order of the
tracks, R's that of the frames, so every variance sums in a fixed order.

All variances are population variances (divide by the sample count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .association import greedy_center_match
from .core import (
    CLASS_LABELS,
    OBS_DIM,
    STATE_DIM,
    Box,
    observation_residual,
    observation_rows,
)
from .dataset_io import number_list, read_json, write_json
from .errors import CalibrationError, SchemaError

# Matching gate in meters for pairing detections with annotations.
CALIBRATION_GATE = 2.0

# Fewer second differences than this per class is refused.
MIN_SECOND_DIFFERENCES = 2


@dataclass(frozen=True)
class ClassNoise:
    """Diagonals of Q (11), R (7), and the initial covariance (11)."""

    q: np.ndarray
    r: np.ndarray
    sigma0: np.ndarray

    def __post_init__(self):
        for name, size in (("q", STATE_DIM), ("r", OBS_DIM), ("sigma0", STATE_DIM)):
            arr = np.array(getattr(self, name), dtype=float)
            if arr.shape != (size,):
                raise ValueError(f"{name} diagonal must have shape ({size},), got {arr.shape}")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise ValueError(f"{name} diagonal must be finite and non-negative")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class NoiseModel:
    """Per-class noise diagonals consumed by the tracker."""

    classes: Mapping[str, ClassNoise]

    def __post_init__(self):
        entries = dict(self.classes)
        if not entries:
            raise ValueError("noise model must cover at least one class")
        for label in entries:
            if label not in CLASS_LABELS:
                raise ValueError(f"unknown class label {label!r}")
        object.__setattr__(self, "classes", entries)

    def __contains__(self, label: str) -> bool:
        return label in self.classes

    @classmethod
    def default_covariance(cls) -> "NoiseModel":
        """Heuristic fallback for every class: each diagonal entry is one."""
        return cls({
            label: ClassNoise(np.ones(STATE_DIM), np.ones(OBS_DIM), np.ones(STATE_DIM))
            for label in CLASS_LABELS
        })


@dataclass(frozen=True)
class GroundTruthTrack:
    """One annotated instance: its frames and a read-only copy of its poses (x, y, z, yaw)."""

    class_label: str
    instance_id: str
    scene_id: str
    frames: tuple
    poses: np.ndarray

    def __post_init__(self):
        frames = tuple(int(f) for f in self.frames)
        if not frames:
            raise ValueError("track must cover at least one frame")
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError("track frames must be strictly increasing")
        poses = np.array(self.poses, dtype=float)
        if poses.shape != (len(frames), 4):
            raise ValueError("poses must be (n, 4) matching the frame count")
        poses.flags.writeable = False
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "poses", poses)


def tracks_from_ground_truth(
        ground_truth: Mapping[str, Mapping[int, Sequence[Box]]],
) -> list:
    """Group ground-truth boxes into per-instance tracks."""
    grouped: dict = {}  # (scene, instance) -> (label, frames, poses)
    for scene_id in sorted(ground_truth):
        for frame_index in sorted(ground_truth[scene_id]):
            for box in ground_truth[scene_id][frame_index]:
                label, frames, poses = grouped.setdefault(
                    (scene_id, box.instance_id), (box.class_label, [], []))
                if label != box.class_label:
                    raise CalibrationError(
                        f"instance {box.instance_id!r} in scene {scene_id!r} "
                        f"changes class from {label!r} to {box.class_label!r}")
                if frames and frames[-1] == frame_index:
                    raise CalibrationError(f"instance {box.instance_id!r} in scene {scene_id!r} "
                                           f"appears twice in frame {frame_index}")
                frames.append(frame_index)
                poses.append((box.x, box.y, box.z, box.a))
    return [GroundTruthTrack(label, instance_id, scene_id, tuple(frames), poses)
            for (scene_id, instance_id), (label, frames, poses) in grouped.items()]


def _second_differences(track: GroundTruthTrack) -> np.ndarray:
    """Second differences of (x, y, z, yaw) over consecutive frame triples.

    Only triples of frames (f, f+1, f+2) all present in the track
    contribute; gaps never mix into one difference.  The one-step
    differences are taken once, their yaw column wrapped, and each
    kept row is the difference of two neighbouring steps.
    """
    steps = observation_residual(track.poses[1:], track.poses[:-1])
    unit = np.diff(track.frames) == 1
    return (steps[1:] - steps[:-1])[unit[:-1] & unit[1:]]


def _pool(samples: Mapping[str, list], labels: Sequence[str], pooled: bool) -> list:
    """(labels, stacked rows) groups: one per label, or one shared by all when pooled.

    samples maps a class to its blocks of rows.  Pooled rows follow the
    order of samples, including classes that labels leaves out.
    """
    if pooled:
        groups = [(tuple(labels), [block for blocks in samples.values() for block in blocks])]
    else:
        groups = [((label,), samples.get(label, [])) for label in labels]
    return [(group, np.concatenate(blocks) if blocks else np.empty(0))
            for group, blocks in groups]


def estimate_process_noise(gt_tracks: Sequence[GroundTruthTrack],
                           pooled: bool = False) -> dict:
    """Per-class Q diagonals from annotated trajectories.

    Raises CalibrationError when a class yields fewer than two second
    differences.  With pooled=True one set of statistics over all
    classes is shared by every class present.
    """
    samples: dict = {}
    for track in gt_tracks:
        samples.setdefault(track.class_label, []).append(_second_differences(track))
    out = {}
    for labels, rows in _pool(samples, sorted(samples), pooled):
        if len(rows) < MIN_SECOND_DIFFERENCES:
            raise CalibrationError(
                f"pooled process-noise estimation needs at least "
                f"{MIN_SECOND_DIFFERENCES} second differences, got {len(rows)}" if pooled else
                f"class {labels[0]!r} has {len(rows)} second differences; "
                f"at least {MIN_SECOND_DIFFERENCES} are required")
        pose_var = np.var(rows, axis=0)
        # Extents are constant in the motion model: no process noise.
        # Velocity entries reuse the position-level variances.
        q = np.concatenate([pose_var, np.zeros(3), pose_var])
        out.update((label, q.copy()) for label in labels)
    return out


def estimate_observation_noise(ground_truth: Mapping[str, Mapping[int, Sequence[Box]]],
                               detections: Mapping[str, Mapping[int, Sequence[Box]]],
                               pooled: bool = False,
                               gate: float = CALIBRATION_GATE) -> dict:
    """Per-class R diagonals from detection-to-annotation residuals.

    Scenes and frames are walked in sorted order.  In each frame, every
    class's annotations, in the order the frame lists them, are matched
    to its detections by greedy 2D center distance under the gate; the
    per-component variance of the matched residuals is R.  Every class
    that has annotations gets an R, and one without a matched pair
    raises CalibrationError.
    """
    residuals: dict = {}
    for scene_id in sorted(ground_truth):
        for frame_index, annotations in sorted(ground_truth[scene_id].items()):
            frame_detections = detections.get(scene_id, {}).get(frame_index, [])
            for label in sorted({box.class_label for box in annotations}):
                blocks = residuals.setdefault(label, [])
                det_rows = observation_rows(box for box in frame_detections
                                            if box.class_label == label)
                if not len(det_rows):
                    continue
                gt_rows = observation_rows(box for box in annotations
                                           if box.class_label == label)
                result = greedy_center_match(gt_rows, det_rows, gate)
                if result.pairs:
                    gi, dj = zip(*result.pairs)
                    blocks.append(observation_residual(det_rows[list(dj)], gt_rows[list(gi)]))
    labels = sorted(residuals)
    out = {}
    for group, rows in _pool({label: residuals[label] for label in labels}, labels, pooled):
        if not len(rows):
            raise CalibrationError(
                "no detection matched any annotation within the gate" if pooled else
                f"class {group[0]!r} has zero matched detection/annotation pairs")
        r = np.var(rows, axis=0)
        out.update((label, r.copy()) for label in group)
    return out


def calibrate(ground_truth: Mapping[str, Mapping[int, Sequence[Box]]],
              detections: Mapping[str, Mapping[int, Sequence[Box]]],
              pooled: bool = False) -> NoiseModel:
    """Estimate a full NoiseModel from a ground-truth and detection split.

    Q comes first, so its errors are raised before R's.  Each class's
    initial covariance is its R followed by its Q velocity entries.
    """
    gt_tracks = tracks_from_ground_truth(ground_truth)
    if not gt_tracks:
        raise CalibrationError("ground truth holds no boxes to calibrate from")
    process = estimate_process_noise(gt_tracks, pooled=pooled)
    observation = estimate_observation_noise(ground_truth, detections, pooled=pooled)
    return NoiseModel({
        label: ClassNoise(q, observation[label], np.concatenate([observation[label], q[7:11]]))
        for label, q in process.items()
    })


_NOISE_FORMAT = "mot3d-noise-model"


def save_noise_model(model: NoiseModel, path: str):
    """Write the model as JSON with explicit per-class diagonal arrays.

    Array orders: x, y, z, a, l, w, h, dx, dy, dz, da for q and
    sigma0; x, y, z, a, l, w, h for r.
    """
    payload = {
        "_meta": {"format": _NOISE_FORMAT, "version": 1},
        "classes": {
            label: {
                "q": list(noise.q),
                "r": list(noise.r),
                "sigma0": list(noise.sigma0),
            }
            for label, noise in sorted(model.classes.items())
        },
    }
    write_json(payload, path)


def load_noise_model(path: str) -> NoiseModel:
    data = read_json(path, "noise model")
    if not isinstance(data, dict) or not isinstance(data.get("classes"), dict):
        raise SchemaError("noise model file must hold an object with a 'classes' map", path)
    classes = {}
    for label, entry in data["classes"].items():
        location = f"noise model class {label!r}"
        if label not in CLASS_LABELS:
            raise SchemaError(f"unknown class {label!r}", location)
        if not isinstance(entry, dict):
            raise SchemaError("class entry must be an object", location)
        try:
            arrays = [number_list(entry.get(name), name, size)
                      for name, size in (("q", STATE_DIM), ("r", OBS_DIM), ("sigma0", STATE_DIM))]
            classes[label] = ClassNoise(*arrays)
        except ValueError as exc:
            raise SchemaError(str(exc), location) from None
    try:
        return NoiseModel(classes)
    except ValueError as exc:
        raise SchemaError(str(exc), path) from None
