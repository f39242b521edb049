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
under a 2 meter gate).  Initial covariances copy R for the observed
components and the Q velocity entries for the velocity components.

Both passes run over arrays.  A track's second differences are one
difference of its (n, 4) poses, the yaw column wrapped, the difference
of neighbouring rows, and a mask that keeps the rows whose three frames
are consecutive.  Residuals are formed per frame and class with one
call over the matched (k, 7) rows.  Rows keep the order of the tracks
and frames, so every variance sums its samples in a fixed order.

All variances are population variances (divide by the sample count).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .association import greedy_center_match
from .core import (
    ANGLE_INDEX,
    CLASS_LABELS,
    OBS_DIM,
    STATE_DIM,
    Box,
    checked_rows,
    observation_residual,
    observation_rows,
    wrap_angle_array,
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
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (size,):
                raise ValueError(f"{name} diagonal must have shape ({size},), got {arr.shape}")
            if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
                raise ValueError(f"{name} diagonal must be finite and non-negative")
            arr = arr.copy()
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

    def q_matrix(self, label: str) -> np.ndarray:
        return np.diag(self.classes[label].q)

    def r_matrix(self, label: str) -> np.ndarray:
        return np.diag(self.classes[label].r)

    def sigma0_matrix(self, label: str) -> np.ndarray:
        return np.diag(self.classes[label].sigma0)

    @classmethod
    def default_covariance(cls, labels: Sequence[str] = CLASS_LABELS) -> "NoiseModel":
        """Heuristic fallback: every diagonal entry is one."""
        return cls({
            label: ClassNoise(np.ones(STATE_DIM), np.ones(OBS_DIM), np.ones(STATE_DIM))
            for label in labels
        })


@dataclass(frozen=True)
class GroundTruthTrack:
    """One annotated instance: its frames, poses (x, y, z, yaw), and sizes."""

    class_label: str
    instance_id: str
    scene_id: str
    frames: tuple
    poses: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        frames = tuple(int(f) for f in self.frames)
        if not frames:
            raise ValueError("track must cover at least one frame")
        if any(b <= a for a, b in zip(frames, frames[1:])):
            raise ValueError("track frames must be strictly increasing")
        poses = np.asarray(self.poses, dtype=float)
        sizes = np.asarray(self.sizes, dtype=float)
        if poses.shape != (len(frames), 4) or sizes.shape != (len(frames), 3):
            raise ValueError("poses must be (n, 4) and sizes (n, 3) matching the frame count")
        poses = poses.copy()
        sizes = sizes.copy()
        poses.flags.writeable = False
        sizes.flags.writeable = False
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "poses", poses)
        object.__setattr__(self, "sizes", sizes)


def tracks_from_ground_truth(
        ground_truth: Mapping[str, Mapping[int, Sequence[Box]]],
) -> list:
    """Group ground-truth boxes into per-instance tracks."""
    grouped: dict = {}  # (scene, instance) -> (label, frames, poses, sizes)
    for scene_id in sorted(ground_truth):
        for frame_index in sorted(ground_truth[scene_id]):
            for box in ground_truth[scene_id][frame_index]:
                label, frames, poses, sizes = grouped.setdefault(
                    (scene_id, box.instance_id), (box.class_label, [], [], []))
                if label != box.class_label:
                    raise CalibrationError(
                        f"instance {box.instance_id!r} in scene {scene_id!r} "
                        f"changes class from {label!r} to {box.class_label!r}")
                obs = box.observation
                frames.append(frame_index)
                poses.append((obs.x, obs.y, obs.z, obs.a))
                sizes.append((obs.l, obs.w, obs.h))
    return [GroundTruthTrack(label, instance_id, scene_id, tuple(frames),
                             np.array(poses), np.array(sizes))
            for (scene_id, instance_id), (label, frames, poses, sizes) in grouped.items()]


def _second_differences(track: GroundTruthTrack) -> np.ndarray:
    """Second differences of (x, y, z, yaw) over consecutive frame triples.

    Only triples of frames (f, f+1, f+2) all present in the track
    contribute; gaps never mix into one difference.  The one-step
    differences are taken once, their yaw column wrapped, and each
    kept row is the difference of two neighbouring steps.
    """
    steps = np.diff(track.poses, axis=0)
    steps[:, ANGLE_INDEX] = wrap_angle_array(steps[:, ANGLE_INDEX])
    unit = np.diff(track.frames) == 1
    return (steps[1:] - steps[:-1])[unit[:-1] & unit[1:]]


def _q_from_pose_variance(pose_var: np.ndarray) -> np.ndarray:
    q = np.zeros(STATE_DIM)
    q[0:4] = pose_var
    # Extents are constant in the motion model: no process noise.
    # Velocity entries reuse the position-level variances.
    q[7:11] = pose_var
    return q


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
        q = _q_from_pose_variance(np.var(rows, axis=0))
        out.update((label, q.copy()) for label in labels)
    return out


def _gt_rows_by_frame(gt_tracks: Sequence[GroundTruthTrack]) -> tuple:
    """Every annotation as one (x, y, z, yaw, l, w, h) row, in track order.

    Returns the (n, 7) rows, held to Observation's rules by
    core.checked_rows, and (scene, frame) -> class -> row indices.
    """
    blocks = []
    groups: dict = {}
    start = 0
    for track in gt_tracks:
        blocks.append(np.hstack([track.poses, track.sizes]))
        for row, frame_index in enumerate(track.frames, start):
            groups.setdefault((track.scene_id, frame_index), {}).setdefault(
                track.class_label, []).append(row)
        start += len(track.frames)
    return checked_rows(np.concatenate(blocks) if blocks else np.empty((0, OBS_DIM))), groups


def estimate_observation_noise(gt_tracks: Sequence[GroundTruthTrack],
                               detections: Mapping[str, Mapping[int, Sequence[Box]]],
                               process_noise: Mapping[str, np.ndarray] | None = None,
                               pooled: bool = False,
                               gate: float = CALIBRATION_GATE) -> dict:
    """Per-class (R diagonal, initial covariance diagonal) from residuals.

    Detections are matched to annotations per frame and class by
    greedy 2D center distance under the gate; the per-component
    variance of the matched residuals is R.  The initial covariance
    copies R for the observed components and the Q velocity entries
    for the velocities (process_noise is estimated from the same
    tracks when not supplied).
    """
    if process_noise is None:
        process_noise = estimate_process_noise(gt_tracks, pooled=pooled)
    residuals: dict = {label: [] for label in process_noise}
    gt_rows, gt_by_frame = _gt_rows_by_frame(gt_tracks)
    for (scene_id, frame_index), by_class in sorted(gt_by_frame.items()):
        frame_detections = detections.get(scene_id, {}).get(frame_index, [])
        for label in sorted(by_class):
            det_rows = observation_rows(box.observation for box in frame_detections
                                        if box.class_label == label)
            if not len(det_rows):
                continue
            gt_block = gt_rows[by_class[label]]
            result = greedy_center_match(gt_block, det_rows, gate)
            if result.pairs:
                gi, dj = zip(*result.pairs)
                residuals.setdefault(label, []).append(
                    observation_residual(det_rows[list(dj)], gt_block[list(gi)]))
    out = {}
    for labels, rows in _pool(residuals, sorted(process_noise), pooled):
        if not len(rows):
            raise CalibrationError(
                "no detection matched any annotation within the gate" if pooled else
                f"class {labels[0]!r} has zero matched detection/annotation pairs")
        r = np.var(rows, axis=0)
        for label in labels:
            out[label] = (r.copy(), np.concatenate([r, process_noise[label][7:11]]))
    return out


def calibrate(ground_truth: Mapping[str, Mapping[int, Sequence[Box]]],
              detections: Mapping[str, Mapping[int, Sequence[Box]]],
              pooled: bool = False) -> NoiseModel:
    """Estimate a full NoiseModel from a ground-truth and detection split."""
    gt_tracks = tracks_from_ground_truth(ground_truth)
    if not gt_tracks:
        raise CalibrationError("ground truth holds no boxes to calibrate from")
    process = estimate_process_noise(gt_tracks, pooled=pooled)
    observation = estimate_observation_noise(
        gt_tracks, detections, process_noise=process, pooled=pooled)
    return NoiseModel({
        label: ClassNoise(process[label], observation[label][0], observation[label][1])
        for label in process
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
