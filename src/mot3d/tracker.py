"""Frame-by-frame multi-object tracking.

Each frame is processed per class.  A class bank holds its live tracks
in track_id order with their stacked means (N, 11) and covariances
(N, 11, 11).  A class step forecasts the bank with one predict call,
matches it against the frame's detections with one affinity call under
the configured affinity and matcher, and then updates the matched rows
with one update call, coasts the unmatched ones, drops the dead ones
and appends one row per unmatched detection.  A track must be matched
on birth_hits consecutive frames before it is reported, and it is
dropped after death_misses consecutive unmatched frames.  Only
confirmed, living tracks appear in the output.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .association import (
    MATCHERS,
    MatchResult,
    iou_affinity,
    mahalanobis_affinity,
    orientation_correct,
)
from .calibration import NoiseModel
from .core import ANGLE_INDEX, OBS_DIM, STATE_DIM, Box, checked_rows, observation_rows, trusted_box
from .dataset_io import RunConfig
from .errors import ConfigError, NumericalError, SchemaError, SequencingError
from .kalman import predict, update

@dataclass
class Track:
    """Mutable per-object bookkeeping.

    mean (11,) and cov (11, 11) are views of the track's row in its
    class bank, set after every frame; a bank's arrays are replaced
    each frame, never edited once the tracks point at them.
    """

    track_id: int
    class_label: str
    mean: np.ndarray | None = None
    cov: np.ndarray | None = None
    confirmed: bool = False
    consecutive_hits: int = 0
    consecutive_misses: int = 0
    last_score: float = 0.0
    score_sum: float = -0.0  # the additive identity: a first score of -0.0 keeps its sign
    score_count: int = 0


@dataclass(frozen=True)
class FrameOutput:
    """Confirmed tracks emitted for one frame as Boxes, sorted by track_id.

    Each Box carries the track's observed state, its score under the
    configured score_mode, and its track_id.
    """

    frame_index: int
    records: tuple


def boxes_by_frame(frame_outputs: Sequence[FrameOutput]) -> dict:
    """One scene's outputs as frame -> boxes, the view metrics.amota reads."""
    return {output.frame_index: output.records for output in frame_outputs}


@dataclass
class SceneStats:
    """Lifecycle counters accumulated over a scene."""

    frames: int = 0
    born: int = 0
    confirmed: int = 0
    died: int = 0


class MultiObjectTracker:
    """Tracker state over one scene; feed frames in ascending order."""

    def __init__(self, noise: NoiseModel, config: RunConfig | None = None):
        self.config = config if config is not None else RunConfig()
        self.noise = noise
        self.tracks: list = []
        self.stats = SceneStats()
        self._next_id = 1
        self._last_frame: int | None = None
        self._matrices = {}
        self._banks = {}  # label -> (tracks in track_id order, their means and covariances)
        for label in noise.classes:
            q, sigma0 = noise.q_matrix(label), noise.sigma0_matrix(label)
            if not self.config.angular_velocity:
                # no yaw-rate noise or initial spread: da stays pinned at zero
                q[10, 10] = sigma0[10, 10] = 0.0
            self._matrices[label] = (q, noise.r_matrix(label), sigma0)
            self._banks[label] = ([], np.empty((0, STATE_DIM)), np.empty((0, STATE_DIM, STATE_DIM)))

    def step(self, frame_index: int, detections: Sequence[Box]) -> FrameOutput:
        """Process one frame and return the confirmed tracks."""
        if not isinstance(frame_index, int) or isinstance(frame_index, bool) or frame_index < 0:
            raise SequencingError(f"frame_index must be a non-negative int, got {frame_index!r}")
        if self._last_frame is not None and frame_index <= self._last_frame:
            raise SequencingError(
                f"frame {frame_index} arrived after frame {self._last_frame}; "
                "frames must be strictly ascending")
        for detection in detections:
            if detection.frame_index != frame_index:
                raise SequencingError(
                    f"detection for frame {detection.frame_index} supplied to "
                    f"frame {frame_index}")
            if detection.class_label not in self.noise:
                raise ConfigError(
                    f"noise model has no entry for class {detection.class_label!r}")
            if detection.score is None:
                raise SchemaError(f"detection in frame {frame_index} has no score")
        self._last_frame = frame_index

        # label -> detections in input order, for every class with tracks or detections
        by_class = {label: [] for label, (tracks, _, _) in self._banks.items() if tracks}
        for detection in detections:
            by_class.setdefault(detection.class_label, []).append(detection)
        for label in sorted(by_class):
            try:
                self._step_class(label, by_class[label])
            except NumericalError as exc:
                exc.location = (f"frame {frame_index}, class {label}, "
                                f"track {self._banks[label][0][exc.row].track_id}")
                raise
        self.tracks = sorted((t for bank in self._banks.values() for t in bank[0]),
                             key=lambda t: t.track_id)
        self.stats.frames += 1

        running_mean = self.config.score_mode == "running_mean"
        confirmed = [t for t in self.tracks if t.confirmed]
        rows = checked_rows(np.array([t.mean[:OBS_DIM] for t in confirmed]).reshape(-1, OBS_DIM))
        records = tuple(
            trusted_box(*row, t.class_label, frame_index,
                        score=t.score_sum / t.score_count if running_mean else t.last_score,
                        track_id=t.track_id)
            for t, row in zip(confirmed, rows.tolist()))
        return FrameOutput(frame_index, records)

    def _hit(self, track: Track, score: float):
        """Count one matched (or birth) detection; confirm the track once."""
        track.consecutive_hits += 1
        track.consecutive_misses = 0
        track.last_score = score
        track.score_sum += score
        track.score_count += 1
        if not track.confirmed and track.consecutive_hits >= self.config.birth_hits:
            track.confirmed = True
            self.stats.confirmed += 1

    def _step_class(self, label: str, detections: list):
        """Advance one class bank by a frame."""
        config = self.config
        q, r, sigma0 = self._matrices[label]
        tracks, means, covs = self._banks[label]
        detected = observation_rows(d.observation for d in detections)

        result = MatchResult((), tuple(range(len(tracks))), tuple(range(len(detections))))
        if tracks:
            prediction = predict(means, covs, q, r)
            means, covs = prediction.mean, prediction.cov  # unmatched rows coast on these
            if detections:
                if config.affinity == "iou":  # a pair matches only when its IOU exceeds T
                    distances = 1.0 - iou_affinity(prediction, detected).values
                    limit = 1.0 - config.iou_threshold
                else:
                    distances = mahalanobis_affinity(prediction, detected).values
                    limit = config.class_maha_thresholds.get(label, config.maha_threshold)
                result = MATCHERS[config.matcher](distances, limit)

        if result.pairs:  # best-first, the order the update first needs each factor in
            rows, cols = [i for i, _ in result.pairs], [j for _, j in result.pairs]
            yaws = orientation_correct(means[rows, ANGLE_INDEX], detected[cols, ANGLE_INDEX])
            means[rows], covs[rows] = update(prediction, detected[cols], yaws, rows)
            for i, j in result.pairs:
                self._hit(tracks[i], detections[j].score)

        for i in result.unmatched_predictions:
            tracks[i].consecutive_misses += 1
            tracks[i].consecutive_hits = 0
        keep = [i for i, t in enumerate(tracks) if t.consecutive_misses < config.death_misses]
        if len(keep) < len(tracks):
            self.stats.died += len(tracks) - len(keep)
            tracks, means, covs = [tracks[i] for i in keep], means[keep], covs[keep]

        born = list(result.unmatched_detections)  # fresh ids exceed every live one
        if born:
            fresh = np.hstack([detected[born], np.zeros((len(born), STATE_DIM - OBS_DIM))])
            means = np.concatenate([means, fresh])
            covs = np.concatenate([covs, sigma0[None].repeat(len(born), axis=0)])
            tracks = tracks + [Track(self._next_id + k, label) for k in range(len(born))]
            self._next_id += len(born)
            self.stats.born += len(born)
            for track, j in zip(tracks[-len(born):], born):
                self._hit(track, detections[j].score)

        for track, mean, cov in zip(tracks, means, covs):
            track.mean, track.cov = mean, cov
        self._banks[label] = (tracks, means, covs)


def run_scene(frames: Mapping[int, Sequence[Box]], noise: NoiseModel,
              config: RunConfig | None = None) -> list:
    """Track one scene: a mapping of ascending frame_index to detections.

    Frames are consumed in the mapping's iteration order and must be
    strictly ascending; a frame with an empty detection list still
    advances every track's miss counter.
    """
    tracker = MultiObjectTracker(noise, config)
    return [tracker.step(frame_index, frames[frame_index]) for frame_index in frames]
