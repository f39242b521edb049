"""Frame-by-frame multi-object tracking.

One bank per scene holds the live tracks of every class, by class label
and then track_id, with their stacked means, per-axis covariances (see
kalman) and Q and R diagonals.  A frame sorts its detections by class, so
each class is one block of bank rows and one of detection columns.  One
predict call forecasts the bank, one affinity call scores the pairs
within each class, and one update call conditions the matched rows, each
elementwise.  Greedy matching runs once per frame, over the whole
distance array (no pair between two classes is a candidate); Hungarian
matching runs on each class's block.  Under Mahalanobis the update takes
each matched pair's orientation-corrected yaw from the affinity, which
formed it; under IOU orientation_correct forms it.  Unmatched detections
are born at the end of their class's block, fresh ids going by class
label and then input order; a frame with births or deaths regroups every
stack through one stable sort of its rows by class.  A track is reported
once matched on birth_hits consecutive frames, and dropped after
death_misses unmatched ones; the reported rows are checked once and
handed on as columns, their Boxes built only when read.  A
NumericalError names the first failing row: the affinity's, by class and
track_id, before the update's, by class and best-first.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from operator import attrgetter
from typing import Mapping, Sequence

import numpy as np

from .association import MATCHERS, iou_affinity, mahalanobis_affinity, orientation_correct
from .calibration import NoiseModel
from .core import (ANGLE_INDEX, OBS_DIM, STATE_DIM, Box, _refuse_assignment, _refuse_deletion,
                   checked_rows, observation_rows, trusted_box)
from .dataset_io import RunConfig
from .errors import ConfigError, NumericalError, SchemaError, SequencingError
from .kalman import AXES, predict_per_axis as predict, update_per_axis as update

@dataclass
class Track:
    """Mutable per-object bookkeeping.

    mean (11,) and cov (15,), a per-axis covariance (see kalman), are views
    of the track's row in the scene's bank, set after every frame; the
    bank's arrays are replaced each frame, never edited once the tracks
    point at them.
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


class FrameOutput:
    """Confirmed tracks emitted for one frame, sorted by track_id; frozen.

    A tracker's output holds columns, snapshots of the frame's checked (k, 7) rows, class labels,
    scores under the configured score_mode and track ids, and builds records, one Box per track,
    from them when first read; FrameOutput(frame_index, records) holds Boxes built elsewhere and
    no columns.  ==, hash and repr go by (frame_index, records), as for a frozen dataclass.
    """

    __setattr__, __delattr__ = _refuse_assignment, _refuse_deletion

    def __init__(self, frame_index: int, records: tuple | None = None, columns=None):
        self.__dict__.update(frame_index=frame_index, _records=records, columns=columns)

    @property
    def records(self) -> tuple:
        if self._records is None:
            rows, labels, scores, track_ids = self.columns
            self.__dict__["_records"] = tuple(
                trusted_box(*row, label, self.frame_index, score=score, track_id=track_id)
                for row, label, score, track_id in zip(rows.tolist(), labels, scores, track_ids))
        return self._records

    def __eq__(self, other):
        return isinstance(other, FrameOutput) and (
            (self.frame_index, self.records) == (other.frame_index, other.records))

    def __hash__(self):
        return hash((self.frame_index, self.records))

    def __repr__(self):
        return f"FrameOutput(frame_index={self.frame_index!r}, records={self.records!r})"


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


def _greedy_pairs(distances: np.ndarray, blocks: list, limits: list) -> tuple:
    """Rows and columns of one greedy pass per block under its own limit, block by block.

    No cell between blocks is a candidate (the affinity leaves it inf, or 1
    against an IOU limit below 1), so once each block's cells at or beyond
    its own limit read inf, in distances itself, one pass under the largest
    limit takes the same pairs; a stable sort by block restores their order.
    """
    limit = max(limits)
    for (r, c), own in zip(blocks, limits):
        if own < limit:
            cells = distances[r, c]
            cells[cells >= own] = math.inf
    pairs = MATCHERS["greedy"](distances, float(limit)).pairs
    if len(blocks) > 1:
        starts = [r.start for r, _ in blocks]
        pairs = sorted(pairs, key=lambda pair: bisect_right(starts, pair[0]))
    return [i for i, _ in pairs], [j for _, j in pairs]


def _spans(labels: list) -> dict:
    """label -> slice of its run, for labels sorted so that each one forms a single run."""
    return {label: slice(labels.index(label), labels.index(label) + labels.count(label))
            for label in dict.fromkeys(labels)}


class MultiObjectTracker:
    """Tracker state over one scene; feed frames in ascending order."""

    def __init__(self, noise: NoiseModel, config: RunConfig | None = None):
        self.config = config if config is not None else RunConfig()
        self.noise = noise
        self.tracks: list = []
        self.stats = SceneStats()
        self._next_id = 1
        self._last_frame: int | None = None
        matrices = []
        for _, entry in sorted(noise.classes.items()):
            q, sigma0 = entry.q.copy(), np.concatenate([entry.sigma0, np.zeros(AXES)])
            if not self.config.angular_velocity:
                # no yaw-rate noise or initial spread: da stays pinned at zero
                q[10] = sigma0[10] = 0.0
            matrices.append((sigma0, q, entry.r))
        # the covariance, Q and R of each class, stacked in label order
        self._classes = {label: k for k, label in enumerate(sorted(noise.classes))}
        self._newborn = [np.array(stack) for stack in zip(*matrices)]
        # the bank, empty: its tracks, each class's slice of them, and their stacked rows
        self._bank, self._rows, self._by_id = [], {}, []  # and its rows in track_id order
        self._means = np.empty((0, STATE_DIM))
        self._covs, self._q, self._r = (stack[:0] for stack in self._newborn)

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

        ordered = sorted(detections, key=attrgetter("class_label"))  # stable: input order kept
        detected = observation_rows(ordered)
        try:
            filtered = self._filter(detected, _spans([d.class_label for d in ordered]))
        except NumericalError as exc:
            track = self._bank[exc.row]
            exc.location = f"frame {frame_index}, class {track.class_label}, track {track.track_id}"
            raise
        self.stats.frames += 1
        self._advance(ordered, detected, *filtered)

        confirmed = [k for k in self._by_id if self._bank[k].confirmed]  # bank rows
        rows = checked_rows(self._means[confirmed, :OBS_DIM])  # a copy, not a view of the bank
        tracks = [self._bank[k] for k in confirmed]
        scores = ([t.score_sum / t.score_count for t in tracks]
                  if self.config.score_mode == "running_mean" else [t.last_score for t in tracks])
        return FrameOutput(frame_index, None, (rows, [t.class_label for t in tracks], scores,
                                               [t.track_id for t in tracks]))

    def _filter(self, detected: np.ndarray, columns: dict) -> tuple:
        """Posterior means and covariances of the bank, and its matched rows and columns."""
        config, means, covs, rows, cols = self.config, self._means, self._covs, [], []
        blocks = {label: (r, columns[label]) for label, r in self._rows.items() if label in columns}
        if self._bank:
            prediction = predict(means, covs, self._q, self._r)
            means, covs = prediction.mean, prediction.cov  # unmatched rows coast on these
        if blocks:
            scored, greedy, yaws = list(blocks.values()), config.matcher == "greedy", None
            if config.affinity == "iou":  # a pair matches only when its IOU exceeds T
                distances = 1.0 - iou_affinity(prediction, detected, blocks=scored).values
                limits = [1.0 - config.iou_threshold] * len(scored)
            else:
                limits = [config.class_maha_thresholds.get(label, config.maha_threshold)
                          for label in blocks]
                # greedy reads only the pairs below their class's gate; the
                # pairs beyond it steer a Hungarian assignment
                affinity = mahalanobis_affinity(prediction, detected, blocks=scored,
                                                limits=limits if greedy else None)
                distances, yaws = affinity.values, affinity.yaws
            if greedy:
                rows, cols = _greedy_pairs(distances, scored, limits)
            else:
                for (r, c), limit in zip(scored, limits):
                    pairs = MATCHERS[config.matcher](distances[r, c], limit).pairs
                    rows += [r.start + i for i, _ in pairs]
                    cols += [c.start + j for _, j in pairs]
        if rows:  # the order the update first needs each factor in
            yaws = (orientation_correct(means[rows, ANGLE_INDEX], detected[cols, ANGLE_INDEX])
                    if yaws is None else yaws[rows, cols])
            means[rows], covs[rows] = update(prediction, detected[cols], yaws, rows)
        return means, covs, rows, cols

    def _advance(self, ordered: list, detected: np.ndarray, means: np.ndarray,
                 covs: np.ndarray, rows: list, cols: list):
        """Count hits and misses, drop the dead rows, add one per unmatched detection."""
        tracks = self._bank
        for i, j in zip(rows, cols):
            self._hit(tracks[i], ordered[j].score)
        for i in set(range(len(tracks))).difference(rows):
            tracks[i].consecutive_misses += 1
            tracks[i].consecutive_hits = 0
        keep = [i for i, t in enumerate(tracks) if t.consecutive_misses < self.config.death_misses]
        born = sorted(set(range(len(ordered))).difference(cols))  # by class, then input order
        self.stats.died += len(tracks) - len(keep)
        if born or len(keep) < len(tracks):  # regroup
            self.stats.born += len(born)
            newborn = [Track(self._next_id + k, ordered[j].class_label) for k, j in enumerate(born)]
            self._next_id += len(born)  # fresh ids exceed every live one
            for track, j in zip(newborn, born):
                self._hit(track, ordered[j].score)
            everyone = tracks + newborn
            kinds = [self._classes[t.class_label] for t in everyone]  # positions in label order
            # each class's kept rows, then its newborn rows: a stable sort by class
            index = sorted(keep + list(range(len(tracks), len(everyone))), key=kinds.__getitem__)
            fresh = np.zeros((len(born), STATE_DIM))  # at rest, where it was detected
            fresh[:, :OBS_DIM] = detected.take(born, axis=0)
            sigma0 = self._newborn[0].take(kinds[len(tracks):], axis=0)
            means = np.concatenate([means, fresh]).take(index, axis=0)
            covs = np.concatenate([covs, sigma0]).take(index, axis=0)
            self._q, self._r = (matrix.take([kinds[k] for k in index], axis=0)
                                for matrix in self._newborn[1:])
            tracks = [everyone[k] for k in index]
            self._rows = _spans([t.class_label for t in tracks])
            self._by_id = sorted(range(len(tracks)), key=[t.track_id for t in tracks].__getitem__)
            self.tracks = [tracks[k] for k in self._by_id]
        for track, mean, cov in zip(tracks, means, covs):
            track.mean, track.cov = mean, cov
        self._bank, self._means, self._covs = tracks, means, covs

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


def run_scene(frames: Mapping[int, Sequence[Box]], noise: NoiseModel,
              config: RunConfig | None = None) -> list:
    """Track one scene: a mapping of ascending frame_index to detections.

    Frames are consumed in the mapping's iteration order and must be
    strictly ascending; a frame with an empty detection list still
    advances every track's miss counter.
    """
    tracker = MultiObjectTracker(noise, config)
    return [tracker.step(frame_index, frames[frame_index]) for frame_index in frames]
