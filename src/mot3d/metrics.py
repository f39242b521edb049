"""Recall-averaged tracking accuracy.

Tracks are scored per class.  For a recall target r the track-score
threshold is swept to the highest value whose achieved recall reaches
r; the error counts at that operating point feed the recall-normalized
accuracy

    MOTAR = max(0, 1 - (IDS + FP + FN - (1 - r) P) / (r P))

and the average of MOTAR over an evenly spaced recall grid
{1/(n-1), ..., 1} is the class AMOTA.  The overall score is the
unweighted mean over classes present in the ground truth.

The thresholds are a class's distinct track scores, swept downwards.
Each frame holding track boxes orders its gated (ground truth, track)
center pairs once.  A frame's kept boxes change only at its own scores,
so a threshold reruns only the greedy scan of the frames holding that
score, skipping the tracks scored below it; dropping tracks keeps the
order of the pairs left, so this equals rematching the kept boxes.  TP
and FP are running totals.  An instance's identity switches depend only
on the ordered sequence of track ids it is matched to (CLEAR MOT), so
each instance keeps its matched frames in order and a changed entry is
recounted against its two neighbours.  A threshold costs what its
frames' pairs cost, not the length of their scenes.

Matching uses greedy 2D center distance under a 2 meter gate.  The
formulas are implemented exactly as stated; counts, thresholds, and
tie-breaking follow this module's matching protocol, so scores are not
bit-exact with any external benchmark harness (the report header
carries this note).
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from collections import namedtuple
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .association import candidate_order, center_distances, greedy_center_match, greedy_scan
from .core import CLASS_LABELS, Box
from .dataset_io import atomic_open, positive_number, write_json

EVALUATION_GATE = 2.0

REPORT_NOTE = (
    "formula-faithful AMOTA/MOTAR; matching, thresholds, and tie-breaking "
    "follow this toolkit's protocol and are not bit-exact with external "
    "benchmark harnesses"
)


def match_frame(gt_boxes: Sequence[Box], track_boxes: Sequence[Box],
                prev_assignment: Mapping[str, int],
                gate: float = EVALUATION_GATE) -> tuple:
    """Match one frame and count TP / FP / FN / identity switches.

    prev_assignment maps each ground-truth instance to the track_id it
    was most recently matched with; a matched instance whose track_id
    changed counts one identity switch.  Returns (assignment, tp, fp,
    fn, ids) where assignment covers only this frame's matches.
    """
    result = greedy_center_match([g.observation for g in gt_boxes],
                                 [t.observation for t in track_boxes], gate)
    pairs = [(gt_boxes[gi].instance_id, track_boxes[tj].track_id)
             for gi, tj in result.pairs]
    assignment, ids = _switches(pairs, prev_assignment)
    fp = len(track_boxes) - len(pairs)  # the unmatched track boxes
    return assignment, len(pairs), fp, len(gt_boxes) - len(pairs), ids


def _switches(pairs, prev_assignment: Mapping[str, int]) -> tuple:
    """This frame's instance -> track_id assignment and its identity switches."""
    assignment = {}
    ids = 0
    for instance, track_id in pairs:
        previous = prev_assignment.get(instance)
        if previous is not None and previous != track_id:
            ids += 1
        assignment[instance] = track_id
    return assignment, ids


def motar(ids: int, fp: int, fn: int, positives: int, recall: float) -> float:
    """Recall-normalized accuracy at one operating point, clamped at 0."""
    if positives <= 0:
        raise ValueError("positives must be positive")
    if not 0.0 < recall <= 1.0:
        raise ValueError(f"recall must lie in (0, 1], got {recall}")
    return max(0.0, 1.0 - (ids + fp + fn - (1.0 - recall) * positives)
               / (recall * positives))


@dataclass(frozen=True)
class RecallSample:
    """One recall-grid operating point of a class."""

    target_recall: float
    achieved_recall: float
    motar: float
    ids: int
    fp: int
    fn: int
    positives: int
    score_threshold: float
    reachable: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ClassReport:
    class_label: str
    amota: float
    positives: int
    samples: tuple
    thresholds: int  # distinct track scores swept; not serialized

    def to_dict(self) -> dict:
        return {
            "amota": self.amota,
            "positives": self.positives,
            "samples": [sample.to_dict() for sample in self.samples],
        }


@dataclass(frozen=True)
class EvalReport:
    """Per-class and overall recall-averaged accuracy.

    skipped_classes lists classes that appeared in the tracks but had
    no ground-truth positives; they are reported, never scored.
    """

    classes: Mapping[str, ClassReport]
    overall_amota: float
    n_samples: int
    gate: float
    skipped_classes: tuple = ()

    def to_dict(self) -> dict:
        return {
            "_meta": {
                "format": "mot3d-eval-report",
                "version": 1,
                "n_samples": self.n_samples,
                "gate_m": self.gate,
                "note": REPORT_NOTE,
            },
            "overall_amota": self.overall_amota,
            "skipped_classes": list(self.skipped_classes),
            "classes": {label: report.to_dict()
                        for label, report in sorted(self.classes.items())},
        }


_OperatingPoint = namedtuple("_OperatingPoint", "threshold recall tp fp fn ids")


def _by_class(boxes_by_scene: Mapping, ground_truth: bool) -> dict:
    """label -> scene -> frame -> boxes, scenes and frames ascending, box order kept.

    Raises ValueError, naming the scene, frame and class, at a track box
    without a score or track_id, or at a ground-truth box without an
    instance_id or repeating one in its frame.
    """
    out: dict = {}
    for scene_id, frames in sorted(boxes_by_scene.items()):
        for frame_index, boxes in sorted(frames.items()):
            instances = set()
            for box in boxes:
                if ground_truth:
                    fault = ("ground-truth box has no instance_id" if box.instance_id is None
                             else f"duplicate instance_id {box.instance_id!r}"
                             if box.instance_id in instances else None)
                    instances.add(box.instance_id)
                else:
                    fault = ("track box has no score" if box.score is None
                             else "track box has no track_id" if box.track_id is None else None)
                if fault:
                    raise ValueError(f"scene {scene_id!r} frame {frame_index} "
                                     f"class {box.class_label!r}: {fault}")
                scenes = out.setdefault(box.class_label, {})
                scenes.setdefault(scene_id, {}).setdefault(frame_index, []).append(box)
    return out


class _Frame:
    """One frame's gated center pairs, ordered once, and its counts at the current threshold."""

    __slots__ = ("index", "links", "track_ids", "scores", "rows", "cols", "tp", "fp")

    def __init__(self, index: int, gt_boxes: Sequence[Box], track_boxes: Sequence[Box],
                 gate: float, scene_links: dict):
        self.index = index
        # per ground-truth box, its instance's (matched frames ascending, frame -> track_id)
        self.links = [scene_links.setdefault(g.instance_id, ([], {})) for g in gt_boxes]
        self.track_ids = [t.track_id for t in track_boxes]
        self.scores = [t.score for t in track_boxes]
        self.rows, self.cols = candidate_order(center_distances(
            [g.observation for g in gt_boxes], [t.observation for t in track_boxes]), gate)
        self.tp = self.fp = 0

    def rematch(self, threshold: float) -> tuple:
        """Rescan keeping the tracks scoring at least threshold; the (tp, fp, ids) changes.

        Thresholds descend, so each rescan only adds tracks, and adding
        a track to a greedy matching never unmatches a ground-truth box:
        an instance's entry here is only added or changed.
        """
        kept = [score >= threshold for score in self.scores]
        pairs = greedy_scan(self.rows, self.cols, [True] * len(self.links), kept)
        ids = sum(_relink(self.links[i], self.index, self.track_ids[j]) for i, j in pairs)
        tp, fp = len(pairs), sum(kept)  # the scan left only unmatched kept tracks flagged
        changes = tp - self.tp, fp - self.fp, ids
        self.tp, self.fp = tp, fp
        return changes


def _relink(link: tuple, frame_index: int, track_id: int) -> int:
    """Match an instance to track_id in one frame; return its change in switches."""
    frames, track_of = link
    old = track_of.get(frame_index)
    if old == track_id:
        return 0
    at = bisect_left(frames, frame_index)
    if old is None:
        frames.insert(at, frame_index)
    track_of[frame_index] = track_id
    before = track_of[frames[at - 1]] if at else None
    after = track_of[frames[at + 1]] if at + 1 < len(frames) else None
    return _switches_between(before, track_id, after) - _switches_between(before, old, after)


def _switches_between(before, current, after) -> int:
    """Switches that an entry adds between its neighbours' track_ids; None is absent."""
    if current is None:
        return 0
    return ((before is not None and before != current)
            + (after is not None and current != after)
            - (before is not None and after is not None and before != after))


def _sweep(gt: Mapping, tracks: Mapping, thresholds: Sequence[float],
           positives: int, gate: float) -> list:
    """Full-split counts at each descending threshold (see the module notes)."""
    changes: dict = {}  # score -> frames holding a track box with that score
    for scene_id, track_frames in tracks.items():
        gt_frames = gt.get(scene_id, {})
        scene_links: dict = {}
        for frame_index, boxes in track_frames.items():
            frame = _Frame(frame_index, gt_frames.get(frame_index, ()), boxes, gate, scene_links)
            for score in set(frame.scores):
                changes.setdefault(score, []).append(frame)

    tp = fp = ids = 0
    points = []
    for threshold in thresholds:
        for frame in changes[threshold]:
            d_tp, d_fp, d_ids = frame.rematch(threshold)
            tp, fp, ids = tp + d_tp, fp + d_fp, ids + d_ids
        points.append(_OperatingPoint(threshold, tp / positives, tp, fp, positives - tp, ids))
    return points


def _class_report(label: str, gt: Mapping, tracks: Mapping, n: int,
                  gate: float) -> ClassReport:
    positives = sum(len(boxes) for frames in gt.values() for boxes in frames.values())
    thresholds = sorted(
        {t.score for frames in tracks.values() for boxes in frames.values() for t in boxes},
        reverse=True,
    )
    points = _sweep(gt, tracks, thresholds, positives, gate)
    # an unreachable target reports the highest-recall point, or no tracks at all
    fallback = max(points, key=lambda point: point.recall,
                   default=_OperatingPoint(math.nan, 0.0, 0, 0, positives, 0))
    samples = []
    for i in range(1, n):
        target = i / (n - 1)
        chosen = next((point for point in points if point.recall >= target), None)
        point = chosen or fallback
        samples.append(RecallSample(
            target_recall=target,
            achieved_recall=point.recall,
            motar=0.0 if chosen is None else min(
                1.0, motar(point.ids, point.fp, point.fn, positives, target)),
            ids=point.ids,
            fp=point.fp,
            fn=point.fn,
            positives=positives,
            score_threshold=point.threshold,
            reachable=chosen is not None,
        ))
    amota_value = sum(sample.motar for sample in samples) / len(samples)
    return ClassReport(label, amota_value, positives, tuple(samples), len(thresholds))


def check_amota_args(n: int, gate: float):
    """Raise ValueError unless n and gate can define an amota sweep."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"n must be an int, got {n!r}")
    if n < 2:
        raise ValueError(f"n must be at least 2, got {n}")
    if not positive_number(gate):
        raise ValueError(f"gate must be a positive number, got {gate!r}")


def amota(tracks: Mapping[str, Mapping[int, Sequence[Box]]],
          ground_truth: Mapping[str, Mapping[int, Sequence[Box]]],
          n: int = 40, gate: float = EVALUATION_GATE) -> EvalReport:
    """Recall-averaged accuracy over every class present in the ground truth.

    n is the recall grid resolution: targets are {1/(n-1), ..., 1}.
    Unreachable targets contribute MOTAR = 0 and are flagged in their
    sample record.
    """
    check_amota_args(n, gate)
    gt_by_class = _by_class(ground_truth, ground_truth=True)
    if not gt_by_class:
        raise ValueError("ground truth contains no boxes")
    tracks_by_class = _by_class(tracks, ground_truth=False)
    skipped = tuple(sorted(set(tracks_by_class) - set(gt_by_class)))
    reports = {label: _class_report(label, gt_by_class[label],
                                    tracks_by_class.get(label, {}), n, gate)
               for label in sorted(gt_by_class)}
    overall = sum(report.amota for report in reports.values()) / len(reports)
    return EvalReport(reports, overall, n, gate, skipped)


def write_report(report: EvalReport, path: str):
    write_json(report.to_dict(), path)


def write_amota_csv(rows: Sequence[tuple], path: str):
    """Write (configuration label, EvalReport) rows as a class-by-row table."""
    with atomic_open(path, newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["configuration", "overall"] + list(CLASS_LABELS))
        for label, report in rows:
            cells = [label, repr(report.overall_amota)]
            for class_label in CLASS_LABELS:
                entry = report.classes.get(class_label)
                cells.append(repr(entry.amota) if entry is not None else "")
            writer.writerow(cells)
