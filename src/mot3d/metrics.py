"""Recall-averaged tracking accuracy.

Tracks are scored per class.  For a recall target r the track-score
threshold is swept to the highest value whose achieved recall reaches
r; the error counts at that operating point feed the recall-normalized
accuracy

    MOTAR = max(0, 1 - (IDS + FP + FN - (1 - r) P) / (r P))

and the average of MOTAR over an evenly spaced recall grid
{1/(n-1), ..., 1} is the class AMOTA.  The overall score is the
unweighted mean over classes present in the ground truth.

The thresholds are a class's distinct track scores.  A frame's kept
boxes change only at its own scores, so each frame is matched once per
distinct score it holds; a threshold then recounts only the scenes
holding a box with that score, replaying their kept matchings (identity
switches depend on frame order).  Cost grows linearly with the scenes.

Matching uses greedy 2D center distance under a 2 meter gate.  The
formulas are implemented exactly as stated; counts, thresholds, and
tie-breaking follow this module's matching protocol, so scores are not
bit-exact with any external benchmark harness (the report header
carries this note).
"""

from __future__ import annotations

import csv
import math
from collections import namedtuple
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .association import greedy_center_match
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
    pairs, fp = _match_pairs(gt_boxes, track_boxes, gate)
    assignment, ids = _switches(pairs, prev_assignment)
    return assignment, len(pairs), fp, len(gt_boxes) - len(pairs), ids


def _match_pairs(gt_boxes: Sequence[Box], track_boxes: Sequence[Box], gate: float) -> tuple:
    """Greedy center matching as ([(instance_id, track_id), ...], fp)."""
    result = greedy_center_match([g.observation for g in gt_boxes],
                                 [t.observation for t in track_boxes], gate)
    pairs = [(gt_boxes[gi].instance_id, track_boxes[tj].track_id)
             for gi, tj in result.pairs]
    return pairs, len(result.unmatched_detections)


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


def _by_class(boxes_by_scene: Mapping) -> dict:
    """label -> scene -> frame -> boxes, scenes and frames ascending, box order kept."""
    out: dict = {}
    for scene_id, frames in sorted(boxes_by_scene.items()):
        for frame_index, boxes in sorted(frames.items()):
            for box in boxes:
                scenes = out.setdefault(box.class_label, {})
                scenes.setdefault(scene_id, {}).setdefault(frame_index, []).append(box)
    return out


def _sweep(gt: Mapping, tracks: Mapping, thresholds: Sequence[float],
           positives: int, gate: float) -> list:
    """Full-split counts at each descending threshold (see the module notes)."""
    matchings = []  # per scene, per frame: (pairs, fp) at the current threshold
    changes: dict = {}  # score -> frames holding a track box with that score
    for scene_id in sorted(set(gt) | set(tracks)):
        gt_frames = gt.get(scene_id, {})
        track_frames = tracks.get(scene_id, {})
        frame_indices = sorted(set(gt_frames) | set(track_frames))
        for position, frame_index in enumerate(frame_indices):
            boxes = track_frames.get(frame_index, [])
            for score in {t.score for t in boxes}:
                changes.setdefault(score, []).append(
                    (len(matchings), position, gt_frames.get(frame_index, []), boxes))
        matchings.append([((), 0)] * len(frame_indices))

    scene_counts = [(0, 0, 0)] * len(matchings)  # per scene: tp, fp, ids
    totals = (0, 0, 0)
    points = []
    for threshold in thresholds:
        touched = set()
        for scene, position, gt_boxes, boxes in changes[threshold]:
            kept = [t for t in boxes if t.score >= threshold]
            matchings[scene][position] = _match_pairs(gt_boxes, kept, gate)
            touched.add(scene)
        for scene in touched:
            old, scene_counts[scene] = scene_counts[scene], _replay(matchings[scene])
            totals = tuple(t + a - b for t, a, b in zip(totals, scene_counts[scene], old))
        tp, fp, ids = totals
        points.append(_OperatingPoint(threshold, tp / positives, tp, fp, positives - tp, ids))
    return points


def _replay(frames) -> tuple:
    """(tp, fp, ids) of one scene from its frames' (pairs, fp) in order."""
    prev_assignment: dict = {}
    tp = fp = ids = 0
    for pairs, frame_fp in frames:
        assignment, frame_ids = _switches(pairs, prev_assignment)
        prev_assignment.update(assignment)
        tp += len(pairs)
        fp += frame_fp
        ids += frame_ids
    return tp, fp, ids


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
    gt_by_class = _by_class(ground_truth)
    if not gt_by_class:
        raise ValueError("ground truth contains no boxes")
    tracks_by_class = _by_class(tracks)
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
