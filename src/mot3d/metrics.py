"""Recall-averaged tracking accuracy.

Tracks are scored per class.  For a recall target r the track-score
threshold is swept to the highest value whose achieved recall reaches
r; the error counts at that operating point feed the recall-normalized
accuracy

    MOTAR = max(0, 1 - (IDS + FP + FN - (1 - r) P) / (r P))

and the average of MOTAR over an evenly spaced recall grid
{1/(n-1), ..., 1} is the class AMOTA.  The overall score is the
unweighted mean over classes present in the ground truth.

Matching uses greedy 2D center distance under a 2 meter gate.  The
formulas are implemented exactly as stated; counts, thresholds, and
tie-breaking follow this module's matching protocol, so scores are not
bit-exact with any external benchmark harness (the report header
carries this note).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
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
    result = greedy_center_match(
        [g.observation for g in gt_boxes],
        [t.observation for t in track_boxes],
        gate,
    )
    assignment = {}
    ids = 0
    for gi, tj, _ in result.pairs:
        instance = gt_boxes[gi].instance_id
        track_id = track_boxes[tj].track_id
        previous = prev_assignment.get(instance)
        if previous is not None and previous != track_id:
            ids += 1
        assignment[instance] = track_id
    tp = len(result.pairs)
    fp = len(result.unmatched_detections)
    fn = len(result.unmatched_predictions)
    return assignment, tp, fp, fn, ids


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
        return {
            "target_recall": self.target_recall,
            "achieved_recall": self.achieved_recall,
            "motar": self.motar,
            "ids": self.ids,
            "fp": self.fp,
            "fn": self.fn,
            "positives": self.positives,
            "score_threshold": self.score_threshold,
            "reachable": self.reachable,
        }


@dataclass(frozen=True)
class ClassReport:
    class_label: str
    amota: float
    positives: int
    samples: tuple

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


@dataclass(frozen=True)
class _OperatingPoint:
    threshold: float
    recall: float
    tp: int
    fp: int
    fn: int
    ids: int


def _boxes_for_class(boxes_by_scene: Mapping, label: str) -> dict:
    out: dict = {}
    for scene_id in sorted(boxes_by_scene):
        for frame_index in sorted(boxes_by_scene[scene_id]):
            selected = [b for b in boxes_by_scene[scene_id][frame_index]
                        if b.class_label == label]
            if selected:
                out.setdefault(scene_id, {})[frame_index] = selected
    return out


def _counts_at_threshold(gt: Mapping, tracks: Mapping, threshold: float,
                         positives: int, gate: float) -> _OperatingPoint:
    """Full-split counts keeping only track boxes with score >= threshold."""
    tp = fp = ids = 0
    for scene_id in sorted(set(gt) | set(tracks)):
        prev_assignment: dict = {}
        gt_frames = gt.get(scene_id, {})
        track_frames = tracks.get(scene_id, {})
        for frame_index in sorted(set(gt_frames) | set(track_frames)):
            gt_boxes = gt_frames.get(frame_index, [])
            track_boxes = [t for t in track_frames.get(frame_index, [])
                           if t.score >= threshold]
            assignment, frame_tp, frame_fp, _, frame_ids = match_frame(
                gt_boxes, track_boxes, prev_assignment, gate)
            prev_assignment.update(assignment)
            tp += frame_tp
            fp += frame_fp
            ids += frame_ids
    return _OperatingPoint(threshold, tp / positives, tp, fp, positives - tp, ids)


def _class_report(label: str, gt: Mapping, tracks: Mapping, n: int,
                  gate: float) -> ClassReport:
    positives = sum(len(boxes) for frames in gt.values() for boxes in frames.values())
    thresholds = sorted(
        {t.score for frames in tracks.values() for boxes in frames.values() for t in boxes},
        reverse=True,
    )
    points = [_counts_at_threshold(gt, tracks, threshold, positives, gate)
              for threshold in thresholds]

    samples = []
    for i in range(1, n):
        target = i / (n - 1)
        chosen = next((point for point in points if point.recall >= target), None)
        if chosen is None:
            fallback = max(points, key=lambda point: point.recall) if points else None
            samples.append(RecallSample(
                target_recall=target,
                achieved_recall=fallback.recall if fallback else 0.0,
                motar=0.0,
                ids=fallback.ids if fallback else 0,
                fp=fallback.fp if fallback else 0,
                fn=fallback.fn if fallback else positives,
                positives=positives,
                score_threshold=fallback.threshold if fallback else math.nan,
                reachable=False,
            ))
            continue
        value = min(1.0, motar(chosen.ids, chosen.fp, chosen.fn, positives, target))
        samples.append(RecallSample(
            target_recall=target,
            achieved_recall=chosen.recall,
            motar=value,
            ids=chosen.ids,
            fp=chosen.fp,
            fn=chosen.fn,
            positives=positives,
            score_threshold=chosen.threshold,
            reachable=True,
        ))
    amota_value = sum(sample.motar for sample in samples) / len(samples)
    return ClassReport(label, amota_value, positives, tuple(samples))


def check_amota_args(n: int, gate: float):
    """Raise ValueError unless n and gate can define an amota sweep."""
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
    labels = sorted({box.class_label
                     for frames in ground_truth.values()
                     for boxes in frames.values()
                     for box in boxes})
    if not labels:
        raise ValueError("ground truth contains no boxes")
    track_labels = {box.class_label
                    for frames in tracks.values()
                    for boxes in frames.values()
                    for box in boxes}
    skipped = tuple(sorted(track_labels - set(labels)))
    reports = {}
    for label in labels:
        gt_c = _boxes_for_class(ground_truth, label)
        tr_c = _boxes_for_class(tracks, label)
        reports[label] = _class_report(label, gt_c, tr_c, n, gate)
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
