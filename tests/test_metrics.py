import csv
import dataclasses
import json
import math

import pytest

from mot3d.core import CLASS_LABELS, Box, Observation
from mot3d.metrics import (EVALUATION_GATE, amota, match_frame, motar,
                           write_amota_csv, write_report)

CAR_SIZE = (4.0, 2.0, 1.5)


def gt_box(frame, x=0.0, y=0.0, instance="A", label="car", scene="s"):
    return Box(Observation(x, y, 0, 0, *CAR_SIZE), label, frame, scene,
               instance_id=instance)


def track_box(frame, x=0.0, y=0.0, track_id=1, score=0.9, label="car", scene="s"):
    return Box(Observation(x, y, 0, 0, *CAR_SIZE), label, frame, scene,
               score=score, track_id=track_id)


def by_frame(boxes, scene="s"):
    frames: dict = {}
    for box in boxes:
        frames.setdefault(box.frame_index, []).append(box)
    return {scene: frames}


def test_motar_perfect():
    assert motar(0, 0, 0, 10, 1.0) == 1.0
    assert motar(0, 0, 0, 10, 0.25) == pytest.approx(4.0)  # unclamped above one


def test_motar_known_value():
    # errors 60, slack (1-r)P = 50, denominator rP = 50
    assert motar(10, 20, 30, 100, 0.5) == pytest.approx(0.8)


def test_motar_clamps_at_zero():
    assert motar(100, 100, 100, 10, 0.5) == 0.0


def test_motar_input_validation():
    with pytest.raises(ValueError):
        motar(0, 0, 0, 0, 0.5)
    with pytest.raises(ValueError):
        motar(0, 0, 0, -3, 0.5)
    with pytest.raises(ValueError):
        motar(0, 0, 0, 10, 0.0)
    with pytest.raises(ValueError):
        motar(0, 0, 0, 10, 1.5)


def test_match_frame_counts_and_switches():
    gt = [gt_box(0, x=0.0, instance="A"), gt_box(0, x=10.0, instance="B")]
    tracks = [track_box(0, x=0.3, track_id=2), track_box(0, x=50.0, track_id=3)]
    assignment, tp, fp, fn, ids = match_frame(gt, tracks, {"A": 1})
    assert assignment == {"A": 2}
    assert (tp, fp, fn) == (1, 1, 1)
    assert ids == 1  # instance A moved from track 1 to track 2
    # same track again: no switch
    assignment, _, _, _, ids = match_frame(gt, tracks, {"A": 2})
    assert ids == 0


def test_match_frame_gate_is_strict():
    gt = [gt_box(0)]
    at_gate = [track_box(0, x=EVALUATION_GATE)]
    _, tp, fp, fn, _ = match_frame(gt, at_gate, {})
    assert (tp, fp, fn) == (0, 1, 1)
    inside = [track_box(0, x=EVALUATION_GATE - 1e-9)]
    _, tp, fp, fn, _ = match_frame(gt, inside, {})
    assert (tp, fp, fn) == (1, 0, 0)


def test_amota_hand_computed():
    """Two objects, a late id switch, and a low-score false positive.

    threshold 0.9:  tp=2 fp=0 ids=0 recall 0.5
    threshold 0.4:  tp=4 fp=0 ids=1 recall 1.0
    threshold 0.35: adds the false positive (never selected)
    n=3 targets {0.5, 1.0}: motar 1.0 and 0.75
    """
    gt = by_frame([gt_box(f, x=0.0, instance="A") for f in (0, 1)]
                  + [gt_box(f, x=20.0, instance="B") for f in (0, 1)])
    tracks = by_frame(
        [track_box(f, x=0.0, track_id=1, score=0.9) for f in (0, 1)]
        + [track_box(0, x=20.0, track_id=2, score=0.4),
           track_box(1, x=20.0, track_id=3, score=0.4),
           track_box(0, x=100.0, track_id=4, score=0.35)])
    report = amota(tracks, gt, n=3)
    car = report.classes["car"]
    assert car.positives == 4
    first, second = car.samples
    assert first.target_recall == 0.5
    assert first.score_threshold == 0.9
    assert (first.motar, first.ids, first.fp, first.fn) == (1.0, 0, 0, 2)
    assert second.target_recall == 1.0
    # highest threshold reaching the target wins, excluding the FP
    assert second.score_threshold == 0.4
    assert (second.motar, second.ids, second.fp, second.fn) == (0.75, 1, 0, 0)
    assert car.amota == 0.875
    assert report.overall_amota == 0.875
    assert report.skipped_classes == ()


def test_amota_perfect_tracker_is_exactly_one():
    gt = by_frame([gt_box(f) for f in range(4)])
    tracks = by_frame([track_box(f) for f in range(4)])
    report = amota(tracks, gt, n=5)
    car = report.classes["car"]
    assert report.overall_amota == 1.0
    # low targets clamp the recall-normalized value at one
    assert all(sample.motar == 1.0 for sample in car.samples)
    assert all(sample.reachable for sample in car.samples)


def test_amota_unreachable_targets_score_zero():
    gt = by_frame([gt_box(f, instance="A") for f in (0, 1)]
                  + [gt_box(f, x=30.0, instance="B") for f in (0, 1)])
    # only object A is ever tracked: recall caps at 0.5
    tracks = by_frame([track_box(f, track_id=1) for f in (0, 1)])
    report = amota(tracks, gt, n=3)
    car = report.classes["car"]
    reachable, unreachable = car.samples
    assert reachable.target_recall == 0.5
    assert reachable.motar == 1.0
    assert unreachable.target_recall == 1.0
    assert unreachable.motar == 0.0
    assert not unreachable.reachable
    assert unreachable.achieved_recall == 0.5
    assert car.amota == 0.5


def test_amota_with_no_tracks_at_all():
    gt = by_frame([gt_box(0)])
    report = amota({}, gt, n=3)
    car = report.classes["car"]
    assert car.amota == 0.0
    assert all(not sample.reachable for sample in car.samples)
    assert all(math.isnan(sample.score_threshold) for sample in car.samples)
    assert all(sample.fn == 1 for sample in car.samples)


def test_id_switch_survives_a_coasting_gap():
    gt = by_frame([gt_box(f, instance="A") for f in range(4)])
    tracks = by_frame([track_box(0, track_id=1), track_box(1, track_id=1),
                       track_box(3, track_id=9)])
    report = amota(tracks, gt, n=3)
    # the switch is counted although frame 2 had no output at all
    assert report.classes["car"].samples[0].ids == 1


def test_monotone_score_transform_is_invariant():
    gt = by_frame([gt_box(f, x=0.0, instance="A") for f in range(3)]
                  + [gt_box(f, x=25.0, instance="B") for f in range(3)])
    base = ([track_box(f, x=0.0, track_id=1, score=0.2 + 0.1 * f) for f in range(3)]
            + [track_box(f, x=25.0, track_id=2, score=0.8 - 0.1 * f) for f in range(3)]
            + [track_box(1, x=90.0, track_id=3, score=0.5)])

    def transformed(boxes):
        return [dataclasses.replace(b, score=b.score ** 3) for b in boxes]

    original = amota(by_frame(base), gt, n=6)
    cubed = amota(by_frame(transformed(base)), gt, n=6)
    assert original.overall_amota == cubed.overall_amota
    for label, report in original.classes.items():
        other = cubed.classes[label]
        for sample, sample2 in zip(report.samples, other.samples):
            assert sample.motar == sample2.motar
            assert sample.achieved_recall == sample2.achieved_recall
            assert (sample.ids, sample.fp, sample.fn) == \
                (sample2.ids, sample2.fp, sample2.fn)


def test_overall_is_unweighted_class_mean():
    gt = by_frame([gt_box(f, instance="A") for f in range(2)]
                  + [gt_box(f, x=30.0, instance="P", label="pedestrian")
                     for f in range(2)])
    # car perfect, pedestrian untracked
    tracks = by_frame([track_box(f, track_id=1) for f in range(2)])
    report = amota(tracks, gt, n=3)
    assert report.classes["car"].amota == 1.0
    assert report.classes["pedestrian"].amota == 0.0
    assert report.overall_amota == 0.5


def test_tracker_only_classes_are_skipped_not_scored():
    gt = by_frame([gt_box(f) for f in range(2)])
    tracks = by_frame([track_box(f, track_id=1) for f in range(2)]
                      + [Box(Observation(5, 5, 0, 0, 10, 2.9, 3.4), "bus", f, "s",
                             score=0.9, track_id=7) for f in range(2)])
    report = amota(tracks, gt, n=3)
    assert report.skipped_classes == ("bus",)
    assert sorted(report.classes) == ["car"]


def test_amota_input_validation():
    gt = by_frame([gt_box(0)])
    with pytest.raises(ValueError):
        amota({}, gt, n=1)
    with pytest.raises(ValueError):
        amota({}, {"s": {0: []}}, n=3)
    for gate in (math.nan, 0.0, -1.0, "2"):
        with pytest.raises(ValueError, match="gate"):
            amota({}, gt, n=3, gate=gate)


def test_separate_scenes_do_not_share_assignments():
    # the same instance id in two scenes tracked by different ids: no switch
    gt = {"s0": {0: [gt_box(0, scene="s0")], 1: [gt_box(1, scene="s0")]},
          "s1": {0: [gt_box(0, scene="s1")], 1: [gt_box(1, scene="s1")]}}
    tracks = {"s0": {0: [track_box(0, track_id=1, scene="s0")],
                     1: [track_box(1, track_id=1, scene="s0")]},
              "s1": {0: [track_box(0, track_id=2, scene="s1")],
                     1: [track_box(1, track_id=2, scene="s1")]}}
    report = amota(tracks, gt, n=3)
    assert all(sample.ids == 0 for sample in report.classes["car"].samples)
    assert report.overall_amota == 1.0


def test_write_report_layout(tmp_path):
    gt = by_frame([gt_box(f) for f in range(2)])
    tracks = by_frame([track_box(f, track_id=1) for f in range(2)])
    report = amota(tracks, gt, n=3)
    path = tmp_path / "report.json"
    write_report(report, str(path))
    data = json.loads(path.read_text())
    assert data["_meta"]["format"] == "mot3d-eval-report"
    assert data["_meta"]["n_samples"] == 3
    assert data["_meta"]["gate_m"] == EVALUATION_GATE
    assert data["overall_amota"] == 1.0
    assert data["classes"]["car"]["positives"] == 2
    assert len(data["classes"]["car"]["samples"]) == 2


def test_write_amota_csv_layout(tmp_path):
    gt = by_frame([gt_box(f) for f in range(2)])
    tracks = by_frame([track_box(f, track_id=1) for f in range(2)])
    report = amota(tracks, gt, n=3)
    path = tmp_path / "table.csv"
    write_amota_csv([("baseline", report), ("variant", report)], str(path))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["configuration", "overall"] + list(CLASS_LABELS)
    assert len(rows) == 3
    assert rows[1][0] == "baseline"
    assert float(rows[1][1]) == report.overall_amota
    car_column = rows[0].index("car")
    assert float(rows[1][car_column]) == report.classes["car"].amota
    # classes without ground truth stay blank
    bus_column = rows[0].index("bus")
    assert rows[1][bus_column] == ""
