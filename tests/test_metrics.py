import collections
import csv
import dataclasses
import json
import math
import random

import pytest

from mot3d import metrics
from mot3d.calibration import calibrate
from mot3d.core import CLASS_LABELS, Box
from mot3d.dataset_io import RunConfig
from mot3d.metrics import (EVALUATION_GATE, amota, match_frame, motar,
                           write_amota_csv, write_report)
from mot3d.synthetic import generate_suite, standard_suite, standard_suite_calibration
from mot3d.tracker import boxes_by_frame, run_scene

CAR_SIZE = (4.0, 2.0, 1.5)


def gt_box(frame, x=0.0, y=0.0, instance="A", label="car", scene="s"):
    return Box(x, y, 0, 0, *CAR_SIZE, label, frame, scene,
               instance_id=instance)


def track_box(frame, x=0.0, y=0.0, track_id=1, score=0.9, label="car", scene="s"):
    return Box(x, y, 0, 0, *CAR_SIZE, label, frame, scene,
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
                      + [Box(5, 5, 0, 0, 10, 2.9, 3.4, "bus", f, "s",
                             score=0.9, track_id=7) for f in range(2)])
    report = amota(tracks, gt, n=3)
    assert report.skipped_classes == ("bus",)
    assert sorted(report.classes) == ["car"]


def test_amota_input_validation():
    gt = by_frame([gt_box(0)])
    with pytest.raises(ValueError, match="n must be at least 2, got 1"):
        amota({}, gt, n=1)
    for n in (3.0, None, True, "40"):
        with pytest.raises(ValueError, match=f"n must be an int, got {n!r}"):
            amota({}, gt, n=n)
    with pytest.raises(ValueError):
        amota({}, {"s": {0: []}}, n=3)
    for gate in (math.nan, 0.0, -1.0, "2", math.inf):
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


# ------------------------------------------------ the incremental sweep


def reference_counts_at_threshold(gt, tracks, threshold, positives, gate):
    """Brute force: every frame of the split re-matched at this threshold."""
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
    return metrics._OperatingPoint(threshold, tp / positives, tp, fp, positives - tp, ids)


def reference_sweep(gt, tracks, thresholds, positives, gate):
    return [reference_counts_at_threshold(gt, tracks, threshold, positives, gate)
            for threshold in thresholds]


def reference_report_json(tracks, gt, n, monkeypatch):
    """The report as the brute-force sweep gives it; NaN serializes as NaN."""
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_sweep", reference_sweep)
        return json.dumps(amota(tracks, gt, n=n).to_dict())


def random_case(rng):
    """A few scenes and classes on a half-meter grid with five score values.

    Instances sit exactly one gate apart, so distances tie; track ids
    come from a small pool, so identities switch and switch back; a
    frame may hold only ground truth or only tracks, and buses appear
    only in the tracks.
    """
    gt: dict = {}
    tracks: dict = {}
    for s in range(rng.randint(1, 3)):
        scene = f"s{s}"
        for frame in sorted(rng.sample(range(8), rng.randint(1, 6))):
            for label in ("car", "pedestrian", "bus"):
                if label != "bus":
                    for k in range(rng.randint(0, 3)):
                        if rng.random() < 0.7:
                            gt.setdefault(scene, {}).setdefault(frame, []).append(gt_box(
                                frame, x=EVALUATION_GATE * k, instance=f"{label}{k}",
                                label=label, scene=scene))
                for track_id in rng.sample(range(1, 6), rng.randint(0, 4)):
                    tracks.setdefault(scene, {}).setdefault(frame, []).append(track_box(
                        frame, x=rng.choice([0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 20.0]),
                        y=rng.choice([0.0, 0.5]), track_id=track_id,
                        score=rng.choice([0.2, 0.4, 0.6, 0.8, 1.0]), label=label, scene=scene))
    return gt, tracks


def long_scene_case(rng):
    """One scene of 30 to 45 frames out of 60, so with gaps, and 1 to 3 instances.

    Each instance, 10 m from the next, is followed by a main track that
    hands it to a second id now and then and takes it back, so it is
    re-identified by an earlier track.  In some frames a lower-scored
    rival stands closer to the instance than the main track, so the
    instance switches track between two thresholds while its
    neighbouring frames stay matched.
    """
    gt: dict = {}
    tracks: dict = {}
    frames = sorted(rng.sample(range(60), rng.randint(30, 45)))
    for k in range(rng.randint(1, 3)):
        label = rng.choice(["car", "pedestrian"])
        main, second, rival = 10 * k + 1, 10 * k + 2, 10 * k + 3
        for frame in frames:
            if rng.random() < 0.9:
                gt.setdefault("s", {}).setdefault(frame, []).append(
                    gt_box(frame, x=10.0 * k, instance=f"{label}{k}", label=label))
            boxes = tracks.setdefault("s", {}).setdefault(frame, [])
            if rng.random() < 0.9:
                boxes.append(track_box(
                    frame, x=10.0 * k + 0.5, track_id=second if rng.random() < 0.2 else main,
                    score=rng.choice([0.5, 0.7, 0.9]), label=label))
            if rng.random() < 0.2:
                boxes.append(track_box(frame, x=10.0 * k + 0.1, track_id=rival,
                                       score=rng.choice([0.2, 0.4, 0.6]), label=label))
    return gt, tracks


def matches_at(gt, tracks, threshold):
    """(scene, instance) -> {frame: track_id} of the per-frame matching at a threshold."""
    out = collections.defaultdict(dict)
    for scene, frames in gt.items():
        for frame, gt_boxes in frames.items():
            for label in {box.class_label for box in gt_boxes}:
                kept = [t for t in tracks.get(scene, {}).get(frame, [])
                        if t.class_label == label and t.score >= threshold]
                assignment = match_frame([g for g in gt_boxes if g.class_label == label],
                                         kept, {})[0]
                for instance, track_id in assignment.items():
                    out[scene, instance][frame] = track_id
    return out


@pytest.mark.parametrize("side, box, message", [
    ("tracks", track_box(3, score=None), "track box has no score"),
    ("tracks", track_box(3, track_id=None), "track box has no track_id"),
    ("gt", gt_box(3, instance=None), "ground-truth box has no instance_id"),
    ("gt", gt_box(3, x=9.0, instance="A"), "duplicate instance_id 'A'"),
])
def test_amota_rejects_boxes_it_cannot_count(side, box, message):
    gt = by_frame([gt_box(f, instance="A") for f in range(4)])
    tracks = by_frame([track_box(f) for f in range(4)])
    {"gt": gt, "tracks": tracks}[side]["s"][3].append(box)
    with pytest.raises(ValueError) as raised:
        amota(tracks, gt, n=3)
    assert str(raised.value) == f"scene 's' frame 3 class 'car': {message}"


def test_incremental_sweep_equals_brute_force(monkeypatch):
    rng = random.Random(5)
    seen: collections.Counter = collections.Counter()
    cases = 0
    while cases < 200:
        gt, tracks = random_case(rng)
        if not gt:
            continue
        cases += 1
        n = rng.choice([2, 3, 7, 40])
        report = amota(tracks, gt, n=n)
        assert json.dumps(report.to_dict()) == reference_report_json(tracks, gt, n, monkeypatch)

        scene_scores = []
        for scene, frames in tracks.items():
            frame_scores = []
            for frame, boxes in frames.items():
                scores = [(b.class_label, b.score) for b in boxes]
                seen["tie in a frame"] += len(set(scores)) < len(scores)
                seen["tracks-only frame"] += frame not in gt.get(scene, {})
                frame_scores.append(set(scores))
            scene_scores.append(set().union(*frame_scores))
            seen["tie across frames"] += sum(map(len, frame_scores)) > len(scene_scores[-1])
        seen["tie across scenes"] += any(a & b for i, a in enumerate(scene_scores)
                                         for b in scene_scores[i + 1:])
        seen["gt-only frame"] += any(frame not in tracks.get(scene, {})
                                     for scene, frames in gt.items() for frame in frames)
        seen["tracks-only class"] += "bus" in report.skipped_classes
        samples = [sample for entry in report.classes.values() for sample in entry.samples]
        seen["unreachable target"] += any(not sample.reachable for sample in samples)
        seen["identity switch"] += any(sample.ids for sample in samples)
        seen["no thresholds"] += any(math.isnan(sample.score_threshold) for sample in samples)

    for _ in range(30):
        gt, tracks = long_scene_case(rng)
        n = rng.choice([3, 11, 40])
        report = amota(tracks, gt, n=n)
        assert json.dumps(report.to_dict()) == reference_report_json(tracks, gt, n, monkeypatch)

        frames = sorted(tracks["s"])
        seen["30+ frames with gaps"] += len(frames) >= 30 and frames[-1] - frames[0] >= len(frames)
        thresholds = sorted({t.score for boxes in tracks["s"].values() for t in boxes},
                            reverse=True)
        matched = [matches_at(gt, tracks, threshold) for threshold in thresholds]
        for entries in matched[-1].values():
            sequence = [entries[frame] for frame in sorted(entries)]
            seen["re-identification"] += any(
                sequence[j] != sequence[j - 1] and sequence[j] in sequence[:j - 1]
                for j in range(1, len(sequence)))
        for high, low in zip(matched, matched[1:]):
            for key, entries in low.items():
                both = sorted(set(entries) & set(high.get(key, {})))
                seen["middle frame switches between thresholds"] += any(
                    entries[frame] != high[key][frame] for frame in both[1:-1])
    assert len(seen) == 12 and all(seen.values()), seen


def test_switch_back_to_an_earlier_track_counts_twice(monkeypatch):
    # A is tracked by 1, then 2, then 1 again; frames 0 and 2 share a score
    gt = by_frame([gt_box(f, instance="A") for f in range(3)])
    tracks = by_frame([track_box(0, track_id=1, score=0.5),
                       track_box(1, track_id=2, score=0.7),
                       track_box(2, track_id=1, score=0.5)])
    report = amota(tracks, gt, n=4)
    assert json.dumps(report.to_dict()) == reference_report_json(tracks, gt, 4, monkeypatch)
    low, _, full = report.classes["car"].samples
    assert (low.score_threshold, low.ids) == (0.7, 0)
    assert (full.score_threshold, full.ids) == (0.5, 2)


def test_amota_matches_each_frame_once_per_score_it_holds(monkeypatch):
    cal_gt, cal_det = generate_suite([standard_suite_calibration()])
    noise = calibrate(cal_gt, cal_det)
    ground_truth, detections = generate_suite(standard_suite())
    config = RunConfig(matcher="greedy", affinity="mahalanobis")
    tracks = {scene: boxes_by_frame(run_scene(frames, noise, config))
              for scene, frames in detections.items()}
    # the sweep is per class: a frame orders its pairs once per class it
    # holds, and rescans them once per (class, score) it holds
    held = [(scene, frame, box.class_label, box.score)
            for scene, frames in tracks.items()
            for frame, boxes in frames.items() for box in boxes]
    calls = collections.Counter()

    def counted(name):
        function = getattr(metrics, name)

        def wrapper(*args):
            calls[name] += 1
            return function(*args)
        return wrapper

    for name in ("candidate_order", "greedy_scan"):
        monkeypatch.setattr(metrics, name, counted(name))
    report = amota(tracks, ground_truth)
    assert report.overall_amota == 0.7648924008865539
    assert calls["candidate_order"] == len({key[:3] for key in held})
    assert calls["greedy_scan"] == len(set(held))
