import importlib
import itertools
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from mot3d import association, kalman
from mot3d import tracker as tracker_module
from mot3d.calibration import ClassNoise, NoiseModel, calibrate
from mot3d.core import (ANGLE_INDEX, CLASS_LABELS, Box, Observation, observation_rows, trusted_box,
                        wrap_angle)
from mot3d.dataset_io import DEFAULT_MAHA_GATE, RunConfig
from mot3d.errors import ConfigError, NumericalError, SchemaError, SequencingError
from mot3d.synthetic import (calibration_scenario, generate, generate_suite, standard_suite,
                             standard_suite_calibration, turning_scenario)
from mot3d.tracker import MultiObjectTracker, run_scene
from tests.test_iou3d import reference_iou_3d

CAR_SIZE = (4.0, 2.0, 1.5)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Index of the yaw rate in the 11-D state.
DA = 10


def hand_noise(labels=("car",)) -> NoiseModel:
    # small observation noise, loose initial velocity: adapts fast
    q = np.array([0.01] * 4 + [0.0] * 3 + [0.01] * 4)
    r = np.full(7, 0.05)
    sigma0 = np.concatenate([r, np.full(4, 1.0)])
    return NoiseModel({label: ClassNoise(q, r, sigma0) for label in labels})


def det(frame, x=0.0, y=0.0, z=0.0, a=0.0, label="car", score=0.9,
        size=CAR_SIZE, scene="s0") -> Box:
    return Box(Observation(x, y, z, a, *size), label, frame, scene, score=score)


def moving_car_frames(n, vx=1.0, start=0, x0=0.0):
    return {start + k: [det(start + k, x=x0 + vx * k)] for k in range(n)}


def reported_states(frames, noise, config=None) -> list:
    """Per frame, (record, full state) for every reported track.

    Records carry the observed box; velocities are read off the
    tracker's own means.
    """
    tracker = MultiObjectTracker(noise, config)
    per_frame = []
    for frame_index in frames:
        records = tracker.step(frame_index, frames[frame_index]).records
        means = {t.track_id: t.mean for t in tracker.tracks}
        per_frame.append([(rec, means[rec.track_id]) for rec in records])
    return per_frame


def ids_by_frame(outputs):
    return {out.frame_index: [rec.track_id for rec in out.records] for out in outputs}


def test_confirmation_needs_three_consecutive_hits():
    outputs = run_scene(moving_car_frames(5), hand_noise())
    by_frame = ids_by_frame(outputs)
    assert by_frame[0] == []
    assert by_frame[1] == []
    assert by_frame[2] == [1]
    assert by_frame[3] == [1]
    assert by_frame[4] == [1]


def test_two_frame_object_is_never_reported():
    frames = {0: [det(0)], 1: [det(1, x=1.0)], 2: [], 3: [], 4: []}
    outputs = run_scene(frames, hand_noise())
    assert all(out.records == () for out in outputs)


def test_missed_track_coasts_on_prediction_then_dies():
    frames = moving_car_frames(5)
    frames[5] = []
    frames[6] = []
    frames[7] = []
    outputs = run_scene(frames, hand_noise())
    by_frame = {out.frame_index: out.records for out in outputs}
    # one miss: still reported, on the extrapolated state
    assert len(by_frame[5]) == 1
    coasted = by_frame[5][0].observation
    held = by_frame[4][0].observation
    assert coasted.x > held.x + 0.5
    assert coasted.x == pytest.approx(5.0, abs=0.5)
    # second consecutive miss removes the track
    assert by_frame[6] == ()
    assert by_frame[7] == ()


def test_reappearance_after_death_gets_a_fresh_id():
    frames = moving_car_frames(4)
    frames.update({4: [], 5: []})
    frames.update(moving_car_frames(4, start=6, x0=50.0))
    outputs = run_scene(frames, hand_noise())
    by_frame = ids_by_frame(outputs)
    assert by_frame[3] == [1]
    assert by_frame[9] == [2]
    all_ids = {i for ids in by_frame.values() for i in ids}
    assert all_ids == {1, 2}


def test_track_ids_start_at_one_and_stay_unique():
    frames = {0: [det(0, x=0.0), det(0, x=30.0), det(0, x=60.0)]}
    for k in range(1, 4):
        frames[k] = [det(k, x=0.0), det(k, x=30.0), det(k, x=60.0)]
    outputs = run_scene(frames, hand_noise())
    ids = sorted({rec.track_id for out in outputs for rec in out.records})
    assert ids == [1, 2, 3]


def test_records_sorted_by_track_id():
    frames = {}
    for k in range(4):
        # later-born object listed first in the detections
        frames[k] = [det(k, x=40.0), det(k, x=0.0)]
    outputs = run_scene(frames, hand_noise())
    for out in outputs:
        ids = [rec.track_id for rec in out.records]
        assert ids == sorted(ids)


def test_sequencing_validation():
    tracker = MultiObjectTracker(hand_noise())
    tracker.step(3, [det(3)])
    with pytest.raises(SequencingError):
        tracker.step(3, [])
    with pytest.raises(SequencingError):
        tracker.step(2, [])
    with pytest.raises(SequencingError):
        tracker.step(-1, [])
    with pytest.raises(SequencingError, match="frame 7"):
        tracker.step(8, [det(7)])
    # gaps in the frame index are allowed
    tracker.step(10, [det(10)])


def test_detection_without_score_is_a_schema_error():
    # a ground-truth box carries no score and cannot feed a track
    tracker = MultiObjectTracker(NoiseModel.default_covariance())
    with pytest.raises(SchemaError, match="frame 4"):
        tracker.step(4, [det(4), det(4, x=30.0, score=None)])
    # the rejected frame left no trace
    tracker.step(4, [det(4)])
    assert len(tracker.tracks) == 1


def test_newborn_track_is_detection_with_zero_velocity():
    noise = hand_noise()
    tracker = MultiObjectTracker(noise)
    detection = det(0, x=1.0, y=2.0, z=3.0, a=0.5)
    tracker.step(0, [detection])
    (track,) = tracker.tracks
    np.testing.assert_array_equal(track.mean[:7], observation_rows([detection.observation])[0])
    np.testing.assert_array_equal(track.mean[7:], np.zeros(4))
    np.testing.assert_array_equal(track.cov, np.diag(noise.classes["car"].sigma0))


def test_matched_update_flips_predicted_yaw_not_covariance():
    # a detection facing backwards updates the flipped prediction: the
    # yaw lands on the detection, everything else matches a detection
    # that faces the same way
    tracks = []
    for yaw in (0.1, wrap_angle(0.1 + math.pi)):
        tracker = MultiObjectTracker(hand_noise())
        tracker.step(0, [det(0, a=0.1)])
        tracker.step(1, [det(1, x=0.5, a=yaw)])
        tracks.extend(tracker.tracks)
    same, flipped = tracks
    assert flipped.mean[ANGLE_INDEX] == pytest.approx(wrap_angle(0.1 + math.pi))
    assert same.mean[ANGLE_INDEX] == pytest.approx(0.1)
    np.testing.assert_array_equal(np.delete(flipped.mean, ANGLE_INDEX),
                                  np.delete(same.mean, ANGLE_INDEX))
    np.testing.assert_array_equal(flipped.cov, same.cov)


def test_covariances_stay_symmetric_psd_over_standard_suite():
    # the filter validates none of the covariances it computes, so the
    # standard suite checks every live one after every frame
    cal_gt, cal_det = generate_suite([standard_suite_calibration()])
    _, detections = generate_suite(standard_suite())
    for noise in (calibrate(cal_gt, cal_det), NoiseModel.default_covariance()):
        for scene_id in sorted(detections):
            tracker = MultiObjectTracker(noise)
            for frame_index, frame in detections[scene_id].items():
                tracker.step(frame_index, frame)
                for track in tracker.tracks:
                    np.testing.assert_array_equal(track.cov, track.cov.T)
                    assert np.linalg.eigvalsh(track.cov).min() >= -1e-9


def test_unknown_class_is_a_config_error():
    tracker = MultiObjectTracker(hand_noise(labels=("car",)))
    with pytest.raises(ConfigError, match="bus"):
        tracker.step(0, [det(0, label="bus", size=(10.0, 2.9, 3.4))])


def test_classes_are_tracked_independently():
    noise = hand_noise(labels=("car", "pedestrian"))
    frames = {}
    for k in range(4):
        # same spot, different classes: must never swap identities
        frames[k] = [det(k, x=1.0 * k),
                     det(k, x=1.0 * k, label="pedestrian", size=(0.6, 0.6, 1.7))]
    outputs = run_scene(frames, noise)
    final = outputs[-1].records
    assert len(final) == 2
    labels = {rec.track_id: rec.class_label for rec in final}
    assert sorted(labels.values()) == ["car", "pedestrian"]
    for out in outputs:
        for rec in out.records:
            assert labels[rec.track_id] == rec.class_label


def test_deterministic_across_runs():
    frames = {}
    rng = np.random.default_rng(0)
    for k in range(12):
        frames[k] = [det(k, x=float(k) + rng.normal(0, 0.1), y=rng.normal(0, 0.1)),
                     det(k, x=20.0 - k + rng.normal(0, 0.1))]
    def run():
        return [(rec.frame_index, rec.track_id, state.tobytes(), rec.score)
                for pairs in reported_states(frames, hand_noise()) for rec, state in pairs]
    assert run() == run()


def test_angular_velocity_toggle():
    noise = hand_noise()
    frames = {k: [det(k, a=0.1 * k)] for k in range(10)}
    with_rate = reported_states(frames, noise, RunConfig(angular_velocity=True))
    without = reported_states(frames, noise, RunConfig(angular_velocity=False))
    assert with_rate[-1][0][1][DA] > 0.05
    for pairs in without:
        for _, state in pairs:
            assert state[DA] == 0.0
    # the constant-yaw tracker follows the ramping heading, with lag
    assert 0.5 < without[-1][0][0].observation.a <= 0.9
    assert without[-1][0][0].observation.a < with_rate[-1][0][0].observation.a


def test_birth_hits_one_reports_immediately():
    outputs = run_scene(moving_car_frames(2), hand_noise(),
                        RunConfig(birth_hits=1))
    assert ids_by_frame(outputs)[0] == [1]


def test_death_misses_one_removes_on_first_miss():
    frames = moving_car_frames(4)
    frames[4] = []
    outputs = run_scene(frames, hand_noise(), RunConfig(death_misses=1))
    by_frame = ids_by_frame(outputs)
    assert by_frame[3] == [1]
    assert by_frame[4] == []


def test_empty_frames_advance_miss_counters():
    tracker = MultiObjectTracker(hand_noise())
    for k in range(4):
        tracker.step(k, [det(k, x=float(k))])
    assert tracker.stats.confirmed == 1
    tracker.step(4, [])
    tracker.step(5, [])
    assert tracker.stats.died == 1
    assert tracker.tracks == []


def test_lifecycle_counters():
    frames = moving_car_frames(6)
    # a two-frame clutter object that dies without confirmation, unless
    # every track is confirmed at birth
    frames[1].append(det(1, x=100.0))
    frames[2].append(det(2, x=100.0))
    for birth_hits, confirmed in ((3, 1), (1, 2)):
        tracker = MultiObjectTracker(hand_noise(), RunConfig(birth_hits=birth_hits))
        for frame_index in sorted(frames):
            tracker.step(frame_index, frames[frame_index])
        assert tracker.stats.frames == 6
        assert tracker.stats.born == 2
        # a track confirmed at birth is not counted again when matched
        assert tracker.stats.confirmed == confirmed, birth_hits
        assert tracker.stats.died == 1


@pytest.mark.parametrize("affinity", ["mahalanobis", "iou"])
@pytest.mark.parametrize("matcher", ["greedy", "hungarian"])
def test_equidistant_tracks_give_the_detection_to_the_lower_id(affinity, matcher):
    # tracks 1 (x = +d) and 2 (x = -d) score exactly alike against a
    # detection at x = 0; association rows in id order decide the tie
    d = 0.25
    frames = {0: [det(0, x=d), det(0, x=-d)], 1: [det(1, x=0.0)]}
    config = RunConfig(birth_hits=1, affinity=affinity, matcher=matcher)
    first, second = run_scene(frames, hand_noise(), config)
    assert [(rec.track_id, rec.observation.x) for rec in first.records] == [(1, d), (2, -d)]
    matched, coasted = second.records
    assert (matched.track_id, coasted.track_id) == (1, 2)
    assert abs(matched.observation.x) < d
    assert coasted.observation.x == -d


def test_running_mean_of_a_negative_zero_score_keeps_its_sign():
    config = RunConfig(birth_hits=1, score_mode="running_mean")
    (output,) = run_scene({0: [det(0, score=-0.0)]}, hand_noise(), config)
    assert math.copysign(1.0, output.records[0].score) == -1.0


def test_tracker_calls_the_layer_functions_through_module_globals(monkeypatch):
    # per-layer tracing rebinds these names in the tracker module; a
    # refactor that routes around one of them would silently hide a layer
    # and the tracer reads what passes through them: pairs from each
    # affinity's (N, M) .values for a stacked prediction of N rows,
    # matches from what a matcher returns
    calls = {}

    def counting(name, function, check=None):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            result = function(*args, **kwargs)
            if check is not None:
                check(args, result)
            return result
        return wrapper

    def affinity_shape(args, result):
        prediction, observations = args
        assert result.values.shape == (prediction.mean.shape[0], len(observations))

    def matcher_arguments(args, result):
        distances, limit = args
        assert isinstance(distances, np.ndarray) and isinstance(limit, float)

    for name in ("predict", "update"):
        monkeypatch.setattr(tracker_module, name, counting(name, getattr(tracker_module, name)))
    for name in ("mahalanobis_affinity", "iou_affinity"):
        monkeypatch.setattr(tracker_module, name,
                            counting(name, getattr(tracker_module, name), affinity_shape))
    monkeypatch.setattr(tracker_module, "MATCHERS", {
        key: counting(f"MATCHERS[{key}]", matcher, matcher_arguments)
        for key, matcher in tracker_module.MATCHERS.items()})
    for affinity in ("mahalanobis", "iou"):
        for matcher in tracker_module.MATCHERS:
            run_scene(moving_car_frames(4), hand_noise(),
                      RunConfig(affinity=affinity, matcher=matcher))
    expected = {"predict", "update", "mahalanobis_affinity", "iou_affinity",
                *(f"MATCHERS[{key}]" for key in tracker_module.MATCHERS)}
    assert set(calls) == expected


def test_only_the_greedy_matcher_gates_the_mahalanobis_affinity(monkeypatch):
    # greedy reads only pairs below their class's gate, so it passes each
    # block's limit; a Hungarian assignment is steered by the pairs beyond
    # the gate too, so under it every same-class pair is scored
    seen = []
    original = tracker_module.mahalanobis_affinity

    def spy(prediction, detected, blocks=None, limits=None):
        result = original(prediction, detected, blocks=blocks, limits=limits)
        seen.append((limits, [result.values[rows, cols] for rows, cols in blocks]))
        return result

    monkeypatch.setattr(tracker_module, "mahalanobis_affinity", spy)
    monkeypatch.setattr(association, "_GATE_MIN_PAIRS", 1)  # gate even the smallest class
    _, detections = generate_suite(standard_suite(seed=4, scenes=1, frame_count=20))
    noise = hand_noise(("bus", "car", "pedestrian"))
    for matcher in ("greedy", "hungarian"):
        seen.clear()
        run_scene(detections["suite0"], noise,
                  RunConfig(matcher=matcher, class_maha_thresholds={"pedestrian": 2.0}))
        cells = [block for _, blocks in seen for block in blocks]
        if matcher == "hungarian":
            assert all(limits is None for limits, _ in seen)
            assert all(np.isfinite(block).all() for block in cells)
        else:
            assert all(len(limits) == len(blocks) for limits, blocks in seen)
            assert {limit for limits, _ in seen for limit in limits} == {2.0, DEFAULT_MAHA_GATE}
            assert any(np.isinf(block).any() for block in cells)


def test_gating_leaves_the_traced_counts_of_a_dense_scene_unchanged(monkeypatch):
    # perfbench's tracer counts the pairs under the global gate, the
    # matches, and the filter calls; a run whose limits are stripped, so
    # that it scores every pair, reads the same counts and the same tracks
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    _, detections = generate_suite([calibration_scenario(
        scene_id="dense", seed=5, objects=36, frame_count=6, spacing=15.0)])
    frames, noise, config = detections["dense"], NoiseModel.default_covariance(), RunConfig()
    original, pruned = tracker_module.mahalanobis_affinity, []

    def traced(gate: bool):
        def affinity(prediction, detected, blocks=None, limits=None):
            result = original(prediction, detected, blocks=blocks, limits=limits if gate else None)
            pruned.append(any(np.isinf(result.values[rows, cols]).any() for rows, cols in blocks))
            return result

        monkeypatch.setattr(tracker_module, "mahalanobis_affinity", affinity)
        with layers.Tracer(maha_gate=config.maha_threshold) as tracer:
            outputs = run_scene(frames, noise, config)
        return (outputs, {name: tracer.counts[name] for name in ("pairs_gated", "matches")},
                {name: tracer.spans[name].calls for name in ("predict", "update")})

    gated = traced(True)
    assert any(pruned)
    pruned.clear()
    assert traced(False) == gated
    assert not any(pruned)


def test_score_modes():
    frames = {0: [det(0, score=0.2)], 1: [det(1, x=1.0, score=0.4)],
              2: [det(2, x=2.0, score=0.9)]}
    last = run_scene(frames, hand_noise(),
                     RunConfig(birth_hits=1, score_mode="last_detection"))
    mean = run_scene(frames, hand_noise(),
                     RunConfig(birth_hits=1, score_mode="running_mean"))
    assert last[-1].records[0].score == pytest.approx(0.9)
    assert mean[-1].records[0].score == pytest.approx(0.5)


def test_coasting_keeps_last_score():
    frames = moving_car_frames(4)
    frames[4] = []
    outputs = run_scene(frames, hand_noise())
    by_frame = {out.frame_index: out.records for out in outputs}
    assert by_frame[4][0].score == pytest.approx(0.9)


def test_run_scene_matches_manual_stepping():
    frames = moving_car_frames(5)
    via_helper = run_scene(frames, hand_noise())
    tracker = MultiObjectTracker(hand_noise())
    manual = [tracker.step(k, frames[k]) for k in sorted(frames)]
    assert [(o.frame_index, tuple((r.track_id, r.score) for r in o.records))
            for o in via_helper] == \
        [(o.frame_index, tuple((r.track_id, r.score) for r in o.records))
         for o in manual]


def test_per_class_gate_override():
    # a huge per-class gate lets a far detection keep the track alive
    frames = {0: [det(0)], 1: [det(1, x=0.1)], 2: [det(2, x=0.2)],
              3: [det(3, x=12.0)]}
    default = run_scene(frames, hand_noise())
    loose = run_scene(frames, hand_noise(),
                      RunConfig(class_maha_thresholds={"car": 1e6}))
    # default gate rejects the jump: original track coasts, new track born
    last_default = {rec.track_id for rec in default[-1].records}
    assert last_default == {1}
    tracker_ids = {rec.track_id for out in loose for rec in out.records}
    assert tracker_ids == {1}
    assert loose[-1].records[0].observation.x > 1.0


def test_class_maha_thresholds_gate_only_their_class_and_only_mahalanobis():
    _, detections = generate_suite(standard_suite(seed=4, scenes=1, frame_count=30))
    frames, noise = detections["suite0"], hand_noise(("bus", "car", "pedestrian"))

    def boxes(config, label):
        return [[(rec.observation, rec.score) for rec in output.records
                 if rec.class_label == label] for output in run_scene(frames, noise, config)]

    tight = {"pedestrian": 1e-3}
    for label in ("bus", "car"):
        assert boxes(RunConfig(class_maha_thresholds=tight), label) == boxes(RunConfig(), label)
    assert (boxes(RunConfig(class_maha_thresholds=tight), "pedestrian")
            != boxes(RunConfig(), "pedestrian"))
    # under IOU the minimum IOU gates every class and the Mahalanobis gates are unread
    iou = RunConfig(affinity="iou", maha_threshold=1e-3)
    overridden = RunConfig(affinity="iou", class_maha_thresholds=dict.fromkeys(CLASS_LABELS, 1e-3))
    assert run_scene(frames, noise, overridden) == run_scene(frames, noise, iou)
    assert run_scene(frames, noise, iou) == run_scene(frames, noise, RunConfig(affinity="iou"))


def test_iou_tracking_never_matches_a_pair_whose_iou_is_nan():
    # footprint areas of 1e400 overflow: the IOU is NaN, not the 1.0 that
    # min(1.0, nan) would give, though the true IOU is about 0.005; the
    # overflow is expected, so no numpy RuntimeWarning reaches the caller
    huge = (1e200, 1e200, 1.0)
    frames = {0: [det(0, size=huge)], 1: [det(1, x=0.99e200, size=huge)]}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = observation_rows(frames[k][0].observation for k in (0, 1))
        assert math.isnan(association.iou_pairs(rows[:1], rows[1:])[0])
        for matcher in ("greedy", "hungarian"):
            config = RunConfig(affinity="iou", matcher=matcher, birth_hits=1)
            first, second = run_scene(frames, hand_noise(), config)
            assert [rec.track_id for rec in second.records] == [1, 2]
            assert second.records[0].observation == first.records[0].observation


def test_iou_tracking_clips_only_pairs_that_can_overlap(monkeypatch):
    # 100 objects 15 m apart: each track can overlap about one detection
    _, frames = generate(calibration_scenario(objects=100, frame_count=10, spacing=15.0))
    clipped = []
    real_iou_pairs = association.iou_pairs
    monkeypatch.setattr(association, "iou_pairs",
                        lambda a, b: clipped.append(len(a)) or real_iou_pairs(a, b))
    tracker = MultiObjectTracker(NoiseModel.default_covariance(),
                                 RunConfig(affinity="iou", matcher="hungarian"))
    for frame_index, detections in frames.items():
        clipped.clear()
        tracks = len(tracker.tracks)
        tracker.step(frame_index, detections)
        assert sum(clipped) <= 2 * max(tracks, len(detections))
    assert tracker.stats.confirmed > 0


def reference_affinity(prediction, detected, blocks=None) -> association.AffinityMatrix:
    """iou_affinity from the scalar reference, one pair at a time, on the pairs of the blocks."""
    predicted = [Observation(*row) for row in prediction.mean[:, :7].tolist()]
    # the detection rows' own floats: Observation() would wrap the yaws again
    observations = [trusted_box(*row, "car", 0).observation for row in detected.tolist()]
    values = np.zeros((len(predicted), len(observations)))
    if blocks is None:
        blocks = [(slice(0, len(predicted)), slice(0, len(observations)))]
    for rows, cols in blocks:
        for i, j in itertools.product(range(rows.start, rows.stop), range(cols.start, cols.stop)):
            a, b = predicted[i], observations[j]
            # footprints whose centers lie farther apart than the sum of
            # their four extents cannot meet: the reference scores them 0
            if math.hypot(a.x - b.x, a.y - b.y) <= a.l + a.w + b.l + b.w:
                values[i, j] = reference_iou_3d(a, b)
    return association.AffinityMatrix(values)


def test_iou_tracking_equals_tracking_on_the_per_pair_reference(monkeypatch):
    # 100 objects 15 m apart: the array kernel gives each pair the floats
    # of the scalar clipper, so the outputs are equal field for field
    _, frames = generate(calibration_scenario(objects=100, frame_count=10, spacing=15.0))
    noise, config = NoiseModel.default_covariance(), RunConfig(affinity="iou", matcher="hungarian")
    outputs = run_scene(frames, noise, config)
    monkeypatch.setattr(tracker_module, "iou_affinity", reference_affinity)
    assert run_scene(frames, noise, config) == outputs
    assert sum(len(output.records) for output in outputs) > 500


def test_mahalanobis_tracking_factors_each_innovation_once_per_frame(monkeypatch):
    # 100 objects 15 m apart: affinity and update share each track's factor
    _, frames = generate(calibration_scenario(objects=100, frame_count=10, spacing=15.0))
    factored = []
    real_potrf = kalman._POTRF
    monkeypatch.setattr(kalman, "_POTRF",
                        lambda *args, **kwargs: factored.append(1) or real_potrf(*args, **kwargs))
    tracker = MultiObjectTracker(NoiseModel.default_covariance())
    for frame_index, detections in frames.items():
        factored.clear()
        live = len(tracker.tracks)
        tracker.step(frame_index, detections)
        assert len(factored) <= live
    # tracks were confirmed, so matched updates ran
    assert tracker.stats.confirmed > 0


def test_numerical_error_names_frame_class_and_track():
    # the second car's residual overflows; the first car's track is fine
    tracker = MultiObjectTracker(hand_noise())
    tracker.step(0, [det(0), det(0, x=1e308)])
    with pytest.raises(NumericalError) as info:
        tracker.step(1, [det(1), det(1, x=-1e308)])
    assert str(info.value).startswith("frame 1, class car, track 2: residual")


def spoil_covariances(tracker, rows):
    """Make the listed live tracks' covariances negative definite, in place."""
    for row in rows:
        tracker.tracks[row].cov[...] = -np.eye(11)


@pytest.mark.parametrize("overflow_row, spoiled_row, named, message", [
    (1, 3, 2, "residual or covariance is not finite"),
    (3, 1, 2, "innovation covariance is not positive definite"),
])
def test_first_failing_row_of_a_class_step_is_named(overflow_row, spoiled_row, named, message):
    # one class step fails on two rows; the affinity visits rows in
    # track_id order, residual before factor, so the first failing row is
    # named, with its own message
    tracker = MultiObjectTracker(hand_noise())
    xs = [0.0, 20.0, 40.0, 60.0]
    xs[overflow_row] = 1e308
    for frame in (0, 1):
        tracker.step(frame, [det(frame, x=x) for x in xs])
    spoil_covariances(tracker, [spoiled_row])
    xs[overflow_row] = -1e308
    with pytest.raises(NumericalError) as info:
        tracker.step(2, [det(2, x=x) for x in xs])
    assert str(info.value).startswith(f"frame 2, class car, track {named}: {message}")


def test_first_failing_pair_of_an_iou_class_step_is_named():
    # under IOU nothing is factored before the update, which takes the
    # matched pairs best-first: the exact match of track 4 comes before
    # the shifted match of track 2, so track 4 is named
    tracker = MultiObjectTracker(hand_noise(), RunConfig(affinity="iou", matcher="hungarian"))
    xs = [0.0, 20.0, 40.0, 60.0]
    for frame in (0, 1):
        tracker.step(frame, [det(frame, x=x) for x in xs])
    spoil_covariances(tracker, [1, 3])
    with pytest.raises(NumericalError) as info:
        tracker.step(2, [det(2, x=x + (0.5 if x == 20.0 else 0.0)) for x in xs])
    assert str(info.value).startswith(
        "frame 2, class car, track 4: innovation covariance is not positive definite")


def newborn_row(noise, config) -> tuple:
    """The Q and R a newborn car's bank row carries, and its covariance (Sigma0)."""
    tracker = MultiObjectTracker(noise, config)
    tracker.step(0, [det(0)])
    return tracker._q[0], tracker._r[0], tracker.tracks[0].cov


def test_without_angular_velocity_only_the_yaw_rate_noise_is_zero():
    noise = hand_noise()
    with_rate = newborn_row(noise, RunConfig())
    without = newborn_row(noise, RunConfig(angular_velocity=False))
    for name, full, pinned in zip("q r sigma0".split(), with_rate, without):
        expected = full.copy()
        if name != "r":
            assert full[10, 10] > 0.0
            expected[10, 10] = 0.0
        np.testing.assert_array_equal(pinned, expected)
    # the caller's model is left as it was
    assert noise.classes["car"].q[10] == 0.01 and noise.classes["car"].sigma0[10] == 1.0


def checked_records(tracker, frame_index) -> tuple:
    """The confirmed tracks as Boxes built through every check of Observation and Box."""
    running_mean = tracker.config.score_mode == "running_mean"
    return tuple(
        Box(Observation(*t.mean[:7].tolist()), t.class_label, frame_index,
            score=t.score_sum / t.score_count if running_mean else t.last_score,
            track_id=t.track_id)
        for t in tracker.tracks if t.confirmed)


@pytest.mark.parametrize("config", [
    RunConfig(),
    RunConfig(score_mode="running_mean"),
    RunConfig(angular_velocity=False),
    RunConfig(affinity="iou", matcher="hungarian", score_mode="running_mean"),
], ids=["last_detection", "running_mean", "no_angular_velocity", "iou"])
def test_emitted_records_equal_fully_checked_boxes_bit_for_bit(config):
    # objects heading along +-pi and one turning in place take yaws across the seam
    _, detections = generate_suite(standard_suite(seed=5, scenes=2, frame_count=30)
                                   + [turning_scenario(frame_count=60)])
    noise = hand_noise(("pedestrian", "car", "bus"))
    yaws = []
    for frames in detections.values():
        tracker = MultiObjectTracker(noise, config)
        for frame_index, frame_detections in frames.items():
            records = tracker.step(frame_index, frame_detections).records
            expected = checked_records(tracker, frame_index)
            assert records == expected
            # float reprs round-trip, so equal reprs mean equal bits (and -0.0 stays -0.0)
            assert repr(records) == repr(expected)
            assert all(type(getattr(record.observation, name)) is float
                       for record in records for name in "xyzalwh")
            yaws += [record.observation.a for record in records]
    assert min(yaws) < -3.0 and max(yaws) > 3.0


@pytest.mark.parametrize("column, value, message", [
    (0, math.nan, r"^x must be finite, got nan$"),
    (3, math.inf, r"^a must be finite, got inf$"),
    (4, -1.0, r"^l must be positive, got -1.0$"),
    (6, 0.0, r"^h must be positive, got 0.0$"),
])
def test_a_faulty_confirmed_row_raises_the_observation_error(monkeypatch, column, value,
                                                             message):
    real_update = tracker_module.update

    def spoiled_update(*args):
        means, covs = real_update(*args)
        means = means.copy()
        means[:, column] = value
        return means, covs

    tracker = MultiObjectTracker(hand_noise())
    frames = moving_car_frames(4)
    for frame_index in range(3):
        assert len(tracker.step(frame_index, frames[frame_index]).records) == (frame_index == 2)
    monkeypatch.setattr(tracker_module, "update", spoiled_update)
    with pytest.raises(ValueError, match=message):
        tracker.step(3, frames[3])
