import json
import math

import numpy as np
import pytest

from mot3d.association import greedy_center_match
from mot3d.calibration import (CALIBRATION_GATE, ClassNoise, GroundTruthTrack,
                               NoiseModel, _second_differences, calibrate,
                               estimate_observation_noise, estimate_process_noise,
                               load_noise_model, save_noise_model, tracks_from_ground_truth)
from mot3d.core import (Box, observation_residual, observation_rows, wrap_angle,
                        wrap_angle_array)
from mot3d.errors import CalibrationError, SchemaError

CAR_SIZE = (4.0, 2.0, 1.5)


def make_track(xs, ys=None, zs=None, yaws=None, label="car", instance="i0",
               scene="s0", frames=None) -> GroundTruthTrack:
    n = len(xs)
    ys = ys if ys is not None else [0.0] * n
    zs = zs if zs is not None else [0.0] * n
    yaws = yaws if yaws is not None else [0.0] * n
    frames = tuple(frames) if frames is not None else tuple(range(n))
    poses = np.stack([xs, ys, zs, yaws], axis=1)
    return GroundTruthTrack(label, instance, scene, frames, poses)


def positions_with_second_diffs(diffs, v0=1.0):
    """Positions whose contiguous second differences equal diffs exactly."""
    velocities = [v0]
    for d in diffs:
        velocities.append(velocities[-1] + d)
    xs = [0.0]
    for v in velocities:
        xs.append(xs[-1] + v)
    return xs


def gt_dict(tracks):
    """Scatter GroundTruthTrack objects into scene -> frame -> [box]."""
    out: dict = {}
    for track in tracks:
        for idx, frame in enumerate(track.frames):
            x, y, z, a = track.poses[idx]
            box = Box(x, y, z, a, *CAR_SIZE,
                      track.class_label, frame, track.scene_id,
                      instance_id=track.instance_id)
            out.setdefault(track.scene_id, {}).setdefault(frame, []).append(box)
    return out


def shifted_detections(ground_truth, dx=0.0, dy=0.0, da=0.0, score=0.9):
    out: dict = {}
    for scene_id, frames in ground_truth.items():
        for frame, boxes in frames.items():
            dets = []
            for box in boxes:
                dets.append(Box(box.x + dx, box.y + dy, box.z, wrap_angle(box.a + da),
                                box.l, box.w, box.h, box.class_label, frame, scene_id,
                                score=score))
            out.setdefault(scene_id, {})[frame] = dets
    return out


def test_constant_velocity_gives_zero_process_noise():
    track = make_track([0.5 * t for t in range(8)])
    q = estimate_process_noise([track])["car"]
    np.testing.assert_array_equal(q, np.zeros(11))


def test_known_acceleration_variance_exact():
    # second differences alternate +-0.25 (binary exact), mean zero
    xs = positions_with_second_diffs([0.25, -0.25, -0.25, 0.25])
    q = estimate_process_noise([make_track(xs)])["car"]
    assert q[0] == 0.0625
    assert q[7] == 0.0625


def test_process_noise_layout():
    rng = np.random.default_rng(3)
    xs = np.cumsum(np.cumsum(rng.normal(0, 0.1, 12)))
    ys = np.cumsum(np.cumsum(rng.normal(0, 0.2, 12)))
    q = estimate_process_noise([make_track(xs, ys=ys)])["car"]
    # extents carry no process noise; velocities copy the pose entries
    np.testing.assert_array_equal(q[4:7], np.zeros(3))
    np.testing.assert_array_equal(q[7:11], q[0:4])
    assert q[1] > q[0] > 0.0


def test_constant_yaw_rate_across_seam_gives_zero_yaw_noise():
    # heading sweeps through the +-pi seam at a constant rate
    yaws = [wrap_angle(3.0 + 0.1 * t) for t in range(10)]
    q = estimate_process_noise([make_track([0.0] * 10, yaws=yaws)])["car"]
    assert q[3] < 1e-28
    assert any(abs(b - a) > 3.0 for a, b in zip(yaws, yaws[1:]))  # seam was crossed


def test_frame_gaps_never_mix_into_differences():
    # linear motion with a teleport across a frame gap: contiguous
    # triples all have zero second difference, so Q stays zero
    track = make_track([0.0, 1.0, 2.0, 3.0, 500.0, 501.0, 502.0, 503.0],
                       frames=[0, 1, 2, 3, 10, 11, 12, 13])
    q = estimate_process_noise([track])["car"]
    np.testing.assert_array_equal(q, np.zeros(11))


def test_too_few_second_differences_names_class():
    with pytest.raises(CalibrationError, match="car"):
        estimate_process_noise([make_track([0.0, 1.0, 2.5])])
    # two tracks of three frames pool their single differences
    tracks = [make_track([0.0, 1.0, 2.5], instance="a"),
              make_track([0.0, 1.0, 1.5], instance="b")]
    q = estimate_process_noise(tracks)["car"]
    assert q[0] > 0.0


def test_per_class_isolation_and_pooling():
    car = make_track(positions_with_second_diffs([0.25, -0.25, -0.25, 0.25]),
                     label="car", instance="c")
    ped = make_track(positions_with_second_diffs([0.5, -0.5, -0.5, 0.5]),
                     label="pedestrian", instance="p")
    separate = estimate_process_noise([car, ped])
    assert separate["car"][0] == 0.0625
    assert separate["pedestrian"][0] == 0.25
    pooled = estimate_process_noise([car, ped], pooled=True)
    # pooled variance over all eight samples, shared by both classes
    assert pooled["car"][0] == pooled["pedestrian"][0]
    assert pooled["car"][0] == pytest.approx((4 * 0.0625 + 4 * 0.25) / 8)


def test_translation_and_scene_order_invariance():
    rng = np.random.default_rng(9)
    xs = np.cumsum(np.cumsum(rng.normal(0, 0.1, 10)))
    a = make_track(xs, scene="s0")
    b = make_track(xs + 250.0, scene="zzz", instance="i1")
    q_a = estimate_process_noise([a])["car"]
    q_b = estimate_process_noise([b])["car"]
    np.testing.assert_allclose(q_a, q_b, atol=1e-12)
    both = estimate_process_noise([b, a])["car"]
    np.testing.assert_allclose(both, q_a, atol=1e-12)


def test_observation_noise_constant_offset_has_zero_variance():
    gt = gt_dict([make_track([1.0 * t for t in range(6)])])
    dets = shifted_detections(gt, dx=0.5)
    r = estimate_observation_noise(gt, dets)["car"]
    np.testing.assert_array_equal(r, np.zeros(7))


def test_observation_noise_alternating_offset_exact():
    track = make_track([0.0] * 6)
    gt = gt_dict([track])
    dets: dict = {"s0": {}}
    for frame in range(6):
        offset = 0.25 if frame % 2 == 0 else -0.25
        dets["s0"][frame] = [Box(0.0, offset, 0.0, 0.0, *CAR_SIZE, "car", frame, "s0",
                                 score=0.9)]
    r = estimate_observation_noise(gt, dets)["car"]
    assert r[1] == 0.0625
    assert r[0] == 0.0


def test_observation_noise_wraps_angle_residuals():
    track = make_track([0.0, 0.0], yaws=[math.pi - 0.01, -math.pi + 0.01],
                       frames=[0, 1])
    dets: dict = {"s0": {
        0: [Box(0, 0, 0, -math.pi + 0.01, *CAR_SIZE, "car", 0, "s0", score=0.9)],
        1: [Box(0, 0, 0, math.pi - 0.01, *CAR_SIZE, "car", 1, "s0", score=0.9)],
    }}
    r = estimate_observation_noise(gt_dict([track]), dets)["car"]
    # residuals wrap to +-0.02 instead of +-(2*pi - 0.02)
    assert r[3] == pytest.approx(0.0004, abs=1e-15)


def test_matching_gate_is_strict():
    gt = gt_dict([make_track([0.0] * 4)])
    inside = shifted_detections(gt, dx=1.9)
    r = estimate_observation_noise(gt, inside)["car"]
    assert r[0] == 0.0  # constant offset matched on every frame
    for dx in (CALIBRATION_GATE, 2.1):
        outside = shifted_detections(gt, dx=dx)
        with pytest.raises(CalibrationError, match="car"):
            estimate_observation_noise(gt, outside)
    wide = estimate_observation_noise(gt, shifted_detections(gt, dx=2.5), gate=3.0)["car"]
    assert wide[0] == 0.0


def test_equidistant_annotations_go_to_the_one_the_frame_lists_first():
    # Frame 1 lists B before A, and the detection lies 0.5 m from each.
    # A, seen since frame 0, must not win the tie: greedy takes the
    # first-listed annotation, as the evaluator does.
    def annotation(y, frame, instance):
        return Box(0.0, y, 0.0, 0.0, *CAR_SIZE, "car", frame, "s0",
                   instance_id=instance)

    def detection(y, frame):
        return Box(0.0, y, 0.0, 0.0, *CAR_SIZE, "car", frame, "s0", score=0.9)

    gt = {"s0": {0: [annotation(0.0, 0, "A")],
                 1: [annotation(-0.5, 1, "B"), annotation(0.5, 1, "A")]}}
    dets = {"s0": {0: [detection(-1.0, 0)], 1: [detection(0.0, 1)]}}
    r = estimate_observation_noise(gt, dets)["car"]
    assert r[1] == 0.5625  # residuals -1.0 and +0.5; A would give -0.5 and 0.0625
    assert r[0] == 0.0


def test_calibrate_sigma0_structure():
    xs = positions_with_second_diffs([0.25, -0.25, -0.25, 0.25])
    gt = gt_dict([make_track(xs)])
    model = calibrate(gt, shifted_detections(gt, dx=0.1))
    noise = model.classes["car"]
    np.testing.assert_array_equal(noise.sigma0[0:7], noise.r)
    np.testing.assert_array_equal(noise.sigma0[7:11], noise.q[7:11])
    assert noise.q[0] == 0.0625


def test_instance_class_change_rejected():
    scene = {"s0": {
        0: [Box(0, 0, 0, 0, *CAR_SIZE, "car", 0, "s0", instance_id="i0")],
        1: [Box(0, 0, 0, 0, *CAR_SIZE, "bus", 1, "s0", instance_id="i0")],
    }}
    with pytest.raises(CalibrationError, match="changes class"):
        tracks_from_ground_truth(scene)


def test_instance_repeated_in_a_frame_rejected():
    # a box file cannot hold this (its loader rejects a repeated instance_id);
    # a mapping built in Python can, and calibrate must raise a CalibrationError for it
    box = Box(0, 0, 0, 0, *CAR_SIZE, "car", 4, "s0", instance_id="i0")
    with pytest.raises(CalibrationError,
                       match="instance 'i0' in scene 's0' appears twice in frame 4"):
        calibrate({"s0": {4: [box, box]}}, {})


def test_same_instance_id_in_two_scenes_stays_separate():
    a = make_track([0.0, 1.0], scene="s0", frames=[0, 1])
    b = make_track([50.0, 51.0], scene="s1", frames=[0, 1])
    merged = gt_dict([a, b])
    tracks = tracks_from_ground_truth(merged)
    assert len(tracks) == 2
    assert {t.scene_id for t in tracks} == {"s0", "s1"}


def test_ground_truth_track_validation():
    with pytest.raises(ValueError):
        make_track([0.0, 1.0], frames=[3, 3])
    with pytest.raises(ValueError):
        make_track([])
    with pytest.raises(ValueError):
        GroundTruthTrack("car", "i", "s", (0, 1), np.zeros((3, 4)))


def test_class_noise_validation():
    with pytest.raises(ValueError):
        ClassNoise(np.ones(10), np.ones(7), np.ones(11))
    with pytest.raises(ValueError):
        ClassNoise(np.ones(11), -np.ones(7), np.ones(11))
    with pytest.raises(ValueError):
        ClassNoise(np.full(11, math.nan), np.ones(7), np.ones(11))
    noise = ClassNoise(np.ones(11), np.ones(7), np.ones(11))
    with pytest.raises(ValueError):
        noise.q[0] = 5.0


def test_records_hold_read_only_copies():
    diagonals = [np.ones(11), np.ones(7), np.ones(11)]
    noise = ClassNoise(*diagonals)
    for diagonal in diagonals:
        diagonal[0] = 5.0
    for stored, size in ((noise.q, 11), (noise.r, 7), (noise.sigma0, 11)):
        np.testing.assert_array_equal(stored, np.ones(size))
    poses = [(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 0.0, 0.0)]
    pose_array = np.array(poses)
    from_list = GroundTruthTrack("car", "i", "s", (0, 1), poses)
    from_array = GroundTruthTrack("car", "i", "s", (0, 1), pose_array)
    poses[1] = (9.0, 9.0, 9.0, 9.0)
    pose_array[1] = 9.0
    for track in (from_list, from_array):
        np.testing.assert_array_equal(track.poses, [[0.0] * 4, [1.0, 0.0, 0.0, 0.0]])
    for stored in (noise.q, noise.r, noise.sigma0, from_list.poses, from_array.poses):
        with pytest.raises(ValueError, match="read-only"):
            stored[0] = 7.0


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel({})
    with pytest.raises(ValueError):
        NoiseModel({"dragon": ClassNoise(np.ones(11), np.ones(7), np.ones(11))})
    model = NoiseModel.default_covariance()
    assert "car" in model
    np.testing.assert_array_equal(np.diag(model.classes["car"].q), np.eye(11))
    np.testing.assert_array_equal(np.diag(model.classes["bus"].r), np.eye(7))


def test_save_load_round_trip(tmp_path):
    xs = positions_with_second_diffs([0.25, -0.25, -0.25, 0.25])
    gt = gt_dict([make_track(xs)])
    rng = np.random.default_rng(17)
    dets = {"s0": {}}
    for frame, boxes in gt["s0"].items():
        o = boxes[0]
        dets["s0"][frame] = [Box(o.x + rng.normal(0, 0.1), o.y + rng.normal(0, 0.1),
                                 o.z, o.a, o.l, o.w, o.h, "car", frame, "s0", score=0.9)]
    model = calibrate(gt, dets)
    path = tmp_path / "noise.json"
    save_noise_model(model, str(path))
    loaded = load_noise_model(str(path))
    for label, noise in model.classes.items():
        other = loaded.classes[label]
        # json round trips python floats exactly
        np.testing.assert_array_equal(noise.q, other.q)
        np.testing.assert_array_equal(noise.r, other.r)
        np.testing.assert_array_equal(noise.sigma0, other.sigma0)


def test_load_noise_model_errors(tmp_path):
    with pytest.raises(SchemaError, match="not found"):
        load_noise_model(str(tmp_path / "missing.json"))
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    with pytest.raises(SchemaError, match="JSON"):
        load_noise_model(str(bad_json))
    no_classes = tmp_path / "noclasses.json"
    no_classes.write_text("{\"format\": 1}")
    with pytest.raises(SchemaError, match="classes"):
        load_noise_model(str(no_classes))
    short = tmp_path / "short.json"
    short.write_text("{\"classes\": {\"car\": {\"q\": [1, 2], \"r\": [], \"sigma0\": []}}}")
    with pytest.raises(SchemaError, match="q"):
        load_noise_model(str(short))
    unknown = tmp_path / "unknown.json"
    unknown.write_text("{\"classes\": {\"wyvern\": {}}}")
    with pytest.raises(SchemaError, match="wyvern"):
        load_noise_model(str(unknown))
    negative = tmp_path / "negative.json"
    entry = {"q": [-1.0] + [0.0] * 10, "r": [0.0] * 7, "sigma0": [0.0] * 11}
    negative.write_text(str({"classes": {"car": entry}}).replace("'", '"'))
    with pytest.raises(SchemaError):
        load_noise_model(str(negative))
    # an integer literal beyond the float range used to raise OverflowError
    for name, size in (("q", 11), ("r", 7), ("sigma0", 11)):
        huge = {"q": [0.0] * 11, "r": [0.0] * 7, "sigma0": [0.0] * 11}
        huge[name] = [10 ** 400] + [0.0] * (size - 1)
        overflow = tmp_path / f"overflow_{name}.json"
        overflow.write_text(json.dumps({"classes": {"car": huge}}))
        with pytest.raises(SchemaError, match=name):
            load_noise_model(str(overflow))


# Bit-identity oracle: the estimates equal those of the straightforward
# per-triple and per-pair loops below, down to the last bit.

def reference_second_differences(track: GroundTruthTrack) -> np.ndarray:
    frames = np.array(track.frames)
    rows = []
    for idx in range(len(frames) - 2):
        if frames[idx + 1] - frames[idx] == 1 and frames[idx + 2] - frames[idx + 1] == 1:
            first = track.poses[idx + 1] - track.poses[idx]
            second = track.poses[idx + 2] - track.poses[idx + 1]
            first = np.concatenate([first[:3], wrap_angle_array(first[3:])])
            second = np.concatenate([second[:3], wrap_angle_array(second[3:])])
            rows.append(second - first)
    return np.array(rows) if rows else np.empty((0, 4))


def reference_noise(ground_truth, detections, pooled: bool) -> dict:
    """label -> (q, r, sigma0) from one residual per matched pair."""
    tracks = tracks_from_ground_truth(ground_truth)
    samples: dict = {}
    for track in tracks:
        diffs = reference_second_differences(track)
        samples.setdefault(track.class_label, []).extend([diffs] if len(diffs) else [])
    q = {}
    for label in sorted(samples):
        rows = ([d for per_class in samples.values() for d in per_class] if pooled
                else samples[label])
        pose_var = np.var(np.concatenate(rows), axis=0)
        q[label] = np.concatenate([pose_var, np.zeros(3), pose_var])

    residuals: dict = {label: [] for label in q}
    for scene_id, frame_index in sorted((scene_id, frame_index)
                                        for scene_id, frames in ground_truth.items()
                                        for frame_index in frames):
        labeled = [(box.class_label, box) for box in ground_truth[scene_id][frame_index]]
        frame_detections = detections.get(scene_id, {}).get(frame_index, [])
        for label in sorted({lab for lab, _ in labeled}):
            gt_obs = [obs for lab, obs in labeled if lab == label]
            det_obs = [d for d in frame_detections if d.class_label == label]
            if not det_obs:
                continue
            for gi, dj in greedy_center_match(gt_obs, det_obs, CALIBRATION_GATE).pairs:
                residuals[label].append(
                    observation_residual(*observation_rows([det_obs[dj], gt_obs[gi]])))
    out = {}
    for label in q:
        rows = ([nu for per_class in residuals.values() for nu in per_class] if pooled
                else residuals[label])
        r = np.var(np.array(rows), axis=0)
        out[label] = (q[label], r, np.concatenate([r, q[label][7:11]]))
    return out


def seeded_split(seed: int):
    """Ground truth and detections over three scenes and three classes.

    Tracks drop frames at random (gaps), some cover one or two frames,
    yaws start next to the +-pi seam and turn across it, and detections
    miss, stray past the 2 m gate and add false positives.
    """
    rng = np.random.default_rng(seed)
    ground_truth: dict = {}
    detections: dict = {}
    for scene_id in ("s-a", "s-b", "s-c"):
        gt_frames = ground_truth.setdefault(scene_id, {})
        det_frames = detections.setdefault(scene_id, {})
        for index in range(12):
            label = ("car", "pedestrian", "bus")[index % 3]
            length = (1, 2, 3, 6, 25)[int(rng.integers(5))]
            start = int(rng.integers(0, 8))
            frames = [f for f in range(start, start + length) if rng.random() > 0.15]
            x, y, z = rng.uniform(-60.0, 60.0, size=3)
            vx, vy = rng.normal(0.0, 1.0, size=2)
            yaw = float(rng.choice([math.pi - 0.04, -math.pi + 0.04, 0.3]))
            turn = float(rng.normal(0.0, 0.05))
            size = rng.uniform(0.5, 5.0, size=3)
            for frame in range(start, start + length):
                x, y = x + vx + rng.normal(0.0, 0.1), y + vy + rng.normal(0.0, 0.1)
                z += rng.normal(0.0, 0.02)
                yaw = wrap_angle(yaw + turn + rng.normal(0.0, 0.02))
                if frame not in frames:
                    continue
                gt_frames.setdefault(frame, []).append(
                    Box(float(x), float(y), float(z), yaw, *size.tolist(), label, frame, scene_id,
                        instance_id=f"i{index}"))
                if rng.random() < 0.15:
                    continue
                dx, dy, dz = rng.normal(0.0, 0.8, size=3)
                det = Box(float(x + dx), float(y + dy), float(z + dz),
                          wrap_angle(yaw + rng.normal(0.0, 0.1)),
                          *np.maximum(size + rng.normal(0.0, 0.1, size=3), 0.1).tolist(),
                          label, frame, scene_id, score=0.5)
                det_frames.setdefault(frame, []).append(det)
        for frame in range(40):
            for _ in range(int(rng.poisson(0.5))):
                label = ("car", "pedestrian", "bus", "truck")[int(rng.integers(4))]
                fp = Box(*rng.uniform(-60.0, 60.0, size=3).tolist(),
                         float(rng.uniform(-math.pi, math.pi)), 1.0, 1.0, 1.0,
                         label, frame, scene_id, score=0.2)
                det_frames.setdefault(frame, []).append(fp)
    return ground_truth, detections


@pytest.mark.parametrize("seed", [3, 17, 2024])
@pytest.mark.parametrize("pooled", [False, True])
def test_calibration_is_bit_identical_to_per_pair_loops(seed, pooled):
    ground_truth, detections = seeded_split(seed)
    tracks = tracks_from_ground_truth(ground_truth)
    assert {len(t.frames) for t in tracks} >= {1, 2}
    for track in tracks:
        diffs = _second_differences(track)
        expected = reference_second_differences(track)
        assert diffs.shape == expected.shape and np.array_equal(diffs, expected)
    model = calibrate(ground_truth, detections, pooled=pooled)
    expected = reference_noise(ground_truth, detections, pooled)
    assert sorted(model.classes) == sorted(expected) == ["bus", "car", "pedestrian"]
    for label, (q, r, sigma0) in expected.items():
        noise = model.classes[label]
        assert np.array_equal(noise.q, q)
        assert np.array_equal(noise.r, r)
        assert np.array_equal(noise.sigma0, sigma0)


def test_tracks_follow_frame_order_not_insertion_order():
    a = make_track([0.0, 1.0, 2.5], frames=[0, 1, 2])
    b = make_track([9.0, 8.0], instance="i1", frames=[1, 2])
    scattered = gt_dict([a, b])
    reversed_frames = {scene: dict(reversed(list(frames.items())))
                       for scene, frames in scattered.items()}
    for ground_truth in (scattered, reversed_frames):
        tracks = tracks_from_ground_truth(ground_truth)
        assert [t.instance_id for t in tracks] == ["i0", "i1"]
        assert [t.frames for t in tracks] == [(0, 1, 2), (1, 2)]
        np.testing.assert_array_equal(tracks[0].poses, a.poses)
        np.testing.assert_array_equal(tracks[1].poses, b.poses)
