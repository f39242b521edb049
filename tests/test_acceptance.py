"""End-to-end guarantees of the toolkit, one test per guarantee.

Each test prints the measured values it gates on, so a verbose run
doubles as a small report.  Everything here is deterministic: fixed
seeds, fixed scenario presets, no tolerance slack beyond what each
test states.
"""

import dataclasses
import itertools
import math
import time

import numpy as np

from mot3d.association import hungarian_match, iou_pairs
from mot3d.calibration import ClassNoise, NoiseModel, calibrate
from mot3d.core import OBS_DIM, STATE_DIM, Box, Observation, observation_rows, wrap_angle
from mot3d.dataset_io import RunConfig
from mot3d.kalman import predict
from mot3d.metrics import amota, motar
from mot3d.synthetic import (calibration_scenario, generate, generate_suite,
                             noiseless_scene, standard_suite,
                             standard_suite_calibration, turning_scenario)
from mot3d.tracker import boxes_by_frame, run_scene
from tests.test_iou3d import mc_iou
from tests.test_kalman import (angle_aware_diff, build_transition,
                               oracle_predict, oracle_update_conditioning,
                               oracle_update_inverse, random_estimate,
                               random_spd, update_one_row)

ANGLE = 3


# ---------------------------------------------------------------- filter


def np_dense_predict(estimate, q):
    """Dense-matrix predict oracle in plain numpy matrix algebra."""
    a = np.array(build_transition())
    mean, covariance = estimate
    mu = a @ mean
    mu[ANGLE] = wrap_angle(mu[ANGLE])
    cov = a @ covariance @ a.T + q
    cov = 0.5 * (cov + cov.T)
    return mu, cov, cov[:OBS_DIM, :OBS_DIM]


def test_filter_algebra_matches_independent_oracles_1000x():
    """Predict/update vs dense-matrix and Gaussian-conditioning oracles.

    1000 random SPD instances, agreement within 1e-8, wall time < 5 s.
    The implementation solves via Cholesky factors; the oracles use an
    explicit inverse and a joint-Gaussian Schur complement.
    """
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst_mean = 0.0
    worst_cov = 0.0
    for index in range(1000):
        estimate = random_estimate(rng)
        q = random_spd(rng, STATE_DIM, scale=0.5)
        r = random_spd(rng, OBS_DIM, scale=0.5)

        prediction = predict(*estimate, q, r)
        mu_hat, sigma_hat, s_block = np_dense_predict(estimate, q)
        got_mu = prediction.mean
        assert np.all(angle_aware_diff(got_mu, mu_hat) < 1e-8)
        np.testing.assert_allclose(prediction.cov,
                                   sigma_hat, atol=1e-8)
        np.testing.assert_allclose(prediction.innovation_cov, s_block + r,
                                   atol=1e-8)
        if index < 25:
            # slow pure-python triple-loop oracle on a subset
            mu_py, sigma_py, _ = oracle_predict(estimate, q)
            assert np.all(angle_aware_diff(got_mu, mu_py) < 1e-8)
            np.testing.assert_allclose(prediction.cov,
                                       sigma_py, atol=1e-8)

        obs_arr = prediction.mean[:OBS_DIM] + rng.normal(size=OBS_DIM)
        obs_arr[ANGLE] = wrap_angle(obs_arr[ANGLE])
        obs_arr[4:7] = np.abs(obs_arr[4:7]) + 0.2
        got, posterior_cov = update_one_row(prediction, obs_arr)
        mu_a, cov_a = oracle_update_inverse(prediction, obs_arr)
        mu_b, cov_b = oracle_update_conditioning(prediction, obs_arr)
        assert np.all(angle_aware_diff(got, mu_a) < 1e-8)
        assert np.all(angle_aware_diff(got, mu_b) < 1e-8)
        np.testing.assert_allclose(posterior_cov, cov_a, atol=1e-8)
        np.testing.assert_allclose(posterior_cov, cov_b, atol=1e-8)
        worst_mean = max(worst_mean, float(angle_aware_diff(got, mu_a).max()),
                         float(angle_aware_diff(got, mu_b).max()))
        worst_cov = max(worst_cov,
                        float(np.abs(posterior_cov - cov_a).max()),
                        float(np.abs(posterior_cov - cov_b).max()))
    elapsed = time.perf_counter() - started
    print(f"filter algebra: 1000 instances, worst mean err {worst_mean:.2e}, "
          f"worst cov err {worst_cov:.2e}, {elapsed:.2f}s")
    assert elapsed < 5.0


# ------------------------------------------------------------- matching


def test_optimal_matching_equals_brute_force_100x():
    """Hungarian assignment cost == 6!-enumeration, exactly, 100 matrices."""
    rng = np.random.default_rng(7)
    for _ in range(100):
        values = rng.uniform(0.0, 10.0, size=(6, 6))
        result = hungarian_match(values, math.inf)
        assert len(result.pairs) == 6
        got_cost = sum(values[pair] for pair in sorted(result.pairs))
        best = math.inf
        for perm in itertools.permutations(range(6)):
            cost = sum(values[i][perm[i]] for i in range(6))
            if cost < best:
                best = cost
        assert got_cost == best
    print("optimal matching: 100 random 6x6 matrices match brute force exactly")


# ------------------------------------------------------------- box IOU


def test_box_overlap_matches_million_point_monte_carlo():
    """iou_pairs vs a 1e6-point Monte-Carlo estimate on 200 box pairs.

    Tolerance 2e-3 (several MC standard deviations); analytic spots
    exact to 1e-12.
    """
    same = Observation(1.0, -2.0, 0.5, 0.7, 4.2, 1.9, 1.6)
    cube = Observation(0, 0, 0, 0, 1, 1, 1)
    shifted = Observation(0.5, 0, 0, 0, 1, 1, 1)
    spots = iou_pairs(observation_rows([same, cube]), observation_rows([same, shifted]))
    assert abs(spots[0] - 1.0) < 1e-12
    assert abs(spots[1] - 1.0 / 3.0) < 1e-12

    rng = np.random.default_rng(31)
    pairs, estimates = [], []
    for _ in range(200):
        a = Observation(rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-1, 1),
                        rng.uniform(-math.pi, math.pi),
                        rng.uniform(1, 5), rng.uniform(1, 4), rng.uniform(1, 3))
        b = Observation(a.x + rng.uniform(-1.5, 1.5), a.y + rng.uniform(-1.5, 1.5),
                        a.z + rng.uniform(-0.5, 0.5),
                        rng.uniform(-math.pi, math.pi),
                        rng.uniform(1, 5), rng.uniform(1, 4), rng.uniform(1, 3))
        pairs.append((a, b))
        estimates.append(mc_iou(a, b, rng, samples=1_000_000))
    exact = iou_pairs(observation_rows(a for a, _ in pairs), observation_rows(b for _, b in pairs))
    errors = np.abs(exact - np.array(estimates))
    worst = float(errors.max())
    assert (errors < 2e-3).all()
    print(f"box overlap: 200 pairs vs 1e6-point MC, worst |err| {worst:.2e}")


# ---------------------------------------------------------- calibration


def test_calibration_recovers_known_noise_within_ten_percent():
    """Known sigmas: acceleration 0.1, observation 0.3, 1e4 samples.

    Recovered Q_xx must land within 10% of 0.01 and R_xx within 10%
    of 0.09, at the scenario's fixed seed.
    """
    spec = calibration_scenario()
    assert len(spec.objects) * (spec.frame_count - 2) == 10_000
    assert spec.noise.accel_sigma[0] == 0.1
    assert spec.noise.position_sigma[0] == 0.3
    ground_truth, detections = generate_suite([spec])
    model = calibrate(ground_truth, detections)
    q_xx = model.classes["car"].q[0]
    r_xx = model.classes["car"].r[0]
    print(f"calibration: Q_xx {q_xx:.6f} (true 0.01), R_xx {r_xx:.6f} (true 0.09)")
    assert 0.009 <= q_xx <= 0.011
    assert 0.081 <= r_xx <= 0.099


# ------------------------------------------------------ noiseless scene


def test_noiseless_scene_tracks_perfectly_under_one_second():
    """5 objects, 50 frames, zero noise: AMOTA exactly 1.0, zero id
    switches, tracked and scored in under a second.

    Immediate reporting (birth_hits=1) keeps the first two frames of
    every object in the output; any birth delay would leave unreachable
    recall targets and cap the score below one.
    """
    spec = noiseless_scene()
    ground_truth, detections = generate_suite([spec])
    noise = NoiseModel.default_covariance()
    config = RunConfig(birth_hits=1)
    started = time.perf_counter()
    tracks = {spec.scene_id: boxes_by_frame(
        run_scene(detections[spec.scene_id], noise, config))}
    report = amota(tracks, ground_truth, n=40)
    elapsed = time.perf_counter() - started
    switches = sum(sample.ids
                   for entry in report.classes.values()
                   for sample in entry.samples)
    print(f"noiseless scene: amota {report.overall_amota}, "
          f"id switches {switches}, {elapsed:.2f}s")
    assert report.overall_amota == 1.0
    for label, entry in report.classes.items():
        assert entry.amota == 1.0, label
    assert switches == 0
    assert elapsed < 1.0


# ------------------------------------------------- directional ablation


def test_distance_affinity_beats_overlap_on_fast_small_objects():
    """Calibrated Mahalanobis association vs IOU-at-0.25 association.

    On the standard noisy suite, whose pedestrians displace farther
    per frame than their own footprint, the distance affinity must win
    overall and win by the largest margin on the smallest class.
    """
    suite = standard_suite()
    for spec in suite:
        for obj in spec.objects:
            if obj.class_label == "pedestrian":
                speed = math.hypot(obj.vx, obj.vy)
                assert speed > max(obj.extents()[0], obj.extents()[1])

    cal_gt, cal_det = generate_suite([standard_suite_calibration()])
    noise = calibrate(cal_gt, cal_det)
    ground_truth, detections = generate_suite(suite)

    def score(config):
        tracks = {scene_id: boxes_by_frame(run_scene(detections[scene_id], noise, config))
                  for scene_id in sorted(detections)}
        return amota(tracks, ground_truth, n=40)

    maha = score(RunConfig(affinity="mahalanobis", matcher="greedy"))
    overlap = score(RunConfig(affinity="iou", iou_threshold=0.25, matcher="greedy"))
    gaps = {label: maha.classes[label].amota - overlap.classes[label].amota
            for label in maha.classes}
    footprint = {"pedestrian": 0.4 * 0.4, "car": 4.5 * 1.9, "bus": 11.0 * 2.9}
    smallest = min(gaps, key=lambda label: footprint[label])
    print(f"ablation: mahalanobis {maha.overall_amota:.4f} vs "
          f"iou@0.25 {overlap.overall_amota:.4f}; gaps {{"
          + ", ".join(f"{k}: {v:+.3f}" for k, v in sorted(gaps.items())) + "}")
    assert maha.overall_amota > overlap.overall_amota
    assert smallest == "pedestrian"
    assert gaps[smallest] == max(gaps.values())
    assert gaps[smallest] > 0.0


# -------------------------------------------------------- lifecycle


def reference_visibility(pattern, birth_hits=3, death_misses=2):
    """Tiny independent model of when a confirmed track is reported."""
    alive = confirmed = False
    hits = misses = 0
    visible = []
    for hit in pattern:
        if not alive:
            if hit:
                alive = True
                hits, misses = 1, 0
                confirmed = hits >= birth_hits
        elif hit:
            hits += 1
            misses = 0
            confirmed = confirmed or hits >= birth_hits
        else:
            misses += 1
            hits = 0
            if misses >= death_misses:
                alive = confirmed = False
        visible.append(alive and confirmed)
    return visible


def test_track_lifecycle_is_exhaustively_correct():
    """Every hit/miss pattern of 7 frames reproduces the reference
    lifecycle: confirm on the 3rd consecutive hit, coast one miss,
    disappear for good on the 2nd.
    """
    q = np.array([0.01] * 4 + [0.0] * 3 + [0.01] * 4)
    r = np.full(7, 0.05)
    noise = NoiseModel({"car": ClassNoise(q, r, np.concatenate([r, np.ones(4)]))})
    checked = 0
    for bits in itertools.product((0, 1), repeat=7):
        frames = {}
        for frame, hit in enumerate(bits):
            frames[frame] = []
            if hit:
                frames[frame] = [Box(Observation(0, 0, 0, 0, 4, 2, 1.5),
                                     "car", frame, "s", score=0.9)]
        outputs = run_scene(frames, noise)
        got = [len(out.records) > 0 for out in outputs]
        assert got == reference_visibility(bits), bits
        checked += 1
        # two detections total can never reach three consecutive hits
        if sum(bits) <= 2:
            assert not any(got), bits
    assert checked == 128
    # spot sequence: confirm, coast one miss, die, start over tentative
    spot = reference_visibility((1, 1, 1, 0, 0, 1, 1))
    assert spot == [False, False, True, True, False, False, False]
    print("lifecycle: all 128 hit/miss patterns match the reference model")


# ------------------------------------------------------ turning object


def test_turning_object_heading_needs_angular_velocity():
    """A noiseless constant-yaw-rate object: with yaw rate in the
    state the heading error falls below 1e-6 rad from frame 5 on;
    without it, the error exceeds the per-frame yaw rate itself.
    """
    spec = turning_scenario()
    yaw_rate = spec.objects[0].yaw_rate
    ground_truth, detections = generate(spec)
    q = np.array([0.01] * 4 + [0.0] * 3 + [0.01] * 4)
    r = np.array([0.25, 0.25, 0.25, 0.5, 0.01, 0.01, 0.01])
    # near-uninformative initial velocity block: the second update
    # locks onto the observed per-frame motion almost exactly
    sigma0 = np.concatenate([r, np.full(4, 1e8)])
    noise = NoiseModel({"car": ClassNoise(q, r, sigma0)})

    def heading_errors(angular_velocity):
        config = RunConfig(birth_hits=1, angular_velocity=angular_velocity)
        outputs = run_scene(detections, noise, config)
        errors = {}
        for out in outputs:
            truth = ground_truth[out.frame_index][0].observation.a
            assert len(out.records) == 1
            errors[out.frame_index] = abs(wrap_angle(out.records[0].observation.a - truth))
        return errors

    with_rate = heading_errors(True)
    without = heading_errors(False)
    settled = max(err for frame, err in with_rate.items() if frame >= 5)
    final = without[max(without)]
    print(f"turning object: settled heading err {settled:.2e} with yaw rate, "
          f"final err {final:.3f} without (rate {yaw_rate})")
    assert settled < 1e-6
    assert final > yaw_rate


# ------------------------------------------------------ metric formulas


def test_metric_formulas_spot_values_and_invariance():
    """Recall-normalized accuracy: exact spot values and invariance of
    the averaged score under monotone score transforms.
    """
    assert motar(0, 0, 0, 10, 1.0) == 1.0
    assert motar(10, 20, 30, 100, 0.5) == 0.8
    assert motar(100, 100, 100, 10, 0.5) == 0.0

    rng = np.random.default_rng(19)
    size = (4.0, 2.0, 1.5)
    gt: dict = {"s": {}}
    tracks: dict = {"s": {}}
    for frame in range(12):
        gt["s"][frame] = [
            Box(Observation(10.0 * obj, 0.4 * frame, 0, 0, *size),
                "car", frame, "s", instance_id=f"obj{obj}")
            for obj in range(3)]
        boxes = []
        for obj in range(3):
            if rng.random() < 0.15:
                continue  # occasional miss
            track_id = obj + 1 if frame < 6 or obj != 1 else 9  # one switch
            boxes.append(Box(
                Observation(10.0 * obj + rng.normal(0, 0.3),
                            0.4 * frame + rng.normal(0, 0.3), 0, 0, *size),
                "car", frame, "s", score=float(rng.uniform(0.3, 1.0)),
                track_id=track_id))
        if rng.random() < 0.3:
            boxes.append(Box(Observation(77.0, 0, 0, 0, *size), "car", frame, "s",
                             score=float(rng.uniform(0.1, 0.6)),
                             track_id=50 + frame))
        tracks["s"][frame] = boxes

    def remap(transform):
        remapped = {"s": {}}
        for frame, boxes in tracks["s"].items():
            remapped["s"][frame] = [
                dataclasses.replace(b, score=float(transform(b.score)))
                for b in boxes]
        return amota(remapped, gt, n=11)

    base = remap(lambda s: s)
    assert 0.0 < base.overall_amota < 1.0  # errors present, score informative
    for transform in (lambda s: s ** 2, lambda s: 0.3 + 0.7 * s,
                      lambda s: math.sqrt(s)):
        other = remap(transform)
        assert other.overall_amota == base.overall_amota
        for sample, sample2 in zip(base.classes["car"].samples,
                                   other.classes["car"].samples):
            assert sample.motar == sample2.motar
            assert sample.achieved_recall == sample2.achieved_recall
    print(f"metric formulas: spot values exact, amota {base.overall_amota:.4f} "
          "invariant under 3 monotone transforms")
