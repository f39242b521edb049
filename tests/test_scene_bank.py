"""One track bank per scene, held to the per-class tracker it replaced.

ReferenceTracker is the tracker with one bank per class: each frame runs
a full predict -> affinity -> match -> update round for every class that
has tracks or detections, in label order.  MultiObjectTracker does the
filter and affinity work of all classes in one call each and matches
per class; its outputs must equal the reference's bit for bit.
"""

import math
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mot3d import association
from mot3d import tracker as tracker_module
from mot3d.association import (MATCHERS, greedy_match, iou_affinity, mahalanobis_affinity,
                               orientation_correct)
from mot3d.calibration import calibrate
from mot3d.core import ANGLE_INDEX, OBS_DIM, STATE_DIM, checked_rows, observation_rows, trusted_box
from mot3d.dataset_io import DEFAULT_MAHA_GATE, RunConfig
from mot3d.errors import NumericalError
from mot3d.kalman import predict, update
from mot3d.synthetic import (generate_suite, standard_suite, standard_suite_calibration,
                             turning_scenario)
from mot3d.tracker import FrameOutput, MultiObjectTracker, SceneStats, Track
from tests.test_tracker import det, hand_noise


class ReferenceTracker:
    """The tracker with one bank per class and one full round per class and frame.

    Input checks are left out: the scenes fed to it are valid.
    """

    def __init__(self, noise, config):
        self.config = config
        self.tracks = []
        self.stats = SceneStats()
        self._next_id = 1
        self._matrices = {}
        self._banks = {}  # label -> (tracks in track_id order, their means and covariances)
        for label, entry in noise.classes.items():
            q, sigma0 = np.diag(entry.q), np.diag(entry.sigma0)
            if not config.angular_velocity:
                q[10, 10] = sigma0[10, 10] = 0.0
            self._matrices[label] = (q, np.diag(entry.r), sigma0)
            self._banks[label] = ([], np.empty((0, STATE_DIM)), np.empty((0, STATE_DIM, STATE_DIM)))

    def step(self, frame_index, detections) -> FrameOutput:
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
        return FrameOutput(frame_index, tuple(
            trusted_box(*row, t.class_label, frame_index,
                        score=t.score_sum / t.score_count if running_mean else t.last_score,
                        track_id=t.track_id)
            for t, row in zip(confirmed, rows.tolist())))

    def _hit(self, track, score):
        track.consecutive_hits += 1
        track.consecutive_misses = 0
        track.last_score = score
        track.score_sum += score
        track.score_count += 1
        if not track.confirmed and track.consecutive_hits >= self.config.birth_hits:
            track.confirmed = True
            self.stats.confirmed += 1

    def _step_class(self, label, detections):
        config = self.config
        q, r, sigma0 = self._matrices[label]
        tracks, means, covs = self._banks[label]
        detected = observation_rows(d.observation for d in detections)

        pairs = ()
        if tracks:
            prediction = predict(means, covs, q, r)
            means, covs = prediction.mean, prediction.cov
            if detections:
                if config.affinity == "iou":
                    distances = 1.0 - iou_affinity(prediction, detected).values
                    limit = 1.0 - config.iou_threshold
                else:
                    distances = mahalanobis_affinity(prediction, detected).values
                    limit = config.class_maha_thresholds.get(label, config.maha_threshold)
                pairs = MATCHERS[config.matcher](distances, limit).pairs

        rows, cols = [i for i, _ in pairs], [j for _, j in pairs]
        if pairs:
            yaws = orientation_correct(means[rows, ANGLE_INDEX], detected[cols, ANGLE_INDEX])
            means[rows], covs[rows] = update(prediction, detected[cols], yaws, rows)
            for i, j in pairs:
                self._hit(tracks[i], detections[j].score)

        for i in sorted(set(range(len(tracks))).difference(rows)):
            tracks[i].consecutive_misses += 1
            tracks[i].consecutive_hits = 0
        keep = [i for i, t in enumerate(tracks) if t.consecutive_misses < config.death_misses]
        if len(keep) < len(tracks):
            self.stats.died += len(tracks) - len(keep)
            tracks, means, covs = [tracks[i] for i in keep], means[keep], covs[keep]

        born = sorted(set(range(len(detections))).difference(cols))
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


def assert_same_as_reference(frames, noise, config):
    """Every frame's output of both trackers has the same repr, and so do the final stats."""
    tracker, reference = MultiObjectTracker(noise, config), ReferenceTracker(noise, config)
    for frame_index, detections in frames.items():
        # float reprs round-trip, so equal reprs mean equal bits
        assert repr(tracker.step(frame_index, detections)) == \
            repr(reference.step(frame_index, detections))
    assert tracker.stats == reference.stats
    assert [(t.track_id, t.mean.tobytes(), t.cov.tobytes()) for t in tracker.tracks] == \
        [(t.track_id, t.mean.tobytes(), t.cov.tobytes()) for t in reference.tracks]


@pytest.fixture(scope="module")
def suite_noise():
    return calibrate(*generate_suite([standard_suite_calibration()]))


@pytest.fixture(scope="module")
def multi_class_scenes():
    # scene i of standard_suite(seed=s) is drawn from seed s + i, so the
    # scenes of seeds 0-5 are the eight scenes drawn from seeds 0-7
    _, detections = generate_suite(standard_suite(seed=0, scenes=8) + [turning_scenario()])
    return detections


CONFIGS = {
    "mahalanobis-greedy": RunConfig(),
    "mahalanobis-hungarian": RunConfig(matcher="hungarian"),
    "iou-greedy": RunConfig(affinity="iou"),
    "iou-hungarian": RunConfig(affinity="iou", matcher="hungarian"),
    "class-gates": RunConfig(class_maha_thresholds={"pedestrian": 2.0, "bus": 40.0}),
    "no-angular-velocity": RunConfig(angular_velocity=False),
    "running-mean": RunConfig(score_mode="running_mean"),
}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS)
def test_the_scene_bank_equals_the_per_class_trackers(config, suite_noise, multi_class_scenes):
    classes_per_frame = []
    for frames in multi_class_scenes.values():
        assert_same_as_reference(frames, suite_noise, config)
        classes_per_frame += [len({d.class_label for d in boxes}) for boxes in frames.values()]
    assert max(classes_per_frame) == 3


# Cells drawn from a few values so that ties, limits met exactly and
# non-finite entries are common.
DISTANCES = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0, DEFAULT_MAHA_GATE, math.inf,
                                       -math.inf, math.nan]),
                      st.floats(0.0, 50.0))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_one_greedy_pass_equals_the_per_class_passes(data):
    # the tracker matches every class of a frame in one greedy call; it
    # must pick the pairs, in the order, that one greedy call per class
    # under the class's own limit picks.  Limits lie below and above the
    # global gate, one of them an int.  Under Mahalanobis the cells
    # between classes read inf; under IOU they read 1 against 1 - T.
    shape = data.draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)),
                               min_size=1, max_size=4))
    iou = data.draw(st.booleans())
    if iou:
        limits = [1.0 - data.draw(st.sampled_from([0.1, 0.5, 1e-20]))] * len(shape)
    else:
        limits = data.draw(st.lists(st.sampled_from([DEFAULT_MAHA_GATE, 0.5, 2.0, 40.0, 3]),
                                    min_size=len(shape), max_size=len(shape)))
    blocks, r0, c0 = [], 0, 0
    for rows, cols in shape:
        blocks.append((slice(r0, r0 + rows), slice(c0, c0 + cols)))
        r0, c0 = r0 + rows, c0 + cols
    distances = np.full((r0, c0), 1.0 if iou else math.inf)
    for rows, cols in blocks:
        cells = distances[rows, cols]
        cells[...] = np.reshape(data.draw(st.lists(DISTANCES, min_size=cells.size,
                                                   max_size=cells.size)), cells.shape)

    expected_rows, expected_cols = [], []
    for (rows, cols), limit in zip(blocks, limits):
        pairs = greedy_match(distances[rows, cols], limit).pairs
        expected_rows += [rows.start + i for i, _ in pairs]
        expected_cols += [cols.start + j for _, j in pairs]
    limits_seen = []

    def greedy(cells, limit):
        limits_seen.append(limit)
        return greedy_match(cells, limit)

    with unittest.mock.patch.dict(tracker_module.MATCHERS, greedy=greedy):
        rows, cols = tracker_module._greedy_pairs(distances.copy(), blocks, limits)
    assert (rows, cols) == (expected_rows, expected_cols)
    assert len(limits_seen) == 1 and type(limits_seen[0]) is float


def test_fresh_ids_go_by_class_label_then_input_order():
    # detections listed against label order: a pedestrian, a car, a bus, a car
    frames = {0: [det(0, x=0.0, label="pedestrian"), det(0, x=10.0), det(0, x=20.0, label="bus"),
                  det(0, x=30.0)]}
    noise, config = hand_noise(("bus", "car", "pedestrian")), RunConfig(birth_hits=1)
    assert_same_as_reference(frames, noise, config)
    records = MultiObjectTracker(noise, config).step(0, frames[0]).records
    assert [(box.track_id, box.class_label, box.observation.x) for box in records] == [
        (1, "bus", 20.0), (2, "car", 10.0), (3, "car", 30.0), (4, "pedestrian", 0.0)]


@pytest.mark.parametrize("affinity", ["mahalanobis", "iou"])
def test_pairs_of_two_classes_are_never_scored(affinity):
    # any residual, center distance or clip between the car at +1e308 and
    # the pedestrian at -1e308 would overflow
    frames = {k: [det(k, x=1e308), det(k, x=-1e308, label="pedestrian", size=(0.8, 0.6, 1.7))]
              for k in range(4)}
    noise, config = hand_noise(("car", "pedestrian")), RunConfig(affinity=affinity, birth_hits=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        outputs = [output.records for output in
                   (MultiObjectTracker(noise, config).step(k, frames[k]) for k in frames)]
        assert_same_as_reference(frames, noise, config)
    assert all({box.class_label for box in records} == {"car", "pedestrian"}
               for records in outputs)
    if affinity == "mahalanobis":
        assert [[box.track_id for box in records] for records in outputs] == [[1, 2]] * 4


def test_an_affinity_leaves_the_cells_outside_its_blocks_unscored(monkeypatch):
    tracker = MultiObjectTracker(hand_noise(("car", "pedestrian")))
    boxes = [det(0, x=1e308), det(0, x=-1e308, label="pedestrian", size=(0.8, 0.6, 1.7))]
    tracker.step(0, boxes)
    prediction = predict(tracker._means, tracker._covs, tracker._q, tracker._r)
    detected = observation_rows(box.observation for box in sorted(
        boxes, key=lambda box: box.class_label))
    blocks = [(slice(0, 1), slice(0, 1)), (slice(1, 2), slice(1, 2))]
    measured = []
    real_center_distances = association.center_distances
    monkeypatch.setattr(association, "center_distances",
                        lambda a, b: measured.append((len(a), len(b)))
                        or real_center_distances(a, b))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        distances = mahalanobis_affinity(prediction, detected, blocks=blocks).values
        overlaps = iou_affinity(prediction, detected, blocks=blocks).values
    assert distances[0, 1] == distances[1, 0] == math.inf
    assert math.isfinite(distances[0, 0]) and math.isfinite(distances[1, 1])
    assert overlaps[0, 1] == overlaps[1, 0] == 0.0
    assert measured == [(1, 1), (1, 1)]


def spoil_for_update(track):
    """Make a track's next update fail while its innovation stays finite and positive definite.

    After the predict, Sigma[4, 8] is 1.5e308 on both sides of the
    diagonal, and symmetrizing overflows it to inf; the l-y term it adds
    to is cancelled by Sigma[4, 1], so S keeps its finite values.
    """
    track.cov[4, 8] = track.cov[8, 4] = 1.5e308
    track.cov[4, 1] = track.cov[1, 4] = -1.5e308


@pytest.mark.parametrize("bus_fails_in, car_fails_in, named", [
    ("update", "affinity", "class car, track 2"),
    ("affinity", "affinity", "class bus, track 1"),
    ("update", "update", "class bus, track 1"),
    ("affinity", "update", "class bus, track 1"),
])
def test_affinity_rows_fail_before_update_rows_then_by_class(bus_fails_in, car_fails_in, named):
    # a frame scores the rows of every class before it updates any: the
    # first failing row is an affinity row if there is one, each stage
    # taking its classes in label order
    tracker = MultiObjectTracker(hand_noise(("bus", "car")))
    x = {"bus": 0.0, "car": 0.0}
    for label, fails_in in (("bus", bus_fails_in), ("car", car_fails_in)):
        if fails_in == "affinity":
            x[label] = 1e308  # the residual of the next frame's -1e308 overflows
    for frame in (0, 1):
        tracker.step(frame, [det(frame, x=x["bus"], y=0.0, label="bus", size=(12.0, 2.5, 3.0)),
                             det(frame, x=x["car"], y=12.0)])
    for track in tracker.tracks:
        if {"bus": bus_fails_in, "car": car_fails_in}[track.class_label] == "update":
            spoil_for_update(track)
    x = {label: -value for label, value in x.items()}
    # the spoiled covariance overflows by design
    with np.errstate(over="ignore"), pytest.raises(NumericalError) as info:
        tracker.step(2, [det(2, x=x["bus"], y=0.0, label="bus", size=(12.0, 2.5, 3.0)),
                         det(2, x=x["car"], y=12.0)])
    assert str(info.value).startswith(f"frame 2, {named}: residual or covariance is not finite")
