"""Benchmark workloads: the inputs each one generates and the pass it times.

A pass makes the calls ``mot3d calibrate``, ``mot3d track --jobs 1``
and ``mot3d evaluate`` make, on files written during set-up, and
scores the confirmed tracks with one MOTA sweep of
``metrics.match_frame``.  Every call goes through a module attribute
(``dataset_io.load_detections``, ``metrics.amota``, ...) so a traced
pass sees the wrappers that ``layers.Tracer`` installs.

Workloads run closed-loop: one caller, one thread, each call waits for
the previous one.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass

from mot3d import calibration, dataset_io, metrics, synthetic
from mot3d import tracker as tracker_module
from mot3d.errors import Mot3dError

MAHALANOBIS_GREEDY = dataset_io.RunConfig()
IOU_HUNGARIAN = dataset_io.RunConfig(affinity="iou", matcher="hungarian")

# Evaluation settings of `mot3d evaluate`.
AMOTA_SAMPLES = 40


@dataclass(frozen=True)
class Workload:
    calibrate: bool          # run the `mot3d calibrate` leg first
    config: dataset_io.RunConfig
    amota: bool              # run the AMOTA sweep of `mot3d evaluate`


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    "suite": Workload(calibrate=True, config=MAHALANOBIS_GREEDY, amota=True),
    "dense": Workload(calibrate=False, config=MAHALANOBIS_GREEDY, amota=False),
    "dense-iou": Workload(calibrate=False, config=IOU_HUNGARIAN, amota=False),
    "calibrate": Workload(calibrate=True, config=MAHALANOBIS_GREEDY, amota=False),
}


def scenario_specs(workload: str, seed: int, smoke: bool = False) -> dict:
    """Scenario specs per input role: 'cal' (calibration split) and 'eval'.

    The same seed always gives the same specs.  `smoke` shrinks every
    scene so the harness can be exercised in seconds.
    """
    if workload == "suite":
        # Seed 11 gives the `standard` and `standard-calibration` presets.
        scenes = 1 if smoke else 3
        frames = 12 if smoke else 50
        return {"cal": [synthetic.standard_suite_calibration(seed=seed + 1)],
                "eval": synthetic.standard_suite(seed=seed, scenes=scenes,
                                                 frame_count=frames)}
    if workload in ("dense", "dense-iou"):
        # Every frame after the first scores all 100x100 pairs; 10 frames
        # let one run repeat the scene several times.
        objects, frames = (16, 6) if smoke else (100, 10)
        return {"eval": [synthetic.calibration_scenario(
            scene_id="dense", seed=seed, objects=objects, frame_count=frames,
            spacing=15.0)]}
    if workload == "calibrate":
        # The held-out scene, tracked with the recovered model, gives this
        # workload its frame latencies at under a tenth of its wall time.
        objects, frames = (30, 52) if smoke else (100, 102)
        held_objects, held_frames = (4, 20) if smoke else (9, 30)
        return {"cal": [synthetic.calibration_scenario(seed=seed, objects=objects,
                                                       frame_count=frames)],
                "eval": [synthetic.calibration_scenario(
                    scene_id="held-out", seed=seed + 1, objects=held_objects,
                    frame_count=held_frames)]}
    raise ValueError(f"unknown workload {workload!r}")


def generate_inputs(specs: dict, directory) -> dict:
    """Simulate and write every role's files, as `mot3d simulate` does.

    Returns the (start, end) clock readings of each simulator call and
    of each role's writes.
    """
    stamps: dict = {"generate": [], "write": []}
    for role, role_specs in specs.items():
        started = time.perf_counter()
        ground_truth, detections = synthetic.generate_suite(role_specs)
        generated = time.perf_counter()
        meta = synthetic.scenario_meta(role_specs)
        dataset_io.write_ground_truth(ground_truth, str(directory / f"{role}_gt.json"),
                                      meta=meta)
        dataset_io.write_detections(detections, str(directory / f"{role}_det.json"),
                                    meta=meta)
        stamps["generate"].append((started, generated))
        stamps["write"].append((generated, time.perf_counter()))
    return stamps


class PassFailed(Exception):
    """A Mot3dError ended the pass; it is already counted as a failure."""


class Ledger:
    """Operations attempted and failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def op(self, function, *args, **kwargs):
        self.attempted += 1
        try:
            return function(*args, **kwargs)
        except Mot3dError as exc:
            self.fail(f"{getattr(function, '__name__', function)}: {exc}")
            raise PassFailed from exc

    def fail(self, message: str):
        self.failed += 1
        self.errors.append(message)

    def check(self, ok: bool, message: str):
        self.attempted += 1
        if not ok:
            self.fail(message)


def mota_counts(ground_truth: dict, tracks: dict) -> dict:
    """TP/FP/FN/IDS of all confirmed tracks, per scene and class, in frame order."""
    totals = {"tp": 0, "fp": 0, "fn": 0, "ids": 0}
    for scene_id in sorted(set(ground_truth) | set(tracks)):
        gt_frames = ground_truth.get(scene_id, {})
        track_frames = tracks.get(scene_id, {})
        labels = {box.class_label
                  for frames in (gt_frames, track_frames)
                  for boxes in frames.values() for box in boxes}
        for label in sorted(labels):
            previous: dict = {}
            for frame in sorted(set(gt_frames) | set(track_frames)):
                gt_boxes = [b for b in gt_frames.get(frame, ()) if b.class_label == label]
                track_boxes = [b for b in track_frames.get(frame, ())
                               if b.class_label == label]
                assignment, tp, fp, fn, ids = metrics.match_frame(
                    gt_boxes, track_boxes, previous, metrics.EVALUATION_GATE)
                previous.update(assignment)
                totals["tp"] += tp
                totals["fp"] += fp
                totals["fn"] += fn
                totals["ids"] += ids
    totals["positives"] = totals["tp"] + totals["fn"]
    return totals


def run_pass(workload: Workload, directory, ledger: Ledger) -> dict:
    """One timed pass; returns its clock readings and the outputs to check.

    `stamps` holds the (start, end) clock readings of the whole pass,
    and `frames` those of each `MultiObjectTracker.step`.  Raises
    PassFailed when an operation raised Mot3dError.
    """
    paths = {name: str(directory / name) for name in (
        "cal_gt.json", "cal_det.json", "eval_gt.json", "eval_det.json",
        "noise.json", "tracks.json", "report.json")}
    out: dict = {"paths": paths}
    started = time.perf_counter()

    # mot3d calibrate
    if workload.calibrate:
        cal_gt = ledger.op(dataset_io.load_ground_truth, paths["cal_gt.json"])
        cal_det = ledger.op(dataset_io.load_detections, paths["cal_det.json"])
        model = ledger.op(calibration.calibrate, cal_gt, cal_det)
        ledger.op(calibration.save_noise_model, model, paths["noise.json"])
        out["cal_gt"] = cal_gt

    # mot3d track --jobs 1
    config = workload.config
    if workload.calibrate:
        noise = ledger.op(calibration.load_noise_model, paths["noise.json"])
    else:
        noise = calibration.NoiseModel.default_covariance()
    detections = ledger.op(dataset_io.load_detections, paths["eval_det.json"])
    outputs = {}
    lifecycle = {"births": 0, "confirmed": 0, "deaths": 0}
    frame_stamps = out["frames"] = []
    out["detections"] = 0
    clock = time.perf_counter
    for scene_id in sorted(detections):
        frames = detections[scene_id]
        tracker = tracker_module.MultiObjectTracker(noise, config)
        scene_outputs = []
        for frame in frames:
            frame_detections = frames[frame]
            step_started = clock()
            scene_outputs.append(ledger.op(tracker.step, frame, frame_detections))
            frame_stamps.append((step_started, clock()))
            out["detections"] += len(frame_detections)
        outputs[scene_id] = scene_outputs
        lifecycle["births"] += tracker.stats.born
        lifecycle["confirmed"] += tracker.stats.confirmed
        lifecycle["deaths"] += tracker.stats.died
    meta = {"tool": "mot3d-track", "version": 1, "configuration": config.to_dict()}
    ledger.op(dataset_io.write_tracks, outputs, paths["tracks.json"], meta=meta)

    # mot3d evaluate, plus one MOTA sweep over all confirmed tracks
    tracks = ledger.op(dataset_io.load_tracks, paths["tracks.json"])
    ground_truth = ledger.op(dataset_io.load_ground_truth, paths["eval_gt.json"])
    if workload.amota:
        report = ledger.op(metrics.amota, tracks, ground_truth, n=AMOTA_SAMPLES,
                           gate=metrics.EVALUATION_GATE)
        out["amota"] = report.overall_amota
    out["counts"] = ledger.op(mota_counts, ground_truth, tracks)
    if workload.amota:
        ledger.op(metrics.write_report, report, paths["report.json"])

    out["stamps"] = (started, time.perf_counter())
    out["noise"] = noise
    out["tracks"] = tracks
    out["ground_truth"] = ground_truth
    out["lifecycle"] = lifecycle
    return out


def sha256_of(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def boxes_in(by_scene: dict) -> int:
    """Number of boxes in a scene -> frame -> boxes mapping."""
    return sum(len(boxes) for frames in by_scene.values() for boxes in frames.values())


def summarize(out: dict) -> dict:
    """The facts of a pass the checks and the trace need, without its data.

    Keeping whole passes alive would grow the heap from pass to pass and
    slow every later one down through the garbage collector.
    """
    paths = out["paths"]
    facts = {"counts": out["counts"],
             "frames": out["frames"],
             "detections": out["detections"],
             "gt_boxes": boxes_in(out["ground_truth"]),
             "track_boxes": boxes_in(out["tracks"]),
             "tracks_sha256": sha256_of(paths["tracks.json"])}
    car = out["noise"].classes.get("car")
    if car is not None:
        facts["car_q_xx"], facts["car_r_xx"] = float(car.q[0]), float(car.r[0])
    if "amota" in out:
        facts["amota"] = out["amota"]
        facts["report_sha256"] = sha256_of(paths["report.json"])
        with open(paths["report.json"]) as handle:
            facts["report_amota"] = json.load(handle).get("overall_amota")

    second_differences = 0
    if "cal_gt" in out:
        for track in calibration.tracks_from_ground_truth(out["cal_gt"]):
            frames = track.frames
            second_differences += sum(
                1 for i in range(len(frames) - 2) if frames[i + 2] - frames[i] == 2)
    thresholds = 0
    if "amota" in out:
        scores: dict = {}
        for frames in out["tracks"].values():
            for boxes in frames.values():
                for box in boxes:
                    scores.setdefault(box.class_label, set()).add(box.score)
        gt_labels = {box.class_label for frames in out["ground_truth"].values()
                     for boxes in frames.values() for box in boxes}
        thresholds = sum(len(scores.get(label, ())) for label in gt_labels)
    facts["work"] = {"second_differences": second_differences, "thresholds": thresholds,
                     "gt_frames": sum(len(f) for f in out["ground_truth"].values()),
                     **out["lifecycle"]}
    return facts
