#!/usr/bin/env python3
"""End-to-end demo: simulate, calibrate, track, evaluate, plot.

Leaves every intermediate artifact in --out-dir so each stage can be
inspected (or re-run through the CLI against the same files).
"""

import argparse
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from mot3d.calibration import calibrate, save_noise_model
from mot3d.dataset_io import (RunConfig, load_ground_truth, load_tracks,
                              write_detections, write_ground_truth,
                              write_tracks)
from mot3d.metrics import amota, write_report
from mot3d.synthetic import (generate_suite, standard_suite,
                             standard_suite_calibration)
from mot3d.tracker import boxes_by_frame, run_scene
from mot3d.viz import write_scene_svg


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo_out")
    parser.add_argument("--matcher", choices=("greedy", "hungarian"),
                        default="greedy")
    parser.add_argument("--n-samples", type=int, default=40,
                        help="recall grid resolution for the evaluation")
    args = parser.parse_args()
    out = args.out_dir
    os.makedirs(out, exist_ok=True)

    print("[1/5] simulating calibration recordings")
    cal_gt, cal_det = generate_suite([standard_suite_calibration()])
    write_ground_truth(cal_gt, os.path.join(out, "calibration_gt.json"))
    write_detections(cal_det, os.path.join(out, "calibration_detections.json"))

    print("[2/5] fitting the noise model from matched recordings")
    noise = calibrate(cal_gt, cal_det)
    save_noise_model(noise, os.path.join(out, "noise_model.json"))
    for label in sorted(noise.classes):
        q = noise.classes[label].q
        r = noise.classes[label].r
        print(f"        {label:<11} q_xx={q[0]:.4f}  r_xx={r[0]:.4f}")

    print("[3/5] simulating the standard evaluation suite")
    ground_truth, detections = generate_suite(standard_suite())
    write_ground_truth(ground_truth, os.path.join(out, "gt.json"))
    write_detections(detections, os.path.join(out, "detections.json"))

    print(f"[4/5] tracking ({args.matcher} matcher, calibrated covariances)")
    config = RunConfig(matcher=args.matcher)
    started = time.perf_counter()
    outputs = {scene_id: run_scene(detections[scene_id], noise, config)
               for scene_id in sorted(detections)}
    elapsed = time.perf_counter() - started
    tracks_path = os.path.join(out, "tracks.json")
    write_tracks(outputs, tracks_path,
                 meta={"tool": "demo-pipeline", "configuration": config.to_dict()})
    print(f"        {len(outputs)} scenes in {elapsed:.2f}s")

    print("[5/5] evaluating and rendering")
    tracks = {scene_id: boxes_by_frame(frame_outputs)
              for scene_id, frame_outputs in outputs.items()}
    report = amota(tracks, ground_truth, n=args.n_samples)
    write_report(report, os.path.join(out, "report.json"))
    loaded_tracks = load_tracks(tracks_path)
    loaded_gt = load_ground_truth(os.path.join(out, "gt.json"))
    for scene_id in sorted(loaded_tracks):
        write_scene_svg(os.path.join(out, f"{scene_id}.svg"),
                        loaded_tracks[scene_id], loaded_gt.get(scene_id),
                        title=scene_id)

    print()
    print(f"{'class':<12} {'amota':>7} {'positives':>10}")
    for label in sorted(report.classes):
        entry = report.classes[label]
        print(f"{label:<12} {entry.amota:>7.4f} {entry.positives:>10}")
    print(f"{'overall':<12} {report.overall_amota:>7.4f}")
    print(f"\nartifacts in {out}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
