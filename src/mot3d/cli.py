"""Command line entry points.

Subcommands cover the full pipeline: simulate scenes, calibrate noise
from ground truth, run the tracker, evaluate against ground truth,
sweep configurations, and render track files to SVG.

Exit codes: 0 on success, 1 for usage, configuration, schema, and
calibration problems, 2 for numerical failures inside the filter.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

from . import __version__
from .calibration import NoiseModel, calibrate, load_noise_model, save_noise_model
from .dataset_io import (AFFINITY_NAMES, MATCHER_NAMES, SCORE_MODES, RunConfig,
                         load_config, load_detections, load_ground_truth,
                         load_tracks, merge_config, write_detections,
                         write_ground_truth, write_tracks)
from .errors import ConfigError, Mot3dError, NumericalError, SchemaError
from .metrics import (EVALUATION_GATE, amota, check_amota_args, write_amota_csv,
                      write_report)
from .synthetic import (calibration_scenario, generate_suite, load_scenarios,
                        noiseless_scene, scenario_meta, standard_suite,
                        standard_suite_calibration, turning_scenario)
from .tracker import MultiObjectTracker, boxes_by_frame
from .viz import write_scene_svg


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; keep 2 reserved for numerics."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _track_scene(payload):
    scene_id, frames, noise, config = payload
    tracker = MultiObjectTracker(noise, config)
    try:
        outputs = [tracker.step(frame, frames[frame]) for frame in frames]
    except NumericalError as exc:
        exc.location = f"scene {scene_id}, {exc.location}"
        raise
    return scene_id, outputs, tracker.stats


def _resolve_jobs(jobs: int) -> int:
    if jobs < 0:
        raise ConfigError(f"--jobs must be non-negative, got {jobs}")
    return jobs if jobs else (os.cpu_count() or 1)


def _pool_map(function, payloads: list, jobs: int) -> list:
    """Map function over payloads with at most one worker process each.

    The pool starts every worker up front, so it never gets more
    workers than payloads; one worker runs in this process instead.
    """
    workers = min(jobs, len(payloads))
    if workers <= 1:
        return [function(payload) for payload in payloads]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(function, payloads))


def _run_scenes(detections, noise, config, jobs):
    """Track every scene, optionally across worker processes."""
    payloads = [(scene_id, detections[scene_id], noise, config)
                for scene_id in sorted(detections)]
    results = _pool_map(_track_scene, payloads, jobs)
    outputs = {scene_id: scene_outputs for scene_id, scene_outputs, _ in results}
    stats = [(scene_id, scene_stats) for scene_id, _, scene_stats in results]
    return outputs, stats


def _load_noise(args) -> NoiseModel:
    if args.noise_model and args.default_covariance:
        raise ConfigError("pass either --noise-model or --default-covariance, not both")
    if args.noise_model:
        return load_noise_model(args.noise_model)
    if args.default_covariance:
        return NoiseModel.default_covariance()
    raise ConfigError("a noise model is required: --noise-model FILE or --default-covariance")


def _tracker_config(args) -> RunConfig:
    config = load_config(args.config) if args.config else RunConfig()
    return merge_config(
        config,
        matcher=args.matcher,
        affinity=args.affinity,
        maha_threshold=args.maha_threshold,
        iou_threshold=args.iou_threshold,
        birth_hits=args.birth_hits,
        death_misses=args.death_misses,
        score_mode=args.score_mode,
        angular_velocity=False if args.no_angular_velocity else None,
    )


def _cmd_calibrate(args) -> int:
    ground_truth = load_ground_truth(args.ground_truth)
    detections = load_detections(args.detections)
    model = calibrate(ground_truth, detections, pooled=args.pooled)
    save_noise_model(model, args.out)
    labels = ", ".join(sorted(model.classes))
    print(f"calibrated {len(model.classes)} classes ({labels}) -> {args.out}")
    return 0


def _cmd_track(args) -> int:
    config = _tracker_config(args)
    noise = _load_noise(args)
    detections = load_detections(args.detections)
    started = time.perf_counter()
    outputs, stats = _run_scenes(detections, noise, config, _resolve_jobs(args.jobs))
    elapsed = time.perf_counter() - started
    meta = {"tool": "mot3d-track", "version": 1, "configuration": config.to_dict()}
    write_tracks(outputs, args.out, meta=meta)
    born = sum(s.born for _, s in stats)
    confirmed = sum(s.confirmed for _, s in stats)
    died = sum(s.died for _, s in stats)
    frames = sum(s.frames for _, s in stats)
    print(f"tracked {len(outputs)} scenes, {frames} frames in {elapsed:.2f}s")
    print(f"tracks born {born}, confirmed {confirmed}, died {died}")
    print(f"wrote {args.out}")
    return 0


def _cmd_evaluate(args) -> int:
    tracks = load_tracks(args.tracks)
    ground_truth = load_ground_truth(args.ground_truth)
    started = time.perf_counter()
    try:
        report = amota(tracks, ground_truth, n=args.n_samples, gate=args.gate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    elapsed = time.perf_counter() - started
    for label in sorted(report.classes):
        entry = report.classes[label]
        best = max(entry.samples, key=lambda sample: sample.motar)
        print(f"{label:>12s}  amota {entry.amota:.4f}  positives {entry.positives}  "
              f"thresholds {entry.thresholds}  "
              f"best motar {best.motar:.4f} at recall {best.target_recall:.3f}: "
              f"ids {best.ids} fp {best.fp} fn {best.fn}")
    print(f"{'overall':>12s}  amota {report.overall_amota:.4f}")
    print(f"evaluated in {elapsed:.2f}s")
    if report.skipped_classes:
        print("not scored (no ground truth): " + ", ".join(report.skipped_classes))
    if args.out:
        write_report(report, args.out)
        print(f"wrote {args.out}")
    return 0


# Each preset takes an optional seed= and otherwise uses its own default.
_PRESETS = {
    "noiseless": lambda **seed: [noiseless_scene(**seed)],
    "standard": standard_suite,
    "standard-calibration": lambda **seed: [standard_suite_calibration(**seed)],
    "calibration": lambda **seed: [calibration_scenario(**seed)],
    "turning": lambda **seed: [turning_scenario(**seed)],
}


def _cmd_simulate(args) -> int:
    if bool(args.spec) == bool(args.preset):
        raise ConfigError("pass exactly one of --spec FILE or --preset NAME")
    if args.seed is not None and args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")
    if args.spec:
        specs = load_scenarios(args.spec)
        if args.seed is not None:
            specs = [replace(spec, seed=args.seed + index)
                     for index, spec in enumerate(specs)]
    else:
        seed = {} if args.seed is None else {"seed": args.seed}
        specs = _PRESETS[args.preset](**seed)
    try:
        ground_truth, detections = generate_suite(specs)
    except ValueError as exc:
        # a spec that passes its own checks can still fail to generate,
        # e.g. a trajectory that overflows or a Poisson rate numpy refuses
        raise SchemaError(f"cannot generate scenes: {exc}", args.spec) from None
    meta = scenario_meta(specs)
    write_ground_truth(ground_truth, args.out_ground_truth, meta=meta)
    write_detections(detections, args.out_detections, meta=meta)
    n_gt = sum(len(boxes) for frames in ground_truth.values() for boxes in frames.values())
    n_det = sum(len(boxes) for frames in detections.values() for boxes in frames.values())
    print(f"generated {len(specs)} scenes: {n_gt} ground-truth boxes, {n_det} detections")
    print(f"wrote {args.out_ground_truth}")
    print(f"wrote {args.out_detections}")
    return 0


def _parse_affinity_token(token: str, default_iou: float):
    """'mahalanobis' or 'iou[@threshold]' -> (name, affinity, iou_threshold)."""
    token = token.strip()
    if token in ("mahalanobis", "maha"):
        return "maha", "mahalanobis", None
    if token == "iou":
        return f"iou@{default_iou:g}", "iou", default_iou
    if token.startswith("iou@"):
        try:
            threshold = float(token[4:])
        except ValueError:
            raise ConfigError(f"bad affinity token {token!r}") from None
        return f"iou@{threshold:g}", "iou", threshold
    raise ConfigError(f"bad affinity token {token!r}; "
                      "use 'mahalanobis' or 'iou@<threshold>'")


def _csv_list(text: str) -> list:
    return [part.strip() for part in text.split(",") if part.strip()]


def _ablate_cell(payload):
    name, detections, ground_truth, noise, config, n_samples, gate = payload
    outputs, _ = _run_scenes(detections, noise, config, jobs=1)
    tracks = {scene_id: boxes_by_frame(frame_outputs)
              for scene_id, frame_outputs in outputs.items()}
    return name, amota(tracks, ground_truth, n=n_samples, gate=gate)


def _cmd_ablate(args) -> int:
    try:
        check_amota_args(args.n_samples, args.gate)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    axes = {name: _csv_list(getattr(args, name))
            for name in ("affinities", "matchers", "noise", "angular")}
    for name, tokens in axes.items():
        if not tokens:
            raise ConfigError(f"--{name} lists no value")
    detections = load_detections(args.detections)
    ground_truth = load_ground_truth(args.ground_truth)
    cal_det_path = args.calibration_detections or args.detections
    cal_gt_path = args.calibration_ground_truth or args.ground_truth
    base = RunConfig()

    noise_models = {}
    for token in axes["noise"]:
        if token == "calibrated":
            cal_detections = (detections if cal_det_path == args.detections
                              else load_detections(cal_det_path))
            cal_ground_truth = (ground_truth if cal_gt_path == args.ground_truth
                                else load_ground_truth(cal_gt_path))
            noise_models[token] = calibrate(cal_ground_truth, cal_detections,
                                            pooled=args.pooled)
        elif token == "default":
            noise_models[token] = NoiseModel.default_covariance()
        else:
            raise ConfigError(f"bad noise token {token!r}; use 'calibrated' or 'default'")

    angular_axis = []
    for token in axes["angular"]:
        if token == "with":
            angular_axis.append(("", True))
        elif token == "without":
            angular_axis.append(("+no-angvel", False))
        else:
            raise ConfigError(f"bad angular token {token!r}; use 'with' or 'without'")

    cells = []
    for affinity_token in axes["affinities"]:
        affinity_name, affinity, iou_threshold = _parse_affinity_token(
            affinity_token, base.iou_threshold)
        for matcher in axes["matchers"]:
            if matcher not in MATCHER_NAMES:
                raise ConfigError(f"bad matcher token {matcher!r}")
            for noise_name, noise in noise_models.items():
                for angular_suffix, angular in angular_axis:
                    name = f"{affinity_name}+{matcher}+{noise_name}{angular_suffix}"
                    config = merge_config(base, affinity=affinity, matcher=matcher,
                                          iou_threshold=iou_threshold,
                                          angular_velocity=angular)
                    cells.append((name, detections, ground_truth, noise, config,
                                  args.n_samples, args.gate))

    rows = _pool_map(_ablate_cell, cells, _resolve_jobs(args.jobs))

    width = max(len(name) for name, _ in rows)
    for name, report in rows:
        print(f"{name:<{width}s}  overall amota {report.overall_amota:.4f}")
    write_amota_csv(rows, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_plot(args) -> int:
    tracks = load_tracks(args.tracks)
    ground_truth = load_ground_truth(args.ground_truth) if args.ground_truth else {}
    scene_ids = sorted(tracks)
    if args.scene:
        if args.scene not in tracks:
            raise ConfigError(f"scene {args.scene!r} not present in {args.tracks}")
        scene_ids = [args.scene]
    if not scene_ids:
        raise ConfigError(f"no scenes in {args.tracks}")

    single_file = args.out.endswith(".svg")
    if single_file and len(scene_ids) > 1:
        raise ConfigError("--out names one .svg but the input holds "
                          f"{len(scene_ids)} scenes; pass --scene or a directory")
    for scene_id in scene_ids if not single_file else ():
        if any(sep and sep in scene_id for sep in ("/", os.sep, os.altsep, "\0")):
            raise ConfigError(f"scene {scene_id!r} does not name one file in {args.out}; "
                              "pass --scene and a .svg --out")
    for scene_id in scene_ids:
        path = args.out if single_file else os.path.join(args.out, f"{scene_id}.svg")
        write_scene_svg(path, tracks[scene_id], ground_truth.get(scene_id),
                        title=f"scene {scene_id}")
        print(f"wrote {path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mot3d",
                     description="3D multi-object tracking: simulate, calibrate, "
                                 "track, evaluate, ablate, plot.")
    parser.add_argument("--version", action="version", version=f"mot3d {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("calibrate", help="estimate noise covariances from ground truth")
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--detections", required=True)
    p.add_argument("--out", required=True, help="noise model JSON to write")
    p.add_argument("--pooled", action="store_true",
                   help="share one statistic across classes")
    p.set_defaults(handler=_cmd_calibrate)

    p = sub.add_parser("track", help="run the tracker over a detection file")
    p.add_argument("--detections", required=True)
    p.add_argument("--noise-model", help="noise model JSON from 'calibrate'")
    p.add_argument("--default-covariance", action="store_true",
                   help="identity noise instead of a calibrated model")
    p.add_argument("--config", help="RunConfig JSON")
    p.add_argument("--out", required=True, help="track file to write")
    p.add_argument("--matcher", choices=MATCHER_NAMES)
    p.add_argument("--affinity", choices=AFFINITY_NAMES)
    p.add_argument("--maha-threshold", type=float)
    p.add_argument("--iou-threshold", type=float)
    p.add_argument("--birth-hits", type=int)
    p.add_argument("--death-misses", type=int)
    p.add_argument("--score-mode", choices=SCORE_MODES)
    p.add_argument("--no-angular-velocity", action="store_true",
                   help="pin the yaw-rate state at zero")
    p.add_argument("--jobs", type=int, default=0,
                   help="scene-level worker processes, at most one per scene (0 = all cores)")
    p.set_defaults(handler=_cmd_track)

    p = sub.add_parser("evaluate", help="score a track file against ground truth")
    p.add_argument("--tracks", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--n-samples", type=int, default=40,
                   help="recall grid resolution (default 40)")
    p.add_argument("--gate", type=float, default=EVALUATION_GATE,
                   help="matching distance in meters (default 2.0)")
    p.add_argument("--out", help="report JSON to write")
    p.set_defaults(handler=_cmd_evaluate)

    p = sub.add_parser("simulate", help="generate a synthetic scene suite")
    p.add_argument("--spec", help="scenario JSON (one spec or {'scenarios': [...]})")
    p.add_argument("--preset", choices=sorted(_PRESETS))
    p.add_argument("--seed", type=int, help="override the scenario seeds")
    p.add_argument("--out-detections", required=True)
    p.add_argument("--out-ground-truth", required=True)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("ablate", help="sweep tracker configurations into a CSV")
    p.add_argument("--detections", required=True)
    p.add_argument("--ground-truth", required=True)
    p.add_argument("--calibration-detections",
                   help="detections for the calibrated model (default: --detections)")
    p.add_argument("--calibration-ground-truth",
                   help="ground truth for the calibrated model (default: --ground-truth)")
    p.add_argument("--out", required=True, help="CSV to write")
    p.add_argument("--affinities", default="mahalanobis,iou@0.01,iou@0.1,iou@0.25")
    p.add_argument("--matchers", default="greedy,hungarian")
    p.add_argument("--noise", default="calibrated,default")
    p.add_argument("--angular", default="with",
                   help="'with', 'without', or 'with,without'")
    p.add_argument("--pooled", action="store_true")
    p.add_argument("--n-samples", type=int, default=40)
    p.add_argument("--gate", type=float, default=EVALUATION_GATE)
    p.add_argument("--jobs", type=int, default=0,
                   help="cell-level worker processes, at most one per cell (0 = all cores)")
    p.set_defaults(handler=_cmd_ablate)

    p = sub.add_parser("plot", help="render a track file to SVG")
    p.add_argument("--tracks", required=True)
    p.add_argument("--ground-truth", help="overlay dashed ground-truth boxes")
    p.add_argument("--scene", help="render only this scene")
    p.add_argument("--out", required=True,
                   help="output directory, or a .svg path for a single scene")
    p.set_defaults(handler=_cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 1
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"mot3d: numerical error: {exc}", file=sys.stderr)
        return 2
    except Mot3dError as exc:
        print(f"mot3d: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
