import csv
import errno
import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from mot3d.calibration import ClassNoise, NoiseModel, save_noise_model
from mot3d import cli, dataset_io
from mot3d.cli import build_parser, main
from mot3d.core import Box
from mot3d.dataset_io import load_ground_truth, load_tracks, write_detections, write_ground_truth
from mot3d.synthetic import generate, load_scenarios

SUBCOMMANDS = ("calibrate", "track", "evaluate", "simulate", "ablate", "plot")


def load_strict_json(path):
    """A file's JSON, refusing the NaN and Infinity tokens that json.load accepts."""
    def refuse(token):
        raise ValueError(f"{path} holds {token}, which is not JSON")

    with open(path) as handle:
        return json.load(handle, parse_constant=refuse)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One full simulate -> calibrate -> track -> evaluate run shared by the module."""
    root = tmp_path_factory.mktemp("cli-pipeline")
    paths = {
        "cal_gt": str(root / "cal_gt.json"),
        "cal_det": str(root / "cal_det.json"),
        "gt": str(root / "gt.json"),
        "det": str(root / "det.json"),
        "noise": str(root / "noise.json"),
        "tracks": str(root / "tracks.json"),
        "report": str(root / "report.json"),
    }
    assert main(["simulate", "--preset", "standard-calibration",
                 "--out-ground-truth", paths["cal_gt"],
                 "--out-detections", paths["cal_det"]]) == 0
    assert main(["calibrate", "--ground-truth", paths["cal_gt"],
                 "--detections", paths["cal_det"],
                 "--out", paths["noise"]]) == 0
    assert main(["simulate", "--preset", "standard",
                 "--out-ground-truth", paths["gt"],
                 "--out-detections", paths["det"]]) == 0
    assert main(["track", "--detections", paths["det"],
                 "--noise-model", paths["noise"],
                 "--out", paths["tracks"]]) == 0
    assert main(["evaluate", "--ground-truth", paths["gt"], "--tracks", paths["tracks"],
                 "--out", paths["report"]]) == 0
    return paths


def test_help_and_version_exit_zero(capsys):
    for argv in (["--help"], ["--version"],
                 *[[name, "--help"] for name in SUBCOMMANDS]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 0, argv
    capsys.readouterr()


def test_no_subcommand_prints_help(capsys):
    assert main([]) == 1
    assert "simulate" in capsys.readouterr().out


def test_usage_errors_exit_one(capsys):
    for argv in (["track"],                      # missing required args
                 ["bogus"],                      # unknown subcommand
                 ["simulate", "--preset", "nope",
                  "--out-detections", "d", "--out-ground-truth", "g"],
                 ["track", "--detections", "d", "--out", "o",
                  "--matcher", "brute"]):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 1, argv
    capsys.readouterr()


def test_pipeline_files_exist(pipeline):
    for key in ("cal_gt", "cal_det", "gt", "det", "noise", "tracks", "report"):
        data = load_strict_json(pipeline[key])
        assert isinstance(data, dict) and data
    meta = load_strict_json(pipeline["tracks"])["_meta"]
    assert meta["tool"] == "mot3d-track"
    assert meta["configuration"]["matcher"] == "greedy"


def test_track_reports_lifecycle(pipeline, tmp_path, capsys):
    out = tmp_path / "again.json"
    assert main(["track", "--detections", pipeline["det"],
                 "--noise-model", pipeline["noise"],
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "tracked 3 scenes" in printed
    assert "tracks born" in printed


def test_track_output_is_reproducible(pipeline, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["track", "--detections", pipeline["det"],
                     "--noise-model", pipeline["noise"],
                     "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_parallel_jobs_match_serial(pipeline, tmp_path):
    serial = tmp_path / "serial.json"
    parallel = tmp_path / "parallel.json"
    assert main(["track", "--detections", pipeline["det"],
                 "--noise-model", pipeline["noise"],
                 "--jobs", "1", "--out", str(serial)]) == 0
    assert main(["track", "--detections", pipeline["det"],
                 "--noise-model", pipeline["noise"],
                 "--jobs", "2", "--out", str(parallel)]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_hungarian_workers_import_the_solver_on_their_own(pipeline, tmp_path):
    # this process loaded scipy.optimize long ago; only fresh interpreters
    # show that forked workers import it on their first Hungarian call
    src = os.path.dirname(os.path.dirname(dataset_io.__file__))
    tracks = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}.json"
        subprocess.run([sys.executable, "-m", "mot3d", "track", "--detections", pipeline["det"],
                        "--noise-model", pipeline["noise"], "--matcher", "hungarian",
                        "--jobs", jobs, "--out", str(out)],
                       capture_output=True, check=True, env=dict(os.environ, PYTHONPATH=src))
        tracks.append(out.read_bytes())
    assert json.loads(tracks[0])["_meta"]["configuration"]["matcher"] == "hungarian"
    assert len(load_tracks(str(out))) == 3
    assert tracks[0] == tracks[1]


def test_negative_jobs_rejected(pipeline, tmp_path, capsys):
    assert main(["track", "--detections", pipeline["det"],
                 "--noise-model", pipeline["noise"],
                 "--jobs", "-1", "--out", str(tmp_path / "t.json")]) == 1
    assert "--jobs" in capsys.readouterr().err


def test_noise_source_is_exclusive_and_required(pipeline, tmp_path, capsys):
    out = str(tmp_path / "t.json")
    assert main(["track", "--detections", pipeline["det"],
                 "--noise-model", pipeline["noise"],
                 "--default-covariance", "--out", out]) == 1
    assert "not both" in capsys.readouterr().err
    assert main(["track", "--detections", pipeline["det"], "--out", out]) == 1
    assert "noise model is required" in capsys.readouterr().err


def test_degenerate_noise_exits_two(tmp_path, capsys):
    zeros = NoiseModel({"car": ClassNoise(np.zeros(11), np.zeros(7), np.zeros(11))})
    noise_path = tmp_path / "zeros.json"
    save_noise_model(zeros, str(noise_path))
    detections = {"s": {f: [Box(0, 0, 0, 0, 4, 2, 1.5, "car", f, "s",
                                score=0.9)] for f in (0, 1)}}
    det_path = tmp_path / "det.json"
    write_detections(detections, str(det_path))
    code = main(["track", "--detections", str(det_path),
                 "--noise-model", str(noise_path),
                 "--out", str(tmp_path / "t.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "numerical error" in err
    # an all-zero S: max |s| / min |s| divides by 0, so the estimate is inf, never nan
    assert err.endswith("innovation covariance is not positive definite "
                        "(condition estimate: inf)\n"), err
    # the error names where it happened: from the affinity, and under IOU
    # association (no Mahalanobis solve) from the matched update
    assert "mot3d: numerical error: scene s, frame 1, class car, track 1: " in err
    assert main(["track", "--detections", str(det_path), "--noise-model", str(noise_path),
                 "--affinity", "iou", "--out", str(tmp_path / "t.json")]) == 2
    err = capsys.readouterr().err
    assert "mot3d: numerical error: scene s, frame 1, class car, track 1: " in err
    assert "not positive definite" in err


def test_numerical_error_from_a_worker_keeps_its_message(tmp_path, capsys):
    # two scenes on two workers: the error crosses a process boundary
    zeros = NoiseModel({"car": ClassNoise(np.zeros(11), np.zeros(7), np.zeros(11))})
    noise_path = tmp_path / "zeros.json"
    save_noise_model(zeros, str(noise_path))
    detections = {scene: {f: [Box(0, 0, 0, 0, 4, 2, 1.5, "car", f, scene,
                                  score=0.9)] for f in (0, 1)} for scene in ("s", "t")}
    det_path = tmp_path / "det.json"
    write_detections(detections, str(det_path))
    assert main(["track", "--detections", str(det_path), "--noise-model", str(noise_path),
                 "--jobs", "2", "--out", str(tmp_path / "t.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mot3d: numerical error: scene s, frame 1, class car, track 1: ")
    assert err.count("condition estimate") == 1, err


def test_overflowing_residual_exits_two(tmp_path, capsys):
    # finite coordinates whose difference overflows to inf in the residual
    detections = {"s": {f: [Box(x, 0, 0, 0, 4, 2, 1.5, "car", f, "s", score=0.9)]
                        for f, x in ((0, 1e308), (1, -1e308))}}
    det_path = tmp_path / "det.json"
    write_detections(detections, str(det_path))
    out = tmp_path / "t.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["track", "--detections", str(det_path), "--default-covariance",
                     "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("mot3d: numerical error: scene s, frame 1, class car, track 1: ")
    assert "not finite" in err
    # one error line, no numpy overflow warning before it, and no output file
    assert err.count("\n") == 1, err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert not out.exists()


def test_posterior_extent_rounded_to_zero_exits_two(tmp_path, capsys):
    # R's l entry 0 puts a gain of exactly 1 on l, so on frame 2
    # l + (z - l) rounds to 0.0 for a detection far shorter than the track
    r = np.ones(7)
    r[4] = 0.0
    noise_path = tmp_path / "noise.json"
    save_noise_model(NoiseModel({"car": ClassNoise(np.ones(11), r, np.ones(11))}), str(noise_path))
    detections = {"s": {f: [Box(0, 0, 0, 0, l, 2, 1.5, "car", f, "s", score=0.9)]
                        for f, l in enumerate((1.0, 1.0, 1e-17))}}
    det_path = tmp_path / "det.json"
    write_detections(detections, str(det_path))
    out = tmp_path / "t.json"
    assert main(["track", "--detections", str(det_path), "--noise-model", str(noise_path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("mot3d: numerical error: scene s, frame 2, class car, track 1: "
                          "posterior extent is not positive"), err
    assert err.count("\n") == 1, err
    assert not out.exists()


def test_an_error_without_a_condition_estimate_ends_with_its_message(tmp_path, capsys):
    # only a not-positive-definite S has an estimate to append
    r = np.ones(7)
    r[4] = 0.0
    noise_path = tmp_path / "noise.json"
    save_noise_model(NoiseModel({"car": ClassNoise(np.ones(11), r, np.ones(11))}), str(noise_path))
    det_path = tmp_path / "det.json"
    cases = [(["--default-covariance"], [(1e308, 4.0), (-1e308, 4.0)],
              "residual or covariance is not finite"),
             (["--noise-model", str(noise_path)], [(0.0, 1.0), (0.0, 1.0), (0.0, 1e-17)],
              "posterior extent is not positive")]
    for noise_args, boxes, message in cases:
        write_detections({"s": {f: [Box(x, 0, 0, 0, l, 2, 1.5, "car", f, "s",
                                        score=0.9)] for f, (x, l) in enumerate(boxes)}},
                         str(det_path))
        assert main(["track", "--detections", str(det_path), *noise_args,
                     "--out", str(tmp_path / "t.json")]) == 2
        err = capsys.readouterr().err
        assert err.endswith(f"track 1: {message}\n"), err


def test_evaluate_reports_per_class(pipeline, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["evaluate", "--tracks", pipeline["tracks"],
                 "--ground-truth", pipeline["gt"],
                 "--out", str(report_path)]) == 0
    printed = capsys.readouterr().out
    assert "overall" in printed
    for label in ("bus", "car", "pedestrian"):
        assert label in printed
    data = json.loads(report_path.read_text())
    assert 0.0 <= data["overall_amota"] <= 1.0
    assert data["_meta"]["n_samples"] == 40
    # per class: thresholds swept (distinct track scores) and the counts
    # of the best-MOTAR sample; then the evaluation time
    lines = printed.splitlines()
    tracks = load_tracks(pipeline["tracks"])
    for label, entry in data["classes"].items():
        scores = {box.score for frames in tracks.values() for boxes in frames.values()
                  for box in boxes if box.class_label == label}
        best = max(entry["samples"], key=lambda sample: sample["motar"])
        line = next(line for line in lines if line.split()[0] == label)
        assert f" thresholds {len(scores)} " in line
        assert f" best motar {best['motar']:.4f} " in line
        assert line.endswith(f"ids {best['ids']} fp {best['fp']} fn {best['fn']}")
    assert any(re.fullmatch(r"evaluated in \d+\.\d\ds", line) for line in lines)


def test_evaluate_names_the_classes_without_ground_truth(pipeline, tmp_path, capsys):
    # tracks of a class the ground truth lacks are not scored, and the
    # report says which classes those are
    ground_truth = load_ground_truth(pipeline["gt"])
    cars_only = {scene: {frame: [box for box in boxes if box.class_label == "car"]
                         for frame, boxes in frames.items()}
                 for scene, frames in ground_truth.items()}
    gt = tmp_path / "cars.json"
    write_ground_truth(cars_only, str(gt))
    assert main(["evaluate", "--tracks", pipeline["tracks"], "--ground-truth", str(gt)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "not scored (no ground truth): bus, pedestrian"
    assert [line.split()[0] for line in lines[:-2]] == ["car", "overall"]


def test_evaluate_without_track_boxes_writes_strict_json(tmp_path, capsys):
    # a class without track boxes has no score threshold: null, never NaN
    gt, det, tracks, report = (str(tmp_path / name)
                               for name in ("gt.json", "det.json", "t.json", "r.json"))
    assert main(["simulate", "--preset", "noiseless",
                 "--out-ground-truth", gt, "--out-detections", det]) == 0
    (tmp_path / "t.json").write_text("{}")
    assert main(["evaluate", "--ground-truth", gt, "--tracks", tracks, "--out", report]) == 0
    capsys.readouterr()
    classes = load_strict_json(report)["classes"]
    samples = [sample for entry in classes.values() for sample in entry["samples"]]
    assert samples and all(sample["score_threshold"] is None for sample in samples)


def test_evaluate_rejects_bad_sample_count(pipeline, capsys):
    assert main(["evaluate", "--tracks", pipeline["tracks"],
                 "--ground-truth", pipeline["gt"], "--n-samples", "1"]) == 1
    assert "at least 2" in capsys.readouterr().err


def test_simulate_requires_exactly_one_source(tmp_path, capsys):
    base = ["simulate", "--out-detections", str(tmp_path / "d.json"),
            "--out-ground-truth", str(tmp_path / "g.json")]
    assert main(base) == 1
    assert "exactly one" in capsys.readouterr().err
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "scene_id": "tiny", "frame_count": 3,
        "objects": [{"class_label": "car", "x": 0.0, "y": 0.0, "vx": 1.0}],
    }))
    assert main(base + ["--spec", str(spec_path), "--preset", "noiseless"]) == 1
    assert "exactly one" in capsys.readouterr().err
    assert main(base + ["--spec", str(spec_path)]) == 0


def test_simulate_spec_seed_reseeds_each_scene_by_its_index(tmp_path, capsys):
    # --seed S gives the i-th spec of a file the seed S + i, whatever seeds it holds
    scene = {"frame_count": 3, "objects": [{"class_label": "car", "x": 0.0, "y": 0.0}]}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"scenarios": [dict(scene, scene_id="a", seed=1),
                                                   dict(scene, scene_id="b", seed=1)]}))
    expected_path = tmp_path / "expected.json"
    expected_path.write_text(json.dumps({"scenarios": [dict(scene, scene_id="a", seed=40),
                                                       dict(scene, scene_id="b", seed=41)]}))
    written = []
    for path in (spec_path, expected_path):
        det, gt = tmp_path / f"d-{path.stem}.json", tmp_path / f"g-{path.stem}.json"
        seed = ["--seed", "40"] if path == spec_path else []
        assert main(["simulate", "--spec", str(path), *seed,
                     "--out-detections", str(det), "--out-ground-truth", str(gt)]) == 0
        written.append((det.read_bytes(), gt.read_bytes()))
    assert written[0] == written[1]
    capsys.readouterr()


@pytest.mark.parametrize("preset, own_seed", [
    ("noiseless", 7), ("standard", 11), ("standard-calibration", 12),
    ("calibration", 101), ("turning", 5),
])
def test_simulate_seed_override(tmp_path, preset, own_seed):
    def run(seed, tag):
        det = tmp_path / f"d{tag}.json"
        gt = tmp_path / f"g{tag}.json"
        args = ["simulate", "--preset", preset,
                "--out-detections", str(det), "--out-ground-truth", str(gt)]
        if seed is not None:
            args += ["--seed", str(seed)]
        assert main(args) == 0
        return det.read_bytes()

    default = run(None, "a")
    explicit = run(own_seed, "b")
    other = run(99, "c")
    assert default == explicit
    assert other != default


def test_jobs_never_exceed_the_work(pipeline, tmp_path, monkeypatch):
    """A pool gets at most one worker per scene or ablation cell."""
    requested = []

    class InlinePool:
        def __init__(self, max_workers):
            requested.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, function, payloads):
            return map(function, payloads)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
    track = ["track", "--detections", pipeline["det"], "--noise-model", pipeline["noise"]]
    assert main(track + ["--jobs", "64", "--out", str(tmp_path / "t64.json")]) == 0
    assert requested == [3]
    assert main(track + ["--jobs", "1", "--out", str(tmp_path / "t1.json")]) == 0
    assert requested == [3]
    assert (tmp_path / "t64.json").read_bytes() == (tmp_path / "t1.json").read_bytes()
    det, gt = str(tmp_path / "det.json"), str(tmp_path / "gt.json")
    assert main(["simulate", "--preset", "noiseless",
                 "--out-detections", det, "--out-ground-truth", gt]) == 0
    assert main(["ablate", "--detections", det, "--ground-truth", gt,
                 "--affinities", "mahalanobis", "--matchers", "greedy,hungarian",
                 "--noise", "default", "--jobs", "64",
                 "--out", str(tmp_path / "grid.csv")]) == 0
    assert requested == [3, 2]


def test_ablate_writes_grid_csv(tmp_path, capsys):
    det = tmp_path / "det.json"
    gt = tmp_path / "gt.json"
    assert main(["simulate", "--preset", "noiseless",
                 "--out-detections", str(det),
                 "--out-ground-truth", str(gt)]) == 0
    out = tmp_path / "grid.csv"
    assert main(["ablate", "--detections", str(det), "--ground-truth", str(gt),
                 "--affinities", "mahalanobis,iou@0.25",
                 "--matchers", "greedy",
                 "--noise", "default",
                 "--n-samples", "5",
                 "--out", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "maha+greedy+default" in printed
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))
    assert rows[0][:2] == ["configuration", "overall"]
    names = [row[0] for row in rows[1:]]
    assert names == ["maha+greedy+default", "iou@0.25+greedy+default"]
    for row in rows[1:]:
        assert 0.0 <= float(row[1]) <= 1.0


def test_ablate_rejects_bad_tokens(tmp_path, capsys):
    det = tmp_path / "det.json"
    gt = tmp_path / "gt.json"
    assert main(["simulate", "--preset", "turning",
                 "--out-detections", str(det),
                 "--out-ground-truth", str(gt)]) == 0
    base = ["ablate", "--detections", str(det), "--ground-truth", str(gt),
            "--out", str(tmp_path / "o.csv"), "--noise", "default"]
    cases = [
        (["--affinities", "overlap"],
         "bad affinity token 'overlap'; use 'mahalanobis' or 'iou@<threshold>'"),
        (["--affinities", "iou@x"], "bad affinity token 'iou@x'"),
        (["--matchers", "brute"], "bad matcher token 'brute'"),
        (["--noise", "default,fitted"], "bad noise token 'fitted'; use 'calibrated' or 'default'"),
        (["--angular", "sometimes"], "bad angular token 'sometimes'; use 'with' or 'without'"),
    ]
    capsys.readouterr()
    for extra, message in cases:
        assert main(base + extra) == 1, extra
        assert capsys.readouterr().err == f"mot3d: error: {message}\n", extra
    assert not (tmp_path / "o.csv").exists()


def test_ablate_rows_for_a_bare_iou_and_both_angular_settings(tmp_path, capsys):
    det, gt, out = (str(tmp_path / name) for name in ("det.json", "gt.json", "grid.csv"))
    assert main(["simulate", "--preset", "turning",
                 "--out-detections", det, "--out-ground-truth", gt]) == 0
    assert main(["ablate", "--detections", det, "--ground-truth", gt, "--out", out,
                 "--affinities", "mahalanobis,iou", "--matchers", "greedy", "--noise", "default",
                 "--angular", "with,without", "--n-samples", "5", "--jobs", "1"]) == 0
    with open(out, newline="") as handle:
        names = [row[0] for row in list(csv.reader(handle))[1:]]
    # a bare 'iou' takes RunConfig's default threshold, 0.1
    assert names == ["maha+greedy+default", "maha+greedy+default+no-angvel",
                     "iou@0.1+greedy+default", "iou@0.1+greedy+default+no-angvel"]
    capsys.readouterr()


def test_ablate_calibration_split_matches_calibrate_track_evaluate(pipeline, tmp_path, capsys):
    # the pipeline's report.json came from calibrate, track and evaluate on these files
    out = str(tmp_path / "grid.csv")
    assert main(["ablate", "--detections", pipeline["det"], "--ground-truth", pipeline["gt"],
                 "--calibration-detections", pipeline["cal_det"],
                 "--calibration-ground-truth", pipeline["cal_gt"],
                 "--affinities", "mahalanobis", "--matchers", "greedy", "--noise", "calibrated",
                 "--jobs", "1", "--out", out]) == 0
    with open(out, newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    assert [row[0] for row in rows] == ["maha+greedy+calibrated"]
    assert rows[0][1] == repr(load_strict_json(pipeline["report"])["overall_amota"])
    capsys.readouterr()


def test_plot_directory_and_single_file(pipeline, tmp_path, capsys):
    out_dir = tmp_path / "plots"
    assert main(["plot", "--tracks", pipeline["tracks"],
                 "--ground-truth", pipeline["gt"],
                 "--out", str(out_dir)]) == 0
    rendered = sorted(p.name for p in out_dir.iterdir())
    assert len(rendered) == 3
    assert all(name.endswith(".svg") for name in rendered)
    # multiple scenes cannot land in one file
    assert main(["plot", "--tracks", pipeline["tracks"],
                 "--out", str(tmp_path / "one.svg")]) == 1
    assert "scenes" in capsys.readouterr().err
    # a scene filter makes the single file legal
    scene = rendered[0][:-len(".svg")]
    single = tmp_path / "single.svg"
    assert main(["plot", "--tracks", pipeline["tracks"], "--scene", scene,
                 "--out", str(single)]) == 0
    assert single.read_text().startswith("<svg")
    assert main(["plot", "--tracks", pipeline["tracks"], "--scene", "ghost",
                 "--out", str(tmp_path / "g.svg")]) == 1
    assert "ghost" in capsys.readouterr().err


def test_plot_of_a_track_file_without_scenes_exits_one(tmp_path, capsys):
    tracks = tmp_path / "empty.json"
    tracks.write_text("{}")
    assert main(["plot", "--tracks", str(tracks), "--out", str(tmp_path / "plots")]) == 1
    assert capsys.readouterr().err == f"mot3d: error: no scenes in {tracks}\n"
    assert not (tmp_path / "plots").exists()


@pytest.mark.parametrize("scene_id", ["../escaped", "{tmp}/abs", "sub/dir", "nul\0byte"])
def test_plot_rejects_a_scene_id_that_is_not_one_file_name(pipeline, tmp_path, capsys, scene_id):
    scene_id = scene_id.format(tmp=tmp_path)
    with open(pipeline["tracks"]) as handle:
        data = json.load(handle)
    data[scene_id] = data.pop(sorted(key for key in data if not key.startswith("_"))[-1])
    tracks = tmp_path / "work" / "tracks.json"
    tracks.parent.mkdir()
    tracks.write_text(json.dumps(data))
    out_dir = tmp_path / "work" / "plots"
    out_dir.mkdir()
    assert main(["plot", "--tracks", str(tracks), "--out", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("mot3d: error: ") and repr(scene_id) in err
    assert len(err.splitlines()) == 1
    # checked before any scene is drawn: not even the well-named ones are written
    assert [os.path.join(root, name) for root, _, names in os.walk(tmp_path)
            for name in names] == [str(tracks)]


def test_unwritable_outputs_exit_one(pipeline, tmp_path, capsys):
    # one error line each; an OSError escaping main() as a traceback fails here
    afile = tmp_path / "afile"
    afile.write_text("")
    somedir = tmp_path / "somedir"
    somedir.mkdir()
    under_a_file = str(afile / "out.json")
    for argv in (["track", "--detections", pipeline["det"], "--noise-model", pipeline["noise"],
                  "--out", under_a_file],
                 ["calibrate", "--ground-truth", pipeline["cal_gt"],
                  "--detections", pipeline["cal_det"], "--out", under_a_file],
                 ["simulate", "--preset", "noiseless", "--out-ground-truth", under_a_file,
                  "--out-detections", str(tmp_path / "det.json")],
                 ["plot", "--tracks", pipeline["tracks"], "--out", str(afile)],
                 ["evaluate", "--tracks", pipeline["tracks"], "--ground-truth", pipeline["gt"],
                  "--out", str(somedir)]):
        assert main(argv) == 1, argv
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("mot3d: error: cannot write "), argv
    assert [name for _, _, names in os.walk(tmp_path)
            for name in names if name.endswith(".tmp")] == []
    assert afile.read_text() == "" and list(somedir.iterdir()) == []


def test_disk_full_mid_write_exits_one(pipeline, tmp_path, capsys, monkeypatch):
    out = tmp_path / "tracks.json"
    out.write_text("old")

    def open_on_a_disk_that_fills(file, mode="r", *args, **kwargs):
        """open(), but a write-mode handle takes one chunk and then runs out of space."""
        handle = open(file, mode, *args, **kwargs)
        if "w" in mode:
            chunks = []

            def write(text):
                if chunks:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                chunks.append(text)
                return type(handle).write(handle, text)

            handle.write = write
        return handle

    monkeypatch.setattr(dataset_io, "open", open_on_a_disk_that_fills, raising=False)
    assert main(["track", "--detections", pipeline["det"], "--noise-model", pipeline["noise"],
                 "--out", str(out), "--jobs", "1"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert lines == [f"mot3d: error: cannot write {out}: {os.strerror(errno.ENOSPC)}"]
    assert os.listdir(tmp_path) == ["tracks.json"] and out.read_text() == "old"


def test_parser_prog_name():
    parser = build_parser()
    assert parser.prog == "mot3d"


def test_malformed_inputs_exit_one(pipeline, tmp_path, capsys):
    def put(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    record = {"center": [0.0, 0.0, 0.0], "yaw": 0.0, "size": [4.0, 2.0, 1.5],
              "class": "car"}
    huge_noise = {"classes": {"car": {"q": [10 ** 400] + [0.0] * 10, "r": [0.0] * 7,
                                      "sigma0": [0.0] * 11}}}
    out = str(tmp_path / "out.json")
    track = ["track", "--detections", pipeline["det"], "--out", out]
    cases = [
        ["track", "--detections", put("d0.json", {"s": {"007": []}}),
         "--default-covariance", "--out", out],
        ["track", "--detections", put("d1.json", {"s": {"²": []}}),
         "--default-covariance", "--out", out],
        ["track", "--detections", put("d2.json", {"s": {"0": [dict(record, score=10 ** 400)]}}),
         "--default-covariance", "--out", out],
        track + ["--noise-model", put("noise.json", huge_noise)],
        track + ["--default-covariance", "--config", put("c1.json", {"maha_threshold": "x"})],
        track + ["--default-covariance",
                 "--config", put("c2.json", {"class_maha_thresholds": [1]})],
        ["evaluate", "--ground-truth", pipeline["gt"],
         "--tracks", put("t.json", {"s": {"7": [], "07": []}})],
        ["calibrate", "--detections", pipeline["cal_det"], "--out", out,
         "--ground-truth", put("g.json", {"s": {"0": [dict(record, instance_id="a",
                                                           yaw=10 ** 400)]}})],
    ]
    car = {"class_label": "car", "x": 0.0, "y": 0.0}
    specs = [
        {"scenarios": [1]},
        {"noise": {"fp_rate": 1e300}},
        {"seed": -1},
        {"noise": {"position_sigma": math.nan}},
        {"objects": [dict(car, x=1e308, vx=1e308)]},
    ]
    spec_cases = []
    for index, spec in enumerate(specs):
        spec = dict({"scene_id": "s", "frame_count": 3, "objects": [car]}, **spec)
        spec_cases.append(["simulate", "--spec", put(f"spec{index}.json", spec),
                           "--out-detections", out, "--out-ground-truth", out])
    cases += spec_cases
    negative_seed, overflow = spec_cases[2], spec_cases[4]
    cases.append(["simulate", "--preset", "turning", "--seed", "-1",
                  "--out-detections", out, "--out-ground-truth", out])
    # bad sweep arguments are refused before any cell is tracked
    ablate = ["ablate", "--detections", pipeline["det"], "--ground-truth", pipeline["gt"],
              "--noise", "default", "--jobs", "1", "--out", str(tmp_path / "grid.csv")]
    evaluate = ["evaluate", "--ground-truth", pipeline["gt"], "--tracks", pipeline["tracks"]]
    cases += [ablate + ["--n-samples", "1"]]
    cases += [ablate + [f"--{axis}", ","]
              for axis in ("affinities", "matchers", "noise", "angular")]
    cases += [command + [f"--gate={gate}"]
              for command in (evaluate, ablate) for gate in ("nan", "0", "-1", "inf")]
    # an infinite gate or threshold would be written as Infinity, which is not JSON
    infinite = [evaluate + ["--gate=inf", "--out", out],
                track + ["--default-covariance", "--maha-threshold", "inf"]]
    cases += infinite
    for argv in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("mot3d: error:"), argv
        if argv is negative_seed:
            # the error names the spec file it came from
            assert f"mot3d: error: {argv[2]}: invalid scenario spec: seed" in err
        if argv is overflow:
            # one error line, no numpy overflow warning before it
            assert err.count("\n") == 1, err
            assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        if any(argv is case for case in infinite):
            assert err.count("\n") == 1 and not os.path.exists(out), err
            assert "must be a finite positive number" in err, err


@pytest.mark.parametrize("wide", [{"bounds": [-1e308, 1e308, -1.0, 1.0]},
                                  {"fp_z_range": [-1e308, 1e308]}], ids=["bounds", "fp_z_range"])
def test_simulate_range_wider_than_a_float_exits_one(tmp_path, capsys, wide):
    # Generator.uniform raised OverflowError here, which ended in a traceback
    car = {"class_label": "car", "x": 0.0, "y": 0.0}
    spec = dict({"scene_id": "s", "frame_count": 3, "objects": [car], "noise": {"fp_rate": 2.0}},
                **wide)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(ValueError, match="scene 's' leaves the float range"):
        generate(load_scenarios(str(path))[0])
    assert main(["simulate", "--spec", str(path), "--out-detections", str(tmp_path / "d.json"),
                 "--out-ground-truth", str(tmp_path / "g.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"mot3d: error: {path}: cannot generate scenes: "), err
    assert err.count("\n") == 1, err


def test_read_errors_of_noise_models_and_box_files(pipeline, tmp_path, capsys):
    def put(name, payload):
        path = tmp_path / name
        path.write_text(json.dumps(payload))
        return str(path)

    out = str(tmp_path / "tracks.json")
    track = ["track", "--out", out]
    no_class = put("no_class.json", {"classes": {}})
    frame = "1" * 4301  # more digits than int() parses
    cases = [
        (track + ["--detections", pipeline["det"], "--noise-model", no_class],
         f"{no_class}: noise model must cover at least one class"),
        (track + ["--detections", pipeline["det"],
                  "--noise-model", put("scalar.json", {"classes": {"car": 3}})],
         "noise model class 'car': class entry must be an object"),
        (track + ["--detections", str(tmp_path), "--default-covariance"],
         f"cannot read detections file {tmp_path}: Is a directory"),
        (track + ["--detections", put("long_key.json", {"s": {frame: []}}),
                  "--default-covariance"],
         f"detections scene 's': frame key '{frame}' is not a canonical non-negative integer"),
    ]
    for argv, message in cases:
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == f"mot3d: error: {message}\n", argv
    assert not os.path.exists(out)


@pytest.mark.parametrize("field, value", [
    ("scene_id", 5), ("frame_count", 5.5), ("frame_count", True), ("first_frame", 1.5),
    ("first_frame", True), ("lifespan", 2.5), ("lifespan", True), ("x", True),
    pytest.param("x", 10 ** 400, id="x-10**400"),
    pytest.param("objects[0]", [1], id="objects[0]-[1]"), ("noise", 5), ("objects", 5),
])
def test_simulate_spec_field_errors_name_the_field(tmp_path, capsys, field, value):
    # each of these used to end in a traceback, pass as a number, or print
    # a message that named no field
    car = {"class_label": "car", "x": 0.0, "y": 0.0}
    spec = {"scene_id": "s", "frame_count": 3, "objects": [car]}
    (car if field in ("x", "first_frame", "lifespan") else spec)[field.removesuffix("[0]")] = value
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["simulate", "--spec", str(path), "--out-detections", str(tmp_path / "d.json"),
                 "--out-ground-truth", str(tmp_path / "g.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"mot3d: error: {path}: invalid scenario spec: {field} must be "), err
    assert err.count("\n") == 1, err


def test_calibration_from_ground_truth_without_boxes_exits_one(pipeline, tmp_path, capsys):
    # used to end in "ValueError: noise model must cover at least one class"
    empty = tmp_path / "empty_gt.json"
    empty.write_text(json.dumps({"s": {"0": []}}))
    for pooled in ([], ["--pooled"]):
        assert main(["calibrate", "--ground-truth", str(empty), "--detections",
                     pipeline["cal_det"], "--out", str(tmp_path / "noise.json")] + pooled) == 1
        err = capsys.readouterr().err
        assert err.startswith("mot3d: error:") and "no boxes" in err, err
    assert main(["ablate", "--detections", pipeline["det"], "--ground-truth", pipeline["gt"],
                 "--calibration-ground-truth", str(empty), "--noise", "calibrated",
                 "--jobs", "1", "--out", str(tmp_path / "grid.csv")]) == 1
    assert "no boxes" in capsys.readouterr().err


def test_choices_come_from_the_config_names():
    from mot3d.dataset_io import AFFINITY_NAMES, MATCHER_NAMES, SCORE_MODES
    track = build_parser()._subparsers._group_actions[0].choices["track"]
    choices = {action.dest: action.choices for action in track._actions if action.choices}
    assert choices.keys() == {"matcher", "affinity", "score_mode"}
    # the very tuples RunConfig checks against, not copies of their values
    assert choices["matcher"] is MATCHER_NAMES
    assert choices["affinity"] is AFFINITY_NAMES
    assert choices["score_mode"] is SCORE_MODES
