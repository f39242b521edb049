"""Smoke tests of the benchmark harness on shrunken inputs.

    python3 -m pytest perfbench/test_smoke.py

They check the plumbing (every metric reported with its unit, the
output checks run and pass, tracing leaves mot3d as it found it), not
the figures.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, *arguments: str) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", *arguments]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_run_reports_every_metric_and_passes_its_checks(workload, trace):
    done = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    record, result = (json.loads(line) for line in done.stdout.splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, record["errors"]
    assert result["attempted"] >= 1

    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], (int, float)), metric["name"]
        if not trace:
            assert reported["value"] > 0, metric["name"]
    if trace:
        assert result["metrics"]["trace.coverage"]["value"] >= 0.9
    assert record["provenance"]["src_lines"] > 0


def test_refuses_to_run_without_the_sources():
    bare = HERE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("work", "__pycache__"))
        done = _run(bare, "--workload", "suite", "--seed", "1", "--seconds", "1")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_tracer_restores_every_name_it_rebinds():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import layers
    from mot3d import calibration, dataset_io, metrics, tracker

    modules = (calibration, dataset_io, metrics, tracker, tracker.MultiObjectTracker)
    before = [dict(vars(module)) for module in modules]
    with layers.Tracer(maha_gate=3.0) as tracer:
        assert tracker.predict is not before[3]["predict"]
    assert [dict(vars(module)) for module in modules] == before
    assert tracer.fired() == set()


def test_a_span_that_stops_firing_reports_its_metrics_missing():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import run
    from speed import Speedometer

    traced = {"traced": True, "stamps": (0.0, 1.0), "facts": {}, "fired": ["read"],
              "layers": {"dataset_io.read_s": 0.25, "kalman.predict_s": 0.0}}
    reference = {"spans": {"dense": ["predict", "read"]}}
    values = run._per_layer([0.5], [traced], reference, "dense", Speedometer())
    assert values["dataset_io.read_s"] == 0.25
    assert values["kalman.predict_s"] is None
    assert values["kalman.predict_calls"] is None


def test_speedometer_scales_stretches_and_skips_probe_time():
    sys.path.insert(0, str(HERE))
    from speed import REFERENCE_PROBE_S, Speedometer

    meter = Speedometer()
    # Two probes, at t=1 s and t=2 s, each twice as slow as the reference.
    slow = 2 * REFERENCE_PROBE_S
    meter.starts, meter.ends = [1.0, 2.0], [1.0 + slow, 2.0 + slow]
    meter.stop()
    assert meter.corrected(0.5, 0.9) == pytest.approx(0.2)
    assert meter.corrected(0.5, 1.5) == pytest.approx((1.0 - slow) / 2)
