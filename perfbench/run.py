"""mot3d benchmark: simulate -> calibrate -> track -> evaluate.

Run from the repository root:

    python3 perfbench/run.py --workload suite --seed 11 --seconds 20 --trace 0

The harness imports ``mot3d`` from ``src/`` and drives its public API in
one process and one thread.  Set-up imports the package, warms every
code path up on shrunken inputs, then simulates the workload's scenes
from ``--seed`` and writes them to JSON several times.  The timed part
repeats whole passes (see ``workloads.run_pass``) until ``--seconds``
have been spent, then checks the outputs.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json.
``--trace 1`` alternates untraced passes with passes traced by
``layers.Tracer`` and reports the per-layer metrics, the tracing
overhead and the share of the traced wall time the layers cover.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The line before it
is the full run record (provenance, outputs, hashes, every pass).

Times are reported at a fixed reference speed of the machine; see
``speed.py`` for why and how.  Modules that import mot3d are imported
inside functions, after the timed import of the package.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"
SPEC_PATH = ROOT / "BENCHMARK.json"

SETUP_REPEATS = 3

# Acceptance bounds of the calibration preset (tests/test_acceptance.py):
# the simulator draws Q_xx = 0.1^2 and R_xx = 0.3^2.
TRUE_Q_XX, TRUE_R_XX = 0.01, 0.09
Q_XX_RANGE, R_XX_RANGE = (0.009, 0.011), (0.081, 0.099)


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    workloads = [w["name"] for w in json.loads(SPEC_PATH.read_text())["workloads"]]
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs, for testing the harness")
    return parser.parse_args(argv)


def _import_mot3d() -> tuple:
    """Import mot3d from src/; return the clock readings around the import."""
    sys.path.insert(0, str(ROOT / "src"))
    started = time.perf_counter()
    import mot3d
    stamps = (started, time.perf_counter())
    if Path(mot3d.__file__).resolve().parent != ROOT / "src" / "mot3d":
        raise SystemExit(f"perfbench: imported mot3d from {mot3d.__file__}, not src/")
    return stamps


def _git_sha():
    """Commit of the checkout, read from .git without running git; None if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _provenance(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _quantile(values, fraction: float) -> float:
    """Inclusive-method quantile; the median when fraction is 0.5."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def _time_passes(workload, directory, ledger, seconds, traced_every_other, maha_gate):
    """Run passes until `seconds` are spent; stop early rather than overrun
    by more than half a pass.  With traced_every_other, odd passes are
    traced and at least one of each kind runs.

    Each pass starts on a collected heap and keeps only its summary, so
    no pass pays for the garbage of the one before.
    """
    import layers
    from workloads import PassFailed, run_pass, summarize

    passes = []
    started = time.perf_counter()
    while True:
        traced = traced_every_other and len(passes) % 2 == 1
        gc.collect()
        pass_started = time.perf_counter()
        record = {"traced": traced, "stamps": None, "facts": None}
        try:
            if traced:
                with layers.Tracer(maha_gate) as tracer:
                    out = run_pass(workload, directory, ledger)
            else:
                out = run_pass(workload, directory, ledger)
        except PassFailed:
            out = None
        record["duration_s"] = time.perf_counter() - pass_started
        if out is not None:
            record["stamps"] = out["stamps"]
            record["facts"] = summarize(out)
            if traced:
                record["fired"] = sorted(tracer.fired())
                stamps = out["stamps"]
                record["layers"] = layers.pass_layer_metrics(
                    tracer, record["facts"]["work"], stamps[1] - stamps[0])
            out = None
        passes.append(record)

        elapsed = time.perf_counter() - started
        minimum = 2 if traced_every_other else 1
        if len(passes) < minimum:
            continue
        if elapsed >= seconds:
            break
        typical = statistics.median(p["duration_s"] for p in passes)
        if seconds - elapsed < typical / 2:
            break
    return passes


def _check_outputs(args, passes, ledger, reference) -> dict:
    """Run the output checks; each is one attempted operation.

    Returns the facts the run record keeps about the outputs.
    """
    done = [p["facts"] for p in passes if p["facts"] is not None]
    ledger.check(bool(done), "no pass completed")
    if not done:
        return {}
    first = done[0]
    counts = first["counts"]
    facts = {key: first[key] for key in ("counts", "detections", "tracks_sha256", "amota",
                                         "report_sha256") if key in first}

    facts["mota"] = 1.0 - (counts["fp"] + counts["fn"] + counts["ids"]) / counts["positives"]
    ledger.check(counts["positives"] == first["gt_boxes"],
                 f"TP+FN={counts['positives']} but ground truth holds "
                 f"{first['gt_boxes']} boxes")
    ledger.check(counts["tp"] + counts["fp"] == first["track_boxes"],
                 f"TP+FP={counts['tp'] + counts['fp']} but tracks hold "
                 f"{first['track_boxes']} boxes")
    for key in ("counts", "tracks_sha256", "amota", "report_sha256"):
        ledger.check(all(f.get(key) == first.get(key) for f in done),
                     f"passes disagree on {key}")
    if "amota" in first:
        ledger.check(first["report_amota"] == first["amota"],
                     "report file does not hold the computed AMOTA")

    if args.workload == "calibrate":
        q_xx, r_xx = first["car_q_xx"], first["car_r_xx"]
        facts["q_xx"], facts["r_xx"] = q_xx, r_xx
        facts["noise_rel_err"] = max(abs(q_xx - TRUE_Q_XX) / TRUE_Q_XX,
                                     abs(r_xx - TRUE_R_XX) / TRUE_R_XX)
        ledger.check(Q_XX_RANGE[0] <= q_xx <= Q_XX_RANGE[1],
                     f"Q_xx {q_xx} outside {Q_XX_RANGE}")
        ledger.check(R_XX_RANGE[0] <= r_xx <= R_XX_RANGE[1],
                     f"R_xx {r_xx} outside {R_XX_RANGE}")

    expected = None if args.smoke else (
        reference.get("outputs", {}).get(args.workload, {}).get(str(args.seed)))
    facts["reference"] = "compared" if expected else "none recorded for this seed"
    if expected:
        for key in ("tp", "fp", "ids"):
            ledger.check(counts[key] == expected[key],
                         f"{key} {counts[key]} differs from the recorded {expected[key]}")
        if "amota" in expected:
            ledger.check(first.get("amota") == expected["amota"],
                         f"AMOTA {first.get('amota')} differs from the recorded "
                         f"{expected['amota']}")
        # Provenance, not a gate: equal hashes mean byte-identical files.
        for key in ("tracks_sha256", "report_sha256"):
            if key in facts:
                facts[key + "_matches_reference"] = facts[key] == expected.get(key)
    return facts


def _end_to_end(setup_s, passes, speedometer) -> dict:
    """End-to-end metrics of the completed passes, at the reference speed."""
    done = [p for p in passes if p["facts"] is not None]
    if not done:
        return {}
    walls = [speedometer.corrected(*p["stamps"]) for p in done]
    frame_s = [speedometer.corrected(*stamps) for p in done for stamps in p["facts"]["frames"]]
    frame_ms = [s * 1e3 for s in frame_s]
    values = {
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "frame_ms_p50": _quantile(frame_ms, 0.5),
        "frame_ms_p90": _quantile(frame_ms, 0.9),
        "detections_per_s": sum(p["facts"]["detections"] for p in done) / sum(frame_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values


def _per_layer(generate_s, passes, reference, workload, speedometer) -> dict:
    """Per-layer metrics: medians over the traced passes.

    Layer times are raw clock time inside the wrappers; trace.overhead
    compares traced and untraced passes at the reference speed.
    """
    import layers

    done = [p for p in passes if p["facts"] is not None]
    traced = [p for p in done if p["traced"]]
    plain = [speedometer.corrected(*p["stamps"]) for p in done if not p["traced"]]
    values = {}
    if traced:
        for name in traced[0]["layers"]:
            # Counts repeat exactly from pass to pass; times take the median.
            middle = statistics.median if name.endswith("_s") else statistics.median_low
            values[name] = middle(p["layers"][name] for p in traced)
        values["trace.overhead"] = (
            statistics.median(speedometer.corrected(*p["stamps"]) for p in traced)
            / statistics.median(plain)) if plain else None
        fired = set().union(*(p["fired"] for p in traced))
        expected = set(reference.get("spans", {}).get(workload, ()))
        for name, spans in layers.METRIC_SPANS.items():
            if any(span in expected and span not in fired for span in spans):
                values[name] = None
    values["synthetic.generate_s"] = statistics.median(generate_s)
    return values


def main(argv=None) -> int:
    args = _parse_args(argv)
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    if not (ROOT / "src" / "mot3d" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no mot3d sources under {ROOT / 'src'}")
    numpy_started = time.perf_counter()
    from speed import Speedometer  # imports numpy
    numpy_s = time.perf_counter() - numpy_started

    speedometer = Speedometer()
    speedometer.start()
    try:
        import_stamps = _import_mot3d()
        outcome = _run(args, import_stamps)
    finally:
        speedometer.stop()
    return _report(args, speedometer, numpy_s, *outcome)


def _run(args, import_stamps):
    """Set up, warm up and time the passes; the speedometer is running."""
    from workloads import WORKLOADS, Ledger, generate_inputs, run_pass, scenario_specs

    workload = WORKLOADS[args.workload]
    work_root = HERE / "work"
    directory = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    directory.mkdir(parents=True, exist_ok=True)
    try:
        # Warm-up: one pass over shrunken inputs pays every first call.
        warm_started = time.perf_counter()
        generate_inputs(scenario_specs(args.workload, args.seed, smoke=True), directory)
        run_pass(workload, directory, Ledger())
        warmup_stamps = (warm_started, time.perf_counter())

        specs = scenario_specs(args.workload, args.seed, smoke=args.smoke)
        setup = [generate_inputs(specs, directory) for _ in range(SETUP_REPEATS)]

        ledger = Ledger()
        passes = _time_passes(workload, directory, ledger, args.seconds,
                              traced_every_other=bool(args.trace),
                              maha_gate=workload.config.maha_threshold)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    return import_stamps, warmup_stamps, setup, ledger, passes


def _report(args, speedometer, numpy_s, import_stamps, warmup_stamps, setup, ledger,
            passes) -> int:
    from speed import REFERENCE_PROBE_S

    reference = (json.loads(REFERENCE_PATH.read_text())
                 if REFERENCE_PATH.is_file() else {})
    facts = _check_outputs(args, passes, ledger, reference)

    corrected = speedometer.corrected
    import_s = numpy_s + corrected(*import_stamps)
    warmup_s = corrected(*warmup_stamps)
    generate_s = [sum(corrected(*s) for s in rep["generate"]) for rep in setup]
    write_s = [sum(corrected(*s) for s in rep["write"]) for rep in setup]
    setup_s = import_s + warmup_s + statistics.median(g + w for g, w in zip(generate_s, write_s))
    if args.trace:
        values = _per_layer(generate_s, passes, reference, args.workload, speedometer)
    else:
        values = _end_to_end(setup_s, passes, speedometer)
    # BENCHMARK.json names the metrics and their units; a value that no
    # completed pass produced is reported as null.
    spec = json.loads(SPEC_PATH.read_text())["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"]), "unit": m["unit"]} for m in spec}

    probes = [e - s for s, e in zip(speedometer.starts, speedometer.ends)]
    record = {
        "provenance": _provenance(args),
        "speed": {"probes": len(probes),
                  "reference_probe_ms": REFERENCE_PROBE_S * 1e3,
                  "probe_ms_min": min(probes) * 1e3 if probes else None,
                  "probe_ms_median": statistics.median(probes) * 1e3 if probes else None,
                  "probe_ms_max": max(probes) * 1e3 if probes else None},
        "setup": {"setup_s": setup_s, "import_s": import_s, "warmup_s": warmup_s,
                  "generate_s": generate_s, "write_s": write_s},
        "passes": [{"traced": p["traced"],
                    "raw_wall_s": p["stamps"][1] - p["stamps"][0] if p["stamps"] else None,
                    "wall_s": corrected(*p["stamps"]) if p["stamps"] else None}
                   for p in passes],
        "frame_samples": sum(len(p["facts"]["frames"]) for p in passes if p["facts"]),
        "outputs": facts,
        "errors": ledger.errors,
        "metrics": metrics,
    }
    print(json.dumps(record, sort_keys=True))
    result = {"correct": ledger.failed == 0, "attempted": ledger.attempted,
              "failed": ledger.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
