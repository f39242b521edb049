"""Record the reference outputs the benchmark's output checks compare with.

    python3 perfbench/record_reference.py --seeds 0-63

For every workload and seed this runs one untraced pass and keeps its
TP/FP/FN/IDS, its AMOTA (suite) and, as provenance, the sha256 of the
track file and report.  For every workload it also runs one traced
pass and keeps the names of the spans that fired: a span that fired
here but not in a later traced run makes its metrics missing.  Re-run
it only when a change to mot3d is meant to change these outputs, and
say so in the change.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import layers  # noqa: E402
from run import REFERENCE_PATH  # noqa: E402
from workloads import (WORKLOADS, Ledger, generate_inputs, run_pass,  # noqa: E402
                       scenario_specs, summarize)


def _seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def _outputs(facts: dict) -> dict:
    kept = {key: facts["counts"][key] for key in ("tp", "fp", "fn", "ids")}
    for key in ("amota", "tracks_sha256", "report_sha256"):
        if key in facts:
            kept[key] = facts[key]
    return kept


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-63", help="inclusive range, e.g. 0-63")
    args = parser.parse_args(argv)

    directory = HERE / "work" / "reference"
    directory.mkdir(parents=True, exist_ok=True)
    reference: dict = {"outputs": {}, "spans": {}}
    try:
        for name, workload in WORKLOADS.items():
            per_seed = reference["outputs"][name] = {}
            for seed in _seeds(args.seeds):
                generate_inputs(scenario_specs(name, seed), directory)
                per_seed[str(seed)] = _outputs(summarize(
                    run_pass(workload, directory, Ledger())))
                print(f"{name} seed {seed}: {per_seed[str(seed)]}", flush=True)
            with layers.Tracer(workload.config.maha_threshold) as tracer:
                run_pass(workload, directory, Ledger())
            reference["spans"][name] = sorted(tracer.fired())
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
