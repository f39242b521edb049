"""The benchmark's tracer still reaches the tracker's layers.

perfbench/layers.Tracer rebinds predict, update, both affinities and the
matchers in the tracker module, and counts pairs from each affinity's
.values and matches from each matcher's .pairs.  A change in src/ that
renames one of those globals or drops one of those attributes would
otherwise show only in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from mot3d.dataset_io import RunConfig
from mot3d.synthetic import generate_suite, standard_suite
from mot3d.tracker import run_scene
from tests.test_tracker import hand_noise

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("affinity, matcher", [("mahalanobis", "greedy"),
                                               ("iou", "hungarian")])
def test_a_traced_scene_fires_every_tracker_span(monkeypatch, affinity, matcher):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    layers = importlib.import_module("layers")
    _, detections = generate_suite(standard_suite(seed=2, scenes=1, frame_count=12))
    frames = detections["suite0"]
    labels = {box.class_label for boxes in frames.values() for box in boxes}

    config = RunConfig(affinity=affinity, matcher=matcher)
    untraced = run_scene(frames, hand_noise(labels), config)
    with layers.Tracer(maha_gate=config.maha_threshold) as tracer:
        traced = run_scene(frames, hand_noise(labels), config)

    assert traced == untraced
    assert {"step", "predict", "update", "affinity", "match"} <= tracer.fired()
    assert tracer.spans["step"].calls == len(frames)
    assert tracer.counts["pairs_scored"] > 0
    assert 0 < tracer.counts["pairs_gated"] <= tracer.counts["pairs_scored"]
    assert tracer.counts["matches"] > 0
