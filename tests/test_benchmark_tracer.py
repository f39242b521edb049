"""The benchmark's tracer still reaches the tracker's layers.

perfbench/layers.Tracer rebinds predict, update, both affinities and the
matchers in the tracker module, and counts pairs from each affinity's
.values and matches from each matcher's .pairs.  A change in src/ that
renames one of those globals or drops one of those attributes, or that
goes back to one predict, affinity or update call per class, would
otherwise show only in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from mot3d.dataset_io import RunConfig
from mot3d.synthetic import generate_suite, standard_suite
from mot3d.tracker import MultiObjectTracker, run_scene
from tests.test_tracker import hand_noise

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# The spans that stack the rows of every class.
STACKED = ("predict", "affinity", "update")


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
        tracker, traced, calls = MultiObjectTracker(hand_noise(labels), config), [], []
        for frame_index, boxes in frames.items():
            before = {name: tracer.spans[name].calls for name in STACKED}
            traced.append(tracker.step(frame_index, boxes))
            calls.append({name: tracer.spans[name].calls - before[name] for name in STACKED})

    assert traced == untraced
    assert {"step", "predict", "update", "affinity", "match"} <= tracer.fired()
    # one bank per scene: every class's rows go through one call of each per frame
    assert labels == {"bus", "car", "pedestrian"}
    assert all(count <= 1 for frame_calls in calls for count in frame_calls.values())
    assert tracer.spans["step"].calls == len(frames)
    assert tracer.counts["pairs_scored"] > 0
    assert 0 < tracer.counts["pairs_gated"] <= tracer.counts["pairs_scored"]
    assert tracer.counts["matches"] > 0
