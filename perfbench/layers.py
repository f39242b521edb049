"""Per-layer tracing by rebinding the names the calling modules imported.

A traced pass replaces, for its duration, the functions each layer
exposes with thin wrappers that record calls, inclusive time and self
time (inclusive time minus the time of wrapped calls made inside it).
The wrappers are installed from outside: nothing in ``mot3d`` knows it
is being traced.  Rebinding ``mot3d.tracker.predict`` reaches the
tracker's calls because ``tracker.py`` looks the name up in its own
module globals at call time; the same holds for every target below.

Layers are the ``mot3d`` modules.  ``cli`` (argument parsing and the
process pool), ``viz`` (plotting) and ``core``/``errors`` (types and
helpers) are not measured.
"""

from __future__ import annotations

import os
import time

import numpy as np

from mot3d import calibration, dataset_io, metrics
from mot3d import tracker as tracker_module
from workloads import boxes_in


class Span:
    """Totals of one wrapped function over a pass."""

    __slots__ = ("calls", "total_s", "self_s")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0


class Tracer:
    """Installs the wrappers, accumulates spans and counters, restores."""

    def __init__(self, maha_gate: float):
        self.maha_gate = maha_gate
        self.spans: dict = {}
        self.counts: dict = {}
        self._stack: list = []
        self._restore: list = []

    def count(self, name: str, amount: int = 1):
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, name: str, function, after=None):
        """Return function wrapped as span `name`; `after(args, result)` counts."""
        span = self.spans.setdefault(name, Span())
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            started = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - started
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                span.calls += 1
                span.total_s += elapsed
                span.self_s += elapsed - children
            if after is not None:
                after(args, result)
            return result

        return traced

    def _patch(self, owner, attribute: str, value):
        self._restore.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def _rebind(self, owner, attribute: str, name: str, after=None):
        self._patch(owner, attribute, self.wrap(name, getattr(owner, attribute), after))

    def install(self):
        def boxes_read(args, result):
            self.count("boxes_read", boxes_in(result))

        def bytes_written(args, result):
            self.count("bytes_written", os.path.getsize(args[1]))

        def maha_scored(args, result):
            self.count("pairs_scored", result.values.size)
            self.count("pairs_gated", int(np.count_nonzero(result.values < self.maha_gate)))

        def iou_scored(args, result):
            self.count("pairs_scored", result.values.size)
            self.count("pairs_gated", int(np.count_nonzero(result.values > 0.0)))

        def matched(args, result):
            self.count("matches", len(result.pairs))

        def residual_pairs(args, result):
            self.count("residual_pairs", len(result.pairs))

        for loader in ("load_detections", "load_ground_truth", "load_tracks"):
            self._rebind(dataset_io, loader, "read", boxes_read)
        self._rebind(calibration, "load_noise_model", "read")
        self._rebind(dataset_io, "write_tracks", "write", bytes_written)
        self._rebind(calibration, "save_noise_model", "write", bytes_written)
        self._rebind(metrics, "write_report", "write", bytes_written)

        self._rebind(calibration, "calibrate", "calibrate")
        self._rebind(calibration, "greedy_center_match", "center_match.calibration",
                     residual_pairs)

        self._rebind(tracker_module.MultiObjectTracker, "step", "step")
        self._rebind(tracker_module, "predict", "predict")
        self._rebind(tracker_module, "update", "update")
        self._rebind(tracker_module, "mahalanobis_affinity", "affinity", maha_scored)
        self._rebind(tracker_module, "iou_affinity", "affinity", iou_scored)
        self._patch(tracker_module, "MATCHERS", {
            key: self.wrap("match", matcher, matched)
            for key, matcher in tracker_module.MATCHERS.items()
        })

        self._rebind(metrics, "amota", "amota")
        self._rebind(metrics, "match_frame", "match_frame")
        self._rebind(metrics, "greedy_center_match", "center_match.metrics")

    def uninstall(self):
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc_info):
        self.uninstall()

    def fired(self) -> set:
        """Names of the spans that ran at least once."""
        return {name for name, span in self.spans.items() if span.calls}


# Each per-layer metric and the spans it is made of.  A metric whose
# span ran when the reference was recorded but not now is reported as
# missing (null), so a refactor that routes around a wrapped name
# cannot read as a speed-up.
METRIC_SPANS = {
    "dataset_io.read_s": ("read",),
    "dataset_io.boxes_read": ("read",),
    "dataset_io.write_s": ("write",),
    "dataset_io.bytes_written": ("write",),
    "calibration.self_s": ("calibrate",),
    "calibration.second_differences": ("calibrate",),
    "calibration.residual_pairs": ("calibrate", "center_match.calibration"),
    "kalman.predict_s": ("predict",),
    "kalman.predict_calls": ("predict",),
    "kalman.update_s": ("update",),
    "kalman.update_calls": ("update",),
    "association.affinity_s": ("affinity",),
    "association.pairs_scored": ("affinity",),
    "association.us_per_pair": ("affinity",),
    "association.gated_ratio": ("affinity",),
    "association.match_s": ("match",),
    "association.center_match_s": ("center_match.metrics", "center_match.calibration"),
    "association.center_match_calls": ("center_match.metrics", "center_match.calibration"),
    "tracker.self_s": ("step",),
    "tracker.frames": ("step",),
    "tracker.matches": ("step", "match"),
    "tracker.births": ("step",),
    "tracker.confirmed": ("step",),
    "tracker.deaths": ("step",),
    "metrics.amota_s": ("amota",),
    "metrics.self_s": ("amota", "match_frame"),
    "metrics.thresholds": ("amota",),
    "metrics.match_frame_calls": ("match_frame",),
    "metrics.center_match_calls_per_gt_frame": ("center_match.metrics",),
}

# Spans whose self time belongs to each measured layer of a pass.
LAYER_SPANS = {
    "dataset_io": ("read", "write"),
    "calibration": ("calibrate",),
    "kalman": ("predict", "update"),
    "association": ("affinity", "match", "center_match.metrics", "center_match.calibration"),
    "tracker": ("step",),
    "metrics": ("amota", "match_frame"),
}


def pass_layer_metrics(tracer: Tracer, work: dict, wall_s: float) -> dict:
    """Per-layer figures of one traced pass.

    `work` holds counts the pass derives from its own inputs and
    outputs: second differences, distinct track scores, ground-truth
    frames and the tracker's lifecycle totals.
    """
    spans = tracer.spans
    counts = tracer.counts

    def calls(*names):
        return sum(spans[n].calls for n in names)

    def total(*names):
        return sum(spans[n].total_s for n in names)

    def own(*names):
        return sum(spans[n].self_s for n in names)

    pairs = counts.get("pairs_scored", 0)
    affinity_s = total("affinity")
    layer_self = {layer: own(*names) for layer, names in LAYER_SPANS.items()}
    return {
        "dataset_io.read_s": total("read"),
        "dataset_io.boxes_read": counts.get("boxes_read", 0),
        "dataset_io.write_s": total("write"),
        "dataset_io.bytes_written": counts.get("bytes_written", 0),
        "calibration.self_s": layer_self["calibration"],
        "calibration.second_differences": work["second_differences"],
        "calibration.residual_pairs": counts.get("residual_pairs", 0),
        "kalman.predict_s": total("predict"),
        "kalman.predict_calls": calls("predict"),
        "kalman.update_s": total("update"),
        "kalman.update_calls": calls("update"),
        "association.affinity_s": affinity_s,
        "association.pairs_scored": pairs,
        "association.us_per_pair": affinity_s / pairs * 1e6 if pairs else 0.0,
        "association.gated_ratio": counts.get("pairs_gated", 0) / pairs if pairs else 0.0,
        "association.match_s": total("match"),
        "association.center_match_s": total("center_match.metrics",
                                            "center_match.calibration"),
        "association.center_match_calls": calls("center_match.metrics",
                                                "center_match.calibration"),
        "tracker.self_s": layer_self["tracker"],
        "tracker.frames": calls("step"),
        "tracker.matches": counts.get("matches", 0),
        "tracker.births": work["births"],
        "tracker.confirmed": work["confirmed"],
        "tracker.deaths": work["deaths"],
        "metrics.amota_s": total("amota"),
        "metrics.self_s": layer_self["metrics"],
        "metrics.thresholds": work["thresholds"],
        "metrics.match_frame_calls": calls("match_frame"),
        "metrics.center_match_calls_per_gt_frame":
            calls("center_match.metrics") / work["gt_frames"],
        "trace.wall_s": wall_s,
        "trace.coverage": sum(layer_self.values()) / wall_s,
    }
