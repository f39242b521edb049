"""Work counts of a tracking pass over the seed-11 standard suite, pinned.

The counts are deterministic, so they guard the shape of a frame's work
without any timing: how many times the tracker calls its matcher and
orientation_correct, and how many Cholesky factors (potrf) and solves
(potrs) the filter runs: none, since the per-axis filter solves
elementwise.  A refactor that brings back one matcher call per class
under greedy, a second orientation correction, or a LAPACK call while
tracking fails here.  The suite has 3 scenes of 50 frames; each
scene's first frame has no tracks, so 147 frames hold pairs to match,
441 (frame, class) blocks in all.

The tracker hands each frame's confirmed tracks on as columns, and
write_tracks formats those columns: a pass through step and write_tracks
builds no Box (no trusted_box call).  Reading an output's records builds
its Boxes once; a second read returns the same tuple.
"""

import collections

import numpy as np
import pytest
from scipy.linalg import lapack

from mot3d import core, dataset_io
from mot3d import tracker as tracker_module
from mot3d.calibration import calibrate
from mot3d.dataset_io import RunConfig
from mot3d.synthetic import generate_suite, standard_suite, standard_suite_calibration

# config -> (matcher calls, orientation_correct calls, potrf calls, potrs calls,
#            trusted_box calls through step and write_tracks)
PINNED = {
    "mahalanobis-greedy": (RunConfig(), (147, 0, 0, 0, 0)),
    "mahalanobis-hungarian": (RunConfig(matcher="hungarian"), (441, 0, 0, 0, 0)),
    "iou-greedy": (RunConfig(affinity="iou"), (147, 147, 0, 0, 0)),
    "iou-hungarian": (RunConfig(affinity="iou", matcher="hungarian"), (441, 147, 0, 0, 0)),
}


@pytest.fixture(scope="module")
def standard_pass():
    noise = calibrate(*generate_suite([standard_suite_calibration()]))
    _, detections = generate_suite(standard_suite())
    return noise, detections


def counter():
    """A Counter of calls, and a wrapper of a function that counts its calls under a key."""
    calls = collections.Counter()

    def counting(key, function, check=None):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if check is not None:
                check(*args)
            return function(*args, **kwargs)
        return wrapper
    return calls, counting


@pytest.mark.parametrize("name", PINNED)
def test_a_standard_pass_does_the_pinned_work(name, standard_pass, monkeypatch, tmp_path):
    noise, detections = standard_pass
    config, pinned = PINNED[name]
    calls, counting = counter()

    def float_limit(distances, limit):
        assert isinstance(distances, np.ndarray) and type(limit) is float

    monkeypatch.setattr(tracker_module, "MATCHERS", {
        key: counting("match", matcher, float_limit)
        for key, matcher in tracker_module.MATCHERS.items()})
    for key in ("orientation_correct", "update"):
        monkeypatch.setattr(tracker_module, key, counting(key, getattr(tracker_module, key)))
    for key in ("potrf", "potrs"):  # every LAPACK Cholesky routine the filter could call
        for prefix in "sdcz":
            monkeypatch.setattr(lapack, prefix + key, counting(key, getattr(lapack, prefix + key)))
    for module in (dataset_io, tracker_module):  # every module that builds Boxes this way
        monkeypatch.setattr(module, "trusted_box", counting("trusted_box", core.trusted_box))
    outputs = {scene_id: tracker_module.run_scene(frames, noise, config)
               for scene_id, frames in detections.items()}
    dataset_io.write_tracks(outputs, str(tmp_path / "tracks.json"))
    assert (calls["match"], calls["orientation_correct"], calls["potrf"], calls["potrs"],
            calls["trusted_box"]) == pinned
    # under IOU each frame with matches corrects its yaws once; under
    # Mahalanobis the affinity's corrected yaws are reused
    assert calls["orientation_correct"] == (calls["update"] if "iou" in name else 0)


def test_reading_the_records_twice_builds_each_confirmed_box_once(standard_pass, monkeypatch):
    noise, detections = standard_pass
    calls, counting = counter()
    monkeypatch.setattr(tracker_module, "trusted_box", counting("box", core.trusted_box))
    outputs = [output for frames in detections.values()
               for output in tracker_module.run_scene(frames, noise)]
    assert calls["box"] == 0
    first = [output.records for output in outputs]
    assert all(output.records is records for output, records in zip(outputs, first))
    assert calls["box"] == sum(map(len, first)) == 966
