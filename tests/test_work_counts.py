"""Work counts of a tracking pass over the seed-11 standard suite, pinned.

The counts are deterministic, so they guard the shape of a frame's work
without any timing: how many times the tracker calls its matcher and
orientation_correct, and how many Cholesky factors (potrf) and solves
(potrs) the filter runs.  A refactor that brings back one matcher call
per class under greedy, a second orientation correction, or a second
factor of a row fails here.  The suite has 3 scenes of 50 frames; each
scene's first frame has no tracks, so 147 frames hold pairs to match,
441 (frame, class) blocks in all.
"""

import collections

import numpy as np
import pytest

from mot3d import kalman
from mot3d import tracker as tracker_module
from mot3d.calibration import calibrate
from mot3d.dataset_io import RunConfig
from mot3d.synthetic import generate_suite, standard_suite, standard_suite_calibration

# config -> (matcher calls, orientation_correct calls, potrf calls, potrs calls)
PINNED = {
    "mahalanobis-greedy": (RunConfig(), (147, 0, 1417, 2377)),
    "mahalanobis-hungarian": (RunConfig(matcher="hungarian"), (441, 0, 1419, 2376)),
    "iou-greedy": (RunConfig(affinity="iou"), (147, 147, 769, 769)),
    "iou-hungarian": (RunConfig(affinity="iou", matcher="hungarian"), (441, 147, 769, 769)),
}


@pytest.fixture(scope="module")
def standard_pass():
    noise = calibrate(*generate_suite([standard_suite_calibration()]))
    _, detections = generate_suite(standard_suite())
    return noise, detections


@pytest.mark.parametrize("name", PINNED)
def test_a_standard_pass_does_the_pinned_work(name, standard_pass, monkeypatch):
    noise, detections = standard_pass
    config, pinned = PINNED[name]
    calls = collections.Counter()

    def counting(key, function, check=None):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if check is not None:
                check(*args)
            return function(*args, **kwargs)
        return wrapper

    def float_limit(distances, limit):
        assert isinstance(distances, np.ndarray) and type(limit) is float

    monkeypatch.setattr(tracker_module, "MATCHERS", {
        key: counting("match", matcher, float_limit)
        for key, matcher in tracker_module.MATCHERS.items()})
    for key in ("orientation_correct", "update"):
        monkeypatch.setattr(tracker_module, key, counting(key, getattr(tracker_module, key)))
    monkeypatch.setattr(kalman, "_POTRF", counting("potrf", kalman._POTRF))
    monkeypatch.setattr(kalman, "_POTRS", counting("potrs", kalman._POTRS))
    for frames in detections.values():
        tracker_module.run_scene(frames, noise, config)
    assert (calls["match"], calls["orientation_correct"], calls["potrf"], calls["potrs"]) == pinned
    # under IOU each frame with matches corrects its yaws once; under
    # Mahalanobis the affinity's corrected yaws are reused
    assert calls["orientation_correct"] == (calls["update"] if "iou" in name else 0)
