import gc
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy.special import gammaincinv
from scipy.stats import chi2

import mot3d
from mot3d.calibration import ClassNoise, NoiseModel, save_noise_model
from mot3d.core import Box, wrap_angle
from mot3d.dataset_io import (DEFAULT_MAHA_GATE, RunConfig, load_config,
                              load_detections, load_ground_truth, load_tracks,
                              merge_config, positive_number, write_detections,
                              write_ground_truth, write_tracks)
from mot3d.errors import ConfigError, SchemaError
from mot3d.synthetic import calibration_scenario, generate
from mot3d.tracker import run_scene
from tests.test_tracker import hand_noise, moving_car_frames

CAR_SIZE = (4.0, 2.0, 1.5)


def detection_payload(score=0.9, **overrides):
    record = {"center": [1.0, 2.0, 0.5], "yaw": 0.3,
              "size": [4.0, 2.0, 1.5], "class": "car", "score": score}
    record.update(overrides)
    return record


def write_json(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_default_gate_value():
    # the gate is written as a literal; both formulas pin it bit for bit
    assert DEFAULT_MAHA_GATE == math.sqrt(chi2.ppf(0.95, 7))
    assert DEFAULT_MAHA_GATE == math.sqrt(2.0 * gammaincinv(3.5, 0.95))
    assert DEFAULT_MAHA_GATE == pytest.approx(3.7506186755440987)
    assert type(DEFAULT_MAHA_GATE) is float


def scipy_modules_loaded(script: str) -> set:
    """The scipy modules a fresh interpreter has loaded after running script."""
    src = os.path.dirname(os.path.dirname(mot3d.__file__))
    out = subprocess.run(
        [sys.executable, "-c", f"{script}\nimport sys; print('\\n'.join(sys.modules))"],
        capture_output=True, text=True, check=True, env=dict(os.environ, PYTHONPATH=src))
    modules = set(out.stdout.split())
    assert "mot3d.tracker" in modules
    return {name for name in modules if name == "scipy" or name.startswith("scipy.")}


def test_import_loads_no_scipy():
    # the tracker's filter solves elementwise, the gate is a literal, and
    # hungarian_match and the dense update import scipy on their first call
    for module in ("mot3d", "mot3d.cli"):
        assert scipy_modules_loaded(f"import {module}") == set(), module


def test_a_greedy_mahalanobis_scene_loads_no_scipy():
    script = "\n".join([
        "from mot3d.calibration import NoiseModel",
        "from mot3d.synthetic import calibration_scenario, generate",
        "from mot3d.tracker import run_scene",
        "_, frames = generate(calibration_scenario(objects=20, frame_count=8, spacing=15.0))",
        "outputs = run_scene(frames, NoiseModel.default_covariance())",
        "assert sum(len(output.records) for output in outputs) > 50"])
    assert scipy_modules_loaded(script) == set()


def test_detection_round_trip(tmp_path):
    detections = {
        "scene-b": {0: [Box(1.25, -3.5, 0.125, 0.75, 4, 2, 1.5,
                            "car", 0, "scene-b", score=0.875)],
                    2: [Box(7, 8, 0, -2.5, 0.7, 0.7, 1.8,
                            "pedestrian", 2, "scene-b", score=0.5)]},
        "scene-a": {5: [Box(0.1, 0.2, 0.3, 0.4, 10, 2.9, 3.4,
                            "bus", 5, "scene-a", score=1.0)]},
    }
    path = tmp_path / "det.json"
    write_detections(detections, str(path))
    loaded = load_detections(str(path))
    assert sorted(loaded) == ["scene-a", "scene-b"]
    assert list(loaded["scene-b"]) == [0, 2]
    first = loaded["scene-b"][0][0]
    original = detections["scene-b"][0][0]
    assert first == original  # frozen dataclasses with float fields
    assert loaded["scene-a"][5][0].class_label == "bus"


def test_arbitrary_float_values_round_trip_exactly(tmp_path):
    # json serializes python floats with repr: bit-exact round trip
    x = 0.1 + 0.2  # not representable prettily
    from mot3d.core import wrap_angle
    yaw = wrap_angle(1.1)
    detections = {"s": {0: [Box(x, math.pi, -0.0, yaw, 4, 2, 1.5,
                                "car", 0, "s", score=0.123456789012345)]}}
    path = tmp_path / "det.json"
    write_detections(detections, str(path))
    loaded = load_detections(str(path))["s"][0][0]
    assert loaded.x == x
    assert loaded.y == math.pi
    assert loaded.a == yaw
    assert loaded.score == 0.123456789012345


def test_ground_truth_round_trip(tmp_path):
    gt = {"s": {0: [Box(0, 0, 0, 0, 4, 2, 1.5, "car", 0, "s",
                        instance_id="inst001")],
                1: [Box(1, 0, 0, 0, 4, 2, 1.5, "car", 1, "s",
                        instance_id="inst001")]}}
    path = tmp_path / "gt.json"
    write_ground_truth(gt, str(path))
    loaded = load_ground_truth(str(path))
    assert loaded["s"][1][0].instance_id == "inst001"
    assert loaded["s"][0][0] == gt["s"][0][0]


def test_track_round_trip_through_tracker(tmp_path):
    outputs = run_scene(moving_car_frames(5), hand_noise())
    path = tmp_path / "tracks.json"
    write_tracks({"scene": outputs}, str(path), meta={"tool": "test"})
    loaded = load_tracks(str(path))
    assert list(loaded) == ["scene"]
    # the file records the empty pre-confirmation frames, the loaded
    # mapping is sparse and only holds frames with boxes
    assert '"0": []' in path.read_text()
    assert list(loaded["scene"]) == [2, 3, 4]
    boxes = loaded["scene"][4]
    assert len(boxes) == 1
    assert boxes[0].track_id == 1
    assert boxes[0].x == pytest.approx(4.0, abs=0.2)


def test_write_is_deterministic(tmp_path):
    outputs = run_scene(moving_car_frames(4), hand_noise())
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    write_tracks({"s": outputs}, str(a), meta={"k": 1})
    write_tracks({"s": outputs}, str(b), meta={"k": 1})
    assert a.read_bytes() == b.read_bytes()


def test_underscore_keys_are_reserved_for_metadata(tmp_path):
    payload = {"_meta": {"anything": [1, 2, {"nested": True}]},
               "_extra": "ignored",
               "s": {"0": [detection_payload()]}}
    loaded = load_detections(write_json(tmp_path / "d.json", payload))
    assert list(loaded) == ["s"]


def test_scenes_and_frames_come_back_sorted(tmp_path):
    payload = {"zz": {"11": [detection_payload()], "2": [detection_payload()]},
               "aa": {"5": [detection_payload()]}}
    loaded = load_detections(write_json(tmp_path / "d.json", payload))
    assert list(loaded) == ["aa", "zz"]
    assert list(loaded["zz"]) == [2, 11]


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(SchemaError, match="not found"):
        load_detections(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2")
    with pytest.raises(SchemaError, match="JSON"):
        load_detections(str(bad))
    array = tmp_path / "array.json"
    array.write_text("[]")
    with pytest.raises(SchemaError, match="object"):
        load_detections(str(array))


def test_schema_errors_carry_location(tmp_path):
    cases = [
        ({"s": {"0": [detection_payload(score=1.5)]}}, "score"),
        ({"s": {"0": [detection_payload(yaw="north")]}}, "yaw"),
        ({"s": {"0": [detection_payload(size=[1.0, 2.0])]}}, "size"),
        ({"s": {"0": [detection_payload(center=[1.0, 2.0, None])]}}, "center"),
        ({"s": {"0": [{k: v for k, v in detection_payload().items()
                       if k != "class"}]}}, "class"),
        ({"s": {"0": [detection_payload(extra_field=1)]}}, "extra_field"),
        ({"s": {"0": [detection_payload(**{"class": "unicorn"})]}}, "unicorn"),
        # integer literals beyond the float range used to raise OverflowError
        ({"s": {"0": [detection_payload(yaw=10 ** 400)]}}, "yaw"),
        ({"s": {"0": [detection_payload(score=10 ** 400)]}}, "score"),
        ({"s": {"0": [detection_payload(center=[1.0, -10 ** 400, 0.5])]}}, "center"),
        ({"s": {"0": [detection_payload(size=[10 ** 400, 2.0, 1.5])]}}, "size"),
    ]
    for payload, needle in cases:
        path = write_json(tmp_path / "case.json", payload)
        with pytest.raises(SchemaError) as excinfo:
            load_detections(path)
        message = str(excinfo.value)
        assert needle in message
        assert "scene 's' frame 0" in message
    # the location is built only once a record faults, so pin one deep in a file
    clean = {"0": [detection_payload()], "3": [detection_payload()] * 9}
    faulty = {"0": [detection_payload()], "3": [detection_payload()] * 7 + [
        detection_payload(score=1.5), detection_payload(yaw=None)]}
    path = write_json(tmp_path / "case.json", {"a": clean, "b": faulty, "c": {"x": []}})
    with pytest.raises(SchemaError) as excinfo:
        load_detections(path)
    assert (str(excinfo.value)
            == "detections scene 'b' frame 3 record 7: score must lie in [0, 1], got 1.5")


def test_box_loads_pause_the_cyclic_collector(tmp_path):
    spec = calibration_scenario(objects=100, frame_count=102)
    path = tmp_path / "gt.json"
    write_ground_truth({spec.scene_id: generate(spec)[0]}, str(path))
    payload = json.loads(path.read_text())
    payload[spec.scene_id]["51"][40]["size"][2] = -1.0
    faulty = write_json(tmp_path / "faulty.json", payload)
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    collecting = gc.isenabled()
    gc.callbacks.append(count)
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            # count only inside the call: a container allocated outside it
            # may start a collection once the collector is on
            collections.clear()
            boxes = load_ground_truth(str(path))
            assert not collections
            assert gc.isenabled() is enabled
            assert sum(map(len, boxes[spec.scene_id].values())) == 10200
            with pytest.raises(SchemaError, match="frame 51 record 40: h must be positive"):
                load_ground_truth(faulty)
            assert gc.isenabled() is enabled
    finally:
        gc.callbacks.remove(count)
        (gc.enable if collecting else gc.disable)()


def test_frame_key_validation(tmp_path):
    # only canonical decimals: "007" raised KeyError, "²" passed isdigit
    # and raised ValueError
    cases = [{bad_key: []} for bad_key in ("-1", "1.5", "x", "", "007", "²")]
    # "07" next to "7" loaded the "7" boxes twice and dropped the "07" ones
    cases.append({"7": [detection_payload()], "07": [detection_payload(score=0.1)]})
    for frames in cases:
        payload = {"s": frames}
        with pytest.raises(SchemaError, match="frame key"):
            load_detections(write_json(tmp_path / "d.json", payload))


def test_duplicate_instance_rejected(tmp_path):
    record = {"center": [0.0, 0.0, 0.0], "yaw": 0.0, "size": [4.0, 2.0, 1.5],
              "class": "car", "instance_id": "dup"}
    payload = {"s": {"0": [record, dict(record, center=[9.0, 0.0, 0.0])]}}
    with pytest.raises(SchemaError, match="dup"):
        load_ground_truth(write_json(tmp_path / "gt.json", payload))
    # a null id is no exemption: the first one is at fault, before any duplicate check
    null = dict(record, instance_id=None)
    with pytest.raises(SchemaError) as excinfo:
        load_ground_truth(write_json(tmp_path / "null.json", {"s": {"0": [record, null, null]}}))
    assert str(excinfo.value) == ("ground truth scene 's' frame 0 record 1: "
                                  "instance_id must be a non-empty string, got None")
    # the same instance on different frames is the normal case
    fine = {"s": {"0": [record], "1": [record]}}
    loaded = load_ground_truth(write_json(tmp_path / "gt2.json", fine))
    assert len(loaded["s"]) == 2


def test_track_id_validation(tmp_path):
    record = {"center": [0.0, 0.0, 0.0], "yaw": 0.0, "size": [4.0, 2.0, 1.5],
              "class": "car", "score": 0.5, "track_id": 0}
    with pytest.raises(SchemaError, match="track_id"):
        load_tracks(write_json(tmp_path / "t.json", {"s": {"0": [record]}}))
    record["track_id"] = True
    with pytest.raises(SchemaError, match="track_id"):
        load_tracks(write_json(tmp_path / "t2.json", {"s": {"0": [record]}}))
    record["track_id"] = None
    with pytest.raises(SchemaError, match="record 0: track_id must be a positive int, got None"):
        load_tracks(write_json(tmp_path / "t3.json", {"s": {"0": [record]}}))
    # a null id is the last value rule: Box's own come first
    record["score"] = 2.0
    with pytest.raises(SchemaError, match=r"record 0: score must lie in \[0, 1\], got 2.0"):
        load_tracks(write_json(tmp_path / "t4.json", {"s": {"0": [record]}}))


def test_run_config_defaults_and_validation():
    config = RunConfig()
    assert config.matcher == "greedy"
    assert config.affinity == "mahalanobis"
    assert config.maha_threshold == DEFAULT_MAHA_GATE
    assert config.birth_hits == 3
    assert config.death_misses == 2
    assert config.amota_samples == 40
    assert config.angular_velocity is True
    cases = [
        dict(matcher="simplex"),
        dict(affinity="center"),
        dict(score_mode="max"),
        dict(maha_threshold=0.0),
        dict(maha_threshold=math.inf),
        dict(iou_threshold=1.0),
        dict(iou_threshold=0.0),
        dict(birth_hits=0),
        dict(death_misses=-1),
        dict(birth_hits=True),
        dict(amota_samples=1),
        dict(class_maha_thresholds={"griffin": 2.0}),
        dict(class_maha_thresholds={"car": 0.0}),
        dict(class_maha_thresholds={"car": math.inf}),
        # values of the wrong type used to escape as TypeError
        dict(maha_threshold="x"),
        dict(maha_threshold=10 ** 400),
        dict(iou_threshold=[0.2]),
        dict(class_maha_thresholds=[1]),
        dict(class_maha_thresholds={"car": None}),
        dict(angular_velocity="no"),
    ]
    for overrides in cases:
        with pytest.raises(ConfigError):
            RunConfig(**overrides)
    # inf is positive: the message names the rule that it breaks
    for overrides in (dict(maha_threshold=math.inf), dict(class_maha_thresholds={"car": math.inf})):
        with pytest.raises(ConfigError, match="must be a finite positive number$"):
            RunConfig(**overrides)


def test_positive_number_is_finite_real_above_zero():
    for value in (1, 0.5, 10 ** 300, Fraction(1, 3), np.float32(2.0), np.int64(3)):
        assert positive_number(value) is True, value
    for value in (0, 0.0, -1.0, True, False, None, "1", [1.0], math.nan, math.inf, 10 ** 400,
                  -10 ** 400, Fraction(10 ** 400), np.float64("nan")):
        assert positive_number(value) is False, value


def test_config_dict_round_trip():
    config = RunConfig(matcher="hungarian", affinity="iou", iou_threshold=0.3,
                       class_maha_thresholds={"car": 4.0}, birth_hits=2,
                       amota_samples=10, score_mode="running_mean",
                       angular_velocity=False)
    assert RunConfig.from_dict(config.to_dict()) == config
    with pytest.raises(ConfigError, match="unknown config keys"):
        RunConfig.from_dict({"matcher": "greedy", "velocity": True})


def test_load_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"matcher": "hungarian", "birth_hits": 2}))
    config = load_config(str(path))
    assert config.matcher == "hungarian"
    assert config.birth_hits == 2
    assert config.affinity == "mahalanobis"  # defaults fill the rest
    with pytest.raises(ConfigError, match="not found"):
        load_config(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("nope")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(str(bad))
    array = tmp_path / "array.json"
    array.write_text("[]")
    with pytest.raises(ConfigError, match="object"):
        load_config(str(array))


def test_merge_config_skips_none():
    base = RunConfig(matcher="hungarian", birth_hits=2)
    merged = merge_config(base, matcher=None, birth_hits=4, affinity=None)
    assert merged.matcher == "hungarian"
    assert merged.birth_hits == 4
    assert merge_config(base) is base


def test_failed_write_keeps_the_old_file(tmp_path, monkeypatch):
    detections = {"s": {0: [Box(0, 0, 0, 0, 4, 2, 1.5, "car", 0, "s",
                                score=0.5)]}}
    det_path = tmp_path / "det.json"
    write_detections(detections, str(det_path))
    noise_path = tmp_path / "noise.json"
    noise = NoiseModel({"car": ClassNoise(np.ones(11), np.ones(7), np.ones(11))})
    save_noise_model(noise, str(noise_path))
    before = {path: path.read_bytes() for path in (det_path, noise_path)}

    with pytest.raises(TypeError):  # meta that JSON cannot hold
        write_detections(detections, str(det_path), meta={"bad": object()})
    with pytest.raises(ValueError, match="score"):  # a box the loader would reject
        write_detections({"s": {0: [Box(0, 0, 0, 0, 4, 2, 1.5, "car", 0)]}},
                         str(det_path))

    def dump_half_then_fail(payload, handle, **kwargs):
        handle.write('{"classes": ')
        raise OSError("no space left on device")

    monkeypatch.setattr(json, "dump", dump_half_then_fail)
    # an OSError built from one argument has no strerror; its text is the reason
    with pytest.raises(SchemaError, match="cannot write .*no space left on device"):
        save_noise_model(noise, str(noise_path))

    assert {path: path.read_bytes() for path in before} == before
    assert sorted(os.listdir(tmp_path)) == ["det.json", "noise.json"]


# One fault per entry, in the order the loader reports them: unexpected
# keys, then center, yaw, size, the file's extra fields, and last the
# value rules of Box.  Each fault touches its own spot
# of the record, so any two can be combined.
RECORD_FAULTS = [
    ("extra key", lambda r: r.update(colour="red"), "unexpected fields ['colour']"),
    ("NaN", lambda r: r["center"].__setitem__(0, math.nan),
     "field 'center' must be a finite number"),
    ("huge integer", lambda r: r.update(yaw=10 ** 400), "field 'yaw' must be a finite number"),
    ("Infinity", lambda r: r["size"].__setitem__(0, math.inf),
     "field 'size' must be a finite number"),
    ("bool", lambda r: r["size"].__setitem__(1, True), "field 'size' must be a number, got True"),
    ("string", lambda r: r.update(score="0.9"), "field 'score' must be a number, got '0.9'"),
    ("negative size", lambda r: r["size"].__setitem__(2, -1.5), "h must be positive, got -1.5"),
    ("unknown class", lambda r: r.update({"class": "unicorn"}),
     "unknown class label 'unicorn'"),
    ("score 1.5", lambda r: r.update(score=1.5), "score must lie in [0, 1], got 1.5"),
]
FAULT_PAIRS = [(first, second)
               for i, first in enumerate(RECORD_FAULTS) for second in RECORD_FAULTS[i + 1:]
               if {first[0], second[0]} != {"string", "score 1.5"}]  # both set the score


def load_error(tmp_path, faults) -> str:
    record = detection_payload()
    for _, apply, _ in faults:
        apply(record)
    with pytest.raises(SchemaError) as excinfo:
        load_detections(write_json(tmp_path / "faulty.json", {"s": {"0": [record]}}))
    return str(excinfo.value)


@pytest.mark.parametrize("fault", RECORD_FAULTS, ids=[f[0] for f in RECORD_FAULTS])
def test_each_record_fault_has_its_message(tmp_path, fault):
    assert load_error(tmp_path, [fault]) == f"detections scene 's' frame 0 record 0: {fault[2]}"


@pytest.mark.parametrize("first, second", FAULT_PAIRS,
                         ids=[f"{a[0]}+{b[0]}" for a, b in FAULT_PAIRS])
def test_record_with_two_faults_reports_the_earlier_one(tmp_path, first, second):
    expected = f"detections scene 's' frame 0 record 0: {first[2]}"
    assert load_error(tmp_path, [first, second]) == expected
    assert load_error(tmp_path, [second, first]) == expected


NUMBER_LITERALS = ('{"s": {"0": [{"center": [1, -0.0, 5e-324], "yaw": -3, '
                   '"size": [1e308, 2, 10000000000000000000001], "class": "car", "score": 1}]}}')


def test_number_literals_load_as_floats(tmp_path):
    path = tmp_path / "literals.json"
    path.write_text(NUMBER_LITERALS)
    box = load_detections(str(path))["s"][0][0]
    values = (box.x, box.y, box.z, box.l, box.w, box.h, box.score)
    assert all(type(value) is float for value in values + (box.a,))
    assert values == (1.0, -0.0, 5e-324, 1e308, 2.0, float(10 ** 22 + 1), 1.0)
    assert math.copysign(1.0, box.y) == -1.0
    assert box.a == wrap_angle(-3.0)


def test_number_literals_write_back_as_floats(tmp_path):
    path = tmp_path / "literals.json"
    path.write_text(NUMBER_LITERALS)
    out = tmp_path / "again.json"
    write_detections(load_detections(str(path)), str(out))
    assert out.read_text() == """{
  "s": {
    "0": [
      {
        "center": [
          1.0,
          -0.0,
          5e-324
        ],
        "class": "car",
        "score": 1.0,
        "size": [
          1e+308,
          2.0,
          1e+22
        ],
        "yaw": -3.0
      }
    ]
  }
}
"""
