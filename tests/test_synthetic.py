import dataclasses
import hashlib
import json
import math
import warnings

import pytest

from mot3d.core import CLASS_LABELS, wrap_angle
from mot3d.dataset_io import write_detections, write_ground_truth
from mot3d.errors import SchemaError
from mot3d.synthetic import (CLASS_SIZES, RNG_NAME, NoiseSpec, ObjectSpec,
                             ScenarioSpec, calibration_scenario, generate,
                             generate_suite, load_scenarios, noiseless_scene,
                             scenario_meta, spec_from_dict,
                             standard_suite, standard_suite_calibration,
                             turning_scenario)


def simple_spec(**overrides) -> ScenarioSpec:
    defaults = dict(
        scene_id="unit",
        frame_count=60,
        objects=(ObjectSpec("car", x=-20.0, y=0.0, vx=0.7),
                 ObjectSpec("pedestrian", x=10.0, y=5.0, vy=0.4)),
        noise=NoiseSpec(),
        seed=3,
    )
    defaults.update(overrides)
    return ScenarioSpec(**defaults)


def total_boxes(frames) -> int:
    return sum(len(boxes) for boxes in frames.values())


def test_class_sizes_cover_every_label():
    assert set(CLASS_SIZES) == set(CLASS_LABELS)
    for size in CLASS_SIZES.values():
        assert len(size) == 3
        assert all(v > 0 for v in size)
    assert RNG_NAME == "numpy-pcg64"


def test_generation_is_deterministic_per_seed():
    spec = simple_spec(noise=NoiseSpec(position_sigma=(0.1, 0.1, 0.05),
                                       accel_sigma=(0.05,) * 4,
                                       p_miss=0.1, fp_rate=0.5,
                                       score_range=(0.5, 1.0)))
    gt1, det1 = generate(spec)
    gt2, det2 = generate(spec)
    assert gt1 == gt2
    assert det1 == det2
    gt3, det3 = generate(dataclasses.replace(spec, seed=4))
    assert det3 != det1


def test_noiseless_detections_coincide_with_ground_truth():
    gt, det = generate(noiseless_scene())
    assert sorted(gt) == list(range(50))
    for frame in gt:
        assert len(det[frame]) == len(gt[frame]) == 5
        for g, d in zip(gt[frame], det[frame]):
            assert d.x == g.x
            assert d.y == g.y
            assert d.z == g.z
            assert d.a == pytest.approx(g.a, abs=1e-12)
            assert d.l == g.l
            assert d.class_label == g.class_label
            assert d.score == 1.0


def test_constant_velocity_trajectory():
    spec = simple_spec(objects=(ObjectSpec("car", x=-5.0, y=2.0, vx=0.5, vy=-0.25),),
                       frame_count=10)
    gt, _ = generate(spec)
    for frame in range(10):
        box = gt[frame][0]
        assert box.x == pytest.approx(-5.0 + 0.5 * frame)
        assert box.y == pytest.approx(2.0 - 0.25 * frame)
        assert box.a == 0.0


def test_yaw_rate_advances_heading():
    gt, _ = generate(turning_scenario())
    yaws = [gt[frame][0].a for frame in sorted(gt)]
    for previous, current in zip(yaws, yaws[1:]):
        assert wrap_angle(current - previous) == pytest.approx(0.15, abs=1e-12)


def test_p_miss_drops_detections():
    spec = simple_spec(frame_count=100,
                       noise=NoiseSpec(p_miss=0.5, score_range=(0.5, 1.0)))
    gt, det = generate(spec)
    assert total_boxes(det) < total_boxes(gt)
    assert total_boxes(det) > 0


def test_false_positives_land_inside_bounds():
    bounds = (-12.0, 12.0, -7.0, 7.0)
    spec = simple_spec(
        frame_count=120,
        objects=(ObjectSpec("car", x=200.0, y=200.0, size=(4.0, 2.0, 1.5)),),
        bounds=bounds,
        noise=NoiseSpec(fp_rate=1.5, score_range=(0.8, 1.0),
                        fp_score_range=(0.1, 0.4)))
    # the single true object sits far outside the clutter region, so
    # every detection inside the bounds is a false positive
    _, det = generate(spec)
    fps = [d for boxes in det.values() for d in boxes if d.x < 100.0]
    assert len(fps) > 50
    for d in fps:
        assert bounds[0] <= d.x <= bounds[1]
        assert bounds[2] <= d.y <= bounds[3]
        assert spec.fp_z_range[0] <= d.z <= spec.fp_z_range[1]
        assert 0.1 <= d.score <= 0.4
        assert d.class_label == "car"  # clutter mimics the scene's classes


def test_detection_scores_respect_range():
    spec = simple_spec(noise=NoiseSpec(score_range=(0.55, 0.8)))
    _, det = generate(spec)
    scores = [d.score for boxes in det.values() for d in boxes]
    assert scores
    assert all(0.55 <= s <= 0.8 for s in scores)


def test_overflowing_scene_is_a_value_error_without_warnings():
    runaway = simple_spec(objects=(ObjectSpec("car", x=1e308, y=0.0, vx=1e308),))
    wide = simple_spec(noise=NoiseSpec(position_sigma=1e308))
    # angle noise must overflow here too, not reach wrap_angle as an infinite yaw
    turning = simple_spec(noise=NoiseSpec(angle_sigma=1e308))
    growing = simple_spec(noise=NoiseSpec(size_sigma=1e308))
    for spec in (runaway, wide, turning, growing):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="leaves the float range"):
                generate(spec)


def test_overflow_is_caught_per_operation_not_per_box():
    # each extent fits a float though a box's seven values sum past it
    spec = simple_spec(frame_count=5,
                       objects=(ObjectSpec("car", x=0.0, y=0.0, size=(1e308, 1e308, 1e308)),),
                       noise=NoiseSpec(position_sigma=0.1, size_sigma=0.01, accel_sigma=0.01))
    gt, det = generate(spec)
    for boxes in (gt, det):
        assert [(b.l, b.w, b.h) for frame in boxes.values() for b in frame] == [(1e308,) * 3] * 5


def test_first_frame_and_lifespan_window():
    spec = simple_spec(
        frame_count=30,
        objects=(ObjectSpec("car", x=0.0, y=0.0, first_frame=5, lifespan=10),))
    gt, _ = generate(spec)
    present = sorted(frame for frame, boxes in gt.items() if boxes)
    assert present == list(range(5, 15))


def test_instance_ids_follow_object_order():
    gt, _ = generate(simple_spec(frame_count=1))
    ids = [box.instance_id for box in gt[0]]
    assert ids == ["inst000", "inst001"]


def test_spec_dict_round_trip():
    spec = simple_spec(noise=NoiseSpec(position_sigma=(0.1, 0.2, 0.3),
                                       angle_sigma=0.05, size_sigma=0.01,
                                       accel_sigma=(0.1, 0.2, 0.3, 0.4),
                                       p_miss=0.25, fp_rate=1.0,
                                       score_range=(0.5, 0.9),
                                       fp_score_range=(0.05, 0.45)),
                       objects=(ObjectSpec("bus", x=1.0, y=2.0, z=0.5, yaw=0.3,
                                           vx=0.5, yaw_rate=0.01,
                                           size=(11.0, 3.0, 3.5),
                                           first_frame=2, lifespan=20),))
    assert spec_from_dict(dataclasses.asdict(spec)) == spec


def test_load_scenarios_forms(tmp_path):
    spec = simple_spec()
    single = tmp_path / "one.json"
    single.write_text(json.dumps(dataclasses.asdict(spec)))
    assert load_scenarios(str(single)) == [spec]
    other = dataclasses.replace(spec, scene_id="unit2", seed=9)
    many = tmp_path / "many.json"
    many.write_text(json.dumps(
        {"scenarios": [dataclasses.asdict(spec), dataclasses.asdict(other)]}))
    assert load_scenarios(str(many)) == [spec, other]


def test_load_scenarios_errors(tmp_path):
    with pytest.raises(SchemaError, match="not found"):
        load_scenarios(str(tmp_path / "absent.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{{{")
    with pytest.raises(SchemaError, match="JSON"):
        load_scenarios(str(bad))
    array = tmp_path / "array.json"
    array.write_text("[1]")
    with pytest.raises(SchemaError, match="object"):
        load_scenarios(str(array))
    empty = tmp_path / "empty.json"
    empty.write_text("{\"scenarios\": []}")
    with pytest.raises(SchemaError, match="non-empty"):
        load_scenarios(str(empty))
    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps({"scene_id": "x", "frame_count": 0}))
    with pytest.raises(SchemaError, match="invalid scenario spec"):
        load_scenarios(str(invalid))
    unknown_field = tmp_path / "unknown.json"
    payload = dataclasses.asdict(simple_spec())
    payload["objects"][0]["wings"] = 2
    unknown_field.write_text(json.dumps(payload))
    with pytest.raises(SchemaError, match="invalid scenario spec"):
        load_scenarios(str(unknown_field))
    # a non-object entry used to raise AttributeError
    not_an_object = tmp_path / "not_an_object.json"
    not_an_object.write_text(json.dumps({"scenarios": [1]}))
    with pytest.raises(SchemaError, match="invalid scenario spec"):
        load_scenarios(str(not_an_object))
    # errors name the file and, in a collection, the entry
    third_bad = tmp_path / "third_bad.json"
    good = dataclasses.asdict(simple_spec())
    third_bad.write_text(json.dumps({"scenarios": [good, good, dict(good, seed=-1)]}))
    with pytest.raises(SchemaError) as raised:
        load_scenarios(str(third_bad))
    assert str(raised.value).startswith(f"{third_bad} scenarios[2]: invalid scenario spec: seed")
    with pytest.raises(SchemaError) as raised:
        load_scenarios(str(invalid))
    assert str(raised.value).startswith(f"{invalid}: invalid scenario spec")


def test_generate_suite_and_meta():
    specs = standard_suite()
    gt, det = generate_suite(specs)
    assert sorted(gt) == sorted(spec.scene_id for spec in specs)
    assert sorted(det) == sorted(gt)
    meta = scenario_meta(specs)
    assert meta["generator"] == "mot3d-synthetic"
    assert meta["rng"] == RNG_NAME
    assert set(meta["seeds"]) == set(gt)
    duplicated = [specs[0], specs[0]]
    with pytest.raises(ValueError, match="unique"):
        generate_suite(duplicated)


def test_standard_suite_has_fast_small_objects():
    # pedestrians must displace farther per frame than their own box
    # footprint, so center-distance continuity alone cannot track them
    specs = standard_suite()
    assert len(specs) == 3
    peds = [obj for spec in specs for obj in spec.objects
            if obj.class_label == "pedestrian"]
    assert peds
    for obj in peds:
        speed = math.hypot(obj.vx, obj.vy)
        assert speed > max(obj.extents()[0], obj.extents()[1])


def test_calibration_scenario_scale():
    spec = calibration_scenario()
    assert spec.frame_count == 102
    assert len(spec.objects) == 100
    # 100 contiguous tracks of 102 frames: exactly 10000 second diffs
    assert len(spec.objects) * (spec.frame_count - 2) == 10000
    suite_cal = standard_suite_calibration()
    labels = {obj.class_label for obj in suite_cal.objects}
    assert {"pedestrian", "car", "bus"} <= labels


def test_object_spec_validation():
    with pytest.raises(ValueError, match="class"):
        ObjectSpec("drone", x=0.0, y=0.0)
    with pytest.raises(ValueError, match="size"):
        ObjectSpec("car", x=0.0, y=0.0, size=(1.0, 2.0))
    with pytest.raises(ValueError, match="positive"):
        ObjectSpec("car", x=0.0, y=0.0, size=(0.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="first_frame"):
        ObjectSpec("car", x=0.0, y=0.0, first_frame=-1)
    with pytest.raises(ValueError, match="lifespan"):
        ObjectSpec("car", x=0.0, y=0.0, lifespan=0)
    with pytest.raises(ValueError, match="vx must be finite"):
        ObjectSpec("car", x=0.0, y=0.0, vx=math.inf)
    assert ObjectSpec("car", x=0.0, y=0.0).extents() == CLASS_SIZES["car"]
    custom = ObjectSpec("car", x=0.0, y=0.0, size=[5.0, 2.2, 1.6])
    assert custom.extents() == (5.0, 2.2, 1.6)


def test_noise_spec_validation():
    with pytest.raises(ValueError, match="p_miss"):
        NoiseSpec(p_miss=1.0)
    with pytest.raises(ValueError, match="fp_rate"):
        NoiseSpec(fp_rate=-0.1)
    with pytest.raises(ValueError, match="position_sigma"):
        NoiseSpec(position_sigma=(0.1, 0.1))
    with pytest.raises(ValueError, match="score_range"):
        NoiseSpec(score_range=(0.9, 0.5))
    with pytest.raises(ValueError, match="score_range"):
        NoiseSpec(score_range=(0.5, 1.2))
    with pytest.raises(ValueError, match="fp_rate"):
        NoiseSpec(fp_rate=math.nan)
    with pytest.raises(ValueError, match="position_sigma must be finite"):
        NoiseSpec(position_sigma=math.nan)
    with pytest.raises(ValueError, match="accel_sigma must be finite and non-negative"):
        NoiseSpec(accel_sigma=(0.1, -0.1, 0.0, 0.0))
    with pytest.raises(ValueError, match="angle_sigma"):
        NoiseSpec(angle_sigma=-1.0)


def test_scenario_spec_validation():
    with pytest.raises(ValueError, match="scene_id"):
        simple_spec(scene_id="_meta")
    with pytest.raises(ValueError, match="scene_id"):
        simple_spec(scene_id="")
    with pytest.raises(ValueError, match="frame_count"):
        simple_spec(frame_count=0)
    with pytest.raises(ValueError, match="bounds"):
        simple_spec(bounds=(5.0, -5.0, 0.0, 1.0))
    with pytest.raises(ValueError, match="bounds must be finite"):
        simple_spec(bounds=(-5.0, math.inf, 0.0, 1.0))
    for seed in (-1, 1.5, True):
        with pytest.raises(ValueError, match="seed"):
            simple_spec(seed=seed)


def test_scenario_spec_entries_must_be_specs():
    # caught when the spec is built, not as an AttributeError inside generate
    with pytest.raises(ValueError, match=r"^objects\[1\] must be of type ObjectSpec, got 'car'$"):
        ScenarioSpec("s", 5, objects=(ObjectSpec("car", x=0.0, y=0.0), "car"))
    with pytest.raises(ValueError, match=r"^noise must be of type NoiseSpec, got \{'p_miss': 0.5\}$"):
        ScenarioSpec("s", 5, objects=(), noise={"p_miss": 0.5})


def test_counts_and_seeds_must_be_ints():
    for bad in (5.5, True, "3", None):
        with pytest.raises(ValueError, match=r"^frame_count must be an int >= 1, got "):
            simple_spec(frame_count=bad)
    for name, bad in (("first_frame", 1.5), ("first_frame", True),
                      ("lifespan", 2.5), ("lifespan", True), ("lifespan", 0)):
        with pytest.raises(ValueError, match=f"^{name} must be an int >= "):
            ObjectSpec("car", x=0.0, y=0.0, **{name: bad})
    for bad in (5, None, ["s"]):
        with pytest.raises(ValueError, match="^scene_id must be a non-empty string"):
            simple_spec(scene_id=bad)
    assert ObjectSpec("car", x=0, y=0, first_frame=0, lifespan=1).lifespan == 1


SPEC_CLASSES = (
    (ObjectSpec, dict(class_label="car", x=0.0, y=0.0)),
    (NoiseSpec, {}),
    (ScenarioSpec, dict(scene_id="s", frame_count=3, objects=())),
)


@pytest.mark.parametrize("cls, required", SPEC_CLASSES, ids=lambda v: getattr(v, "__name__", ""))
def test_every_spec_field_rejects_a_bool(cls, required):
    # a bool used to pass as 0 or 1 wherever a number was expected
    names = [f.name for f in dataclasses.fields(cls)
             if f.name not in ("class_label", "objects", "noise")]
    assert names
    for name in names:
        with pytest.raises(ValueError, match=f"^{name} must be "):
            cls(**dict(required, **{name: True}))


def test_vector_fields_take_n_reals_or_one_scalar():
    noise = NoiseSpec(position_sigma=0.5, accel_sigma=[1, 2, 3, 4])
    assert noise.position_sigma == (0.5, 0.5, 0.5)
    assert noise.accel_sigma == (1.0, 2.0, 3.0, 4.0)
    assert all(type(v) is float for v in noise.accel_sigma)
    for bad in (None, "ab", [0.1, "x", 0.1], [0.1, math.inf, 0.1]):
        with pytest.raises(ValueError, match="^position_sigma must be "):
            NoiseSpec(position_sigma=bad)
    with pytest.raises(ValueError, match=r"^bounds must be a scalar or 4 numbers"):
        simple_spec(bounds=(0.0, 1.0, 0.0))


def test_spec_dict_keeps_its_json_layout():
    spec = simple_spec(objects=(ObjectSpec("bus", x=1.0, y=2, size=(11.0, 3.0, 3.5),
                                           first_frame=2, lifespan=20),
                                ObjectSpec("car", x=0.5, y=-1.0)))
    noise = spec.noise
    expected = {
        "scene_id": "unit", "frame_count": 60, "seed": 3,
        "bounds": [-60.0, 60.0, -60.0, 60.0], "fp_z_range": [-0.5, 2.0],
        "noise": {"position_sigma": [0.0] * 3, "angle_sigma": 0.0, "size_sigma": 0.0,
                  "accel_sigma": [0.0] * 4, "p_miss": 0.0, "fp_rate": 0.0,
                  "score_range": [1.0, 1.0], "fp_score_range": list(noise.fp_score_range)},
        "objects": [
            {"class_label": "bus", "x": 1.0, "y": 2, "z": 0.0, "yaw": 0.0, "vx": 0.0,
             "vy": 0.0, "vz": 0.0, "yaw_rate": 0.0, "size": [11.0, 3.0, 3.5],
             "first_frame": 2, "lifespan": 20},
            {"class_label": "car", "x": 0.5, "y": -1.0, "z": 0.0, "yaw": 0.0, "vx": 0.0,
             "vy": 0.0, "vz": 0.0, "yaw_rate": 0.0, "size": None,
             "first_frame": 0, "lifespan": None},
        ],
    }
    assert (json.dumps(dataclasses.asdict(spec), indent=2, sort_keys=True)
            == json.dumps(expected, indent=2, sort_keys=True))


# Specs that together take every draw of the simulator, and the sha256 of the files
# write_ground_truth and write_detections make of each (with scenario_meta), recorded
# from the frame-by-frame generator that drew one normal per value.
PINNED_SCENES = [
    # misses, clutter and every kind of detection noise, over three classes
    (ScenarioSpec(
        "clutter", 40, seed=5,
        objects=(ObjectSpec("car", x=-20.0, y=0.0, yaw=0.5, vx=0.7),
                 ObjectSpec("pedestrian", x=10.0, y=5.0, vy=0.4, size=(0.5, 0.5, 1.7)),
                 ObjectSpec("bus", x=3, y=-12, vx=-0.3, vy=0.1)),
        noise=NoiseSpec(position_sigma=(0.2, 0.1, 0.05), angle_sigma=0.1, size_sigma=0.05,
                        accel_sigma=(0.05, 0.05, 0.02, 0.01), p_miss=0.2, fp_rate=0.8,
                        score_range=(0.4, 0.9), fp_score_range=(0.05, 0.35))),
     "c3497d6a2bc45cff8ea51afa2d288854419f2732e664fa2e329e5594943cc159",
     "a463cb9e7359f7676f047b2e253cfdeb7af28134d62f01bc3865b18803d2f0f5"),
    # objects that never appear or live one frame come first: a draw of theirs
    # would shift every later value
    (ScenarioSpec(
        "window", 12, seed=9,
        objects=(ObjectSpec("truck", x=0.0, y=0.0, first_frame=12),
                 ObjectSpec("bicycle", x=5.0, y=5.0, first_frame=20, lifespan=2),
                 ObjectSpec("pedestrian", x=-5.0, y=2.0, first_frame=7, lifespan=1),
                 ObjectSpec("car", x=1.0, y=-3.0, vx=0.5, first_frame=3, lifespan=5),
                 ObjectSpec("car", x=-8.0, y=9.0, vy=-0.6)),
        noise=NoiseSpec(position_sigma=0.1, angle_sigma=0.05, size_sigma=0.02,
                        accel_sigma=0.1, p_miss=0.1, fp_rate=0.3)),
     "4db638224daf33316fa6c4f55bf69b31da0a7824095defe5ceb2ddf2187d8bb8",
     "0ad94711a5e0f039986081b030d66834b4517d58c804b115bab09dadf65e4701"),
    # tiny boxes that size noise clamps to MIN_EXTENT, and yaws that turn through
    # +-pi, one of them starting unwrapped
    (ScenarioSpec(
        "turning", 30, seed=13,
        objects=(ObjectSpec("pedestrian", x=0.0, y=0.0, yaw=3.0, yaw_rate=0.3,
                            size=(0.06, 0.05, 0.08)),
                 ObjectSpec("motorcycle", x=4.0, y=4.0, yaw=-3.0, yaw_rate=-0.25),
                 ObjectSpec("trailer", x=-9.0, y=1.0, yaw=7.5, yaw_rate=0.1)),
        noise=NoiseSpec(angle_sigma=0.2, size_sigma=0.1, accel_sigma=(0.0, 0.0, 0.0, 0.05))),
     "2ae8e973c7fb9bd762c5c640d75385715fa9e2e6f7594fa1f84a196d157b9401",
     "e498c3176618542178e59e89e95a203dc621f7db98ae3c8e098c4fc21ebec2bb"),
]


@pytest.mark.parametrize("spec, gt_sha256, det_sha256", PINNED_SCENES,
                         ids=[spec.scene_id for spec, *_ in PINNED_SCENES])
def test_generated_files_keep_their_bytes(tmp_path, spec, gt_sha256, det_sha256):
    gt, det = generate_suite([spec])
    gt_path, det_path = tmp_path / "gt.json", tmp_path / "det.json"
    write_ground_truth(gt, str(gt_path), meta=scenario_meta([spec]))
    write_detections(det, str(det_path), meta=scenario_meta([spec]))
    assert hashlib.sha256(gt_path.read_bytes()).hexdigest() == gt_sha256
    assert hashlib.sha256(det_path.read_bytes()).hexdigest() == det_sha256
