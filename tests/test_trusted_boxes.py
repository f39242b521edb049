"""Boxes whose values pass every rule are checked once, at the boundary.

The loader and the tracker check the rules of Box themselves and build
the boxes that pass through core.trusted_box, which runs no
__post_init__.  These tests hold the loader to a copy of its record
check from before that shortcut (every record built through Box, the
fused check switched off), and count the __post_init__ calls a valid
load and a tracking run make.  Every builder (constructor, loaders,
tracker) makes frozen slotted records, each one object for the garbage
collector.
"""

import gc
import inspect
import json
import math
import pickle
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from mot3d import dataset_io
from mot3d.core import CLASS_LABELS, Box, trusted_box
from mot3d.dataset_io import (BOX_SCHEMAS, _RECORD_KEYS, _number, _triple, load_detections,
                              load_ground_truth, load_tracks, write_detections,
                              write_ground_truth, write_tracks)
from mot3d.errors import SchemaError
from mot3d.synthetic import generate_suite, standard_suite
from mot3d.tracker import boxes_by_frame, run_scene
from tests.test_io_fuzz import SKELETONS, json_values, mutate, nodes
from tests.test_tracker import hand_noise

BOX_LOADERS = (load_detections, load_ground_truth, load_tracks)


def reference_box(record, kind: str, frame_index: int, scene_id: str) -> Box:
    """The loader's record check with every record built through Box.

    Box allows a missing id, but an id the file's records carry may not
    be null; that is checked after Box's own rules.
    """
    if not isinstance(record, dict):
        raise ValueError("box record must be a JSON object")
    if not record.keys() <= _RECORD_KEYS[kind]:
        raise ValueError(f"unexpected fields {sorted(record.keys() - _RECORD_KEYS[kind])}")
    try:  # fields are read in the order their faults are reported
        center = _triple(record["center"], "center")
        yaw = record["yaw"]
        if not (type(yaw) is float and math.isfinite(yaw)):
            yaw = _number(yaw, "yaw")
        size = _triple(record["size"], "size")
        values = {name: record[name] for name in BOX_SCHEMAS[kind]}
        if "score" in values and not (type(values["score"]) is float
                                      and math.isfinite(values["score"])):
            values["score"] = _number(values["score"], "score")
        class_label = record["class"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    box = Box(*center, yaw, *size, class_label, frame_index, scene_id, **values)
    for name, rule in (("track_id", "a positive int"), ("instance_id", "a non-empty string")):
        if name in values and values[name] is None:
            raise ValueError(f"{name} must be {rule}, got None")
    return box


def outcome(loader, path: str):
    """("boxes", result) or ("error", message) of one load."""
    try:
        return "boxes", loader(path)
    except SchemaError as exc:
        return "error", str(exc)


def assert_same_as_reference(loader, path: str):
    # with no known class the fused check passes no record, so every one takes the slow path
    with mock.patch.object(dataset_io, "_CLASSES", frozenset()), \
            mock.patch.object(dataset_io, "_box", reference_box):
        expected = outcome(loader, path)
    actual = outcome(loader, path)
    assert actual == expected
    assert repr(actual) == repr(expected)  # tells -0.0 from 0.0 and int from float


# Values at the edges of each value rule: integers, yaws on and beyond the
# seam, zero and negative extents, scores at and past the ends of [0, 1],
# ids of every JSON type (null too), and class labels that are not strings.
EDGE_VALUES = [0, 1, -1, 3, 2 ** 53 + 1, 0.0, -0.0, 1.0, 1.5, -0.5, 1e-300,
               math.pi, -math.pi, 3 * math.pi, -3 * math.pi, math.nextafter(math.pi, 0.0),
               "car", "bus", "", "a", True, False, None, ["car"], {"car": "car"}, [1.0, 2.0, 3.0]]


@pytest.mark.parametrize("loader", BOX_LOADERS, ids=lambda f: f.__name__)
def test_every_edge_value_at_every_node_loads_as_the_reference_does(loader, tmp_path):
    skeleton = SKELETONS[loader]
    path = tmp_path / "input.json"
    for node in nodes(skeleton):
        for value in EDGE_VALUES:
            path.write_text(json.dumps(mutate(skeleton, node, "replace", "", value)))
            assert_same_as_reference(loader, str(path))


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "input.json"


@pytest.mark.parametrize("loader", BOX_LOADERS, ids=lambda f: f.__name__)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_files_load_as_the_reference_does(loader, data, input_path):
    skeleton = SKELETONS[loader]
    document = skeleton
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.sampled_from(list(nodes(document))))
        action = data.draw(st.sampled_from(["replace", "rename", "add"]))
        key = data.draw(st.text(max_size=6) | st.sampled_from(sorted(_RECORD_KEYS["tracks"])))
        value = data.draw(json_values | st.sampled_from(EDGE_VALUES))
        document = mutate(document, node, action, key, value)
    input_path.write_text(json.dumps(document))
    assert_same_as_reference(loader, str(input_path))


@pytest.fixture
def post_init_calls(monkeypatch):
    """The count of Box.__post_init__ calls."""
    calls = {Box: 0}

    def counted(self, original=Box.__post_init__):
        calls[Box] += 1
        original(self)
    monkeypatch.setattr(Box, "__post_init__", counted)
    return calls


def test_valid_boxes_are_checked_once(tmp_path, post_init_calls):
    _, detections = generate_suite(standard_suite(seed=3, scenes=1, frame_count=20))
    path = str(tmp_path / "detections.json")
    write_detections(detections, path)
    post_init_calls[Box] = 0

    loaded = load_detections(path)
    outputs = run_scene(loaded["suite0"], hand_noise(CLASS_LABELS))
    assert sum(len(frame) for frame in loaded["suite0"].values()) > 100
    assert sum(len(output.records) for output in outputs) > 50
    assert post_init_calls == {Box: 0}


@pytest.mark.parametrize("fault, message", [
    ({"size": [4.0, -2.0, 1.5]}, "w must be positive, got -2.0"),
    ({"class": "plane"}, "unknown class label 'plane'"),
    ({"score": 1.25}, "score must lie in [0, 1], got 1.25"),
])
def test_a_failing_record_gets_its_message_from_the_checks(tmp_path, post_init_calls, fault,
                                                           message):
    good = {"center": [1.0, 2.0, 0.5], "yaw": 0.3, "size": [4.0, 2.0, 1.5], "class": "car",
            "score": 0.9}
    path = tmp_path / "detections.json"
    path.write_text(json.dumps({"s": {"0": [good, dict(good, **fault)]}}))
    with pytest.raises(SchemaError) as excinfo:
        load_detections(str(path))
    assert str(excinfo.value) == f"detections scene 's' frame 0 record 1: {message}"
    assert post_init_calls[Box] == 1


@pytest.fixture(scope="module")
def built_boxes(tmp_path_factory):
    """Builder name -> boxes it made: the constructor, each loader and the tracker's output."""
    ground_truth, detections = generate_suite(standard_suite(seed=3, scenes=1, frame_count=20))
    outputs = {"suite0": run_scene(detections["suite0"], hand_noise(CLASS_LABELS))}
    directory = tmp_path_factory.mktemp("layout")
    paths = {name: str(directory / f"{name}.json") for name in ("det", "gt", "tracks")}
    write_detections(detections, paths["det"])
    write_ground_truth(ground_truth, paths["gt"])
    write_tracks(outputs, paths["tracks"])
    frames = {
        "load_detections": load_detections(paths["det"])["suite0"],
        "load_ground_truth": load_ground_truth(paths["gt"])["suite0"],
        "load_tracks": load_tracks(paths["tracks"])["suite0"],
        "run_scene": boxes_by_frame(outputs["suite0"]),
    }
    built = {name: [box for boxes in by_frame.values() for box in boxes]
             for name, by_frame in frames.items()}
    built["constructor"] = [Box(1.0, -2.0, 0.5, 3.0, 4.0, 2.0, 1.5, "car", 7, "s", score=0.5,
                                track_id=3),
                            Box(0.0, 0.0, 0.0, -0.5, 0.5, 0.5, 1.8, "pedestrian", 0,
                                instance_id="walker")]
    return built


def constructed(box, score):
    """box rebuilt through Box, with the given score."""
    return Box(box.x, box.y, box.z, box.a, box.l, box.w, box.h, box.class_label,
               box.frame_index, box.scene_id, score, box.track_id, box.instance_id)


@pytest.mark.parametrize("builder", ["constructor", "load_detections", "load_ground_truth",
                                     "load_tracks", "run_scene"])
def test_every_builder_makes_frozen_slotted_records(built_boxes, builder):
    boxes = built_boxes[builder]
    assert boxes
    # trusted_box's slot setters are taken from fields(Box) by position
    names = [f.name for f in fields(Box)]
    assert names == list(inspect.signature(trusted_box).parameters)
    for box in boxes:
        assert not hasattr(box, "__dict__")
        # one object for the collector: no other tracked object hangs off a box
        assert [ref for ref in gc.get_referents(box) if gc.is_tracked(ref)] == [Box]
        rebuilt = trusted_box(*(getattr(box, name) for name in names))
        assert rebuilt == box and repr(rebuilt) == repr(box)
        with pytest.raises(FrozenInstanceError):
            box.score = 0.5
        with pytest.raises(FrozenInstanceError):
            box.x = 0.5
        # workers under --jobs receive pickled boxes
        copy = pickle.loads(pickle.dumps(box))
        assert copy == box and hash(copy) == hash(box)
        assert repr(copy) == repr(box)
        assert replace(box, score=0.25) == constructed(box, 0.25)
        with pytest.raises(ValueError, match="score must lie in"):
            replace(box, score=1.5)


@pytest.mark.parametrize("builder", ["constructor", "load_detections", "load_ground_truth",
                                     "load_tracks", "run_scene"])
def test_any_assignment_or_deletion_raises_frozen_instance_error(built_boxes, builder):
    # names that are not fields used to raise TypeError from super() instead
    for box in built_boxes[builder]:
        before = repr(box)
        for name in ("score", "x", "foo"):
            with pytest.raises(FrozenInstanceError):
                setattr(box, name, 1.0)
            with pytest.raises(FrozenInstanceError):
                delattr(box, name)
        assert repr(box) == before
