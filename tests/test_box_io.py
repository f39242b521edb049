"""Box files: the streamed writer against json.dump, and the loader's two paths.

The writer fills one fixed text per record instead of running json.dump
over a payload of record dicts.  reference_text keeps that payload and
json.dump as the oracle, and the writer must match it byte for byte.
The loader builds a record that passes its one condition directly and
sends every other record through Box; with that
condition switched off, every record takes the second path, which the
differential tests below hold the loader to.
"""

import io
import json
import math
import os
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mot3d import dataset_io
from mot3d.core import CLASS_LABELS, Box
from mot3d.dataset_io import (BOX_SCHEMAS, _RECORD_KEYS, load_detections, load_ground_truth,
                              load_tracks, write_detections, write_ground_truth, write_tracks)
from mot3d.errors import SchemaError
from mot3d.synthetic import calibration_scenario, generate
from mot3d.tracker import FrameOutput
from tests.test_io_fuzz import SKELETONS, json_values, mutate, nodes
from tests.test_trusted_boxes import EDGE_VALUES, outcome, reference_box


def reference_record(box: Box, extras: tuple) -> dict:
    record = {"center": [box.x, box.y, box.z], "yaw": box.a,
              "size": [box.l, box.w, box.h], "class": box.class_label}
    for name in extras:
        record[name] = getattr(box, name)
        if record[name] is None:
            raise ValueError(f"box {box!r} has no {name}, which its file requires")
    return record


def reference_text(boxes, kind: str, meta) -> str:
    """A box file as json.dump writes its payload of record dicts."""
    payload = {} if meta is None else {"_meta": dict(meta)}
    for scene_id, frames in boxes.items():
        payload[scene_id] = {
            str(frame_index): [reference_record(box, BOX_SCHEMAS[kind]) for box in frame_boxes]
            for frame_index, frame_boxes in frames.items()}
    out = io.StringIO()
    json.dump(payload, out, indent=2, sort_keys=True)
    return out.getvalue() + "\n"


def write_track_boxes(boxes, path, meta=None):
    write_tracks({scene_id: [FrameOutput(index, tuple(frame)) for index, frame in frames.items()]
                  for scene_id, frames in boxes.items()}, path, meta=meta)


KINDS = {
    "detections": (write_detections, load_detections),
    "ground truth": (write_ground_truth, load_ground_truth),
    "tracks": (write_track_boxes, load_tracks),
}

EDGE_FLOATS = [-0.0, 0.0, 5e-324, 1e16, 1.7e308, -1.7e308, 0.1 + 0.2, 1e-05, math.pi]
coordinates = (st.floats(-1e300, 1e300) | st.sampled_from(EDGE_FLOATS)
               | st.integers(-10 ** 6, 10 ** 6))
extents = (st.floats(5e-324, 1.7e308) | st.sampled_from([5e-324, 1e16, 1.7e308])
           | st.integers(1, 10 ** 6))
numbers = {"coordinate": coordinates, "extent": extents}


def number(kind: str):
    """A pose value Box accepts: a float, an int, or an np.float64."""
    return numbers[kind] | numbers[kind].map(lambda value: np.float64(float(value)))


@st.composite
def boxes_of(draw, kind: str, scene_id: str, frame_index: int):
    pose = ([draw(number("coordinate")) for _ in range(4)]
            + [draw(number("extent")) for _ in range(3)])
    extras = {"score": st.floats(0.0, 1.0) | st.sampled_from([0, 1, -0.0, 5e-324]),
              "track_id": st.integers(1, 2 ** 70),
              "instance_id": st.text(min_size=1, max_size=4)}
    return Box(*pose, draw(st.sampled_from(CLASS_LABELS)), frame_index, scene_id,
               **{name: draw(extras[name]) for name in BOX_SCHEMAS[kind]})


scene_ids = (st.text(max_size=5).filter(lambda text: not text.startswith("_"))
             | st.sampled_from(["0", "A", "Zed", "^", 'q"uote', "back\\slash", "é", "☃",
                                "tab\t", "a"]))
metas = st.none() | st.just({}) | st.dictionaries(st.text(max_size=4), json_values, max_size=3)


@st.composite
def box_maps(draw, kind: str):
    boxes = {}
    for scene_id in draw(st.lists(scene_ids, max_size=3, unique=True)):
        frame_indices = draw(st.lists(st.sampled_from([0, 1, 2, 10, 11, 100]), max_size=3,
                                      unique=True))
        boxes[scene_id] = {index: draw(st.lists(boxes_of(kind, scene_id, index), max_size=3))
                           for index in frame_indices}
    return boxes


@pytest.fixture(scope="module")
def out_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("box_io") / "out.json")


@pytest.mark.parametrize("kind", KINDS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_writer_matches_json_dump_byte_for_byte(kind, data, out_path):
    boxes, meta = data.draw(box_maps(kind)), data.draw(metas)
    KINDS[kind][0](boxes, out_path, meta=meta)
    with open(out_path, newline="") as handle:
        assert handle.read() == reference_text(boxes, kind, meta)


def test_writer_covers_the_edges_of_json_dump(tmp_path):
    car = (0, -0.0, 5e-324, 1.5, 1e16, 1.7e308, np.float64(2.5))
    boxes = {"Zed": {10: [Box(*car, "car", 10, "Zed", score=1)], 2: [], 0: []},
             "é\"": {}, "0": {3: [Box(*car, "bus", 3, "0", score=np.float64(0.25))]}}
    path = str(tmp_path / "det.json")
    for meta in (None, {}, {"b": [1, 2.5, None, {"c": "ü"}], "a": {}}):
        write_detections(boxes, path, meta=meta)
        assert open(path).read() == reference_text(boxes, "detections", meta)
    text = open(path).read()
    assert text.index('"0"') < text.index('"Zed"') < text.index('"_meta"') < text.index('"\\u00e9')
    assert text.index('"10"') < text.index('"2"')
    assert '"2": []' in text and '"\\u00e9\\"": {}' in text
    write_detections({}, path)
    assert open(path).read() == "{}\n"
    # json.dump turns int, float, bool and None keys into strings, and sorts them first
    keyed = {12: {}, 3: {0: []}, 1.5: {}}
    write_detections(keyed, path)
    assert open(path).read() == reference_text(keyed, "detections", None)
    for meta, awkward in (({}, {3: {}}), (None, {"a": {}, 3: {}}), (None, {(1,): {}})):
        with pytest.raises(TypeError):
            reference_text(awkward, "detections", meta)
        with pytest.raises(TypeError):
            write_detections(awkward, path, meta=meta)


@pytest.mark.parametrize("meta, x, score, error", [
    ({"bad": object()}, 0.0, 0.5, TypeError),  # meta that JSON cannot hold
    (None, Fraction(3, 2), 0.5, TypeError),  # a Real that Box takes and JSON does not
    (None, Fraction(3, 2), None, ValueError),  # a box its file cannot hold comes first
    (None, 0.0, None, ValueError),
])
def test_writer_raises_where_json_dump_raises(tmp_path, meta, x, score, error):
    boxes = {"s": {0: [Box(x, 0, 0, 0, 4, 2, 1.5, "car", 0, "s", score=score)]}}
    path = tmp_path / "det.json"
    path.write_text("old")
    with pytest.raises(error):
        reference_text(boxes, "detections", meta)
    with pytest.raises(error):
        write_detections(boxes, str(path), meta=meta)
    assert path.read_text() == "old" and os.listdir(tmp_path) == ["det.json"]


def test_writer_names_the_value_json_dump_names_first(tmp_path):
    # a later field of the first box comes before an earlier field of the second
    first = Box(0, 0, 0, 0, 4, 2, np.float32(1.5), "car", 0, "s", score=0.5)
    second = Box(Fraction(3, 2), 0, 0, 0, 4, 2, 1.5, "car", 0, "s", score=0.5)
    for frame in ([first, second], [second, first]):
        boxes = {"s": {0: frame}}
        with pytest.raises(TypeError) as expected:
            reference_text(boxes, "detections", None)
        with pytest.raises(TypeError, match=f"^{expected.value}$"):
            write_detections(boxes, str(tmp_path / "det.json"))


@pytest.mark.parametrize("scene_id",["_hidden", "_meta", "_"])
def test_writers_reject_scene_ids_that_mark_metadata(tmp_path, scene_id):
    box = Box(0, 0, 0, 0, 4, 2, 1.5, "car", 0, scene_id, score=0.5)
    path = tmp_path / "new" / "det.json"
    with pytest.raises(ValueError, match=f"scene id {scene_id!r}"):
        write_detections({"fine": {}, scene_id: {0: [box]}}, str(path), meta={"k": 1})
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("loader", [load for _, load in KINDS.values()],
                         ids=lambda f: f.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_what_the_loaders_accept_writes_back_to_the_same_bytes(loader, data, out_path):
    kind, (write, _) = next((kind, pair) for kind, pair in KINDS.items() if pair[1] is loader)
    document = SKELETONS[loader]
    for _ in range(data.draw(st.integers(0, 3))):
        node = data.draw(st.sampled_from(list(nodes(document))))
        value = data.draw(json_values | st.sampled_from(EDGE_VALUES))
        document = mutate(document, node, data.draw(st.sampled_from(["replace", "add"])), "", value)
    with open(out_path, "w") as handle:
        json.dump(document, handle)
    try:
        loaded = loader(out_path)
    except SchemaError:
        return
    write(loaded, out_path)
    first = open(out_path, newline="").read()
    assert first == reference_text(loaded, kind, None)
    write(loader(out_path), out_path)
    assert open(out_path, newline="").read() == first


def assert_same_as_the_slow_path(loader, path: str):
    """The load with every record built through reference_box gives the same outcome."""
    with mock.patch.object(dataset_io, "_CLASSES", frozenset()), \
            mock.patch.object(dataset_io, "_box", reference_box):
        expected = outcome(loader, path)
    actual = outcome(loader, path)
    assert actual == expected
    assert repr(actual) == repr(expected)  # tells -0.0 from 0.0 and int from float


@pytest.mark.parametrize("loader", [load for _, load in KINDS.values()],
                         ids=lambda f: f.__name__)
def test_every_edge_value_at_every_node_takes_either_path_alike(loader, tmp_path):
    skeleton = SKELETONS[loader]
    path = tmp_path / "input.json"
    for node in nodes(skeleton):
        for value in EDGE_VALUES:
            path.write_text(json.dumps(mutate(skeleton, node, "replace", "", value)))
            assert_same_as_the_slow_path(loader, str(path))


@pytest.mark.parametrize("loader", [load for _, load in KINDS.values()],
                         ids=lambda f: f.__name__)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_mutated_files_take_either_path_alike(loader, data, out_path):
    document = SKELETONS[loader]
    for _ in range(data.draw(st.integers(1, 3))):
        node = data.draw(st.sampled_from(list(nodes(document))))
        action = data.draw(st.sampled_from(["replace", "rename", "add"]))
        key = data.draw(st.text(max_size=6) | st.sampled_from(sorted(_RECORD_KEYS["tracks"])))
        value = data.draw(json_values | st.sampled_from(EDGE_VALUES))
        document = mutate(document, node, action, key, value)
    with open(out_path, "w") as handle:
        json.dump(document, handle)
    assert_same_as_the_slow_path(loader, out_path)


def test_a_duplicate_instance_is_found_on_either_path(tmp_path):
    canonical = {"center": [1.0, 2.0, 0.5], "yaw": 0.3, "size": [4.0, 2.0, 1.5],
                 "class": "car", "instance_id": "a"}
    int_valued = dict(canonical, center=[1, 2, 0])
    path = tmp_path / "gt.json"
    for first, second in ((canonical, int_valued), (int_valued, canonical)):
        path.write_text(json.dumps({"s": {"0": [first, second]}}))
        with pytest.raises(SchemaError) as excinfo:
            load_ground_truth(str(path))
        assert str(excinfo.value) == ("ground truth scene 's' frame 0 record 1: "
                                      "duplicate instance_id 'a'")


def test_the_writer_streams(tmp_path):
    spec = calibration_scenario(objects=100, frame_count=102)
    detections = {spec.scene_id: generate(spec)[1]}
    assert sum(map(len, detections[spec.scene_id].values())) == 10200
    path = str(tmp_path / "det.json")
    tracemalloc.start()
    try:
        write_detections(detections, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * os.path.getsize(path)
