"""Every loader either returns or raises SchemaError / ConfigError.

Each example takes a valid file, picks one node anywhere in it (the
whole file, a scene, a frame key, a record, a field, an array item),
and replaces that value, renames that key, or adds a key beside it,
using arbitrary JSON: nested lists and objects, huge integers, NaN and
infinities, arbitrary strings.
"""

import copy
import json

import pytest
from hypothesis import given, settings, strategies as st

from mot3d.calibration import load_noise_model
from mot3d.dataset_io import load_config, load_detections, load_ground_truth, load_tracks
from mot3d.errors import ConfigError, SchemaError

BOX = {"center": [1.0, 2.0, 0.5], "yaw": 0.3, "size": [4.0, 2.0, 1.5], "class": "car"}

SKELETONS = {
    load_detections: {"_meta": {"tool": "x"}, "s": {"0": [dict(BOX, score=0.9)], "1": []}},
    load_ground_truth: {"s": {"0": [dict(BOX, instance_id="a"), dict(BOX, instance_id="b")],
                              "3": [dict(BOX, instance_id="a")]}},
    load_tracks: {"s": {"2": [dict(BOX, score=0.5, track_id=1)]},
                  "t": {"0": [dict(BOX, score=1.0, track_id=7)]}},
    load_noise_model: {"_meta": {"format": "mot3d-noise-model", "version": 1},
                       "classes": {"car": {"q": [0.01] * 11, "r": [0.09] * 7,
                                           "sigma0": [1.0] * 11}}},
    load_config: {"matcher": "hungarian", "maha_threshold": 3.0, "iou_threshold": 0.2,
                  "class_maha_thresholds": {"car": 2.0}, "angular_velocity": False,
                  "birth_hits": 2, "death_misses": 2, "amota_samples": 10,
                  "score_mode": "running_mean"},
}

json_values = st.recursive(
    st.none() | st.booleans() | st.floats() | st.text(max_size=6)
    | st.integers() | st.sampled_from([10 ** 400, -10 ** 400]),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(max_size=6), children, max_size=4)),
    max_leaves=8,
)


def nodes(value, path=()):
    """Paths to every value in a JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        children = ()
    for key, child in children:
        yield from nodes(child, path + (key,))


def mutate(document, path, action, key, value):
    """Replace the node at path, rename its key, or add a child to it."""
    document = copy.deepcopy(document)
    parent, node = None, document
    for step in path:
        parent, node = node, node[step]
    if action == "add" and isinstance(node, dict):
        node[key] = value
    elif action == "add" and isinstance(node, list):
        node.append(value)
    elif action == "rename" and isinstance(parent, dict):
        parent[key] = parent.pop(path[-1])
    elif parent is None:
        document = value
    else:
        parent[path[-1]] = value
    return document


@pytest.fixture(scope="module")
def input_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.json"


@pytest.mark.parametrize("loader", list(SKELETONS), ids=lambda f: f.__name__)
@settings(max_examples=75, deadline=None)
@given(data=st.data())
def test_loaders_return_or_raise_their_error(loader, data, input_path):
    skeleton = SKELETONS[loader]
    path = data.draw(st.sampled_from(list(nodes(skeleton))))
    action = data.draw(st.sampled_from(["replace", "rename", "add"]))
    key = data.draw(st.text(max_size=6))
    value = data.draw(json_values)
    input_path.write_text(json.dumps(mutate(skeleton, path, action, key, value)))
    try:
        loader(str(input_path))
    except (SchemaError, ConfigError):
        pass
