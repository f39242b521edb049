"""File formats, run configuration, and the one JSON read/write path.

All three box files share one shape: a JSON object mapping scene_id to
an object mapping the decimal frame index to an array of box records.
A box record always carries "center" [x, y, z], "yaw", "size"
[l, w, h], and "class"; BOX_SCHEMAS names the fields each file adds.
Frame keys are canonical decimals ("7", never "07").  Top-level keys
beginning with an underscore are reserved for metadata (for example
the generator provenance header) and are skipped by the loaders.

Each rule is checked once, at the boundary.  In the frame loop, one
fused check per record covers the JSON shape (exactly the file's fields,
arrays of three floats), finiteness, and the value rules of core.Box
(positive extents, score range, known class, ids, no instance twice in
a frame), reading each value once; core.trusted_box builds a record that
passes, one slot store per field, and Box any other, its checks writing
its message.
Box allows a missing id, but an id the file carries may not be null:
that is the last value rule.  A fault surfaces as SchemaError naming
its scene, frame and record, a location built only then.  A record with
several faults reports the first in the order: unexpected fields,
center, yaw, size, the file's extra fields, class, then the value rules.

The cyclic garbage collector is paused while a file is parsed and its
boxes are built, then restored as it was: the records hold no reference
cycles, so collections would free nothing yet walk the whole heap.

Writers emit the bytes of json.dump(..., indent=2, sort_keys=True):
sorted keys, a fixed layout, floats at full round-trip precision.  Box
files stream a frame at a time from a fixed text per record, filled a
column at a time from a tracker output's columns or its Boxes' fields:
only floats or only strs through one builtin, any other value through
_json_value.  Scene ids starting with an underscore are rejected.  Every
output file is written atomically: a temp file in the target directory
replaces it only once complete.

DEFAULT_MAHA_GATE is the literal that sqrt(2 * gammaincinv(3.5, 0.95)) gives,
held bit-equal by a test, so importing this module loads no scipy.special.
"""

from __future__ import annotations

import gc
import json
import math
import os
import uuid
from contextlib import contextmanager
from functools import partial
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import product
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from .core import CLASS_LABELS, Box, finite_real, trusted_box
from .errors import ConfigError, SchemaError

if TYPE_CHECKING:
    from .tracker import FrameOutput

# Gate on the Mahalanobis distance: sqrt of the 95th percentile of a
# chi-squared with 7 degrees of freedom (one per observed component):
# sqrt(2 * gammaincinv(3.5, 0.95)), via the gamma of shape 7/2.
DEFAULT_MAHA_GATE = 3.7506186755440987

MATCHER_NAMES = ("greedy", "hungarian")
AFFINITY_NAMES = ("mahalanobis", "iou")
SCORE_MODES = ("last_detection", "running_mean")

# Box file kind -> the Box fields its records carry besides the box itself.
BOX_SCHEMAS = {
    "detections": ("score",),
    "ground truth": ("instance_id",),
    "tracks": ("score", "track_id"),
}
_BOX_FIELDS = ("center", "yaw", "size", "class")
_RECORD_KEYS = {kind: frozenset(_BOX_FIELDS + extras) for kind, extras in BOX_SCHEMAS.items()}
_CLASSES = frozenset(CLASS_LABELS)
_TRACK_COLUMNS = [*"xyzalwh", "class_label", "score", "track_id"]


def read_json(path: str, label: str, error_cls=SchemaError):
    """Parse a JSON file; a missing, unreadable or malformed file raises error_cls."""
    try:
        with open(path) as handle:
            return json.load(handle)
    except FileNotFoundError:
        raise error_cls(f"{label} file not found: {path}") from None
    except OSError as exc:
        raise error_cls(f"cannot read {label} file {path}: {exc.strerror}") from None
    except ValueError as exc:
        raise error_cls(f"{label} file {path} is not valid JSON: {exc}") from None


@contextmanager
def atomic_open(path: str, newline: str | None = None):
    """Yield a text handle whose content replaces path once the block succeeds.

    The handle writes a temp file in path's directory (created when
    missing); os.replace swaps it in at the end.  On any exception the
    temp file is removed and an existing file at path is left as it was.
    Any OSError while writing, from this function's own file operations
    or from the block (a disk that fills mid-write), raises SchemaError;
    the block's other exceptions pass through unchanged.
    """
    directory = os.path.dirname(os.path.abspath(path))
    temp = os.path.join(directory, f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    try:
        os.makedirs(directory, exist_ok=True)
        with open(temp, "w", newline=newline) as handle:
            yield handle
        os.replace(temp, path)
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        if os.path.exists(temp):
            os.remove(temp)


def write_json(payload, path: str):
    """Write payload with sorted keys and two-space indents, atomically."""
    with atomic_open(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def positive_number(value) -> bool:
    """A finite real number above zero, by finite_real's rule (JSON integers may overflow)."""
    try:
        return finite_real("value", value) > 0.0
    except ValueError:
        return False


@dataclass(frozen=True)
class RunConfig:
    """Tracker and evaluation settings.

    class_maha_thresholds overrides the global Mahalanobis gate for
    individual classes.  Disabling angular_velocity pins the yaw-rate
    component at zero, reducing the model to a constant-yaw tracker.
    """

    matcher: str = "greedy"
    affinity: str = "mahalanobis"
    maha_threshold: float = DEFAULT_MAHA_GATE
    class_maha_thresholds: Mapping[str, float] = field(default_factory=dict)
    iou_threshold: float = 0.1
    angular_velocity: bool = True
    birth_hits: int = 3
    death_misses: int = 2
    amota_samples: int = 40
    score_mode: str = "last_detection"

    def __post_init__(self):
        if self.matcher not in MATCHER_NAMES:
            raise ConfigError(f"matcher must be one of {MATCHER_NAMES}, got {self.matcher!r}")
        if self.affinity not in AFFINITY_NAMES:
            raise ConfigError(f"affinity must be one of {AFFINITY_NAMES}, got {self.affinity!r}")
        if self.score_mode not in SCORE_MODES:
            raise ConfigError(f"score_mode must be one of {SCORE_MODES}, got {self.score_mode!r}")
        if not positive_number(self.maha_threshold):
            raise ConfigError("maha_threshold must be a finite positive number")
        if not positive_number(self.iou_threshold) or not self.iou_threshold < 1.0:
            raise ConfigError("iou_threshold must lie strictly between 0 and 1")
        if not isinstance(self.class_maha_thresholds, Mapping):
            raise ConfigError("class_maha_thresholds must map class labels to thresholds")
        for label, value in self.class_maha_thresholds.items():
            if label not in CLASS_LABELS:
                raise ConfigError(f"per-class threshold for unknown class {label!r}")
            if not positive_number(value):
                raise ConfigError(f"per-class threshold for {label!r} must be a finite "
                                  "positive number")
        if not isinstance(self.angular_velocity, bool):
            raise ConfigError(f"angular_velocity must be a boolean, got {self.angular_velocity!r}")
        for name in ("birth_hits", "death_misses"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be a positive int, got {value!r}")
        if not isinstance(self.amota_samples, int) or self.amota_samples < 2:
            raise ConfigError(f"amota_samples must be an int >= 2, got {self.amota_samples!r}")
        object.__setattr__(self, "class_maha_thresholds", dict(self.class_maha_thresholds))

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


def load_config(path: str) -> RunConfig:
    """Read a RunConfig from a JSON file."""
    data = read_json(path, "config", ConfigError)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return RunConfig.from_dict(data)


def merge_config(config: RunConfig, **overrides) -> RunConfig:
    """Apply non-None overrides (CLI flags) on top of a config."""
    updates = {key: value for key, value in overrides.items() if value is not None}
    return replace(config, **updates) if updates else config


def _number(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {name!r} must be a number, got {value!r}")
    try:
        return finite_real(name, value)
    except ValueError:  # NaN, an infinity, or an integer beyond the float range
        raise ValueError(f"field {name!r} must be a finite number") from None


def number_list(value, name: str, length: int) -> list:
    """Check a JSON array of `length` finite numbers; return them as floats."""
    if not isinstance(value, list) or len(value) != length:
        raise ValueError(f"field {name!r} must be an array of {length} numbers")
    return [_number(item, name) for item in value]


def _triple(value, name: str) -> list:
    return number_list(value, name, 3)


def _frame_index(key: str, location: str) -> int:
    """Parse a frame key written as a canonical decimal: "7", not "07" or "²"."""
    try:
        index = int(key) if key.isascii() and key.isdigit() else None
    except ValueError:  # more digits than int() parses
        index = None
    if index is None or str(index) != key:
        raise SchemaError(f"frame key {key!r} is not a canonical non-negative integer", location)
    return index


def _box(record, kind: str, frame_index: int, scene_id: str) -> Box:
    """One record's Box built through its constructor; the first fault raises ValueError."""
    if not isinstance(record, dict):
        raise ValueError("box record must be a JSON object")
    if not record.keys() <= _RECORD_KEYS[kind]:
        raise ValueError(f"unexpected fields {sorted(record.keys() - _RECORD_KEYS[kind])}")
    try:  # fields are read in the order their faults are reported
        center = _triple(record["center"], "center")
        yaw = _number(record["yaw"], "yaw")
        size = _triple(record["size"], "size")
        values = {name: record[name] for name in BOX_SCHEMAS[kind]}
        if "score" in values:
            values["score"] = _number(values["score"], "score")
        class_label = record["class"]
    except KeyError as exc:
        raise ValueError(f"missing field {exc.args[0]!r}") from None
    box = Box(*center, yaw, *size, class_label, frame_index, scene_id, **values)
    # Box raises for every fault but a null id, which it allows
    for name, rule in (("track_id", "a positive int"), ("instance_id", "a non-empty string")):
        if name in values and values[name] is None:
            raise ValueError(f"{name} must be {rule}, got None")
    return box


def _load_boxes(path: str, kind: str) -> dict:
    """Parse a box file into scene -> frame -> [Box], scenes and frames sorted."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _boxes_from_json(read_json(path, kind), kind, path)
    finally:
        if collecting:
            gc.enable()


def _boxes_from_json(data, kind: str, path: str) -> dict:
    if not isinstance(data, dict):
        raise SchemaError(f"{kind} file must hold a JSON object", path)
    keys, isfinite, pi, two_pi = _RECORD_KEYS[kind], math.isfinite, math.pi, 2.0 * math.pi
    # The type each extra field must have; NoneType where the kind has no such field
    score_type, track_type, id_type = (
        expected if name in keys else type(None)
        for name, expected in (("score", float), ("track_id", int), ("instance_id", str)))
    out: dict = {}
    for scene_id in sorted(key for key in data if not key.startswith("_")):
        frames = data[scene_id]
        scene_location = f"{kind} scene {scene_id!r}"
        if not isinstance(frames, dict):
            raise SchemaError("scene must map frame indices to arrays", scene_location)
        for frame_index in sorted(_frame_index(key, scene_location) for key in frames):
            records = frames[str(frame_index)]
            frame_location = f"{scene_location} frame {frame_index}"
            if not isinstance(records, list):
                raise SchemaError("frame must hold an array of box records", frame_location)
            boxes, instance_ids = [], set()
            for record_index, record in enumerate(records):
                # Every rule of the JSON shape and of Box, each value read once:
                # seven floats sum to a finite number only when each is finite.
                box = None
                if (type(record) is dict and record.keys() == keys
                        and type(center := record["center"]) is list and len(center) == 3
                        and type(size := record["size"]) is list and len(size) == 3):
                    (x, y, z), (l, w, h) = center, size
                    if (type(x) is type(y) is type(z) is type(l) is type(w) is type(h) is float
                            and type(yaw := record["yaw"]) is float
                            and isfinite(x + y + z + yaw + l + w + h)
                            and l > 0.0 and w > 0.0 and h > 0.0
                            and type(label := record["class"]) is str and label in _CLASSES
                            and type(score := record.get("score")) is score_type
                            and (score is None or 0.0 <= score <= 1.0)
                            and type(track_id := record.get("track_id")) is track_type
                            and (track_id is None or track_id > 0)
                            and type(instance_id := record.get("instance_id")) is id_type
                            and instance_id != "" and instance_id not in instance_ids):
                        box = trusted_box(x, y, z, (yaw + pi) % two_pi - pi, l, w, h, label,
                                          frame_index, scene_id, score, track_id, instance_id)
                if box is None:
                    try:
                        box = _box(record, kind, frame_index, scene_id)
                        if box.instance_id in instance_ids:
                            raise ValueError(f"duplicate instance_id {box.instance_id!r}")
                    except ValueError as exc:
                        raise SchemaError(str(exc),
                                          f"{frame_location} record {record_index}") from None
                if box.instance_id is not None:
                    instance_ids.add(box.instance_id)
                boxes.append(box)
            if boxes:
                out.setdefault(scene_id, {})[frame_index] = boxes
    return out


def load_detections(path: str) -> dict:
    """Parse a detection file into scene -> frame -> [Box with score]."""
    return _load_boxes(path, "detections")


def load_ground_truth(path: str) -> dict:
    """Parse a ground-truth file into scene -> frame -> [Box with instance_id]."""
    return _load_boxes(path, "ground truth")


def load_tracks(path: str) -> dict:
    """Parse a track file into scene -> frame -> [Box with score and track_id]."""
    return _load_boxes(path, "tracks")


def _json_value(value) -> str:
    """A Box field's value as json.dump writes it; other types raise json's TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _column_texts(column: Sequence) -> Iterable[str]:
    """json.dump's texts of one field over a frame's Boxes, by the rules of the module docstring.
    Lazy, so a zip of columns formats, and raises, box by box as json.dump does."""
    kinds = set(map(type, column))
    return map(float.__repr__ if kinds == {float} else encode_basestring_ascii
               if kinds == {str} else _json_value, column)


def _json_key(key) -> str:
    """A top-level key as json.dump writes it: int, float, bool and None keys become strings.
    json.dumps({key: 0}) is that key between "{" and ": 0}", or raises json's TypeError."""
    return json.dumps({key: 0})[1:-4]


def _record_layout(kind: str):
    """A box file's record text, a %s per value, and those values' Box attributes and getter."""
    triple = "[\n          %s,\n          %s,\n          %s\n        ]"
    fields = {"center": (triple, "x", "y", "z"), "yaw": ("%s", "a"),
              "class": ("%s", "class_label"), "size": (triple, "l", "w", "h"),
              **{name: ("%s", name) for name in BOX_SCHEMAS[kind]}}
    lines = [f'        "{key}": {fields[key][0]}' for key in sorted(fields)]
    names = [name for key in sorted(fields) for name in fields[key][1:]]
    return "{\n" + ",\n".join(lines) + "\n      }", names, attrgetter(*names)


def _write_boxes(boxes: Mapping[str, Mapping[int, Sequence[Box] | Callable]], kind: str,
                 path: str, meta: Mapping | None):
    """The text json.dump(payload, indent=2, sort_keys=True) gives, streamed frame by frame."""
    for scene_id in boxes:
        if isinstance(scene_id, str) and scene_id.startswith("_"):
            raise ValueError(f"scene id {scene_id!r} starts with '_', which marks metadata")
    keys = sorted([*boxes, "_meta"] if meta is not None else boxes)
    meta_text = "" if meta is None else json.dumps(dict(meta), indent=2, sort_keys=True)
    template, names, values_of = _record_layout(kind)
    with atomic_open(path) as handle:
        for position, key in enumerate(keys):
            handle.write(",\n  " if position else "{\n  ")
            if meta is not None and key == "_meta":
                handle.write('"_meta": ' + meta_text.replace("\n", "\n  "))
                continue
            frames = {str(index): frame_boxes for index, frame_boxes in boxes[key].items()}
            handle.write(_json_key(key) + ": {")
            for number, (frame_key, frame) in enumerate(sorted(frames.items())):
                texts = (zip(*map(frame().__getitem__, names)) if callable(frame)  # write_tracks
                         else zip(*map(_column_texts, zip(*map(values_of, frame)))))
                try:
                    records = [template % values for values in texts]
                except TypeError:  # json.dump's error, unless a box lacks a field of its file
                    for box, name in product(frame, BOX_SCHEMAS[kind]):
                        if getattr(box, name) is None:
                            raise ValueError(
                                f"box {box!r} has no {name}, which its file requires") from None
                    raise
                body = "[\n      " + ",\n      ".join(records) + "\n    ]" if records else "[]"
                handle.write((",\n    " if number else "\n    ")
                             + encode_basestring_ascii(frame_key) + ": " + body)
            handle.write("\n  }" if frames else "}")
        handle.write("\n}\n" if keys else "{}\n")


def write_detections(detections: Mapping[str, Mapping[int, Sequence[Box]]],
                     path: str, meta: Mapping | None = None):
    _write_boxes(detections, "detections", path, meta)


def write_ground_truth(ground_truth: Mapping[str, Mapping[int, Sequence[Box]]],
                       path: str, meta: Mapping | None = None):
    _write_boxes(ground_truth, "ground truth", path, meta)


def write_tracks(outputs: "Mapping[str, Sequence[FrameOutput]]", path: str,
                 meta: Mapping | None = None):
    """Serialize per-scene tracker outputs to a track file."""
    # json.dump's texts of a tracker output's columns, made as its frame is written: no Box
    def texts(rows, labels, scores, track_ids):
        return dict(zip(_TRACK_COLUMNS, [*(map(repr, column) for column in rows.T.tolist()),
                                         map(encode_basestring_ascii, labels),
                                         map(repr, scores), map(repr, track_ids)]))
    _write_boxes({scene_id: {output.frame_index: output.records if output.columns is None
                             else partial(texts, *output.columns) for output in frame_outputs}
                  for scene_id, frame_outputs in outputs.items()}, "tracks", path, meta)
