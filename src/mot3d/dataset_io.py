"""File formats, run configuration, and the one JSON read/write path.

All three box files share one shape: a JSON object mapping scene_id to
an object mapping the decimal frame index to an array of box records.
A box record always carries "center" [x, y, z], "yaw", "size"
[l, w, h], and "class"; BOX_SCHEMAS names the fields each file adds.
Frame keys are canonical decimals ("7", never "07").  Top-level keys
beginning with an underscore are reserved for metadata (for example
the generator provenance header) and are skipped by the loaders.

Each rule is checked once, in one place.  The loader checks the JSON
shape: unexpected fields, array lengths, and that every number is a
finite number that fits a float.  A field that is already a finite
float passes in one check; any other value goes to _number, which
writes the error.  The rules on values (positive extents, score range,
known class, ids) live in core.Observation and core.Box, and surface
here as SchemaError with the offending scene, frame and record.  A
record with several faults reports the first in the order: unexpected
fields, center, yaw, size, the file's extra fields, class, and only
then the value rules.

Writers emit sorted keys with a fixed layout, so equal inputs always
serialize to identical bytes, and floats keep full round-trip
precision.  Every output file is written atomically: a temp file in
the target directory replaces the target only once it is complete.
"""

from __future__ import annotations

import json
import math
import os
import uuid
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from numbers import Real
from typing import TYPE_CHECKING, Mapping, Sequence

from scipy.special import gammaincinv

from .core import CLASS_LABELS, Box, Observation
from .errors import ConfigError, SchemaError

if TYPE_CHECKING:
    from .tracker import FrameOutput

# Gate on the Mahalanobis distance: sqrt of the 95th percentile of a
# chi-squared with 7 degrees of freedom (one per observed component),
# which is twice the same quantile of a gamma with shape 7/2.
DEFAULT_MAHA_GATE = math.sqrt(2.0 * gammaincinv(3.5, 0.95))

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
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    temp = os.path.join(directory, f".{os.path.basename(path)}.{uuid.uuid4().hex}.tmp")
    try:
        with open(temp, "w", newline=newline) as handle:
            yield handle
        os.replace(temp, path)
    except BaseException:
        if os.path.exists(temp):
            os.remove(temp)
        raise


def write_json(payload, path: str):
    """Write payload with sorted keys and two-space indents, atomically."""
    with atomic_open(path) as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def positive_number(value) -> bool:
    """A real number above zero that fits a float (JSON integers may not)."""
    if isinstance(value, bool) or not isinstance(value, Real):
        return False
    try:
        return float(value) > 0.0
    except OverflowError:
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
            raise ConfigError("maha_threshold must be a positive number")
        if not positive_number(self.iou_threshold) or not self.iou_threshold < 1.0:
            raise ConfigError("iou_threshold must lie strictly between 0 and 1")
        if not isinstance(self.class_maha_thresholds, Mapping):
            raise ConfigError("class_maha_thresholds must map class labels to thresholds")
        for label, value in self.class_maha_thresholds.items():
            if label not in CLASS_LABELS:
                raise ConfigError(f"per-class threshold for unknown class {label!r}")
            if not positive_number(value):
                raise ConfigError(f"per-class threshold for {label!r} must be a positive number")
        if not isinstance(self.angular_velocity, bool):
            raise ConfigError(f"angular_velocity must be a boolean, got {self.angular_velocity!r}")
        for name in ("birth_hits", "death_misses"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ConfigError(f"{name} must be a positive int, got {value!r}")
        if not isinstance(self.amota_samples, int) or self.amota_samples < 2:
            raise ConfigError(f"amota_samples must be an int >= 2, got {self.amota_samples!r}")
        object.__setattr__(self, "class_maha_thresholds", dict(self.class_maha_thresholds))

    def gate_for(self, class_label: str) -> float:
        """Matching threshold for one class under the configured affinity."""
        if self.affinity == "iou":
            return self.iou_threshold
        return self.class_maha_thresholds.get(class_label, self.maha_threshold)

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


def _require(record: Mapping, key: str, location: str):
    if key not in record:
        raise SchemaError(f"missing field {key!r}", location)
    return record[key]


def _number(value, name: str, location: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(f"field {name!r} must be a number, got {value!r}", location)
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise SchemaError(f"field {name!r} must be a finite number", location)
    return number


def number_list(value, name: str, length: int, location: str) -> list:
    """Check a JSON array of `length` finite numbers; return them as floats."""
    if not isinstance(value, list) or len(value) != length:
        raise SchemaError(f"field {name!r} must be an array of {length} numbers", location)
    return [item if type(item) is float and math.isfinite(item)
            else _number(item, name, location) for item in value]


def _frame_index(key: str, location: str) -> int:
    """Parse a frame key written as a canonical decimal: "7", not "07" or "²"."""
    try:
        index = int(key) if key.isascii() and key.isdigit() else None
    except ValueError:  # more digits than int() parses
        index = None
    if index is None or str(index) != key:
        raise SchemaError(f"frame key {key!r} is not a canonical non-negative integer", location)
    return index


def _box(record, kind: str, frame_index: int, scene_id: str, location: str) -> Box:
    if not isinstance(record, dict):
        raise SchemaError("box record must be a JSON object", location)
    extras = BOX_SCHEMAS[kind]
    unexpected = record.keys() - _RECORD_KEYS[kind]
    if unexpected:
        raise SchemaError(f"unexpected fields {sorted(unexpected)}", location)
    center = number_list(_require(record, "center", location), "center", 3, location)
    yaw = _require(record, "yaw", location)
    if not (type(yaw) is float and math.isfinite(yaw)):
        yaw = _number(yaw, "yaw", location)
    size = number_list(_require(record, "size", location), "size", 3, location)
    values = {name: _require(record, name, location) for name in extras}
    if "score" in values and not (type(values["score"]) is float
                                  and math.isfinite(values["score"])):
        values["score"] = _number(values["score"], "score", location)
    class_label = _require(record, "class", location)
    try:
        return Box(Observation(*center, yaw, *size), class_label, frame_index, scene_id, **values)
    except ValueError as exc:
        raise SchemaError(str(exc), location) from None


def _load_boxes(path: str, kind: str) -> dict:
    """Parse a box file into scene -> frame -> [Box], scenes and frames sorted."""
    data = read_json(path, kind)
    if not isinstance(data, dict):
        raise SchemaError(f"{kind} file must hold a JSON object", path)
    out: dict = {}
    instances: set = set()
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
            boxes = []
            for record_index, record in enumerate(records):
                location = f"{frame_location} record {record_index}"
                box = _box(record, kind, frame_index, scene_id, location)
                if box.instance_id is not None:
                    key = (scene_id, frame_index, box.instance_id)
                    if key in instances:
                        raise SchemaError(f"duplicate instance_id {box.instance_id!r}",
                                          location)
                    instances.add(key)
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


def _write_boxes(boxes: Mapping[str, Mapping[int, Sequence[Box]]], kind: str, path: str,
                 meta: Mapping | None):
    extras = BOX_SCHEMAS[kind]
    payload: dict = {} if meta is None else {"_meta": dict(meta)}
    for scene_id, frames in boxes.items():
        payload[scene_id] = {str(frame_index): [_record(box, extras) for box in frame_boxes]
                             for frame_index, frame_boxes in frames.items()}
    write_json(payload, path)


def _record(box: Box, extras: tuple) -> dict:
    obs = box.observation
    record = {"center": [obs.x, obs.y, obs.z], "yaw": obs.a,
              "size": [obs.l, obs.w, obs.h], "class": box.class_label}
    for name in extras:
        record[name] = getattr(box, name)
        if record[name] is None:
            raise ValueError(f"box {box!r} has no {name}, which its file requires")
    return record


def write_detections(detections: Mapping[str, Mapping[int, Sequence[Box]]],
                     path: str, meta: Mapping | None = None):
    _write_boxes(detections, "detections", path, meta)


def write_ground_truth(ground_truth: Mapping[str, Mapping[int, Sequence[Box]]],
                       path: str, meta: Mapping | None = None):
    _write_boxes(ground_truth, "ground truth", path, meta)


def write_tracks(outputs: "Mapping[str, Sequence[FrameOutput]]", path: str,
                 meta: Mapping | None = None):
    """Serialize per-scene tracker outputs to a track file."""
    from .tracker import boxes_by_frame  # the tracker imports RunConfig from here
    _write_boxes({scene_id: boxes_by_frame(frame_outputs)
                  for scene_id, frame_outputs in outputs.items()}, "tracks", path, meta)
