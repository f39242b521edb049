"""Synthetic scene generation with known noise parameters.

Ground-truth trajectories integrate the tracker's own motion model:
each frame a per-component acceleration is drawn, added to the
velocity, and the updated velocity advances the pose.  The realized
second difference of every pose component therefore equals the drawn
acceleration exactly, so calibration run on generated data must
recover the configured acceleration variances.

Detections perturb ground truth with independent per-component noise,
drop boxes with a miss probability, and add Poisson-distributed false
positives with class-typical sizes.  All randomness flows through one
seeded PCG64 generator in a fixed call order, so a spec reproduces
byte-identical files; the writer records the generator and seed in the
file's metadata header.  Each object makes one normal draw for all its
accelerations, and each detection one for its seven noise values and
one uniform draw for its score.  Normals come one after another whatever
a call's shape, and running sums repeat a frame-by-frame walk's float
operations, so the stream, and every file's bytes, stay as that walk's.

Every numeric spec field passes one of three rules when the spec is
built: a finite real number that is not a bool, an int count with a
minimum, or n reals (one scalar stands for all n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from .core import CLASS_LABELS, finite_real, trusted_box, wrap_angle
from .dataset_io import read_json
from .errors import SchemaError

# Typical box extents (l, w, h) in meters used for false positives and
# as defaults for objects without an explicit size.
CLASS_SIZES = {
    "bicycle": (1.7, 0.6, 1.3),
    "bus": (11.0, 2.9, 3.4),
    "car": (4.5, 1.9, 1.6),
    "motorcycle": (2.1, 0.8, 1.4),
    "pedestrian": (0.6, 0.6, 1.7),
    "trailer": (12.3, 2.9, 3.9),
    "truck": (6.9, 2.5, 2.8),
}

# Generated box extents never drop below this under size noise.
MIN_EXTENT = 0.05

RNG_NAME = "numpy-pcg64"


def _real(name: str, value, non_negative: bool = False) -> float:
    """Rule one: a finite real number, not a bool (and >= 0 if asked)."""
    number = finite_real(name, value)
    if non_negative and number < 0.0:
        raise ValueError(f"{name} must be finite and non-negative, got {number}")
    return number


def _count(name: str, value, minimum: int) -> None:
    """Rule two: an int (not a bool) of at least minimum."""
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValueError(f"{name} must be an int >= {minimum}, got {value!r}")


def _reals(name: str, value, length: int, non_negative: bool = False) -> tuple:
    """Rule three: length reals, or one real repeated length times, as floats."""
    values = tuple(value) if isinstance(value, (list, tuple, np.ndarray)) else (value,) * length
    if len(values) != length:
        raise ValueError(f"{name} must be a scalar or {length} numbers, got {value!r}")
    return tuple(_real(name, v, non_negative) for v in values)


@dataclass(frozen=True)
class ObjectSpec:
    """One scripted object: initial pose, constant velocity, lifespan."""

    class_label: str
    x: float
    y: float
    z: float = 0.0
    yaw: float = 0.0
    vx: float = 0.0
    vy: float = 0.0
    vz: float = 0.0
    yaw_rate: float = 0.0
    size: tuple | None = None
    first_frame: int = 0
    lifespan: int | None = None

    def __post_init__(self):
        if self.class_label not in CLASS_LABELS:
            raise ValueError(f"unknown class label {self.class_label!r}")
        for name in ("x", "y", "z", "yaw", "vx", "vy", "vz", "yaw_rate"):
            _real(name, getattr(self, name))
        if self.size is not None:
            size = _reals("size", self.size, 3)
            if any(v <= 0 for v in size):
                raise ValueError("size extents must be positive")
            object.__setattr__(self, "size", size)
        _count("first_frame", self.first_frame, 0)
        if self.lifespan is not None:
            _count("lifespan", self.lifespan, 1)

    def extents(self) -> tuple:
        return self.size if self.size is not None else CLASS_SIZES[self.class_label]


@dataclass(frozen=True)
class NoiseSpec:
    """Detection and motion noise parameters.

    accel_sigma matches the process-noise semantics (per-frame random
    acceleration of x, y, z, yaw); position/angle/size sigmas match
    the observation-noise semantics.
    """

    position_sigma: tuple = (0.0, 0.0, 0.0)
    angle_sigma: float = 0.0
    size_sigma: float = 0.0
    accel_sigma: tuple = (0.0, 0.0, 0.0, 0.0)
    p_miss: float = 0.0
    fp_rate: float = 0.0
    score_range: tuple = (1.0, 1.0)
    fp_score_range: tuple = (0.1, 0.6)

    def __post_init__(self):
        for name, length in (("position_sigma", 3), ("accel_sigma", 4)):
            sigma = _reals(name, getattr(self, name), length, non_negative=True)
            object.__setattr__(self, name, sigma)
        for name in ("angle_sigma", "size_sigma", "fp_rate"):
            _real(name, getattr(self, name), non_negative=True)
        if not 0.0 <= _real("p_miss", self.p_miss) < 1.0:
            raise ValueError("p_miss must lie in [0, 1)")
        for name in ("score_range", "fp_score_range"):
            lo, hi = _reals(name, getattr(self, name), 2)
            if not 0.0 <= lo <= hi <= 1.0:
                raise ValueError(f"{name} must satisfy 0 <= low <= high <= 1")
            object.__setattr__(self, name, (lo, hi))


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete synthetic scene: objects, noise, bounds, and seed."""

    scene_id: str
    frame_count: int
    objects: tuple
    noise: NoiseSpec = field(default_factory=NoiseSpec)
    seed: int = 0
    bounds: tuple = (-60.0, 60.0, -60.0, 60.0)
    fp_z_range: tuple = (-0.5, 2.0)

    def __post_init__(self):
        if not isinstance(self.scene_id, str) or not self.scene_id or self.scene_id.startswith("_"):
            raise ValueError("scene_id must be a non-empty string that does not start "
                             f"with '_', got {self.scene_id!r}")
        _count("frame_count", self.frame_count, 1)
        _count("seed", self.seed, 0)
        object.__setattr__(self, "objects", tuple(self.objects))
        for name, value, kind in [*((f"objects[{index}]", obj, ObjectSpec) for index, obj
                                    in enumerate(self.objects)), ("noise", self.noise, NoiseSpec)]:
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be of type {kind.__name__}, got {value!r}")
        bounds = _reals("bounds", self.bounds, 4)
        if bounds[0] >= bounds[1] or bounds[2] >= bounds[3]:
            raise ValueError("bounds must be (x_min, x_max, y_min, y_max) with min < max")
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "fp_z_range", _reals("fp_z_range", self.fp_z_range, 2))


def _trajectory(spec: ScenarioSpec, obj: ObjectSpec, rng) -> np.ndarray:
    """(x, y, z, yaw, l, w, h) per live frame, the yaw wrapped after each step as it is summed."""
    last = spec.frame_count if obj.lifespan is None else min(
        spec.frame_count, obj.first_frame + obj.lifespan)
    if last <= obj.first_frame:
        return np.empty((0, 7))
    start = np.array([[obj.x, obj.y, obj.z, obj.yaw], [obj.vx, obj.vy, obj.vz, obj.yaw_rate]],
                     dtype=float)
    accel = rng.normal(0.0, 1.0, size=(last - obj.first_frame - 1, 4))
    velocity = np.cumsum(np.vstack([start[1], accel * spec.noise.accel_sigma]), axis=0)
    poses = np.vstack([start[0], velocity[1:]])
    poses[:, :3] = np.cumsum(poses[:, :3], axis=0)
    yaw = poses[0, 3]  # a numpy float, so an overflow of the first, unwrapped step raises
    for step, rate in enumerate(velocity[1:, 3].tolist(), 1):
        poses[step, 3] = yaw = wrap_angle(yaw + rate)
    return np.hstack([poses, np.broadcast_to(obj.extents(), (len(poses), 3))])


def generate(spec: ScenarioSpec) -> tuple:
    """Build one scene; returns (gt_frames, detection_frames).

    Both are dicts over every frame index in [0, frame_count); frames
    may hold empty lists.  A scene whose poses, noise or ranges leave
    the float range raises ValueError.
    """
    with np.errstate(over="raise"):
        try:
            return _generate(spec)
        except (FloatingPointError, OverflowError) as exc:
            # numpy arithmetic that overflowed, or a uniform draw over a range wider than a float
            raise ValueError(f"scene {spec.scene_id!r} leaves the float range: {exc}") from None


def _generate(spec: ScenarioSpec) -> tuple:
    rng = np.random.default_rng(spec.seed)
    noise = spec.noise
    trajectories = [_trajectory(spec, obj, rng) for obj in spec.objects]
    sigma = np.array([*noise.position_sigma, noise.angle_sigma, *[noise.size_sigma] * 3])
    fp_classes = sorted({obj.class_label for obj in spec.objects}) or list(CLASS_LABELS)

    gt_frames: dict = {frame: [] for frame in range(spec.frame_count)}
    det_frames: dict = {frame: [] for frame in range(spec.frame_count)}

    for frame in range(spec.frame_count):
        for index, obj in enumerate(spec.objects):
            step = frame - obj.first_frame
            if not 0 <= step < len(trajectories[index]):
                continue
            row = trajectories[index][step]
            x, y, z, yaw, l, w, h = row.tolist()
            gt_frames[frame].append(trusted_box(
                x, y, z, wrap_angle(yaw), l, w, h, obj.class_label, frame, spec.scene_id,
                instance_id=f"inst{index:03d}"))
            if noise.p_miss > 0.0 and rng.random() < noise.p_miss:
                continue
            x, y, z, yaw, l, w, h = (row + rng.normal(0.0, 1.0, size=7) * sigma).tolist()
            det_frames[frame].append(trusted_box(
                x, y, z, wrap_angle(wrap_angle(yaw)), max(l, MIN_EXTENT), max(w, MIN_EXTENT),
                max(h, MIN_EXTENT), obj.class_label, frame, spec.scene_id,
                float(min(1.0, max(0.0, rng.uniform(*noise.score_range))))))
        if noise.fp_rate > 0.0:
            for _ in range(int(rng.poisson(noise.fp_rate))):
                label = fp_classes[int(rng.integers(len(fp_classes)))]
                base = np.array(CLASS_SIZES[label])
                size = np.maximum(base * rng.uniform(0.9, 1.1, size=3), MIN_EXTENT)
                x, y, z, yaw = (rng.uniform(*spec.bounds[:2]), rng.uniform(*spec.bounds[2:]),
                                rng.uniform(*spec.fp_z_range), rng.uniform(-math.pi, math.pi))
                det_frames[frame].append(trusted_box(
                    x, y, z, wrap_angle(yaw), *size.tolist(), label, frame, spec.scene_id,
                    float(rng.uniform(*noise.fp_score_range))))
    return gt_frames, det_frames


def generate_suite(specs: Sequence[ScenarioSpec]) -> tuple:
    """Generate several scenes into (gt_by_scene, detections_by_scene)."""
    ids = [spec.scene_id for spec in specs]
    if len(set(ids)) != len(ids):
        raise ValueError("scenario scene_ids must be unique")
    gt_by_scene = {}
    det_by_scene = {}
    for spec in specs:
        gt_frames, det_frames = generate(spec)
        gt_by_scene[spec.scene_id] = gt_frames
        det_by_scene[spec.scene_id] = det_frames
    return gt_by_scene, det_by_scene


def scenario_meta(specs: Sequence[ScenarioSpec]) -> dict:
    """Provenance header recorded in generated files."""
    return {
        "generator": "mot3d-synthetic",
        "version": 1,
        "rng": RNG_NAME,
        "seeds": {spec.scene_id: spec.seed for spec in specs},
    }


def _object(name: str, value) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"{name} must be an object, got {value!r}")
    return value


def spec_from_dict(data: Mapping, location: str = "") -> ScenarioSpec:
    if not isinstance(data, Mapping):
        raise SchemaError(f"invalid scenario spec: expected an object, got {data!r}", location)
    try:
        noise = NoiseSpec(**_object("noise", data.get("noise", {})))
        entries = data.get("objects", [])
        if not isinstance(entries, (list, tuple)):
            raise ValueError(f"objects must be an array, got {entries!r}")
        objects = tuple(ObjectSpec(**_object(f"objects[{index}]", entry))
                        for index, entry in enumerate(entries))
        extra = {key: data[key] for key in ("seed", "bounds", "fp_z_range") if key in data}
        return ScenarioSpec(
            scene_id=data["scene_id"],
            frame_count=data["frame_count"],
            objects=objects,
            noise=noise,
            **extra,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"invalid scenario spec: {exc}", location) from None


def load_scenarios(path: str) -> list:
    """Read one scenario or a {"scenarios": [...]} collection from JSON."""
    data = read_json(path, "scenario")
    if isinstance(data, dict) and "scenarios" in data:
        entries = data["scenarios"]
        if not isinstance(entries, list) or not entries:
            raise SchemaError("'scenarios' must be a non-empty array", path)
        return [spec_from_dict(entry, f"{path} scenarios[{index}]")
                for index, entry in enumerate(entries)]
    if isinstance(data, dict):
        return [spec_from_dict(data, path)]
    raise SchemaError("scenario file must hold an object", path)


def noiseless_scene(seed: int = 7) -> ScenarioSpec:
    """Five well-separated moving objects observed perfectly."""
    objects = (
        ObjectSpec("car", x=-40.0, y=-20.0, yaw=0.0, vx=1.2),
        ObjectSpec("car", x=40.0, y=20.0, yaw=math.pi, vx=-1.1),
        ObjectSpec("pedestrian", x=0.0, y=-30.0, yaw=math.pi / 2, vy=0.5),
        ObjectSpec("bus", x=-30.0, y=25.0, yaw=0.3, vx=0.9, vy=0.3),
        ObjectSpec("truck", x=25.0, y=-25.0, yaw=-2.0, vx=-0.5, vy=-0.6),
    )
    return ScenarioSpec(scene_id="noiseless", frame_count=50, objects=objects, seed=seed)


# Known training noise: calibration must recover Q_xx = 0.1**2 and R_xx = 0.3**2.
CALIBRATION_NOISE = NoiseSpec(position_sigma=0.3, angle_sigma=0.05, size_sigma=0.02,
                              accel_sigma=(0.1, 0.1, 0.1, 0.02), score_range=(0.5, 1.0))


def calibration_scenario(scene_id: str = "calibration", seed: int = 101,
                         objects: int = 100, frame_count: int = 102,
                         spacing: float = 150.0, classes: Sequence[str] = ("car",),
                         noise: NoiseSpec = CALIBRATION_NOISE) -> ScenarioSpec:
    """Widely spaced objects for noise estimation, under known noise.

    Defaults yield objects * (frame_count - 2) = 10000 second
    differences; the generous spacing keeps random-walk wander from
    ever bringing two objects inside the matching gate.  Objects cycle
    through classes.  The default noise, CALIBRATION_NOISE, has no
    misses and no false positives.
    """
    side = math.ceil(math.sqrt(objects))
    object_specs = []
    for index in range(objects):
        row, col = divmod(index, side)
        object_specs.append(ObjectSpec(
            class_label=classes[index % len(classes)],
            x=col * spacing,
            y=row * spacing,
            yaw=(index % 7) * 0.8 - 2.4,
        ))
    return ScenarioSpec(scene_id=scene_id, frame_count=frame_count,
                        objects=tuple(object_specs), noise=noise, seed=seed,
                        bounds=(-spacing, side * spacing, -spacing, side * spacing))


_SUITE_NOISE = NoiseSpec(
    position_sigma=0.15,
    angle_sigma=0.05,
    size_sigma=0.02,
    # lateral acceleration kept small so lanes stay separated
    accel_sigma=(0.12, 0.02, 0.01, 0.004),
    p_miss=0.05,
    fp_rate=0.3,
    score_range=(0.55, 1.0),
    fp_score_range=(0.1, 0.5),
)

# compact walker boxes: per-frame displacement exceeds this extent
_SUITE_PED_SIZE = (0.4, 0.4, 1.7)


def standard_suite(seed: int = 11, scenes: int = 3,
                   frame_count: int = 50) -> list:
    """Noisy tracking scenes mixing small fast walkers with large vehicles.

    Pedestrians advance farther per frame than their box extent, which
    starves overlap-based affinities while distance-based gating keeps
    working; buses and cars barely move relative to their size.  Lanes
    run along x, twelve meters apart.  Speeds stay moderate so that a
    freshly spawned track, whose initial velocity belief is zero, can
    still pass the gate and complete its birth sequence.
    """
    specs = []
    for scene_index in range(scenes):
        objects = (
            ObjectSpec("pedestrian", x=-20.0, y=-42.0, yaw=0.0, vx=0.5,
                       size=_SUITE_PED_SIZE),
            ObjectSpec("pedestrian", x=20.0, y=-18.0, yaw=math.pi, vx=-0.48,
                       size=_SUITE_PED_SIZE),
            ObjectSpec("pedestrian", x=0.0, y=6.0, yaw=0.0, vx=0.52,
                       size=_SUITE_PED_SIZE),
            ObjectSpec("car", x=-25.0, y=-30.0, yaw=0.0, vx=0.6),
            ObjectSpec("car", x=25.0, y=-6.0, yaw=math.pi, vx=-0.55),
            ObjectSpec("car", x=-22.0, y=30.0, yaw=0.0, vx=0.58),
            ObjectSpec("bus", x=-18.0, y=18.0, yaw=0.0, vx=0.5),
            ObjectSpec("bus", x=22.0, y=42.0, yaw=math.pi, vx=-0.5),
        )
        specs.append(ScenarioSpec(
            scene_id=f"suite{scene_index}",
            frame_count=frame_count,
            objects=objects,
            noise=_SUITE_NOISE,
            seed=seed + scene_index,
        ))
    return specs


def standard_suite_calibration(seed: int = 12) -> ScenarioSpec:
    """Calibration split with the standard suite's motion and observation noise."""
    suite = _SUITE_NOISE
    noise = replace(CALIBRATION_NOISE, position_sigma=suite.position_sigma,
                    angle_sigma=suite.angle_sigma, size_sigma=suite.size_sigma,
                    accel_sigma=suite.accel_sigma)
    return calibration_scenario(scene_id="suite-calibration", seed=seed, objects=42,
                                frame_count=52, classes=("pedestrian", "car", "bus"),
                                noise=noise)


def turning_scenario(seed: int = 5, frame_count: int = 40) -> ScenarioSpec:
    """A single noiseless box rotating in place at 0.15 rad per frame."""
    objects = (ObjectSpec("car", x=0.0, y=0.0, yaw=0.2, yaw_rate=0.15),)
    return ScenarioSpec(scene_id="turning", frame_count=frame_count, objects=objects, seed=seed)
