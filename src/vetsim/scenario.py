"""Scenario configuration, presets and the closed-loop simulation.

One scenario couples the two robots through vision alone. The inputs that
depend on time alone are computed before the loop, and the events are read
off the log after it; every tick (fixed 50 Hz by default) runs sense ->
control -> actuate -> log:

1. sense: each robot's camera projects the other robot's tag; the upward
   camera's observation additionally passes through the dropout model.
2. control: each robot combines its own sub-task PD (depth/attitude under
   water, waypoint tracking on the surface) with the tether command derived
   from its own camera. In baseline mode the follower runs the one-way
   visual servo and the leader ignores its camera entirely.
3. actuate: commands are saturated, allocated to body wrenches and
   integrated; scheduled world-frame perturbations push on the underwater
   robot; a soft wall clamp keeps both robots inside the tank.
4. log: one record per tick with poses, split commands, detection state,
   image regions, tether states, the waypoint index and the wall clamps.

Runs are deterministic: a fixed seed reproduces byte-identical logs.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from array import array
from dataclasses import dataclass, field, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

import numpy as np

from .control import (
    DepthAttitudeState,
    PdGains,
    SubTaskTarget,
    VetFilterState,
    VetGains,
    baseline_ibvs,
    camera_to_body,
    combined_control,
    subtask_control_surface,
    subtask_control_underwater,
    surface_pd,
    underwater_pd,
    vet_law,
)
from .frames import (
    GimbalSingularity, Pose3, Pose6, RigidTransform, euler_rate_rows, projected_distance,
)
from .perception import (
    CameraModel,
    DropoutModel,
    TagModel,
    classify_region,
    project_tag,
    tag_geometry,
    tether_offset,
)
from .vehicle import Disturbance, VehicleModel, VehicleParams


# The most integration steps one run may take; each step adds one log row of
# 432 bytes, so this also bounds a run's memory (about 0.43 GB at the cap).
MAX_TICKS = 1_000_000
# The most lanes one lawnmower survey may have; each adds two waypoints.
MAX_LANES = 10_000


class ConfigError(ValueError):
    """Configuration dictionary is malformed or inconsistent."""


class UnknownPreset(KeyError):
    """No preset registered under the requested name."""


class InvalidBounds(ConfigError):
    """Planner area bounds are degenerate."""


class SimFailure(RuntimeError):
    """The simulation loop hit an unrecoverable state."""


@dataclass(frozen=True)
class Setpoints:
    """Ordered planar targets, visited in sequence and held at the end."""

    waypoints: tuple[tuple[float, ...], ...]
    capture_radius: float = 0.15

    def __post_init__(self) -> None:
        if self.capture_radius <= 0:
            raise ValueError("capture_radius must be positive")
        for wp in self.waypoints:
            if len(wp) != 3:
                raise ValueError("waypoints are (x, y, psi) triples")


@dataclass(frozen=True)
class Lawnmower:
    """Boustrophedon coverage of a rectangle, lanes along x."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    lane_spacing: float
    speed: float = 0.1
    capture_radius: float = 0.15

    def __post_init__(self) -> None:
        if self.capture_radius <= 0 or self.speed <= 0:
            raise ValueError("speed and capture_radius must be positive")


def lawnmower_path(spec: Lawnmower) -> tuple:
    """Waypoints covering the rectangle, heading facing along each lane.

    Lane count is floor(y extent / spacing) + 1, at most MAX_LANES; spacing
    wider than the extent degenerates to a single lane with two waypoints.
    """
    if spec.x_max <= spec.x_min or spec.y_max <= spec.y_min:
        raise InvalidBounds("lawnmower area must have positive extent")
    if spec.lane_spacing <= 0:
        raise InvalidBounds("lane spacing must be positive")
    # a float until it is known to be small: the ratio may be huge or infinite
    lanes = (spec.y_max - spec.y_min) / spec.lane_spacing + 1e-9
    if not lanes < MAX_LANES:
        raise InvalidBounds(f"lawnmower area needs more than {MAX_LANES} lanes")
    n_lanes = int(math.floor(lanes)) + 1
    points = []
    for i in range(n_lanes):
        y = spec.y_min + i * spec.lane_spacing
        if i % 2 == 0:
            points.append((spec.x_min, y, 0.0))
            points.append((spec.x_max, y, 0.0))
        else:
            points.append((spec.x_max, y, math.pi))
            points.append((spec.x_min, y, math.pi))
    return tuple(points)


def planner_waypoints(spec) -> tuple:
    if isinstance(spec, Lawnmower):
        return lawnmower_path(spec)
    return tuple(tuple(float(v) for v in wp) for wp in spec.waypoints)


def planner_step(current: Pose3, waypoints, capture_radius: float, index: int = 0):
    """Advance past every waypoint within the capture radius, hold the last.

    Returns (target, new_index). With no waypoints the target holds the
    current pose.
    """
    n = len(waypoints)
    while index < n:
        wx, wy, _ = waypoints[index]
        if math.hypot(current.x - wx, current.y - wy) <= capture_radius:
            index += 1
        else:
            break
    if n == 0:
        return SubTaskTarget(x_d=current.x, y_d=current.y, psi_d=current.psi), index
    wx, wy, wpsi = waypoints[min(index, n - 1)]
    return SubTaskTarget(x_d=wx, y_d=wy, psi_d=wpsi), index


@dataclass
class ScenarioConfig:
    """Complete, serialisable description of one run."""

    name: str
    mode: str
    dt: float
    duration: float
    seed: int
    tank_min: tuple[float, ...]
    tank_max: tuple[float, ...]
    initial_pose_u: tuple[float, ...]
    initial_pose_s: tuple[float, ...]
    params_u: VehicleParams
    params_s: VehicleParams
    camera_u: CameraModel
    camera_s: CameraModel
    tag_u: TagModel
    tag_s: TagModel
    pd_u: PdGains
    pd_s: PdGains
    vet: VetGains
    depth_target: float
    roll_target: float
    pitch_target: float
    planner: Setpoints | Lawnmower
    perturbations: tuple[Disturbance, ...] = ()
    dropout: DropoutModel = field(default_factory=DropoutModel)

    def validate(self) -> None:
        # the planner's type first: to_dict below can only encode the two kinds
        if not isinstance(self.planner, (Setpoints, Lawnmower)):
            raise ConfigError("planner must be Setpoints or Lawnmower")
        non_finite = _non_finite_paths(self.to_dict())
        if non_finite:
            raise ConfigError(f"numbers that are not finite floats at {', '.join(non_finite)}")
        if self.mode not in ("vet", "baseline"):
            raise ConfigError(f"mode must be 'vet' or 'baseline', got {self.mode!r}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        if not 0.0 < self.dt <= 0.1:
            raise ConfigError("dt must be in (0, 0.1] seconds")
        if self.duration < 0:
            raise ConfigError("duration must be non-negative")
        # compared as a float: round() of an infinite ratio would raise
        if self.duration / self.dt > MAX_TICKS + 0.5:
            raise ConfigError(
                f"duration {self.duration:g} s at dt {self.dt:g} s exceeds {MAX_TICKS} ticks"
            )
        if len(self.tank_min) != 3 or len(self.tank_max) != 3:
            raise ConfigError("tank bounds are 3-vectors")
        if any(hi <= lo for lo, hi in zip(self.tank_min, self.tank_max)):
            raise ConfigError("tank must have positive extent on every axis")
        if len(self.initial_pose_u) != 6 or len(self.initial_pose_s) != 3:
            raise ConfigError("initial poses are a 6-tuple and a 3-tuple")
        for robot, position in (("underwater", self.initial_pose_u[:3]),
                                ("surface", self.initial_pose_s[:2])):
            if not all(lo <= v <= hi for lo, v, hi in zip(self.tank_min, position, self.tank_max)):
                raise ConfigError(f"{robot} initial pose lies outside the tank")
        if self.params_u.dof != 6 or self.params_s.dof != 3:
            raise ConfigError("underwater model is 6-DoF, surface model 3-DoF")
        if len(self.pd_u.kp) != 6 or len(self.pd_s.kp) != 3:
            raise ConfigError("pd_u needs 6-axis gains and pd_s 3-axis gains")
        if any(self.pd_u.kp[i] != 0.0 or self.pd_u.kd[i] != 0.0 for i in (0, 1, 5)):
            raise ConfigError("pd_u gains on x, y and yaw must be exactly zero")
        planner_waypoints(self.planner)  # raises InvalidBounds on bad areas

    def to_dict(self) -> dict:
        return _encode(self, ScenarioConfig)

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        """A validated config from its to_dict form, schema v1 included;
        raises ConfigError on anything else."""
        cfg = _decode(data, ScenarioConfig, "")
        cfg.validate()
        return cfg


def _non_finite_paths(tree, path: str = "") -> list:
    """Dotted paths of every number in a to_dict tree that is not a finite
    float: NaN, an infinity, or an int too large to convert."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        try:
            return [] if not isinstance(tree, (int, float)) or math.isfinite(tree) else [path]
        except OverflowError:  # an int beyond the float range
            return [path]
    prefix = f"{path}." if path else ""
    return [p for key, value in items for p in _non_finite_paths(value, f"{prefix}{key}")]


# -- config codec ------------------------------------------------------------
#
# One walker maps every config dataclass to plain JSON data and back, driven
# by the resolved field annotations: a dataclass is an object whose keys are
# exactly its field names, a tuple or an array is a list, a scalar is itself.
# A union of dataclasses (the planner) adds a "kind" key, the lower-cased
# class name. A number keeps its JSON type: an int field takes only an
# integer and a float field an integer or a float, neither a bool, and a str
# field only a string (_SCALAR_TYPES). Lengths and ranges are checked
# by the dataclasses themselves and by ScenarioConfig.validate.
_SCALAR_TYPES = {int: (int,), float: (int, float), str: (str,)}

# Keys of config schema v1 that v2 removed: dotted key -> (the one value that
# still loads, ... for any; why the key went). A key that loads is skipped, so
# a saved v1 bundle loads to the config it ran with.
_REMOVED_KEYS = {
    "dropout.seed": (..., "it was never read; the top-level seed seeds the run"),
    "appendix_sign_convention": (False, "the legacy sign convention was removed"),
}


@functools.cache
def _field_types(cls) -> dict:
    """Field name -> resolved annotation, in declaration order."""
    hints = get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _encode(value, hint):
    if isinstance(hint, UnionType):
        return {"kind": type(value).__name__.lower(), **_encode(value, type(value))}
    if is_dataclass(hint):
        return {name: _encode(getattr(value, name), sub)
                for name, sub in _field_types(hint).items()}
    if hint is np.ndarray:
        return value.tolist()
    if get_origin(hint) is tuple:
        item = get_args(hint)[0]
        return [_encode(v, item) for v in value]
    return value


def _removed(dotted: str, value) -> bool:
    """Whether dotted is a removed v1 key whose value still loads; a ConfigError
    if it is one whose value does not."""
    if dotted not in _REMOVED_KEYS:
        return False
    loads, why = _REMOVED_KEYS[dotted]
    if loads is not ... and value is not loads:
        raise ConfigError(f"config key {dotted} cannot be {value!r}: {why}")
    return True


def _decode(data, hint, path: str):
    """Rebuild a value of type hint from its _encode form; path is the dotted
    key of data in the config tree, for error messages."""
    if isinstance(hint, UnionType):
        kinds = {cls.__name__.lower(): cls for cls in get_args(hint)}
        kind = data.get("kind") if isinstance(data, dict) else None
        if not isinstance(kind, str) or kind not in kinds:
            raise ConfigError(f"{path}.kind must be one of {sorted(kinds)}, got {kind!r}")
        return _decode({k: v for k, v in data.items() if k != "kind"}, kinds[kind], path)
    if is_dataclass(hint):
        if not isinstance(data, dict):
            raise ConfigError(f"{path or 'config root'} must be an object")
        expected = _field_types(hint)
        at = f" at {path}" if path else ""
        prefix = f"{path}." if path else ""
        unknown = [k for k in data.keys() - expected.keys() if not _removed(prefix + k, data[k])]
        if unknown:
            raise ConfigError(f"unknown config keys{at}: {sorted(unknown)}")
        missing = expected.keys() - data.keys()
        if missing:
            raise ConfigError(f"missing config keys{at}: {sorted(missing)}")
        values = {name: _decode(data[name], sub, prefix + name)
                  for name, sub in expected.items()}
        try:
            return hint(**values)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config{at}: {exc}") from exc
    if get_origin(hint) is tuple:
        if not isinstance(data, (list, tuple)):
            raise ConfigError(f"{path} must be a list")
        item = get_args(hint)[0]
        return tuple(_decode(v, item, f"{path}.{i}") for i, v in enumerate(data))
    accepted = _SCALAR_TYPES.get(hint)
    if accepted is not None and (not isinstance(data, accepted) or isinstance(data, bool)):
        raise ConfigError(f"malformed config at {path}: expected {hint.__name__}, got {data!r}")
    try:
        return np.array(data, dtype=float) if hint is np.ndarray else hint(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed config at {path}: {exc}") from exc


# -- trajectory log --------------------------------------------------------

# The log layout, declared once: each TrajectoryLog field with its type, its
# width and its CSV column names, in CSV order. float fields are float64
# arrays, int and bool fields int64 and bool arrays, all kept as columns of one
# float row table (the flags as 0.0/1.0); str fields are lists with one label
# per tick. Fields with no CSV names (body velocities, saturated totals, the
# planner's waypoint index and the wall-clamp flags) live in the row table
# only.
_LOG_LAYOUT = (
    ("t", float, 1, ("t",)),
    ("pose_u", float, 6, ("xU", "yU", "zU", "phiU", "thetaU", "psiU")),
    ("pose_s", float, 3, ("xS", "yS", "psiS")),
    ("nu_u", float, 6, ()),
    ("nu_s", float, 3, ()),
    ("u_sub_u", float, 6, ("uU_sub_x", "uU_sub_y", "uU_sub_z",
                           "uU_sub_phi", "uU_sub_theta", "uU_sub_psi")),
    ("u_xi_u", float, 6, ("uU_xi_x", "uU_xi_y", "uU_xi_z",
                          "uU_xi_phi", "uU_xi_theta", "uU_xi_psi")),
    ("u_sub_s", float, 3, ("uS_sub_x", "uS_sub_y", "uS_sub_psi")),
    ("u_xi_s", float, 3, ("uS_xi_x", "uS_xi_y", "uS_xi_psi")),
    ("u_total_u", float, 6, ()),
    ("u_total_s", float, 3, ()),
    ("detected_us", bool, 1, ("detectedUS",)),
    ("detected_su", bool, 1, ("detectedSU",)),
    ("region_us", str, 1, ("regionUS",)),
    ("region_su", str, 1, ("regionSU",)),
    ("xi_us", float, 1, ("xiUS",)),
    ("xi_su", float, 1, ("xiSU",)),
    ("proj_dist", float, 1, ("projDist",)),
    ("wp_index", int, 1, ()),
    ("clamped_u", bool, 1, ()),
    ("clamped_s", bool, 1, ()),
    ("event_flags", str, 1, ("eventFlags",)),
)
_CSV_FORMATS = {float: "%.12g", bool: "%d", str: "%s"}

CSV_COLUMNS = tuple(name for *_, names in _LOG_LAYOUT for name in names)
_CSV_ROW = ",".join(_CSV_FORMATS[kind] for _, kind, _, names in _LOG_LAYOUT for _ in names)
# Rows are converted this many at a time, which bounds the memory the
# per-cell Python objects take in both the writer and the reader.
_CSV_CHUNK = 256
_ROW_WIDTH = sum(width for _, kind, width, _ in _LOG_LAYOUT if kind is not str)
# Row-table columns ahead of the xi offsets, which are NaN by design on
# undetected ticks: time, poses, velocities, commands and detection flags.
_FINITE_WIDTH = sum(
    width
    for _, kind, width, _ in itertools.takewhile(lambda f: f[0] != "xi_us", _LOG_LAYOUT)
    if kind is not str
)


def _log_arrays(table: np.ndarray) -> dict:
    """Slice the (ticks, _ROW_WIDTH) row table into the TrajectoryLog arrays:
    float64 views of disjoint columns (no copies), int and bool copies."""
    out = {}
    col = 0
    for name, kind, width, _ in _LOG_LAYOUT:
        if kind is str:
            continue
        out[name] = table[:, col] if width == 1 else table[:, col:col + width]
        if kind is not float:
            out[name] = out[name].astype(kind)
        col += width
    return out


@dataclass
class TrajectoryLog:
    """Complete tick-by-tick record of one run.

    Per tick: t is (n,), poses (n, 6) and (n, 3), velocities and commands
    (n, 6) for the underwater and (n, 3) for the surface robot, xi_* and
    proj_dist (n,), all float64; wp_index (the planner's index after the
    tick's step) is (n,) int64; detected_* and clamped_* (the wall clamp made
    the row's pose) are (n,) bool. From run() and log_from_csv the float
    arrays are views of disjoint columns of one row table laid out by
    _LOG_LAYOUT. events and the waypoint counts are read off event_flags.
    """

    config: ScenarioConfig
    t: np.ndarray
    pose_u: np.ndarray
    pose_s: np.ndarray
    nu_u: np.ndarray
    nu_s: np.ndarray
    u_sub_u: np.ndarray
    u_xi_u: np.ndarray
    u_sub_s: np.ndarray
    u_xi_s: np.ndarray
    u_total_u: np.ndarray
    u_total_s: np.ndarray
    detected_us: np.ndarray
    detected_su: np.ndarray
    region_us: list
    region_su: list
    xi_us: np.ndarray
    xi_su: np.ndarray
    proj_dist: np.ndarray
    wp_index: np.ndarray
    clamped_u: np.ndarray
    clamped_s: np.ndarray
    event_flags: list

    def __len__(self) -> int:
        return len(self.t)

    @property
    def events(self) -> list:
        """(t, event) pairs in log order."""
        return [(t, item) for t, flags in zip(self.t.tolist(), self.event_flags) if flags
                for item in flags.split(";")]

    @property
    def waypoints_total(self) -> int:
        return len(planner_waypoints(self.config.planner))

    @property
    def waypoints_captured(self) -> int:
        return sum(flags.split(";").count("waypoint_capture") for flags in self.event_flags)

    def to_csv_text(self) -> str:
        """Render the fixed-schema CSV; identical runs give identical bytes."""
        lines = [",".join(CSV_COLUMNS)]
        for lo in range(0, len(self.t), _CSV_CHUNK):
            rows = slice(lo, lo + _CSV_CHUNK)
            columns = []
            for name, kind, width, names in _LOG_LAYOUT:
                if not names:
                    continue
                block = getattr(self, name)[rows]
                if kind is str:
                    columns.append(block)
                elif width == 1:
                    columns.append(block.tolist())
                else:
                    columns += block.T.tolist()
            lines += [_CSV_ROW % row for row in zip(*columns)]
        return "\n".join(lines) + "\n"


# -- simulation loop -------------------------------------------------------

class _WallClamp:
    """Soft tank walls: clamp position, kill the outward velocity."""

    def __init__(self, tank_min, tank_max):
        self.lo = tuple(float(v) for v in tank_min)
        self.hi = tuple(float(v) for v in tank_max)

    def apply_u(self, pose: Pose6, nu: list):
        """Returns (pose, body velocity list, clamped)."""
        lo, hi = self.lo, self.hi
        pos = (pose.x, pose.y, pose.z)
        clipped = (
            min(max(pose.x, lo[0]), hi[0]),
            min(max(pose.y, lo[1]), hi[1]),
            min(max(pose.z, lo[2]), hi[2]),
        )
        if clipped == pos:
            return pose, nu, False
        (r0, r1, r2, r3, r4, r5, r6, r7, r8), _ = pose.flat_transform
        u, v, w = nu[:3]
        world_v = [r0 * u + r1 * v + r2 * w, r3 * u + r4 * v + r5 * w, r6 * u + r7 * v + r8 * w]
        for axis in range(3):
            if clipped[axis] != pos[axis]:
                world_v[axis] = 0.0
        wx, wy, wz = world_v
        nu = [r0 * wx + r3 * wy + r6 * wz, r1 * wx + r4 * wy + r7 * wz,
              r2 * wx + r5 * wy + r8 * wz] + nu[3:]
        return Pose6(clipped[0], clipped[1], clipped[2], pose.attitude), nu, True

    def apply_s(self, pose: Pose3, nu: list):
        """Returns (pose, body velocity list, clamped)."""
        x = min(max(pose.x, self.lo[0]), self.hi[0])
        y = min(max(pose.y, self.lo[1]), self.hi[1])
        if x == pose.x and y == pose.y:
            return pose, nu, False
        c, s = math.cos(pose.psi), math.sin(pose.psi)
        u, v, r = nu
        wx = c * u - s * v if x == pose.x else 0.0
        wy = s * u + c * v if y == pose.y else 0.0
        return Pose3(x, y, pose.psi), [c * wx + s * wy, -s * wx + c * wy, r], True


def _depth_attitude_state(pose: Pose6, nu: list) -> DepthAttitudeState:
    """What the underwater robot's own sensors provide: depth and attitude,
    and their rates."""
    (_, _, _, _, _, _, r6, r7, r8), _ = pose.flat_transform
    att = pose.attitude
    ea, eb, ec, ed, _, _ = euler_rate_rows(att)
    u, v, w, p, q, r = nu
    return DepthAttitudeState(
        pose.z, att.phi, att.theta,
        r6 * u + r7 * v + r8 * w,
        p + ea * q + eb * r,
        ec * q + ed * r,
    )


def _measure(pixels: list, detected: bool, cam: CameraModel) -> tuple:
    """The one geometry evaluation of an observation: (geometry, region
    label, xi), or (None, None, nan) when the tag is not detected."""
    if not detected:
        return None, None, math.nan
    geometry = tag_geometry(pixels)
    region = classify_region(*geometry, cam)
    return geometry, region, tether_offset(geometry[0], cam)


def _check_finite(table: np.ndarray) -> None:
    """Raise SimFailure at the first tick of a finished run's row table whose
    pose, velocity or command columns hold a NaN or an infinity."""
    bad = np.flatnonzero(~np.isfinite(table[:, :_FINITE_WIDTH]).all(axis=1))
    if bad.size:
        k = int(bad[0])
        row = _log_arrays(table[k:k + 1])
        raise SimFailure(
            f"non-finite state at tick {k}, t={table[k, 0]:.3f} s: "
            f"pose_u={row['pose_u'][0].tolist()}, pose_s={row['pose_s'][0].tolist()}"
        )


def _time_inputs(config: ScenarioConfig, ts: np.ndarray) -> tuple:
    """The inputs that depend on the tick times ts alone. Per-tick masks: a
    dropout window covers the tick (scheduled), the upward camera is blanked,
    a disturbance is active (perturbed); and wrenches, the world (force,
    torque) the active disturbances sum to in config order, None if none."""
    perturbed = np.zeros(len(ts), dtype=bool)
    wrench = np.zeros((len(ts), 6))
    for d in config.perturbations:
        active = d.active(ts)
        perturbed |= active
        wrench[active] += d.force + d.torque
    wrenches = [(w[:3], w[3:]) if on else None
                for w, on in zip(wrench.tolist(), perturbed.tolist())]
    blanked = config.dropout.blanked(ts, np.random.default_rng(config.seed))
    return config.dropout.scheduled(ts), blanked, perturbed, wrenches


def _transitions(mask: np.ndarray, before_first: bool, on: str, off: str = "") -> list:
    """(tick, event) pairs: event on where a per-tick flag turns on and, if
    named, event off where it turns off; tick 0 compares against before_first."""
    before = np.concatenate(([before_first], mask[:-1]))
    rises = [(k, on) for k in np.flatnonzero(mask & ~before).tolist()]
    falls = [(k, off) for k in np.flatnonzero(before & ~mask).tolist()] if off else []
    return rises + falls


def _event_flags(arrays: dict, labels: dict, scheduled: np.ndarray,
                 perturbed: np.ndarray) -> list:
    """The eventFlags text of every tick, read off the transitions of the
    logged state and of the scheduled-dropout and perturbation masks, each
    tick's events in the order below. Starts and waypoint captures can fire
    on tick 0; line-of-sight and region changes cannot."""
    det_us, det_su = arrays["detected_us"], arrays["detected_su"]
    passed = np.diff(arrays["wp_index"], prepend=0)  # waypoints captured per tick
    found = [
        *_transitions(arrays["clamped_u"], False, "wall_clamp_u"),
        *_transitions(arrays["clamped_s"], False, "wall_clamp_s"),
        *_transitions(scheduled, False, "dropout_start", "dropout_end"),
        *_transitions(perturbed, False, "perturb_start", "perturb_end"),
        *((k, "waypoint_capture") for k in np.repeat(np.arange(len(passed)), passed).tolist()),
        *_transitions(det_us, det_us[0], "los_regain_us", "los_loss_us"),
        *_transitions(det_su, det_su[0], "los_regain_su", "los_loss_su"),
    ]
    for pair in ("us", "su"):
        regions = labels[f"region_{pair}"]
        found += [(k, f"region_{pair}:{a}-{b}")
                  for k, (a, b) in enumerate(zip(regions, regions[1:]), 1) if a != b]
    flags = [""] * len(passed)
    for k, event in sorted(found, key=lambda item: item[0]):  # stable: keeps the order
        flags[k] = f"{flags[k]};{event}" if flags[k] else event
    return flags


def run(config: ScenarioConfig) -> TrajectoryLog:
    """Simulate one scenario; see the module docstring for the loop shape.

    Every per-tick vector is a list or tuple of Python floats; each tick's
    numbers go to one flat row buffer that becomes the log's arrays.
    """
    config.validate()
    dt = config.dt
    n_steps = int(round(config.duration / dt))
    n_rec = n_steps + 1
    ts = np.arange(n_rec) * dt  # k * dt, bit for bit

    model_u = VehicleModel(config.params_u)
    model_s = VehicleModel(config.params_s)
    walls = _WallClamp(config.tank_min, config.tank_max)
    cam_u, cam_s = config.camera_u, config.camera_s
    tag_u, tag_s = config.tag_u, config.tag_s
    mount_u = cam_u.flat_mount[0]
    mount_s = cam_s.flat_mount[0]
    gains, pd_u, pd_s = config.vet, config.pd_u, config.pd_s
    params_u, params_s = config.params_u, config.params_s
    scheduled, blanked, perturbed, wrenches = _time_inputs(config, ts)

    pose_u = Pose6.from_tuple(config.initial_pose_u)
    pose_s = Pose3.from_tuple(config.initial_pose_s)
    nu_u = [0.0] * 6
    nu_s = [0.0] * 3
    clamped_u = clamped_s = False

    target_u = SubTaskTarget(
        z_d=config.depth_target, phi_d=config.roll_target, theta_d=config.pitch_target
    )
    waypoints = planner_waypoints(config.planner)
    capture_radius = config.planner.capture_radius
    wp_index = 0
    speed_limit = config.planner.speed if isinstance(config.planner, Lawnmower) else None

    baseline = config.mode == "baseline"
    vet_state_u = VetFilterState.initial()
    vet_state_s = VetFilterState.initial()

    rows = array("d")
    region_us_list = []
    region_su_list = []

    for k, (t, blank) in enumerate(zip(ts.tolist(), blanked.tolist())):
        # sense
        pixels_us, yaw_us, det_us = project_tag(pose_u, pose_s, cam_u, tag_s)
        det_us = det_us and not blank
        pixels_su, yaw_su, det_su = project_tag(pose_s, pose_u, cam_s, tag_u)

        # plan
        target_s, wp_index = planner_step(pose_s, waypoints, capture_radius, wp_index)

        # one tag geometry per detected observation, shared by the logged
        # region and xi and by the tether law
        geo_us, label_us, xi_us = _measure(pixels_us, det_us, cam_u)
        geo_su, label_su, xi_su = _measure(pixels_su, det_su, cam_s)

        # control: underwater robot (own depth/attitude sensors plus camera)
        u_sub_u = subtask_control_underwater(
            _depth_attitude_state(pose_u, nu_u), target_u, pd_u
        )
        if baseline:
            cam_cmd_u = baseline_ibvs(geo_us, yaw_us, gains, cam_u)
        else:
            cam_cmd_u, _, vet_state_u = vet_law(
                geo_us, label_us, yaw_us, t, vet_state_u, gains, cam_u
            )
        xi_u = camera_to_body(cam_cmd_u, mount_u, 6)
        u_tot_u = combined_control(u_sub_u, xi_u, params_u)

        # control: surface robot; world rates by the rotation about z
        c, s = math.cos(pose_s.psi), math.sin(pose_s.psi)
        su, sv, sr = nu_s
        vel_world_s = (c * su - s * sv, s * su + c * sv, sr)
        u_sub_s = subtask_control_surface(pose_s, vel_world_s, target_s, pd_s, speed_limit)
        if baseline:
            # one-way coupling: the leader gets no tether input at all
            xi_s = [0.0, 0.0, 0.0]
            weight_s = 1.0
        else:
            cam_cmd_s, weight_s, vet_state_s = vet_law(
                geo_su, label_su, yaw_su, t, vet_state_s, gains, cam_s
            )
            xi_s = camera_to_body(cam_cmd_s, mount_s, 3)
        u_tot_s = combined_control(u_sub_s, xi_s, params_s, weight_s)

        # record the numeric fields, in _LOG_LAYOUT order
        rows.fromlist([
            t, *pose_u.as_tuple(), *pose_s.as_tuple(), *nu_u, *nu_s,
            *u_sub_u, *xi_u, u_sub_s[0] * weight_s, u_sub_s[1] * weight_s, u_sub_s[2],
            *xi_s, *u_tot_u, *u_tot_s, det_us, det_su, xi_us, xi_su,
            projected_distance(pose_u, pose_s), wp_index, clamped_u, clamped_s,
        ])
        region_us_list.append(label_us.value if det_us else "none")
        region_su_list.append(label_su.value if det_su else "none")

        if k == n_steps:
            break

        # actuate; the wall clamp's flags go with the pose it produces
        force, torque = wrenches[k] or (None, None)
        try:
            pose_u, nu_u = model_u.step(
                pose_u, nu_u, model_u.allocate(u_tot_u), dt, force, torque
            )
            pose_s, nu_s = model_s.step(pose_s, nu_s, model_s.allocate(u_tot_s), dt)
        except GimbalSingularity:
            raise
        except (ArithmeticError, ValueError) as exc:
            raise SimFailure(f"integration failed at t={t:.3f}: {exc}") from exc
        pose_u, nu_u, clamped_u = walls.apply_u(pose_u, nu_u)
        pose_s, nu_s, clamped_s = walls.apply_s(pose_s, nu_s)

    table = np.frombuffer(rows, dtype=float).reshape(n_rec, _ROW_WIDTH)
    _check_finite(table)
    arrays = _log_arrays(table)
    labels = {"region_us": region_us_list, "region_su": region_su_list}
    return TrajectoryLog(
        config=config, **arrays, **labels,
        event_flags=_event_flags(arrays, labels, scheduled, perturbed),
    )


# -- presets ---------------------------------------------------------------

# 180 degree flip about body x, written exactly so sign patterns stay exact.
_FLIP_X = np.diag([1.0, -1.0, -1.0])


def _underwater_params() -> VehicleParams:
    # Thrust gains solve d_lin*v + d_quad*v^2 = gain*v at the command bound,
    # so a full command settles at exactly 0.1 m/s (0.2 rad/s in yaw).
    return VehicleParams(
        mass=(11.5, 11.5, 11.5, 0.16, 0.16, 0.16),
        damping_linear=(4.0, 4.0, 4.0, 0.07, 0.07, 0.07),
        damping_quadratic=(18.0, 18.0, 18.0, 1.55, 1.55, 1.55),
        thrust_gain=(5.8, 5.8, 5.8, 0.38, 0.38, 0.38),
        velocity_bound_linear=0.1,
        velocity_bound_angular=0.2,
    )


def _surface_params() -> VehicleParams:
    return VehicleParams(
        mass=(14.0, 14.0, 0.25),
        damping_linear=(5.0, 5.0, 0.2),
        damping_quadratic=(20.0, 20.0, 1.0),
        thrust_gain=(7.0, 7.0, 0.4),
        velocity_bound_linear=0.1,
        velocity_bound_angular=0.2,
    )


def _camera_u() -> CameraModel:
    """Upward camera on the underwater robot; camera frame equals body frame."""
    return CameraModel(640, 480, 400.0, RigidTransform.identity())


def _camera_s() -> CameraModel:
    """Downward camera on the surface robot, flipped 180 degrees about x."""
    return CameraModel(640, 480, 400.0, RigidTransform(_FLIP_X.copy(), np.zeros(3)))


def _tag_u() -> TagModel:
    """Tag on top of the underwater robot, facing up."""
    return TagModel(0.1, RigidTransform.identity())


def _tag_s() -> TagModel:
    """Tag under the surface robot, facing down."""
    return TagModel(0.1, RigidTransform(_FLIP_X.copy(), np.zeros(3)))


def _base_config(name: str) -> ScenarioConfig:
    return ScenarioConfig(
        name=name,
        mode="vet",
        dt=0.02,
        duration=60.0,
        seed=0,
        tank_min=(-1.0, -1.0, -2.66),
        tank_max=(3.88, 2.66, 0.0),
        initial_pose_u=(0.0, 0.0, -1.0, 0.0, 0.0, 0.0),
        initial_pose_s=(0.0, 0.0, 0.0),
        params_u=_underwater_params(),
        params_s=_surface_params(),
        camera_u=_camera_u(),
        camera_s=_camera_s(),
        tag_u=_tag_u(),
        tag_s=_tag_s(),
        pd_u=underwater_pd(0.5, 0.15),
        pd_s=surface_pd(5.0, 5.0),
        vet=VetGains(k_safe_p=0.5, k_elastic_p=1.0, k_elastic_d=0.15),
        depth_target=-1.0,
        roll_target=0.0,
        pitch_target=0.0,
        planner=Setpoints(((1.0, 1.0, -1.57),)),
    )


def _preset_nominal() -> ScenarioConfig:
    return _base_config("nominal")


def _preset_perturbation_sim() -> ScenarioConfig:
    cfg = _base_config("perturbation_sim")
    cfg.initial_pose_u = (0.1, 0.0, -1.0, 0.0, 0.0, 0.0)
    cfg.initial_pose_s = (0.1, 0.0, 0.0)
    cfg.planner = Setpoints(((0.1, 3.0, 0.0),))
    cfg.tank_min = (-2.0, -0.5, -2.66)
    cfg.tank_max = (2.88, 3.16, 0.0)
    cfg.duration = 60.0
    # 10 N pull along -x for 3 s, starting where the convoy crosses y = 0.75
    # (calibrated against the nominal convoy speed of the sim gains).
    cfg.perturbations = (
        Disturbance(force=(-10.0, 0.0, 0.0), t_start=11.0, t_end=14.0),
    )
    return cfg


def _preset_navigation_sim() -> ScenarioConfig:
    cfg = _base_config("navigation_sim")
    cfg.initial_pose_u = (1.1, -0.25, -1.0, 0.0, 0.0, 0.0)
    cfg.initial_pose_s = (1.1, -0.25, 0.0)
    cfg.planner = Lawnmower(
        x_min=1.1, x_max=3.1, y_min=-0.25, y_max=1.55,
        lane_spacing=0.6, speed=0.1, capture_radius=0.15,
    )
    cfg.tank_min = (-0.5, -1.0, -2.66)
    cfg.tank_max = (4.38, 2.66, 0.0)
    cfg.duration = 300.0
    return cfg


def _preset_perturbation_real() -> ScenarioConfig:
    cfg = _base_config("perturbation_real")
    cfg.initial_pose_u = (0.2, -0.5, -1.0, 0.0, 0.0, 0.0)
    cfg.initial_pose_s = (0.2, -0.5, 0.0)
    cfg.planner = Setpoints(((1.0, -2.5, 0.0),))
    cfg.tank_min = (-1.0, -3.0, -2.66)
    cfg.tank_max = (3.88, 0.66, 0.0)
    cfg.pd_s = surface_pd(1.0, 0.5)
    cfg.vet = VetGains(k_safe_p=0.35, k_elastic_p=1.0, k_elastic_d=0.15)
    cfg.duration = 60.0
    # Same pull shape as the sim preset, at this preset's y = -1 crossing.
    cfg.perturbations = (
        Disturbance(force=(-10.0, 0.0, 0.0), t_start=9.5, t_end=12.5),
    )
    return cfg


def _preset_navigation_real() -> ScenarioConfig:
    cfg = _base_config("navigation_real")
    cfg.initial_pose_u = (0.2, -2.2, -1.0, 0.0, 0.0, 0.0)
    cfg.initial_pose_s = (0.2, -2.2, 0.0)
    cfg.planner = Lawnmower(
        x_min=0.2, x_max=3.0, y_min=-2.2, y_max=-0.4,
        lane_spacing=0.6, speed=0.1, capture_radius=0.15,
    )
    cfg.tank_min = (-0.5, -3.0, -2.66)
    cfg.tank_max = (4.38, 0.66, 0.0)
    cfg.pd_s = surface_pd(1.0, 0.5)
    cfg.vet = VetGains(k_safe_p=0.35, k_elastic_p=1.0, k_elastic_d=0.15)
    cfg.duration = 340.0
    # Scheduled blackouts of the upward camera: one long window that breaks
    # the one-way baseline for good, then two short ones the tether rides out.
    cfg.dropout = DropoutModel(scheduled_windows=((65.0, 73.0), (75.0, 77.0), (85.0, 87.0)))
    return cfg


def log_from_csv(text: str, config: ScenarioConfig) -> TrajectoryLog:
    """Rebuild a log from its CSV rendering plus the echoed config.

    Body velocities, wp_index and the clamped_* flags are not part of the
    CSV schema and come back as zeros; saturated totals are reconstructed
    from the logged command split. A header-only file yields an empty log,
    which the plots render as bare axes.
    """
    # Non-empty lines, split off the text one at a time: only one chunk of
    # rows is ever held as Python strings.
    lines = (match.group() for match in re.finditer("[^\n]+", text))
    if next(lines, "").split(",") != list(CSV_COLUMNS):
        raise ConfigError("trajectory CSV header does not match the schema")
    # Every well-formed row, the header too, holds len(CSV_COLUMNS) - 1 commas,
    # which bounds the row count; unused rows are cut off below.
    table = np.zeros((text.count(",") // (len(CSV_COLUMNS) - 1), _ROW_WIDTH))
    labels = {name: [] for name, kind, _, _ in _LOG_LAYOUT if kind is str}
    hi = 0
    while chunk := list(itertools.islice(lines, _CSV_CHUNK)):
        lo, hi = hi, hi + len(chunk)
        cells = [row.split(",") for row in chunk]
        for k, parts in enumerate(cells, lo + 1):
            if len(parts) != len(CSV_COLUMNS):
                raise ConfigError(f"row {k} has {len(parts)} fields")
        columns = iter(zip(*cells))
        col = 0
        for name, kind, width, names in _LOG_LAYOUT:
            if kind is str:
                labels[name] += next(columns)
                continue
            for c in range(col, col + len(names)):
                values = next(columns)
                table[lo:hi, c] = (
                    [v == "1" for v in values] if kind is bool else _floats(values, lo)
                )
            col += width
    arrays = _log_arrays(table[:hi])
    for params, sub, xi, total in ((config.params_u, "u_sub_u", "u_xi_u", "u_total_u"),
                                   (config.params_s, "u_sub_s", "u_xi_s", "u_total_s")):
        bounds = np.array(params.axis_bounds)
        np.clip(arrays[sub] + arrays[xi], -bounds, bounds, out=arrays[total])
    return TrajectoryLog(config=config, **arrays, **labels)


def _floats(cells: tuple, lo: int) -> list:
    """One CSV column chunk as floats; lo is the chunk's first row index."""
    try:
        return list(map(float, cells))
    except ValueError:
        for k, cell in enumerate(cells, lo + 1):
            try:
                float(cell)
            except ValueError as exc:
                raise ConfigError(f"row {k} is not numeric: {exc}") from exc
        raise


_PRESETS = {
    "nominal": _preset_nominal,
    "perturbation_sim": _preset_perturbation_sim,
    "navigation_sim": _preset_navigation_sim,
    "perturbation_real": _preset_perturbation_real,
    "navigation_real": _preset_navigation_real,
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> ScenarioConfig:
    """Build a fresh config for one of the named experiment presets."""
    try:
        builder = _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
    return builder()
