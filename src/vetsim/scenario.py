"""Scenario configuration, presets and the closed-loop simulation.

One scenario couples the two robots through vision alone. The inputs that
depend on time alone are computed before the loop, and the events are read
off the log after it; every tick (fixed 50 Hz by default) runs sense ->
control -> actuate -> log:

1. sense: each robot's camera projects the other robot's tag, except the
   upward camera on a tick the dropout model blanks: it sees nothing then.
   Each detected tag is measured once into a perception.Observation (region,
   normalised offset, elastic penetration, xi) that the log and the tether
   law both read; an undetected one is perception.UNSEEN.
2. control: each robot combines its own sub-task PD (depth/attitude under
   water, waypoint tracking on the surface) with the tether command derived
   from its own camera's observation. In vet mode the leader's linear
   sub-task is weighted once by the tether law's task-priority weight, and
   that one weighted command is both logged and summed. In baseline mode the
   follower runs the one-way visual servo and the leader ignores its camera
   entirely.
3. actuate: each robot's two logged commands are summed, clipped and scaled
   to a body wrench in one pass, and integrated; scheduled world-frame
   perturbations push on the underwater robot; a soft wall clamp keeps both
   robots inside the tank.
4. log: one CSV row per tick with poses, split commands, detection state,
   image regions and tether states; the events read off it and the loop.

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
    VetFilterState,
    VetGains,
    baseline_ibvs,
    camera_to_body,
    subtask_control_surface,
    subtask_control_underwater,
    uniform_pd,
    vet_law,
)
from .frames import GimbalSingularity, RigidTransform, euler_rate_rows, flat_transform
from .frames import projected_distance
from .perception import (
    UNSEEN, CameraModel, DropoutModel, TagModel, observe, project_tag, tag_geometry,
)
from .vehicle import Disturbance, VehicleModel, VehicleParams


# The most integration steps one run may take; each step adds a 288-byte row and
# 72 bytes of saturated totals to the log, so about 0.36 GB at the cap.
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


def planner_step(current: tuple, waypoints, capture_radius: float, index: int = 0):
    """Advance past every waypoint within the capture radius of the current
    (x, y, psi), hold the last.

    Returns (target, new_index): the (x, y, psi) waypoint now targeted, the
    waypoints entry itself, or current itself when there are no waypoints.
    """
    n = len(waypoints)
    if n == 0:
        return current, index
    while index < n:
        wx, wy, _ = waypoints[index]
        if math.hypot(current[0] - wx, current[1] - wy) <= capture_radius:
            index += 1
        else:
            break
    return waypoints[min(index, n - 1)], index


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
        planner_waypoints(self.planner)  # raises InvalidBounds on bad areas

    def to_dict(self) -> dict:
        return _encode(self, ScenarioConfig)

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        """A validated config from its to_dict form, schemas v1 and v2 included;
        raises ConfigError on anything else."""
        cfg = _decode(_pd_u_v3(data), ScenarioConfig, "")
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
# exactly its field names, a tuple is a list, a scalar is itself.
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


def _pd_u_v3(data):
    """data (not changed) with a schema v1/v2 pd_u of six gains per vector cut to its
    (z, phi, theta) gains; a ConfigError if a dropped x, y or yaw gain is not 0."""
    pd = data.get("pd_u") if isinstance(data, dict) else None
    gains = [pd.get(k) for k in ("kp", "kd")] if isinstance(pd, dict) else ()
    if not gains or not all(isinstance(g, (list, tuple)) and len(g) == 6 for g in gains):
        return data
    if any(g[i] != 0 or isinstance(g[i], bool) for g in gains for i in (0, 1, 5)):
        raise ConfigError("pd_u gains on x, y and yaw must be exactly zero: no sub-task uses them")
    return {**data, "pd_u": {**pd, "kp": gains[0][2:5], "kd": gains[1][2:5]}}


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
    if not isinstance(data, _SCALAR_TYPES[hint]) or isinstance(data, bool):
        raise ConfigError(f"malformed config at {path}: expected {hint.__name__}, got {data!r}")
    try:
        return hint(data)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"malformed config at {path}: {exc}") from exc


# -- trajectory log --------------------------------------------------------

# The log layout, declared once: each CSV-backed TrajectoryLog field with its
# type and its CSV column names, in CSV order. float fields are float64 arrays
# and bool fields bool arrays, both kept as columns of one float row table (the
# flags as 0.0/1.0); str fields are lists with one label per tick.
_LOG_LAYOUT = (
    ("t", float, ("t",)),
    ("pose_u", float, ("xU", "yU", "zU", "phiU", "thetaU", "psiU")),
    ("pose_s", float, ("xS", "yS", "psiS")),
    ("u_sub_u", float, ("uU_sub_x", "uU_sub_y", "uU_sub_z",
                        "uU_sub_phi", "uU_sub_theta", "uU_sub_psi")),
    ("u_xi_u", float, ("uU_xi_x", "uU_xi_y", "uU_xi_z",
                       "uU_xi_phi", "uU_xi_theta", "uU_xi_psi")),
    ("u_sub_s", float, ("uS_sub_x", "uS_sub_y", "uS_sub_psi")),
    ("u_xi_s", float, ("uS_xi_x", "uS_xi_y", "uS_xi_psi")),
    ("detected_us", bool, ("detectedUS",)),
    ("detected_su", bool, ("detectedSU",)),
    ("region_us", str, ("regionUS",)),
    ("region_su", str, ("regionSU",)),
    ("xi_us", float, ("xiUS",)),
    ("xi_su", float, ("xiSU",)),
    ("proj_dist", float, ("projDist",)),
    ("event_flags", str, ("eventFlags",)),
)
_CSV_FORMATS = {float: "%.12g", bool: "%d", str: "%s"}

CSV_COLUMNS = tuple(name for *_, names in _LOG_LAYOUT for name in names)
# Rows are converted this many at a time, which bounds the per-cell Python
# objects the writer builds and the line strings the reader holds.
_CSV_CHUNK = 256
# The row table's columns in order, (field, index in the field): the CSV's float
# and flag columns, then three only run() writes, for _event_flags: the planner's
# index after the tick's step and whether the wall clamp made each robot's pose.
_LOOP_COLUMNS = ("waypoint_index", "wall_clamp_u", "wall_clamp_s")
_TABLE_CELLS = [(name, i) for name, kind, names in _LOG_LAYOUT if kind is not str
                for i in range(len(names))] + [(name, 0) for name in _LOOP_COLUMNS]
_ROW_WIDTH = len(_TABLE_CELLS)
# Row-table columns ahead of the xi offsets, which are NaN by design on
# undetected ticks: time, poses, commands and detection flags.
_FINITE_WIDTH = _TABLE_CELLS.index(("xi_us", 0))
# The CSV's columns in order, (field, kind, index in the field, row-table column
# or None), and its rows as loadtxt reads them: float cells as float64, others text.
_CSV_CELLS = [(name, kind, i, None if kind is str else _TABLE_CELLS.index((name, i)))
              for name, kind, names in _LOG_LAYOUT for i in range(len(names))]
_CSV_DTYPE = np.dtype([(column, float if kind is float else object)
                       for column, (_, kind, _, _) in zip(CSV_COLUMNS, _CSV_CELLS)])


def _log_arrays(table: np.ndarray) -> dict:
    """Slice the (ticks, _ROW_WIDTH) row table into the CSV-backed TrajectoryLog
    arrays: float64 views of disjoint columns (no copies), bool copies."""
    out = {}
    for name, kind, names in _LOG_LAYOUT:
        if kind is not str:
            col = _TABLE_CELLS.index((name, 0))
            block = table[:, col] if len(names) == 1 else table[:, col:col + len(names)]
            out[name] = block if kind is float else block.astype(kind)
    return out


def _saturated_totals(arrays: dict, config: ScenarioConfig) -> dict:
    """u_total_u and u_total_s: each robot's logged split u_sub + u_xi clipped
    to its axis_bounds, bit for bit the command run() gave its vehicle."""
    bounds = {"u": config.params_u.axis_bounds, "s": config.params_s.axis_bounds}
    return {f"u_total_{r}": np.clip(arrays[f"u_sub_{r}"] + arrays[f"u_xi_{r}"], -np.array(b), b)
            for r, b in bounds.items()}


@dataclass
class TrajectoryLog:
    """Complete tick-by-tick record of one run: the trajectory.csv columns
    laid out by _LOG_LAYOUT, and u_total_u and u_total_s, which
    _saturated_totals derives from them for run() and log_from_csv alike.

    Per tick: t is (n,), poses (n, 6) and (n, 3), commands (n, 6) for the
    underwater and (n, 3) for the surface robot, xi_* and proj_dist (n,), all
    float64, the CSV-backed ones views of disjoint columns of one row table;
    detected_* are (n,) bool; region_* and event_flags hold n labels. events
    and the waypoint counts are read off event_flags.
    """

    config: ScenarioConfig
    t: np.ndarray
    pose_u: np.ndarray
    pose_s: np.ndarray
    u_sub_u: np.ndarray
    u_xi_u: np.ndarray
    u_sub_s: np.ndarray
    u_xi_s: np.ndarray
    detected_us: np.ndarray
    detected_su: np.ndarray
    region_us: list
    region_su: list
    xi_us: np.ndarray
    xi_su: np.ndarray
    proj_dist: np.ndarray
    event_flags: list
    u_total_u: np.ndarray
    u_total_s: np.ndarray

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
        return sum(flags.split(";").count("waypoint_capture") for flags in self.event_flags
                   if flags)

    def to_csv_text(self) -> str:
        """Render the fixed-schema CSV; identical runs give identical bytes. A float or
        flag column bit-identical over a chunk (so -0 and nan print as they do cell by
        cell) is printed once, into the chunk's row template."""
        lines = [",".join(CSV_COLUMNS)]
        for lo in range(0, len(self.t), _CSV_CHUNK):
            rows = slice(lo, lo + _CSV_CHUNK)
            cells, columns = [], []
            for name, kind, i, _ in _CSV_CELLS:
                column = getattr(self, name)[rows]
                if kind is not str:
                    column = column if column.ndim == 1 else column[:, i]
                    bits = column.view(f"u{column.itemsize}")
                    if (bits == bits[0]).all():
                        cells.append((_CSV_FORMATS[kind] % column[0].item()).replace("%", "%%"))
                        continue
                    column = column.tolist()
                cells.append(_CSV_FORMATS[kind])
                columns.append(column)
            template = ",".join(cells)
            lines += [template % row for row in zip(*columns)]
        return "\n".join(lines) + "\n"


# -- simulation loop -------------------------------------------------------

class _WallClamp:
    """Soft tank walls: clamp position, kill the outward velocity."""

    def __init__(self, tank_min, tank_max):
        self.lo = tuple(float(v) for v in tank_min)
        self.hi = tuple(float(v) for v in tank_max)

    def apply_u(self, pose: tuple, nu: list):
        """Returns (pose, body velocity list, clamped)."""
        lo, hi = self.lo, self.hi
        if lo[0] <= pose[0] <= hi[0] and lo[1] <= pose[1] <= hi[1] and lo[2] <= pose[2] <= hi[2]:
            return pose, nu, False
        pos = pose[:3]
        clipped = (
            min(max(pos[0], lo[0]), hi[0]),
            min(max(pos[1], lo[1]), hi[1]),
            min(max(pos[2], lo[2]), hi[2]),
        )
        if clipped == pos:  # only a NaN gets here: the tuples hold the same object
            return pose, nu, False
        (r0, r1, r2, r3, r4, r5, r6, r7, r8), _ = flat_transform(pose)
        u, v, w = nu[:3]
        world_v = [r0 * u + r1 * v + r2 * w, r3 * u + r4 * v + r5 * w, r6 * u + r7 * v + r8 * w]
        for axis in range(3):
            if clipped[axis] != pos[axis]:
                world_v[axis] = 0.0
        wx, wy, wz = world_v
        nu = [r0 * wx + r3 * wy + r6 * wz, r1 * wx + r4 * wy + r7 * wz,
              r2 * wx + r5 * wy + r8 * wz] + nu[3:]
        return clipped + pose[3:], nu, True

    def apply_s(self, pose: tuple, nu: list):
        """Returns (pose, body velocity list, clamped)."""
        px, py, psi = pose
        lo, hi = self.lo, self.hi
        if lo[0] <= px <= hi[0] and lo[1] <= py <= hi[1]:
            return pose, nu, False
        x = min(max(px, lo[0]), hi[0])
        y = min(max(py, lo[1]), hi[1])
        c, s = math.cos(psi), math.sin(psi)
        u, v, r = nu
        wx = c * u - s * v if x == px else 0.0
        wy = s * u + c * v if y == py else 0.0
        return (x, y, psi), [c * wx + s * wy, -s * wx + c * wy, r], True


def _depth_attitude_state(pose: tuple, nu: list, rotation: tuple,
                          rates: tuple) -> DepthAttitudeState:
    """What the underwater robot's own sensors provide: depth and attitude,
    and their rates, from the tick's rotation and euler_rate_rows."""
    _, _, z, phi, theta, _ = pose
    _, _, _, _, _, _, r6, r7, r8 = rotation
    ea, eb, ec, ed, _, _ = rates
    u, v, w, p, q, r = nu
    return DepthAttitudeState(
        z, phi, theta, r6 * u + r7 * v + r8 * w, p + ea * q + eb * r, ec * q + ed * r
    )


def _state_at(k: int, row) -> str:
    """Where a run failed: tick k, its time and both poses, off row k of the row table."""
    row = _log_arrays(np.reshape(row, (1, _ROW_WIDTH)))
    return (f"at tick {k}, t={row['t'][0]:.3f} s: "
            f"pose_u={row['pose_u'][0].tolist()}, pose_s={row['pose_s'][0].tolist()}")


def _first_non_finite(table: np.ndarray) -> tuple | None:
    """(row, column) of the row table's first NaN or infinity, row-major, in the
    columns run() and log_from_csv both hold finite; None if there is none."""
    finite = np.isfinite(table[:, :_FINITE_WIDTH])
    return None if finite.all() else divmod(int(finite.argmin()), _FINITE_WIDTH)


def _check_finite(table: np.ndarray) -> None:
    """Raise SimFailure at the first tick of a finished run's row table whose
    pose or command columns hold a NaN or an infinity. Velocities are not
    logged: a non-finite one reaches the pose its step makes."""
    if (bad := _first_non_finite(table)) is not None:
        raise SimFailure(f"non-finite state {_state_at(bad[0], table[bad[0]])}")


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
    """The eventFlags text of every tick, read off the transitions of arrays
    (detection flags and _LOOP_COLUMNS) and of the scheduled-dropout and
    perturbation masks, each tick's events in the order below. Starts and
    waypoint captures can fire on tick 0; line-of-sight and region changes
    cannot."""
    det_us, det_su = arrays["detected_us"], arrays["detected_su"]
    passed = np.diff(arrays["waypoint_index"], prepend=0)  # waypoints captured per tick
    found = [
        *_transitions(arrays["wall_clamp_u"], False, "wall_clamp_u"),
        *_transitions(arrays["wall_clamp_s"], False, "wall_clamp_s"),
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

    Every per-tick vector is a list or tuple of Python floats, the poses
    included: (x, y, z, phi, theta, psi) and (x, y, psi), the logged layout.
    Each tick computes both poses' flat transforms and the underwater pose's
    Euler-rate rows once; projection, the depth/attitude measurement, the
    surface PD and both vehicle steps reuse them. A blanked upward camera is
    not projected, and VehicleModel.allocate takes each robot's logged split
    u_sub, u_xi as it is. Each tick's numbers go to
    one flat row buffer that becomes the log's arrays; the saturated totals
    are derived from the logged split after the loop, as log_from_csv does.
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
    scheduled, blanked, perturbed, wrenches = _time_inputs(config, ts)

    pose_u = tuple(float(v) for v in config.initial_pose_u)
    pose_s = tuple(float(v) for v in config.initial_pose_s)
    vel_u = [0.0] * 6
    vel_s = [0.0] * 3
    wall_clamp_u = wall_clamp_s = False

    target_u = (config.depth_target, config.roll_target, config.pitch_target)
    waypoints = planner_waypoints(config.planner)
    capture_radius = config.planner.capture_radius
    waypoint_index = 0
    speed_limit = config.planner.speed if isinstance(config.planner, Lawnmower) else None

    baseline = config.mode == "baseline"
    vet_state_u = vet_state_s = VetFilterState()

    rows = array("d")
    region_us_list = []
    region_su_list = []

    for k, (t, blank) in enumerate(zip(ts.tolist(), blanked.tolist())):
        # one rotation per robot and one Euler-rate map per tick, for every use
        tf_u, tf_s = flat_transform(pose_u), flat_transform(pose_s)
        try:
            rates_u = euler_rate_rows(pose_u[3], pose_u[4])
        except GimbalSingularity as exc:
            raise SimFailure(f"{exc} at tick {k}, t={t:.3f} s: pose_u={list(pose_u)}") from exc

        # sense; a blanked camera is not projected, as nothing would read it
        pixels_us, yaw_us, det_us = (
            (None, 0.0, False) if blank else project_tag(tf_u, tf_s, cam_u, tag_s)
        )
        pixels_su, yaw_su, det_su = project_tag(tf_s, tf_u, cam_s, tag_u)

        # plan
        target_s, waypoint_index = planner_step(pose_s, waypoints, capture_radius, waypoint_index)

        # one observation per camera, read by the log and by the tether law
        obs_us = observe(*tag_geometry(pixels_us), cam_u) if det_us else UNSEEN
        obs_su = observe(*tag_geometry(pixels_su), cam_s) if det_su else UNSEEN

        # control: underwater robot (own depth/attitude sensors plus camera)
        u_sub_u = subtask_control_underwater(
            _depth_attitude_state(pose_u, vel_u, tf_u[0], rates_u), target_u, pd_u
        )
        if baseline:
            cam_cmd_u = baseline_ibvs(obs_us, yaw_us, gains)
        else:
            cam_cmd_u, _, vet_state_u = vet_law(obs_us, yaw_us, t, vet_state_u, gains, cam_u)
        xi_u = camera_to_body(cam_cmd_u, mount_u, 6)

        # control: surface robot
        u_sub_s = subtask_control_surface(pose_s, tf_s[0], vel_s, target_s, pd_s, speed_limit)
        if baseline:
            # one-way coupling: the leader gets no tether input at all
            xi_s = [0.0, 0.0, 0.0]
        else:
            # the leader's task priority: its linear sub-task fades by the weight
            cam_cmd_s, w, vet_state_s = vet_law(obs_su, yaw_su, t, vet_state_s, gains, cam_s)
            xi_s = camera_to_body(cam_cmd_s, mount_s, 3)
            u_sub_s = [u_sub_s[0] * w, u_sub_s[1] * w, u_sub_s[2]]

        # record the row table's columns, in _TABLE_CELLS order
        rows.fromlist([
            t, *pose_u, *pose_s,
            *u_sub_u, *xi_u, *u_sub_s, *xi_s, det_us, det_su, obs_us.xi, obs_su.xi,
            projected_distance(pose_u, pose_s), waypoint_index, wall_clamp_u, wall_clamp_s,
        ])
        region_us_list.append(obs_us.region)
        region_su_list.append(obs_su.region)

        if k == n_steps:
            break

        # actuate; the wall clamp's flags go with the pose it produces
        force, torque = wrenches[k] or (None, None)
        try:
            tau_u, tau_s = model_u.allocate(u_sub_u, xi_u), model_s.allocate(u_sub_s, xi_s)
            pose_u, vel_u = model_u.step(pose_u, vel_u, tau_u, dt, tf_u[0], rates_u, force, torque)
            pose_s, vel_s = model_s.step(pose_s, vel_s, tau_s, dt, tf_s[0])
        except (ArithmeticError, ValueError) as exc:
            where = _state_at(k, rows[-_ROW_WIDTH:])  # the tick's logged row
            raise SimFailure(f"integration failed ({exc}) {where}") from exc
        pose_u, vel_u, wall_clamp_u = walls.apply_u(pose_u, vel_u)
        pose_s, vel_s, wall_clamp_s = walls.apply_s(pose_s, vel_s)

    table = np.frombuffer(rows, dtype=float).reshape(n_rec, _ROW_WIDTH)
    _check_finite(table)
    arrays = _log_arrays(table)
    loop = dict(zip(_LOOP_COLUMNS, (table[:, -3].astype(int), *(table[:, -2:].T == 1.0))))
    labels = {"region_us": region_us_list, "region_su": region_su_list}
    return TrajectoryLog(
        config=config, **arrays, **labels, **_saturated_totals(arrays, config),
        event_flags=_event_flags(arrays | loop, labels, scheduled, perturbed),
    )


# -- presets ---------------------------------------------------------------

# 180 degree flip about body x, written exactly so sign patterns stay exact.
_FLIP_X = ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))


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
    return CameraModel(640, 480, 400.0, RigidTransform(_FLIP_X, (0.0, 0.0, 0.0)))


def _tag_u() -> TagModel:
    """Tag on top of the underwater robot, facing up."""
    return TagModel(0.1, RigidTransform.identity())


def _tag_s() -> TagModel:
    """Tag under the surface robot, facing down."""
    return TagModel(0.1, RigidTransform(_FLIP_X, (0.0, 0.0, 0.0)))


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
        pd_u=uniform_pd(0.5, 0.15),
        pd_s=uniform_pd(5.0, 5.0),
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
    cfg.pd_s = uniform_pd(1.0, 0.5)
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
    cfg.pd_s = uniform_pd(1.0, 0.5)
    cfg.vet = VetGains(k_safe_p=0.35, k_elastic_p=1.0, k_elastic_d=0.15)
    cfg.duration = 340.0
    # Scheduled blackouts of the upward camera: one long window that breaks
    # the one-way baseline for good, then two short ones the tether rides out.
    cfg.dropout = DropoutModel(scheduled_windows=((65.0, 73.0), (75.0, 77.0), (85.0, 87.0)))
    return cfg


def log_from_csv(text: str, config: ScenarioConfig) -> TrajectoryLog:
    """Rebuild a log from its CSV rendering plus the echoed config: every field
    as run() built it, the floats to the 12 printed digits. A header-only file
    yields an empty log, which the plots render as bare axes. Blank lines are
    skipped; a row of the wrong length, a flag not 0 or 1 or a bad number is a
    ConfigError naming its row, and a time, pose or command that is NaN or
    infinite, which run() never writes, one naming its row and column; so is
    a row count or a time that config's duration and dt could not give.
    """
    # Non-empty lines, split off one at a time: one chunk is held as strings.
    lines = map(re.Match.group, re.finditer("[^\n]+", text))
    if next(lines, "").split(",") != list(CSV_COLUMNS):
        raise ConfigError("trajectory CSV header does not match the schema")
    # Every well-formed row, the header too, holds len(CSV_COLUMNS) - 1 commas,
    # which bounds the row count; unused rows are cut off below.
    table = np.zeros((text.count(",") // (len(CSV_COLUMNS) - 1), _ROW_WIDTH))
    labels = {name: [] for name, kind, _ in _LOG_LAYOUT if kind is str}
    hi = 0
    while chunk := list(itertools.islice(lines, _CSV_CHUNK)):
        lo, hi = hi, hi + len(chunk)
        try:
            block = np.loadtxt(chunk, delimiter=",", dtype=_CSV_DTYPE, comments=None, ndmin=1)
        except ValueError:  # a row of the wrong length or a float cell that is not a number
            block = _rescan(chunk, lo)
        for column, (name, kind, _, slot) in zip(CSV_COLUMNS, _CSV_CELLS):
            if kind is str:
                labels[name] += block[column].tolist()
            elif kind is float or {"0", "1"}.issuperset(block[column]):
                table[lo:hi, slot] = block[column] == "1" if kind is bool else block[column]
            else:
                _rescan(chunk, lo)  # raises: a flag is neither 0 nor 1
    if (bad := _first_non_finite(table[:hi])) is not None:
        k, c = bad  # these columns lead both the table and the CSV, in one order
        raise ConfigError(f"row {k + 1} column {CSV_COLUMNS[c]} is not finite: {table[bad]:g}")
    # run() writes round(duration / dt) + 1 rows, row k at t = k * dt (to 12 digits)
    ts, n = np.arange(hi) * config.dt, round(config.duration / config.dt) + 1
    if (off := np.flatnonzero(np.abs(table[:hi, 0] - ts) > 1e-11 * ts)).size:
        k = int(off[0])
        raise ConfigError(f"row {k + 1} column t is {table[k, 0]:.12g}, not {k} * dt = {ts[k]:.12g}")
    if hi not in (0, n):
        raise ConfigError(f"row {min(hi, n) + 1} is {'missing' if hi < n else 'past the end'}: "
                          f"duration {config.duration:g} s at dt {config.dt:g} s makes {n} rows")
    arrays = _log_arrays(table[:hi])
    return TrajectoryLog(config=config, **arrays, **labels, **_saturated_totals(arrays, config))


def _rescan(rows: list, lo: int) -> np.ndarray:
    """Rows loadtxt or the flag check rejected, read cell by cell: field counts,
    then flags and float() cells column by column; the first fault is a ConfigError
    naming its row (lo + 1 is the first). Rows float() takes whole (1_0, say) return."""
    cells = [row.split(",") for row in rows]
    for k, parts in enumerate(cells, lo + 1):
        if len(parts) != len(CSV_COLUMNS):
            raise ConfigError(f"row {k} has {len(parts)} fields")
    for c, (column, (_, kind, _, _)) in enumerate(zip(CSV_COLUMNS, _CSV_CELLS)):
        for k, parts in enumerate(cells, lo + 1):
            if kind is bool and parts[c] not in ("0", "1"):
                raise ConfigError(f"row {k} column {column} is not 0 or 1: {parts[c]!r}")
            if kind is float:
                try:
                    float(parts[c])
                except ValueError as exc:
                    raise ConfigError(f"row {k} is not numeric: {exc}") from exc
    return np.array([tuple(parts) for parts in cells], dtype=_CSV_DTYPE)


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
