"""Scenario configuration: the schema, its validation and its JSON codec
(to_dict, and from_dict, which also reads saved schema v1 and v2 configs)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, is_dataclass
from types import UnionType
from typing import get_args, get_origin, get_type_hints

from .control import PdGains, VetGains
from .perception import CameraModel, DropoutModel, TagModel
from .vehicle import Disturbance, VehicleParams


# The most integration steps one run may take; each step adds a 288-byte row and
# 72 bytes of saturated totals to the log, so about 0.36 GB at the cap.
MAX_TICKS = 1_000_000
# The most lanes one lawnmower survey may have; each adds two waypoints.
MAX_LANES = 10_000


class ConfigError(ValueError):
    """Configuration dictionary is malformed or inconsistent."""


class InvalidBounds(ConfigError):
    """Planner area bounds are degenerate."""


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


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete, serialisable description of one run; checked when it is made,
    so derive a changed one with dataclasses.replace."""

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

    def __post_init__(self) -> None:
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

    @property
    def steps(self) -> int:
        """Integration steps of one run, whose log holds steps + 1 rows; the
        ratio is finite, as construction checked it against MAX_TICKS."""
        return round(self.duration / self.dt)

    def to_dict(self) -> dict:
        return _encode(self, ScenarioConfig)

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        """A config from its to_dict form, schemas v1 and v2 included; raises
        ConfigError on anything else."""
        return _decode(_upgrade(data) if isinstance(data, dict) else data, ScenarioConfig, "")


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
# by the dataclasses themselves, ScenarioConfig's cross-field rules included.
_SCALAR_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _upgrade(data: dict) -> dict:
    """data (not changed) in the current schema, so _decode knows no other: v1's
    dropout.seed, never read, and appendix_sign_convention, of which only false
    loads, are dropped, and a v1/v2 pd_u of six gains per vector is cut to its
    (z, phi, theta) gains; the x, y and yaw gains it drops must be exactly 0."""
    data = dict(data)
    if (legacy := data.pop("appendix_sign_convention", False)) is not False:
        raise ConfigError(f"config key appendix_sign_convention cannot be {legacy!r}: "
                          "the legacy sign convention was removed")
    if isinstance(dropout := data.get("dropout"), dict):
        data["dropout"] = {k: v for k, v in dropout.items() if k != "seed"}
    gains = [pd.get(k) for k in ("kp", "kd")] if isinstance(pd := data.get("pd_u"), dict) else ()
    if gains and all(isinstance(g, (list, tuple)) and len(g) == 6 for g in gains):
        if any(g[i] != 0 or isinstance(g[i], bool) for g in gains for i in (0, 1, 5)):
            raise ConfigError("pd_u gains on x, y and yaw must be exactly zero: "
                              "no sub-task uses them")
        data["pd_u"] = {**pd, "kp": gains[0][2:5], "kd": gains[1][2:5]}
    return data


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
        unknown = data.keys() - expected.keys()
        if unknown:
            raise ConfigError(f"unknown config keys{at}: {sorted(unknown)}")
        missing = expected.keys() - data.keys()
        if missing:
            raise ConfigError(f"missing config keys{at}: {sorted(missing)}")
        values = {name: _decode(data[name], sub, prefix + name)
                  for name, sub in expected.items()}
        try:
            return hint(**values)
        except ConfigError:  # ScenarioConfig's own rules name their fields
            raise
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

