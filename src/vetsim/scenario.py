"""Scenario configuration, presets and the closed-loop simulation.

One scenario couples the two robots through vision alone. Every tick (fixed
50 Hz by default) runs sense -> control -> actuate -> log:

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
   image regions, tether states and event flags.

Runs are deterministic: a fixed seed reproduces byte-identical logs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .control import (
    DepthAttitudeState,
    PdGains,
    SubTaskTarget,
    VetCommand,
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
from .frames import GimbalSingularity, Pose3, Pose6, RigidTransform, euler_rate_rows
from .perception import (
    CameraModel,
    DropoutModel,
    TagModel,
    apply_dropout,
    classify_region,
    project_tag,
    tag_geometry,
)
from .vehicle import Disturbance, VehicleModel, VehicleParams, as_floats


# The most integration steps one run may take; the log is preallocated, so
# this also bounds a run's memory (about 0.4 GB at the cap).
MAX_TICKS = 1_000_000


class ConfigError(ValueError):
    """Configuration dictionary is malformed or inconsistent."""


class UnknownPreset(KeyError):
    """No preset registered under the requested name."""


class InvalidBounds(ValueError):
    """Planner area bounds are degenerate."""


class SimFailure(RuntimeError):
    """The simulation loop hit an unrecoverable state."""


@dataclass(frozen=True)
class Setpoints:
    """Ordered planar targets, visited in sequence and held at the end."""

    waypoints: tuple
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

    Lane count is floor(y extent / spacing) + 1; spacing wider than the
    extent degenerates to a single lane with two waypoints.
    """
    if spec.x_max <= spec.x_min or spec.y_max <= spec.y_min:
        raise InvalidBounds("lawnmower area must have positive extent")
    if spec.lane_spacing <= 0:
        raise InvalidBounds("lane spacing must be positive")
    n_lanes = int(math.floor((spec.y_max - spec.y_min) / spec.lane_spacing + 1e-9)) + 1
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
    tank_min: tuple
    tank_max: tuple
    initial_pose_u: tuple
    initial_pose_s: tuple
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
    planner: object
    perturbations: tuple = ()
    dropout: DropoutModel = field(default_factory=DropoutModel)
    appendix_sign_convention: bool = False

    def validate(self) -> None:
        non_finite = _non_finite_paths(self.to_dict())
        if non_finite:
            raise ConfigError(f"non-finite numbers at {', '.join(non_finite)}")
        if self.mode not in ("vet", "baseline"):
            raise ConfigError(f"mode must be 'vet' or 'baseline', got {self.mode!r}")
        if not 0.0 < self.dt <= 0.1:
            raise ConfigError("dt must be in (0, 0.1] seconds")
        if self.duration < 0:
            raise ConfigError("duration must be non-negative")
        if round(self.duration / self.dt) > MAX_TICKS:
            raise ConfigError(
                f"duration {self.duration:g} s at dt {self.dt:g} s exceeds {MAX_TICKS} ticks"
            )
        if len(self.tank_min) != 3 or len(self.tank_max) != 3:
            raise ConfigError("tank bounds are 3-vectors")
        if any(hi <= lo for lo, hi in zip(self.tank_min, self.tank_max)):
            raise ConfigError("tank must have positive extent on every axis")
        if len(self.initial_pose_u) != 6 or len(self.initial_pose_s) != 3:
            raise ConfigError("initial poses are a 6-tuple and a 3-tuple")
        ux, uy, uz = self.initial_pose_u[:3]
        sx, sy = self.initial_pose_s[:2]
        for axis, value in enumerate((ux, uy, uz)):
            if not self.tank_min[axis] <= value <= self.tank_max[axis]:
                raise ConfigError("underwater initial pose lies outside the tank")
        for axis, value in enumerate((sx, sy)):
            if not self.tank_min[axis] <= value <= self.tank_max[axis]:
                raise ConfigError("surface initial pose lies outside the tank")
        if self.params_u.dof != 6 or self.params_s.dof != 3:
            raise ConfigError("underwater model is 6-DoF, surface model 3-DoF")
        if len(self.pd_u.kp) != 6 or len(self.pd_s.kp) != 3:
            raise ConfigError("pd_u needs 6-axis gains and pd_s 3-axis gains")
        if any(self.pd_u.kp[i] != 0.0 or self.pd_u.kd[i] != 0.0 for i in (0, 1, 5)):
            raise ConfigError("pd_u gains on x, y and yaw must be exactly zero")
        if not isinstance(self.planner, (Setpoints, Lawnmower)):
            raise ConfigError("planner must be Setpoints or Lawnmower")
        planner_waypoints(self.planner)  # raises InvalidBounds on bad areas

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "mode": self.mode,
            "dt": self.dt,
            "duration": self.duration,
            "seed": self.seed,
            "tank_min": list(self.tank_min),
            "tank_max": list(self.tank_max),
            "initial_pose_u": list(self.initial_pose_u),
            "initial_pose_s": list(self.initial_pose_s),
            "params_u": _params_to_dict(self.params_u),
            "params_s": _params_to_dict(self.params_s),
            "camera_u": _camera_to_dict(self.camera_u),
            "camera_s": _camera_to_dict(self.camera_s),
            "tag_u": _tag_to_dict(self.tag_u),
            "tag_s": _tag_to_dict(self.tag_s),
            "pd_u": {"kp": list(self.pd_u.kp), "kd": list(self.pd_u.kd)},
            "pd_s": {"kp": list(self.pd_s.kp), "kd": list(self.pd_s.kd)},
            "vet": _vet_to_dict(self.vet),
            "depth_target": self.depth_target,
            "roll_target": self.roll_target,
            "pitch_target": self.pitch_target,
            "planner": _planner_to_dict(self.planner),
            "perturbations": [_disturbance_to_dict(d) for d in self.perturbations],
            "dropout": _dropout_to_dict(self.dropout),
            "appendix_sign_convention": self.appendix_sign_convention,
        }

    @staticmethod
    def from_dict(data: dict) -> "ScenarioConfig":
        if not isinstance(data, dict):
            raise ConfigError("config root must be an object")
        known = {
            "name", "mode", "dt", "duration", "seed", "tank_min", "tank_max",
            "initial_pose_u", "initial_pose_s", "params_u", "params_s",
            "camera_u", "camera_s", "tag_u", "tag_s", "pd_u", "pd_s", "vet",
            "depth_target", "roll_target", "pitch_target", "planner",
            "perturbations", "dropout", "appendix_sign_convention",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        missing = known - set(data)
        if missing:
            raise ConfigError(f"missing config keys: {sorted(missing)}")
        try:
            cfg = ScenarioConfig(
                name=str(data["name"]),
                mode=str(data["mode"]),
                dt=float(data["dt"]),
                duration=float(data["duration"]),
                seed=int(data["seed"]),
                tank_min=_float_tuple(data["tank_min"], 3, "tank_min"),
                tank_max=_float_tuple(data["tank_max"], 3, "tank_max"),
                initial_pose_u=_float_tuple(data["initial_pose_u"], 6, "initial_pose_u"),
                initial_pose_s=_float_tuple(data["initial_pose_s"], 3, "initial_pose_s"),
                params_u=_params_from_dict(data["params_u"]),
                params_s=_params_from_dict(data["params_s"]),
                camera_u=_camera_from_dict(data["camera_u"]),
                camera_s=_camera_from_dict(data["camera_s"]),
                tag_u=_tag_from_dict(data["tag_u"]),
                tag_s=_tag_from_dict(data["tag_s"]),
                pd_u=PdGains(
                    _float_tuple(data["pd_u"]["kp"], None, "pd_u.kp"),
                    _float_tuple(data["pd_u"]["kd"], None, "pd_u.kd"),
                ),
                pd_s=PdGains(
                    _float_tuple(data["pd_s"]["kp"], None, "pd_s.kp"),
                    _float_tuple(data["pd_s"]["kd"], None, "pd_s.kd"),
                ),
                vet=_vet_from_dict(data["vet"]),
                depth_target=float(data["depth_target"]),
                roll_target=float(data["roll_target"]),
                pitch_target=float(data["pitch_target"]),
                planner=_planner_from_dict(data["planner"]),
                perturbations=tuple(
                    _disturbance_from_dict(d) for d in data["perturbations"]
                ),
                dropout=_dropout_from_dict(data["dropout"]),
                appendix_sign_convention=bool(data["appendix_sign_convention"]),
            )
        except ConfigError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed config: {exc}") from exc
        cfg.validate()
        return cfg


def _non_finite_paths(tree, path: str = "") -> list:
    """Dotted paths of every NaN or infinite number in a to_dict tree."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return [path] if isinstance(tree, float) and not math.isfinite(tree) else []
    prefix = f"{path}." if path else ""
    return [p for key, value in items for p in _non_finite_paths(value, f"{prefix}{key}")]


def _float_tuple(values, length, label) -> tuple:
    try:
        out = tuple(float(v) for v in values)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label} must be a list of numbers") from exc
    if length is not None and len(out) != length:
        raise ConfigError(f"{label} must have {length} entries")
    return out


def _transform_to_dict(t: RigidTransform) -> dict:
    return {"rotation": t.rotation.tolist(), "translation": t.translation.tolist()}


def _transform_from_dict(d: dict) -> RigidTransform:
    return RigidTransform(np.array(d["rotation"], dtype=float), np.array(d["translation"], dtype=float))


def _camera_to_dict(cam: CameraModel) -> dict:
    return {
        "width": cam.width,
        "height": cam.height,
        "focal_length": cam.focal_length,
        "mount": _transform_to_dict(cam.mount),
    }


def _camera_from_dict(d: dict) -> CameraModel:
    return CameraModel(
        int(d["width"]), int(d["height"]), float(d["focal_length"]),
        _transform_from_dict(d["mount"]),
    )


def _tag_to_dict(tag: TagModel) -> dict:
    return {"side": tag.side, "mount": _transform_to_dict(tag.mount)}


def _tag_from_dict(d: dict) -> TagModel:
    return TagModel(float(d["side"]), _transform_from_dict(d["mount"]))


def _params_to_dict(p: VehicleParams) -> dict:
    return {
        "mass": list(p.mass),
        "damping_linear": list(p.damping_linear),
        "damping_quadratic": list(p.damping_quadratic),
        "thrust_gain": list(p.thrust_gain),
        "velocity_bound_linear": p.velocity_bound_linear,
        "velocity_bound_angular": p.velocity_bound_angular,
    }


def _params_from_dict(d: dict) -> VehicleParams:
    return VehicleParams(
        mass=_float_tuple(d["mass"], None, "mass"),
        damping_linear=_float_tuple(d["damping_linear"], None, "damping_linear"),
        damping_quadratic=_float_tuple(d["damping_quadratic"], None, "damping_quadratic"),
        thrust_gain=_float_tuple(d["thrust_gain"], None, "thrust_gain"),
        velocity_bound_linear=float(d["velocity_bound_linear"]),
        velocity_bound_angular=float(d["velocity_bound_angular"]),
    )


def _vet_to_dict(v: VetGains) -> dict:
    return {
        "k_safe_p": v.k_safe_p,
        "k_elastic_p": v.k_elastic_p,
        "k_elastic_d": v.k_elastic_d,
        "k_psi": v.k_psi,
        "u_max_x": v.u_max_x,
        "u_max_y": v.u_max_y,
        "yield_fraction": v.yield_fraction,
        "hold_half_life": v.hold_half_life,
        "rate_time_constant": v.rate_time_constant,
    }


def _vet_from_dict(d: dict) -> VetGains:
    return VetGains(**{k: float(v) for k, v in d.items()})


def _planner_to_dict(p) -> dict:
    if isinstance(p, Lawnmower):
        return {
            "kind": "lawnmower",
            "x_min": p.x_min,
            "x_max": p.x_max,
            "y_min": p.y_min,
            "y_max": p.y_max,
            "lane_spacing": p.lane_spacing,
            "speed": p.speed,
            "capture_radius": p.capture_radius,
        }
    return {
        "kind": "setpoints",
        "waypoints": [list(wp) for wp in p.waypoints],
        "capture_radius": p.capture_radius,
    }


def _planner_from_dict(d: dict) -> object:
    kind = d.get("kind")
    if kind == "lawnmower":
        return Lawnmower(
            x_min=float(d["x_min"]),
            x_max=float(d["x_max"]),
            y_min=float(d["y_min"]),
            y_max=float(d["y_max"]),
            lane_spacing=float(d["lane_spacing"]),
            speed=float(d["speed"]),
            capture_radius=float(d["capture_radius"]),
        )
    if kind == "setpoints":
        return Setpoints(
            waypoints=tuple(_float_tuple(wp, 3, "waypoint") for wp in d["waypoints"]),
            capture_radius=float(d["capture_radius"]),
        )
    raise ConfigError(f"unknown planner kind {kind!r}")


def _disturbance_to_dict(d: Disturbance) -> dict:
    return {
        "force": list(d.force),
        "torque": list(d.torque),
        "t_start": d.t_start,
        "t_end": d.t_end,
    }


def _disturbance_from_dict(d: dict) -> Disturbance:
    return Disturbance(
        force=_float_tuple(d["force"], 3, "force"),
        torque=_float_tuple(d["torque"], 3, "torque"),
        t_start=float(d["t_start"]),
        t_end=float(d["t_end"]),
    )


def _dropout_to_dict(d: DropoutModel) -> dict:
    return {
        "scheduled_windows": [list(w) for w in d.scheduled_windows],
        "random_rate": d.random_rate,
        "seed": d.seed,
    }


def _dropout_from_dict(d: dict) -> DropoutModel:
    return DropoutModel(
        scheduled_windows=tuple(_float_tuple(w, 2, "window") for w in d["scheduled_windows"]),
        random_rate=float(d["random_rate"]),
        seed=int(d["seed"]),
    )


# -- trajectory log --------------------------------------------------------

CSV_COLUMNS = (
    "t",
    "xU", "yU", "zU", "phiU", "thetaU", "psiU",
    "xS", "yS", "psiS",
    "uU_sub_x", "uU_sub_y", "uU_sub_z", "uU_sub_phi", "uU_sub_theta", "uU_sub_psi",
    "uU_xi_x", "uU_xi_y", "uU_xi_z", "uU_xi_phi", "uU_xi_theta", "uU_xi_psi",
    "uS_sub_x", "uS_sub_y", "uS_sub_psi",
    "uS_xi_x", "uS_xi_y", "uS_xi_psi",
    "detectedUS", "detectedSU", "regionUS", "regionSU",
    "xiUS", "xiSU", "projDist", "eventFlags",
)


@dataclass
class TrajectoryLog:
    """Complete tick-by-tick record of one run."""

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
    event_flags: list
    events: list
    waypoints_total: int
    waypoints_captured: int

    def __len__(self) -> int:
        return len(self.t)

    def to_csv_text(self) -> str:
        """Render the fixed-schema CSV; identical runs give identical bytes."""
        fmt = "%.12g"
        lines = [",".join(CSV_COLUMNS)]
        for k in range(len(self.t)):
            row = [fmt % self.t[k]]
            row += [fmt % v for v in self.pose_u[k]]
            row += [fmt % v for v in self.pose_s[k]]
            row += [fmt % v for v in self.u_sub_u[k]]
            row += [fmt % v for v in self.u_xi_u[k]]
            row += [fmt % v for v in self.u_sub_s[k]]
            row += [fmt % v for v in self.u_xi_s[k]]
            row.append("1" if self.detected_us[k] else "0")
            row.append("1" if self.detected_su[k] else "0")
            row.append(self.region_us[k])
            row.append(self.region_su[k])
            row.append(fmt % self.xi_us[k])
            row.append(fmt % self.xi_su[k])
            row.append(fmt % self.proj_dist[k])
            row.append(self.event_flags[k])
            lines.append(",".join(row))
        return "\n".join(lines) + "\n"

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as handle:
            handle.write(self.to_csv_text())


# -- simulation loop -------------------------------------------------------

class _WallClamp:
    """Soft tank walls: clamp position, kill the outward velocity."""

    def __init__(self, tank_min, tank_max):
        self.lo = tuple(float(v) for v in tank_min)
        self.hi = tuple(float(v) for v in tank_max)

    def apply_u(self, pose: Pose6, nu: np.ndarray):
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
        nu = as_floats(nu)
        u, v, w = nu[:3]
        world_v = [r0 * u + r1 * v + r2 * w, r3 * u + r4 * v + r5 * w, r6 * u + r7 * v + r8 * w]
        for axis in range(3):
            if clipped[axis] != pos[axis]:
                world_v[axis] = 0.0
        wx, wy, wz = world_v
        nu[:3] = [r0 * wx + r3 * wy + r6 * wz, r1 * wx + r4 * wy + r7 * wz,
                  r2 * wx + r5 * wy + r8 * wz]
        return Pose6(clipped[0], clipped[1], clipped[2], pose.attitude), np.array(nu), True

    def apply_s(self, pose: Pose3, nu: np.ndarray):
        x = min(max(pose.x, self.lo[0]), self.hi[0])
        y = min(max(pose.y, self.lo[1]), self.hi[1])
        if x == pose.x and y == pose.y:
            return pose, nu, False
        c, s = math.cos(pose.psi), math.sin(pose.psi)
        u, v, r = as_floats(nu)
        wx = c * u - s * v if x == pose.x else 0.0
        wy = s * u + c * v if y == pose.y else 0.0
        return Pose3(x, y, pose.psi), np.array([c * wx + s * wy, -s * wx + c * wy, r]), True


def _depth_attitude_state(pose: Pose6, nu) -> DepthAttitudeState:
    """What the underwater robot's own sensors provide: depth and attitude."""
    (_, _, _, _, _, _, r6, r7, r8), _ = pose.flat_transform
    ea, eb, ec, ed, _, _ = euler_rate_rows(pose.attitude)
    u, v, w, p, q, r = as_floats(nu)
    att = pose.attitude
    return DepthAttitudeState(
        z=pose.z, phi=att.phi, theta=att.theta,
        dz=r6 * u + r7 * v + r8 * w,
        dphi=p + ea * q + eb * r,
        dtheta=ec * q + ed * r,
    )


def run(config: ScenarioConfig) -> TrajectoryLog:
    """Simulate one scenario; see the module docstring for the loop shape."""
    config.validate()
    dt = config.dt
    n_steps = int(round(config.duration / dt))
    n_rec = n_steps + 1

    model_u = VehicleModel(config.params_u)
    model_s = VehicleModel(config.params_s)
    rng = np.random.default_rng(config.seed)
    walls = _WallClamp(config.tank_min, config.tank_max)

    pose_u = Pose6.from_tuple(config.initial_pose_u)
    pose_s = Pose3.from_tuple(config.initial_pose_s)
    nu_u = np.zeros(6)
    nu_s = np.zeros(3)

    target_u = SubTaskTarget(
        z_d=config.depth_target, phi_d=config.roll_target, theta_d=config.pitch_target
    )
    waypoints = planner_waypoints(config.planner)
    wp_index = 0
    wp_captured = 0
    speed_limit = config.planner.speed if isinstance(config.planner, Lawnmower) else None

    baseline = config.mode == "baseline"
    vet_state_u = VetFilterState.initial()
    vet_state_s = VetFilterState.initial()

    t_arr = np.empty(n_rec)
    pose_u_arr = np.empty((n_rec, 6))
    pose_s_arr = np.empty((n_rec, 3))
    nu_u_arr = np.empty((n_rec, 6))
    nu_s_arr = np.empty((n_rec, 3))
    u_sub_u_arr = np.empty((n_rec, 6))
    u_xi_u_arr = np.empty((n_rec, 6))
    u_sub_s_arr = np.empty((n_rec, 3))
    u_xi_s_arr = np.empty((n_rec, 3))
    u_tot_u_arr = np.empty((n_rec, 6))
    u_tot_s_arr = np.empty((n_rec, 3))
    det_us_arr = np.zeros(n_rec, dtype=bool)
    det_su_arr = np.zeros(n_rec, dtype=bool)
    region_us_list = []
    region_su_list = []
    xi_us_arr = np.full(n_rec, math.nan)
    xi_su_arr = np.full(n_rec, math.nan)
    dist_arr = np.empty(n_rec)
    flags_list = []
    events = []

    prev_det_us = None
    prev_det_su = None
    prev_region_us = None
    prev_region_su = None
    prev_perturb = False
    prev_window = False
    prev_clamp_u = False
    prev_clamp_s = False
    pending_flags = []

    sign_convention = config.appendix_sign_convention
    mount_u = config.camera_u.mount
    mount_s = config.camera_s.mount
    for k in range(n_rec):
        t = k * dt
        flags = pending_flags
        pending_flags = []

        # sense
        obs_us = project_tag(pose_u, pose_s, config.camera_u, config.tag_s, t)
        obs_us = apply_dropout(obs_us, config.dropout, t, rng)
        obs_su = project_tag(pose_s, pose_u, config.camera_s, config.tag_u, t)

        window_now = config.dropout.scheduled(t)
        if window_now and not prev_window:
            flags.append("dropout_start")
        elif prev_window and not window_now:
            flags.append("dropout_end")
        prev_window = window_now

        active = [d for d in config.perturbations if d.active(t)]
        perturb_now = bool(active)
        if perturb_now and not prev_perturb:
            flags.append("perturb_start")
        elif prev_perturb and not perturb_now:
            flags.append("perturb_end")
        prev_perturb = perturb_now

        # plan
        old_index = wp_index
        target_s, wp_index = planner_step(
            pose_s, waypoints, config.planner.capture_radius, wp_index
        )
        if wp_index > old_index:
            wp_captured += wp_index - old_index
            flags.extend(["waypoint_capture"] * (wp_index - old_index))

        # region/tether bookkeeping (logged regardless of controller mode)
        if obs_us.detected:
            center, l_bar, h_bar = tag_geometry(obs_us)
            region_us = classify_region(center, l_bar, h_bar, config.camera_u).value
            ccx, ccy = config.camera_u.center
            xi_us_arr[k] = math.hypot(center[0] - ccx, center[1] - ccy)
        else:
            region_us = "none"
        if obs_su.detected:
            center, l_bar, h_bar = tag_geometry(obs_su)
            region_su = classify_region(center, l_bar, h_bar, config.camera_s).value
            ccx, ccy = config.camera_s.center
            xi_su_arr[k] = math.hypot(center[0] - ccx, center[1] - ccy)
        else:
            region_su = "none"

        if prev_det_us is not None and obs_us.detected != prev_det_us:
            flags.append("los_regain_us" if obs_us.detected else "los_loss_us")
        if prev_det_su is not None and obs_su.detected != prev_det_su:
            flags.append("los_regain_su" if obs_su.detected else "los_loss_su")
        prev_det_us = obs_us.detected
        prev_det_su = obs_su.detected
        if prev_region_us is not None and region_us != prev_region_us:
            flags.append(f"region_us:{prev_region_us}-{region_us}")
        if prev_region_su is not None and region_su != prev_region_su:
            flags.append(f"region_su:{prev_region_su}-{region_su}")
        prev_region_us = region_us
        prev_region_su = region_su

        # control: underwater robot (own depth/attitude sensors plus camera)
        partial = _depth_attitude_state(pose_u, nu_u)
        u_sub_u = subtask_control_underwater(partial, target_u, config.pd_u)
        if baseline:
            cam_cmd_u, _leader_input = baseline_ibvs(obs_us, config.vet, config.camera_u)
            xi_u = camera_to_body(cam_cmd_u, mount_u, 6)
        else:
            vet_cmd_u, vet_state_u = vet_law(obs_us, vet_state_u, config.vet, config.camera_u)
            xi_u = camera_to_body(vet_cmd_u.u, mount_u, 6)
        u_tot_u = combined_control(u_sub_u, xi_u, config.params_u)

        # control: surface robot; world rates through the surface Jacobian
        c, s = math.cos(pose_s.psi), math.sin(pose_s.psi)
        su, sv, sr = nu_s.tolist()
        if sign_convention:
            vel_world_s = (-c * su + s * sv, -s * su + c * sv, sr)
        else:
            vel_world_s = (c * su - s * sv, s * su + c * sv, sr)
        u_sub_s = subtask_control_surface(
            pose_s, vel_world_s, target_s, config.pd_s, speed_limit
        )
        if baseline:
            # one-way coupling: the leader gets no tether input at all
            xi_s = np.zeros(3)
            weight_s = 1.0
        else:
            vet_cmd_s, vet_state_s = vet_law(obs_su, vet_state_s, config.vet, config.camera_s)
            xi_s = camera_to_body(vet_cmd_s.u, mount_s, 3)
            weight_s = vet_cmd_s.subtask_weight
        u_tot_s = combined_control(u_sub_s, xi_s, config.params_s, weight_s)

        # record
        t_arr[k] = t
        pose_u_arr[k] = pose_u.as_tuple()
        pose_s_arr[k] = pose_s.as_tuple()
        nu_u_arr[k] = nu_u
        nu_s_arr[k] = nu_s
        u_sub_u_arr[k] = u_sub_u
        u_xi_u_arr[k] = xi_u
        u_sub_s_arr[k] = u_sub_s
        u_sub_s_arr[k, :2] *= weight_s
        u_xi_s_arr[k] = xi_s
        u_tot_u_arr[k] = u_tot_u
        u_tot_s_arr[k] = u_tot_s
        det_us_arr[k] = obs_us.detected
        det_su_arr[k] = obs_su.detected
        region_us_list.append(region_us)
        region_su_list.append(region_su)
        dist_arr[k] = math.hypot(pose_u.x - pose_s.x, pose_u.y - pose_s.y)
        flag_text = ";".join(flags)
        flags_list.append(flag_text)
        for item in flags:
            events.append((t, item))

        if k == n_steps:
            break

        # actuate
        force = torque = None
        if active:
            fx = fy = fz = tx = ty = tz = 0.0
            for d in active:
                fx, fy, fz = fx + d.force[0], fy + d.force[1], fz + d.force[2]
                tx, ty, tz = tx + d.torque[0], ty + d.torque[1], tz + d.torque[2]
            force, torque = (fx, fy, fz), (tx, ty, tz)
        try:
            pose_u, nu_u = model_u.step(
                pose_u, nu_u, model_u.allocate(u_tot_u), dt, force, torque
            )
            pose_s, nu_s = model_s.step(pose_s, nu_s, model_s.allocate(u_tot_s), dt)
        except GimbalSingularity:
            raise
        except Exception as exc:
            raise SimFailure(f"integration failed at t={t:.3f}: {exc}") from exc

        pose_u, nu_u, clamped_u = walls.apply_u(pose_u, nu_u)
        pose_s, nu_s, clamped_s = walls.apply_s(pose_s, nu_s)
        if clamped_u and not prev_clamp_u:
            pending_flags.append("wall_clamp_u")
        if clamped_s and not prev_clamp_s:
            pending_flags.append("wall_clamp_s")
        prev_clamp_u = clamped_u
        prev_clamp_s = clamped_s

    return TrajectoryLog(
        config=config,
        t=t_arr,
        pose_u=pose_u_arr,
        pose_s=pose_s_arr,
        nu_u=nu_u_arr,
        nu_s=nu_s_arr,
        u_sub_u=u_sub_u_arr,
        u_xi_u=u_xi_u_arr,
        u_sub_s=u_sub_s_arr,
        u_xi_s=u_xi_s_arr,
        u_total_u=u_tot_u_arr,
        u_total_s=u_tot_s_arr,
        detected_us=det_us_arr,
        detected_su=det_su_arr,
        region_us=region_us_list,
        region_su=region_su_list,
        xi_us=xi_us_arr,
        xi_su=xi_su_arr,
        proj_dist=dist_arr,
        event_flags=flags_list,
        events=events,
        waypoints_total=len(waypoints),
        waypoints_captured=wp_captured,
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

    Body velocities are not part of the CSV schema and come back as zeros;
    saturated totals are reconstructed from the logged command split. A
    header-only file yields an empty log, which the plots render as bare
    axes.
    """
    from .vehicle import saturate

    lines = [ln for ln in text.split("\n") if ln != ""]
    if not lines or lines[0].split(",") != list(CSV_COLUMNS):
        raise ConfigError("trajectory CSV header does not match the schema")
    rows = lines[1:]
    n = len(rows)
    t_arr = np.empty(n)
    pose_u_arr = np.empty((n, 6))
    pose_s_arr = np.empty((n, 3))
    u_sub_u_arr = np.empty((n, 6))
    u_xi_u_arr = np.empty((n, 6))
    u_sub_s_arr = np.empty((n, 3))
    u_xi_s_arr = np.empty((n, 3))
    u_tot_u_arr = np.empty((n, 6))
    u_tot_s_arr = np.empty((n, 3))
    det_us_arr = np.zeros(n, dtype=bool)
    det_su_arr = np.zeros(n, dtype=bool)
    region_us_list = []
    region_su_list = []
    xi_us_arr = np.empty(n)
    xi_su_arr = np.empty(n)
    dist_arr = np.empty(n)
    flags_list = []
    events = []
    captured = 0
    for k, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) != len(CSV_COLUMNS):
            raise ConfigError(f"row {k + 1} has {len(parts)} fields")
        try:
            t_arr[k] = float(parts[0])
            pose_u_arr[k] = [float(v) for v in parts[1:7]]
            pose_s_arr[k] = [float(v) for v in parts[7:10]]
            u_sub_u_arr[k] = [float(v) for v in parts[10:16]]
            u_xi_u_arr[k] = [float(v) for v in parts[16:22]]
            u_sub_s_arr[k] = [float(v) for v in parts[22:25]]
            u_xi_s_arr[k] = [float(v) for v in parts[25:28]]
            det_us_arr[k] = parts[28] == "1"
            det_su_arr[k] = parts[29] == "1"
            xi_us_arr[k] = float(parts[32])
            xi_su_arr[k] = float(parts[33])
            dist_arr[k] = float(parts[34])
        except ValueError as exc:
            raise ConfigError(f"row {k + 1} is not numeric: {exc}") from exc
        region_us_list.append(parts[30])
        region_su_list.append(parts[31])
        flags = parts[35]
        flags_list.append(flags)
        if flags:
            for item in flags.split(";"):
                events.append((float(parts[0]), item))
                if item == "waypoint_capture":
                    captured += 1
        u_tot_u_arr[k] = saturate(u_sub_u_arr[k] + u_xi_u_arr[k], config.params_u)
        u_tot_s_arr[k] = saturate(u_sub_s_arr[k] + u_xi_s_arr[k], config.params_s)
    return TrajectoryLog(
        config=config,
        t=t_arr,
        pose_u=pose_u_arr,
        pose_s=pose_s_arr,
        nu_u=np.zeros((n, 6)),
        nu_s=np.zeros((n, 3)),
        u_sub_u=u_sub_u_arr,
        u_xi_u=u_xi_u_arr,
        u_sub_s=u_sub_s_arr,
        u_xi_s=u_xi_s_arr,
        u_total_u=u_tot_u_arr,
        u_total_s=u_tot_s_arr,
        detected_us=det_us_arr,
        detected_su=det_su_arr,
        region_us=region_us_list,
        region_su=region_su_list,
        xi_us=xi_us_arr,
        xi_su=xi_su_arr,
        proj_dist=dist_arr,
        event_flags=flags_list,
        events=events,
        waypoints_total=len(planner_waypoints(config.planner)),
        waypoints_captured=captured,
    )


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
