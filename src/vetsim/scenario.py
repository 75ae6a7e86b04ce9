"""Experiment presets and the closed-loop simulation.

One scenario couples the two robots through vision alone. The inputs that
depend on time alone are computed before the loop, and the events are read
off the log after it; every tick (fixed 50 Hz by default) runs sense ->
control -> actuate -> log:

1. sense: each robot's camera projects the other robot's tag, except the
   upward camera on a tick the dropout model blanks: it sees nothing then.
   perception.project_tag measures a detected tag once, into the plain
   tuple (centre, normalised offset, region, elastic penetration, xi) that
   the log and the tether law both read, with the relative yaw; an
   undetected or blanked tag is perception.UNSEEN with a zero yaw, and the
   logged detection flag is whether the observation is not UNSEEN.
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

import math
from array import array

import numpy as np

from .config import Lawnmower, ScenarioConfig, Setpoints, planner_waypoints
from .control import (
    VET_START, VetGains, baseline_ibvs, camera_to_body,
    subtask_control_surface, subtask_control_underwater, uniform_pd, vet_law,
)
from .frames import GimbalSingularity, RigidTransform, euler_rate_rows, flat_transform
from .frames import projected_distance
from .log import (
    TrajectoryLog, _ROW_WIDTH, _first_non_finite, _log_arrays, _log_from_table, _window_masks,
)
from .perception import UNSEEN, _UNSEEN_TAG, CameraModel, DropoutModel, TagModel, project_tag
from .vehicle import Disturbance, VehicleModel, VehicleParams


class UnknownPreset(KeyError):
    """No preset registered under the requested name."""


class SimFailure(RuntimeError):
    """The simulation loop hit an unrecoverable state."""


def planner_step(current: tuple, waypoints, capture_radius: float, index: int):
    """Advance from waypoints[index] past every waypoint within the capture
    radius of the current (x, y, psi), hold the last.

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


def _depth_attitude_state(pose: tuple, nu: list, rotation: tuple, rates: tuple) -> tuple:
    """What the underwater robot's own sensors provide: depth and attitude,
    and their rates, from the tick's rotation and euler_rate_rows, as a plain
    tuple in control.DepthAttitudeState's field order."""
    _, _, z, phi, theta, _ = pose
    _, _, _, _, _, _, r6, r7, r8 = rotation
    ea, eb, ec, ed, _, _ = rates
    u, v, w, p, q, r = nu
    return z, phi, theta, r6 * u + r7 * v + r8 * w, p + ea * q + eb * r, ec * q + ed * r


def _state_at(k: int, row) -> str:
    """Where a run failed: tick k, its time and both poses, off row k of the row table."""
    row = _log_arrays(np.reshape(row, (1, _ROW_WIDTH)))
    return (f"at tick {k}, t={row['t'][0]:.3f} s: "
            f"pose_u={row['pose_u'][0].tolist()}, pose_s={row['pose_s'][0].tolist()}")


def _check_finite(table: np.ndarray) -> None:
    """Raise SimFailure at the first tick of a finished run's row table whose
    pose or command columns hold a NaN or an infinity. Velocities are not
    logged: a non-finite one reaches the pose its step makes."""
    if (bad := _first_non_finite(table)) is not None:
        raise SimFailure(f"non-finite state {_state_at(bad[0], table[bad[0]])}")


def _time_inputs(config: ScenarioConfig, ts: np.ndarray) -> tuple:
    """The inputs the loop reads that depend on the tick times ts alone: the mask
    of blanked upward-camera ticks, and wrenches, the world (force, torque) the
    active disturbances sum to in config order on a tick _window_masks marks
    perturbed, or None."""
    _, perturbed = _window_masks(config, ts)
    ticks = np.flatnonzero(perturbed)
    wrench = np.zeros((len(ticks), 6))  # one row per perturbed tick
    for d in config.perturbations:
        wrench[d.active(ts[ticks])] += d.force + d.torque
    wrenches = [None] * len(ts)
    for k, w in zip(ticks.tolist(), wrench.tolist()):
        wrenches[k] = (w[:3], w[3:])
    blanked = config.dropout.blanked(ts, np.random.default_rng(config.seed))
    return blanked, wrenches


def run(config: ScenarioConfig) -> TrajectoryLog:
    """Simulate one scenario; see the module docstring for the loop shape.

    Every per-tick vector is a list or tuple of Python floats, the poses
    included: (x, y, z, phi, theta, psi) and (x, y, psi), the logged layout.
    Observations, tether states and the depth/attitude measurement are plain
    tuples too: no tick builds a record object. Each tick computes both
    poses' flat transforms and the underwater pose's Euler-rate rows once;
    projection, the depth/attitude measurement, the surface PD and both
    vehicle steps reuse them. Each stage does its work in one body:
    project_tag projects and measures a tag (one observe call on a detected
    one), the tether law is one vet_law or baseline_ibvs call, and one
    VehicleModel.step call actuates a robot: it allocates thrust for the
    robot's logged split u_sub, u_xi as it is and integrates (it calls
    clip_norm only past the velocity bound). A blanked upward camera is not
    projected but given (UNSEEN, 0.0), as an undetected tag is. Each tick's
    numbers go to one flat row buffer; after the loop, _log_from_table, the
    constructor log_from_csv shares, makes the log of that row table and
    derives its events and saturated totals.
    A ScenarioConfig is checked when it is made, so run() trusts it, and it
    reads every constant the tick needs before the first tick: the cameras',
    tags' and gains' flat forms (CameraModel.flat, TagModel.flat,
    VetGains.flat and PdGains.flat), which the tick functions take in place
    of the config objects, so no tick reads a config attribute.
    """
    dt = config.dt
    n_steps = config.steps
    n_rec = n_steps + 1
    ts = np.arange(n_rec) * dt  # k * dt, bit for bit

    model_u = VehicleModel(config.params_u)
    model_s = VehicleModel(config.params_s)
    walls = _WallClamp(config.tank_min, config.tank_max)
    # every constant the tick reads, in the flat forms the tick functions take
    cam_u, cam_s = config.camera_u.flat, config.camera_s.flat
    tag_u, tag_s = config.tag_u.flat, config.tag_s.flat
    mount_u = config.camera_u.mount.flat[0]
    mount_s = config.camera_s.mount.flat[0]
    gains, pd_u, pd_s = config.vet.flat, config.pd_u.flat, config.pd_s.flat
    blanked, wrenches = _time_inputs(config, ts)

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
    vet_state_u = vet_state_s = VET_START

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

        # sense: one observation per camera, read by the log and by the
        # tether law; a blanked camera is not projected, as nothing would read it
        obs_us, yaw_us = _UNSEEN_TAG if blank else project_tag(tf_u, tf_s, cam_u, tag_s)
        obs_su, yaw_su = project_tag(tf_s, tf_u, cam_s, tag_u)
        _, _, region_us, _, xi_us = obs_us
        _, _, region_su, _, xi_su = obs_su

        # plan
        target_s, waypoint_index = planner_step(pose_s, waypoints, capture_radius, waypoint_index)

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

        # record the row table's columns: TrajectoryLog's float and flag fields, _LOOP_COLUMNS
        rows.fromlist([
            t, *pose_u, *pose_s,
            *u_sub_u, *xi_u, *u_sub_s, *xi_s, obs_us is not UNSEEN, obs_su is not UNSEEN,
            xi_us, xi_su,
            projected_distance(pose_u, pose_s), waypoint_index, wall_clamp_u, wall_clamp_s,
        ])
        region_us_list.append(region_us)
        region_su_list.append(region_su)

        if k == n_steps:
            break

        # actuate; the wall clamp's flags go with the pose it produces
        try:
            pose_u, vel_u = model_u.step(pose_u, vel_u, u_sub_u, xi_u, dt, tf_u[0], rates_u,
                                         wrenches[k])
            pose_s, vel_s = model_s.step(pose_s, vel_s, u_sub_s, xi_s, dt, tf_s[0])
        except (ArithmeticError, ValueError) as exc:
            where = _state_at(k, rows[-_ROW_WIDTH:])  # the tick's logged row
            raise SimFailure(f"integration failed ({exc}) {where}") from exc
        pose_u, vel_u, wall_clamp_u = walls.apply_u(pose_u, vel_u)
        pose_s, vel_s, wall_clamp_s = walls.apply_s(pose_s, vel_s)

    table = np.frombuffer(rows, dtype=float).reshape(n_rec, _ROW_WIDTH)
    _check_finite(table)
    return _log_from_table(config, table, {"region_us": region_us_list,
                                           "region_su": region_su_list})


# -- presets ---------------------------------------------------------------

# 180 degree flip about body x, written exactly so sign patterns stay exact.
_FLIP_X = RigidTransform(((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0)), (0.0, 0.0, 0.0))


def _base_config(name: str, **changes) -> ScenarioConfig:
    """The setup every preset shares, with one preset's fields changed."""
    base = dict(
        name=name,
        mode="vet",
        dt=0.02,
        duration=60.0,
        seed=0,
        tank_min=(-1.0, -1.0, -2.66),
        tank_max=(3.88, 2.66, 0.0),
        initial_pose_u=(0.0, 0.0, -1.0, 0.0, 0.0, 0.0),
        initial_pose_s=(0.0, 0.0, 0.0),
        # Thrust gains solve d_lin*v + d_quad*v^2 = gain*v at the command bound,
        # so a full command settles at exactly 0.1 m/s (0.2 rad/s in yaw).
        params_u=VehicleParams(
            mass=(11.5, 11.5, 11.5, 0.16, 0.16, 0.16),
            damping_linear=(4.0, 4.0, 4.0, 0.07, 0.07, 0.07),
            damping_quadratic=(18.0, 18.0, 18.0, 1.55, 1.55, 1.55),
            thrust_gain=(5.8, 5.8, 5.8, 0.38, 0.38, 0.38),
            velocity_bound_linear=0.1,
            velocity_bound_angular=0.2,
        ),
        params_s=VehicleParams(
            mass=(14.0, 14.0, 0.25),
            damping_linear=(5.0, 5.0, 0.2),
            damping_quadratic=(20.0, 20.0, 1.0),
            thrust_gain=(7.0, 7.0, 0.4),
            velocity_bound_linear=0.1,
            velocity_bound_angular=0.2,
        ),
        # the upward camera's frame is the underwater robot's body frame; the
        # surface robot's camera looks down, and each tag faces the other robot
        camera_u=CameraModel(640, 480, 400.0, RigidTransform.identity()),
        camera_s=CameraModel(640, 480, 400.0, _FLIP_X),
        tag_u=TagModel(0.1, RigidTransform.identity()),
        tag_s=TagModel(0.1, _FLIP_X),
        pd_u=uniform_pd(0.5, 0.15),
        pd_s=uniform_pd(5.0, 5.0),
        vet=VetGains(k_safe_p=0.5, k_elastic_p=1.0, k_elastic_d=0.15),
        depth_target=-1.0,
        roll_target=0.0,
        pitch_target=0.0,
        planner=Setpoints(((1.0, 1.0, -1.57),)),
    )
    return ScenarioConfig(**(base | changes))


# Each preset's changes to _base_config; configs and their parts are frozen,
# so every preset() call may share them.
_PRESETS = {
    "nominal": {},
    "perturbation_sim": dict(
        initial_pose_u=(0.1, 0.0, -1.0, 0.0, 0.0, 0.0),
        initial_pose_s=(0.1, 0.0, 0.0),
        planner=Setpoints(((0.1, 3.0, 0.0),)),
        tank_min=(-2.0, -0.5, -2.66),
        tank_max=(2.88, 3.16, 0.0),
        # 10 N pull along -x for 3 s, starting where the convoy crosses y = 0.75
        # (calibrated against the nominal convoy speed of the sim gains).
        perturbations=(Disturbance(force=(-10.0, 0.0, 0.0), t_start=11.0, t_end=14.0),),
    ),
    "navigation_sim": dict(
        initial_pose_u=(1.1, -0.25, -1.0, 0.0, 0.0, 0.0),
        initial_pose_s=(1.1, -0.25, 0.0),
        planner=Lawnmower(
            x_min=1.1, x_max=3.1, y_min=-0.25, y_max=1.55,
            lane_spacing=0.6, speed=0.1, capture_radius=0.15,
        ),
        tank_min=(-0.5, -1.0, -2.66),
        tank_max=(4.38, 2.66, 0.0),
        duration=300.0,
    ),
    "perturbation_real": dict(
        initial_pose_u=(0.2, -0.5, -1.0, 0.0, 0.0, 0.0),
        initial_pose_s=(0.2, -0.5, 0.0),
        planner=Setpoints(((1.0, -2.5, 0.0),)),
        tank_min=(-1.0, -3.0, -2.66),
        tank_max=(3.88, 0.66, 0.0),
        pd_s=uniform_pd(1.0, 0.5),
        vet=VetGains(k_safe_p=0.35, k_elastic_p=1.0, k_elastic_d=0.15),
        # Same pull shape as the sim preset, at this preset's y = -1 crossing.
        perturbations=(Disturbance(force=(-10.0, 0.0, 0.0), t_start=9.5, t_end=12.5),),
    ),
    "navigation_real": dict(
        initial_pose_u=(0.2, -2.2, -1.0, 0.0, 0.0, 0.0),
        initial_pose_s=(0.2, -2.2, 0.0),
        planner=Lawnmower(
            x_min=0.2, x_max=3.0, y_min=-2.2, y_max=-0.4,
            lane_spacing=0.6, speed=0.1, capture_radius=0.15,
        ),
        tank_min=(-0.5, -3.0, -2.66),
        tank_max=(4.38, 0.66, 0.0),
        pd_s=uniform_pd(1.0, 0.5),
        vet=VetGains(k_safe_p=0.35, k_elastic_p=1.0, k_elastic_d=0.15),
        duration=340.0,
        # Scheduled blackouts of the upward camera: one long window that breaks
        # the one-way baseline for good, then two short ones the tether rides out.
        dropout=DropoutModel(scheduled_windows=((65.0, 73.0), (75.0, 77.0), (85.0, 87.0))),
    ),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset(name: str) -> ScenarioConfig:
    """The config of one of the named experiment presets."""
    try:
        changes = _PRESETS[name]
    except KeyError:
        raise UnknownPreset(
            f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}"
        ) from None
    return _base_config(name, **changes)
