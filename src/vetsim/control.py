"""Controllers: per-robot sub-tasks, the virtual elastic tether, a baseline.

The tether law turns the other robot's tag position in the camera image into
a camera-frame velocity command. It is elastic: zero at the image centre, a
weak proportional pull inside the safe box, proportional plus derivative in
the elastic band, and a maximal pull toward the tag inside the danger margin.
Pixel errors are normalised by the image half-extents so gains are
commensurate with the command bound.

Both robots run the law on their own camera; with the mirrored mounts this
produces world-frame commands that are anti-parallel, so the pair behaves as
if joined by a spring. Losing detection holds the last command with an
exponential decay (half-life 0.5 s) instead of cutting it, which bridges
momentary blackouts.

The conventional baseline is one-way: only the follower reacts, with a single
uniform proportional gain over the whole image and a zero command on
detection loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .frames import Pose3, Pose6, RigidTransform, rotation_body_to_world, wrap_angle
from .perception import (
    CameraModel,
    RegionLabel,
    TagObservation,
    classify_region,
    elastic_penetration,
    tag_geometry,
)
from .vehicle import VehicleParams, as_floats, clip_axes


@dataclass(frozen=True)
class PdGains:
    """Per-axis proportional and derivative gains."""

    kp: tuple[float, ...]
    kd: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.kp) != len(self.kd):
            raise ValueError("kp and kd must have the same length")
        if len(self.kp) not in (3, 6):
            raise ValueError("gains are per-axis vectors of length 3 or 6")


def underwater_pd(kp: float, kd: float) -> PdGains:
    """Depth/roll/pitch PD gains with the x, y, yaw entries pinned to zero."""
    return PdGains((0.0, 0.0, kp, kp, kp, 0.0), (0.0, 0.0, kd, kd, kd, 0.0))


def surface_pd(kp: float, kd: float) -> PdGains:
    return PdGains((kp, kp, kp), (kd, kd, kd))


@dataclass(frozen=True)
class SubTaskTarget:
    """Constant references for the per-robot sub-tasks.

    The underwater robot regulates depth, roll and pitch; the surface robot
    tracks a planar waypoint. One type carries both groups so the planner can
    emit a single object.
    """

    z_d: float = 0.0
    phi_d: float = 0.0
    theta_d: float = 0.0
    x_d: float = 0.0
    y_d: float = 0.0
    psi_d: float = 0.0


@dataclass(frozen=True)
class DepthAttitudeState:
    """The underwater robot's own sensed state: depth and attitude only.

    This is everything its controller is allowed to know beyond its camera;
    there is no channel carrying the surface robot's pose.
    """

    z: float
    phi: float
    theta: float
    dz: float = 0.0
    dphi: float = 0.0
    dtheta: float = 0.0


def subtask_control_underwater(
    measured: DepthAttitudeState, target: SubTaskTarget, gains: PdGains
) -> np.ndarray:
    """PD on depth, roll and pitch; x, y and yaw outputs are exactly zero."""
    if len(gains.kp) != 6:
        raise ValueError("underwater sub-task needs 6-axis gains")
    for idx in (0, 1, 5):
        if gains.kp[idx] != 0.0 or gains.kd[idx] != 0.0:
            raise ValueError("x, y and yaw gains must be exactly zero")
    m = measured
    return np.array(
        underwater_command((m.z, m.phi, m.theta, m.dz, m.dphi, m.dtheta), target, gains)
    )


def underwater_command(measured: tuple, target: SubTaskTarget, gains: PdGains) -> list:
    """subtask_control_underwater on floats; measured holds the
    DepthAttitudeState fields in order (z, phi, theta, dz, dphi, dtheta)."""
    z, phi, theta, dz, dphi, dtheta = measured
    kp, kd = gains.kp, gains.kd
    uz = kp[2] * (target.z_d - z) + kd[2] * -dz
    uphi = kp[3] * wrap_angle(target.phi_d - phi) + kd[3] * -dphi
    utheta = kp[4] * wrap_angle(target.theta_d - theta) + kd[4] * -dtheta
    return [0.0, 0.0, uz, uphi, utheta, 0.0]


def subtask_control_surface(
    pose: Pose3,
    world_velocity: np.ndarray,
    target: SubTaskTarget,
    gains: PdGains,
    speed_limit: float | None = None,
) -> np.ndarray:
    """Planar PD toward the waypoint, expressed in the body frame.

    The position error is formed in the world frame and rotated into the
    body frame (commands are body-frame velocity-valued). world_velocity is
    (x_dot, y_dot, psi_dot).
    """
    if len(gains.kp) != 3:
        raise ValueError("surface sub-task needs 3-axis gains")
    return np.array(
        surface_command(pose, as_floats(world_velocity), target, gains, speed_limit)
    )


def surface_command(
    pose: Pose3,
    world_velocity,
    target: SubTaskTarget,
    gains: PdGains,
    speed_limit: float | None = None,
) -> list:
    """subtask_control_surface on floats."""
    vx, vy, vpsi = world_velocity
    ex = target.x_d - pose.x
    ey = target.y_d - pose.y
    ux_w = gains.kp[0] * ex - gains.kd[0] * vx
    uy_w = gains.kp[1] * ey - gains.kd[1] * vy
    c, s = math.cos(pose.psi), math.sin(pose.psi)
    ux = c * ux_w + s * uy_w
    uy = -s * ux_w + c * uy_w
    upsi = gains.kp[2] * wrap_angle(target.psi_d - pose.psi) - gains.kd[2] * vpsi
    if speed_limit is not None:
        ux = min(max(ux, -speed_limit), speed_limit)
        uy = min(max(uy, -speed_limit), speed_limit)
    return [ux, uy, upsi]


@dataclass(frozen=True)
class VetGains:
    """Elastic tether gains and limits.

    k_safe_p / k_elastic_p / k_elastic_d act on pixel errors normalised by
    the image half-extents; k_psi acts on the relative yaw in radians.
    u_max_* bound the camera-frame linear command. yield_fraction sets how
    deep into the elastic band the leader's own task fades to zero;
    hold_half_life is the decay of the held command after detection loss;
    rate_time_constant low-passes the tag centre velocity estimate.
    """

    k_safe_p: float = 0.5
    k_elastic_p: float = 1.0
    k_elastic_d: float = 0.15
    k_psi: float = 0.5
    u_max_x: float = 0.1
    u_max_y: float = 0.1
    yield_fraction: float = 0.2
    hold_half_life: float = 0.5
    rate_time_constant: float = 0.1

    def __post_init__(self) -> None:
        if self.k_safe_p < 0 or self.k_elastic_p < 0 or self.k_elastic_d < 0:
            raise ValueError("tether gains must be non-negative")
        if self.k_safe_p >= self.k_elastic_p:
            raise ValueError("safe gain must be below the elastic gain")
        if self.u_max_x <= 0 or self.u_max_y <= 0:
            raise ValueError("command bounds must be positive")
        if not 0.0 < self.yield_fraction <= 1.0:
            raise ValueError("yield_fraction must be in (0, 1]")
        if self.hold_half_life <= 0:
            raise ValueError("hold_half_life must be positive")
        if self.rate_time_constant < 0:
            raise ValueError("rate_time_constant must be non-negative")


@dataclass(frozen=True)
class VetCommand:
    """Camera-frame tether output: (u_x, u_y, u_psi) plus bookkeeping.

    subtask_weight is the leader-side fade factor derived from the region
    (1 in safe, ramping to 0 inside the elastic band); followers ignore it.
    """

    u: np.ndarray
    region: RegionLabel | None
    detected: bool
    subtask_weight: float = 1.0


class VetFilterState(NamedTuple):
    """Per-controller memory: centre history, rate filter, held command."""

    last_center: tuple | None = None
    last_time: float | None = None
    rate: tuple = (0.0, 0.0)
    held_command: tuple = (0.0, 0.0, 0.0)
    held_weight: float = 1.0

    @staticmethod
    def initial() -> "VetFilterState":
        return VetFilterState()


def vet_law(
    obs: TagObservation,
    state: VetFilterState,
    gains: VetGains,
    cam: CameraModel,
) -> tuple:
    """One tick of the elastic tether law; returns (VetCommand, new state).

    Detected: command from the region law on the normalised centre offset,
    clipped per axis to u_max. Undetected: the held command decays with the
    configured half-life, reaching ~6% within two seconds at the default.
    """
    geometry = region = None
    if obs.detected:
        geometry = tag_geometry(obs)
        region = classify_region(*geometry, cam)
    command, weight, new_state = tether_command(
        geometry, region, obs.camera_yaw, obs.timestamp, state, gains, cam
    )
    return VetCommand(np.array(command), region, obs.detected, weight), new_state


def tether_command(
    geometry: tuple | None,
    region: RegionLabel | None,
    yaw: float,
    t: float,
    state: VetFilterState,
    gains: VetGains,
    cam: CameraModel,
) -> tuple:
    """vet_law on floats.

    geometry is the tag's (center, l_bar, h_bar) and region its label, both
    None when the tag is not detected. Returns ((u_x, u_y, u_psi), subtask
    weight, new state).
    """
    if geometry is None:
        if state.last_time is None:
            factor = 0.0
        else:
            dt = max(t - state.last_time, 0.0)
            factor = 0.5 ** (dt / gains.hold_half_life)
        hx, hy, hpsi = state.held_command
        held = (hx * factor, hy * factor, hpsi * factor)
        weight = 1.0 - (1.0 - state.held_weight) * factor
        return held, weight, VetFilterState(None, t, (0.0, 0.0), held, weight)

    center, l_bar, h_bar = geometry
    half_w = cam.width / 2.0
    half_v = cam.height / 2.0
    ex = (center[0] - half_w) / half_w
    ey = (center[1] - half_v) / half_v

    if state.last_center is not None and state.last_time is not None:
        rx, ry = state.rate
        dt = t - state.last_time
        if dt > 0.0:
            raw_x = (center[0] - state.last_center[0]) / half_w / dt
            raw_y = (center[1] - state.last_center[1]) / half_v / dt
            alpha = dt / (gains.rate_time_constant + dt)
            rx = rx + alpha * (raw_x - rx)
            ry = ry + alpha * (raw_y - ry)
    else:
        rx = ry = 0.0

    if region is RegionLabel.SAFE:
        ux = gains.k_safe_p * ex
        uy = gains.k_safe_p * ey
    elif region is RegionLabel.ELASTIC:
        ux = gains.k_elastic_p * ex + gains.k_elastic_d * rx
        uy = gains.k_elastic_p * ey + gains.k_elastic_d * ry
    else:
        norm = math.sqrt(ex * ex + ey * ey)
        if norm > 1e-12:
            ux = gains.u_max_x * (ex / norm)
            uy = gains.u_max_y * (ey / norm)
        else:
            ux = uy = 0.0
    ux = min(max(ux, -gains.u_max_x), gains.u_max_x)
    uy = min(max(uy, -gains.u_max_y), gains.u_max_y)
    command = (ux, uy, gains.k_psi * yaw)

    penetration = elastic_penetration(center, l_bar, h_bar, cam)
    weight = min(max(1.0 - penetration / gains.yield_fraction, 0.0), 1.0)
    return command, weight, VetFilterState(center, t, (rx, ry), command, weight)


def baseline_ibvs(obs: TagObservation, gains: VetGains, cam: CameraModel) -> np.ndarray:
    """One-way visual servo: the follower's camera-frame command. The leader
    gets no tether input in this mode.

    Uniform proportional gain over the whole image, no region logic, no
    derivative term; detection loss commands zero immediately.
    """
    geometry = tag_geometry(obs) if obs.detected else None
    return np.array(ibvs_command(geometry, obs.camera_yaw, gains, cam))


def ibvs_command(geometry: tuple | None, yaw: float, gains: VetGains, cam: CameraModel) -> tuple:
    """baseline_ibvs on floats; geometry as in
    tether_command, None when the tag is not detected."""
    if geometry is None:
        return (0.0, 0.0, 0.0)
    center = geometry[0]
    half_w = cam.width / 2.0
    half_v = cam.height / 2.0
    ex = (center[0] - half_w) / half_w
    ey = (center[1] - half_v) / half_v
    ux = min(max(gains.k_elastic_p * ex, -gains.u_max_x), gains.u_max_x)
    uy = min(max(gains.k_elastic_p * ey, -gains.u_max_y), gains.u_max_y)
    return (ux, uy, gains.k_psi * yaw)


def camera_to_body(cmd: np.ndarray, mount: RigidTransform, dof: int) -> np.ndarray:
    """Map a camera-frame command (u_x, u_y, u_psi) into body-frame axes.

    The linear part rotates as a vector and keeps only the surge/sway
    components; the yaw part rotates as an axis and keeps only the body-z
    component. The heave, roll and pitch rows are structurally zero: those
    axes belong to the sub-task controller.
    """
    cmd = as_floats(cmd)
    if len(cmd) != 3:
        raise ValueError("camera-frame command is (u_x, u_y, u_psi)")
    if dof not in (3, 6):
        raise ValueError("dof must be 3 or 6")
    return np.array(body_command(cmd, mount.flat()[0], dof))


def body_command(cmd, rotation: tuple, dof: int) -> list:
    """camera_to_body on floats; rotation is the mount's nine row-major
    entries (CameraModel.flat_mount[0])."""
    cx, cy, cpsi = cmd
    r0, r1, _, r3, r4, _, _, _, r8 = rotation
    # linear part rotates as a vector, yaw as an axis about camera z
    lx = r0 * cx + r1 * cy
    ly = r3 * cx + r4 * cy
    wz = r8 * cpsi
    if dof == 6:
        return [lx, ly, 0.0, 0.0, 0.0, wz]
    return [lx, ly, wz]


def combined_control(
    subtask_u: np.ndarray,
    xi_u: np.ndarray,
    params: VehicleParams,
    subtask_weight: float = 1.0,
) -> np.ndarray:
    """Sum the sub-task and tether commands and saturate per axis.

    subtask_weight scales the sub-task's linear components; it implements
    the leader's task priority (full sub-task while the tag is safe, fading
    to tether-only as the tag nears the border). Callers that do not use
    priority leave it at 1, which reduces to a plain sum.
    """
    subtask_u = as_floats(subtask_u)
    xi_u = as_floats(xi_u)
    if len(subtask_u) != params.dof or len(xi_u) != params.dof:
        raise ValueError("command vectors must both match the vehicle dof")
    return np.array(combine_commands(subtask_u, xi_u, params, subtask_weight))


def combine_commands(
    subtask_u: list, xi_u: list, params: VehicleParams, subtask_weight: float = 1.0
) -> list:
    """combined_control on floats."""
    n_lin = 2 if len(subtask_u) == 3 else 3
    total = []
    for i, s in enumerate(subtask_u):
        total.append(s * subtask_weight + xi_u[i] if i < n_lin else s + xi_u[i])
    return clip_axes(total, params)


def check_connectivity(
    camera_mount_u: RigidTransform,
    tag_mount_u: RigidTransform,
    camera_mount_s: RigidTransform,
    tag_mount_s: RigidTransform,
    pose_u: Pose6,
    pose_s: Pose3,
) -> float:
    """Residual of the mounting balance that lets both tether commands
    vanish at the same relative pose.

    Rotates each robot's camera-to-tag offset into the world frame and
    returns the norm of their sum; below 1e-6 m the mounting certifies the
    coupled laws share a common equilibrium.
    """
    rot_u = rotation_body_to_world(pose_u.attitude)
    rot_s = rotation_body_to_world(pose_s.lifted().attitude)
    offset_u = camera_mount_u.translation - tag_mount_u.translation
    offset_s = camera_mount_s.translation - tag_mount_s.translation
    return float(np.linalg.norm(rot_u @ offset_u + rot_s @ offset_s))
