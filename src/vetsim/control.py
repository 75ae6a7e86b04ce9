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
from functools import cached_property
from typing import NamedTuple

from .frames import TWO_PI, flat_transform, rotate


@dataclass(frozen=True)
class PdGains:
    """PD gains on a robot's three sub-task axes: (z, phi, theta) or (x, y, psi)."""

    kp: tuple[float, ...]
    kd: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.kp) != 3 or len(self.kd) != 3:
            raise ValueError("kp and kd are per-axis vectors of length 3")

    @cached_property
    def flat(self) -> tuple:
        """(kp, kd), made once: the form the tick reads."""
        return self.kp, self.kd


def uniform_pd(kp: float, kd: float) -> PdGains:
    """The same PD gains on all three axes."""
    return PdGains((kp, kp, kp), (kd, kd, kd))


class DepthAttitudeState(NamedTuple):
    """The underwater robot's own sensed state: depth and attitude only.

    This is everything its controller is allowed to know beyond its camera;
    there is no channel carrying the surface robot's pose. The class names
    the layout: a tick measures it as a plain 6-tuple in this field order.
    """

    z: float
    phi: float
    theta: float
    dz: float
    dphi: float
    dtheta: float


def subtask_control_underwater(measured: DepthAttitudeState, target: tuple, gains: tuple) -> list:
    """PD on depth, roll and pitch of measured, any 6-sequence in
    DepthAttitudeState's field order, toward target (z, phi, theta), gains the
    PdGains.flat in that order; the x, y and yaw outputs are exactly zero: no
    sub-task drives them. The angle errors are wrapped by frames.wrap_angle's
    expression, written out."""
    (kp0, kp1, kp2), (kd0, kd1, kd2) = gains
    z, phi, theta, dz, dphi, dtheta = measured
    z_d, phi_d, theta_d = target
    uz = kp0 * (z_d - z) + kd0 * -dz
    uphi = kp1 * (math.pi - (math.pi - (phi_d - phi)) % TWO_PI) + kd1 * -dphi
    utheta = kp2 * (math.pi - (math.pi - (theta_d - theta)) % TWO_PI) + kd2 * -dtheta
    return [0.0, 0.0, uz, uphi, utheta, 0.0]


def subtask_control_surface(
    pose: tuple,
    rotation: tuple,
    nu,
    target: tuple,
    gains: tuple,
    speed_limit: float | None,
) -> list:
    """Planar PD toward the waypoint target (x, y, psi), expressed in the body
    frame.

    pose is (x, y, psi), rotation its nine body-to-world floats
    (frames.flat_transform) and nu the body velocity (u, v, r). The position
    error and the damping on the world-frame velocity are formed in the
    world frame and rotated into the body frame (commands are body-frame
    velocity-valued); gains are the 3-axis PdGains.flat, and the yaw error
    is wrapped by frames.wrap_angle's expression, written out. A speed_limit
    not None clips ux, uy.
    """
    (kp0, kp1, kp2), (kd0, kd1, kd2) = gains
    x, y, psi = pose
    x_d, y_d, psi_d = target
    c, s = rotation[0], rotation[3]
    u, v, r = nu
    ux_w = kp0 * (x_d - x) - kd0 * (c * u - s * v)
    uy_w = kp1 * (y_d - y) - kd1 * (s * u + c * v)
    ux = c * ux_w + s * uy_w
    uy = -s * ux_w + c * uy_w
    upsi = kp2 * (math.pi - (math.pi - (psi_d - psi)) % TWO_PI) - kd2 * r
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

    @cached_property
    def flat(self) -> tuple:
        """The nine fields in declaration order, made once: the form the tick
        reads."""
        return (self.k_safe_p, self.k_elastic_p, self.k_elastic_d, self.k_psi,
                self.u_max_x, self.u_max_y, self.yield_fraction, self.hold_half_life,
                self.rate_time_constant)


VET_START = (None, None, (0.0, 0.0), (0.0, 0.0, 0.0), 1.0)
"""The tether law's state before its first tick, in vet_law's layout."""


def vet_law(obs: tuple, yaw: float, t: float, state: tuple, gains: tuple, cam: tuple) -> tuple:
    """One tick of the elastic tether law at time t.

    obs is the camera's observation of the tag (perception.observe, or
    perception.UNSEEN when it is not detected) and yaw the relative yaw from
    project_tag; gains is VetGains.flat, and cam the CameraModel.flat whose
    half-extents only normalise the centre rate. state is the law's
    memory, the plain tuple (last_center, last_time, rate, held_command,
    held_weight): the centre seen on the last tick (None if it was not
    detected) and that tick's time, the low-passed centre rate (rx, ry), and
    the last command and weight; VET_START is the state before the first
    tick. Returns ((u_x, u_y, u_psi), subtask weight, new state): the
    camera-frame command, and the leader-side fade factor derived from obs's
    penetration (1 in safe, ramping to 0 inside the elastic band), which
    followers ignore.

    Detected: command from the region law on obs's error, clipped per axis
    to u_max. Undetected: the held command decays with the configured
    half-life, reaching ~6% within two seconds at the default, and the
    weight relaxes back toward 1 at the same rate.
    """
    center, error, region, penetration, _ = obs
    last_center, last_time, (rx, ry), held_command, held_weight = state
    (k_safe_p, k_elastic_p, k_elastic_d, k_psi, bx, by, yield_fraction, hold_half_life,
     rate_time_constant) = gains
    if center is None:
        if last_time is None:
            factor = 0.0
        else:
            dt = max(t - last_time, 0.0)
            factor = 0.5 ** (dt / hold_half_life)
        hx, hy, hpsi = held_command
        held = (hx * factor, hy * factor, hpsi * factor)
        weight = 1.0 - (1.0 - held_weight) * factor
        return held, weight, (None, t, (0.0, 0.0), held, weight)

    ex, ey = error
    if last_center is not None:
        dt = t - last_time
        if dt > 0.0:
            _, _, _, _, half_w, half_v = cam
            raw_x = (center[0] - last_center[0]) / half_w / dt
            raw_y = (center[1] - last_center[1]) / half_v / dt
            alpha = dt / (rate_time_constant + dt)
            rx = rx + alpha * (raw_x - rx)
            ry = ry + alpha * (raw_y - ry)
    else:
        rx = ry = 0.0

    if region == "safe":
        ux = k_safe_p * ex
        uy = k_safe_p * ey
    elif region == "elastic":
        ux = k_elastic_p * ex + k_elastic_d * rx
        uy = k_elastic_p * ey + k_elastic_d * ry
    else:
        norm = math.sqrt(ex * ex + ey * ey)
        if norm > 1e-12:
            ux = bx * (ex / norm)
            uy = by * (ey / norm)
        else:
            ux = uy = 0.0
    # clipped as the vehicle steps clip a command: a NaN and -0.0 pass unchanged
    command = (
        bx if ux > bx else -bx if ux < -bx else ux,
        by if uy > by else -by if uy < -by else uy,
        k_psi * yaw,
    )

    w = 1.0 - penetration / yield_fraction
    weight = 1.0 if w > 1.0 else 0.0 if w < 0.0 else w
    return command, weight, (center, t, (rx, ry), command, weight)


def baseline_ibvs(obs: tuple, yaw: float, gains: tuple) -> tuple:
    """One-way visual servo: the follower's camera-frame command
    (u_x, u_y, u_psi). The leader gets no tether input in this mode.

    obs, yaw and gains (VetGains.flat) as in vet_law. Uniform proportional
    gain on obs's error over the whole image, no region logic, no derivative
    term; detection loss commands zero immediately.
    """
    center, error, _, _, _ = obs
    if center is None:
        return (0.0, 0.0, 0.0)
    ex, ey = error
    _, k_elastic_p, _, k_psi, bx, by, _, _, _ = gains
    ux, uy = k_elastic_p * ex, k_elastic_p * ey
    return (
        bx if ux > bx else -bx if ux < -bx else ux,
        by if uy > by else -by if uy < -by else uy,
        k_psi * yaw,
    )


def camera_to_body(cmd, rotation: tuple, dof: int) -> list:
    """Map a camera-frame command (u_x, u_y, u_psi) into body-frame axes.

    rotation is the camera mount's nine row-major entries
    (CameraModel.mount.flat[0]) and dof is 3 or 6. The linear part rotates
    as a vector and keeps only the surge/sway components; the yaw part
    rotates as an axis and keeps only the body-z component. The heave, roll
    and pitch rows are structurally zero: those axes belong to the sub-task
    controller.
    """
    cx, cy, cpsi = cmd
    r0, r1, _, r3, r4, _, _, _, r8 = rotation
    # linear part rotates as a vector, yaw as an axis about camera z
    lx = r0 * cx + r1 * cy
    ly = r3 * cx + r4 * cy
    wz = r8 * cpsi
    if dof == 6:
        return [lx, ly, 0.0, 0.0, 0.0, wz]
    return [lx, ly, wz]


def check_connectivity(
    camera_mount_u: tuple,
    tag_mount_u: tuple,
    camera_mount_s: tuple,
    tag_mount_s: tuple,
    pose_u: tuple,
    pose_s: tuple,
) -> float:
    """Residual of the mounting balance that lets both tether commands
    vanish at the same relative pose.

    The mounts are flat transforms (RigidTransform.flat) and the poses are
    pose tuples. Rotates each robot's camera-to-tag offset into the world
    frame and returns the norm of their sum; below 1e-6 m the mounting
    certifies the coupled laws share a common equilibrium.
    """
    offset_u = [c - t for c, t in zip(camera_mount_u[1], tag_mount_u[1])]
    offset_s = [c - t for c, t in zip(camera_mount_s[1], tag_mount_s[1])]
    world_u = rotate(flat_transform(pose_u)[0], offset_u)
    world_s = rotate(flat_transform(pose_s)[0], offset_s)
    return math.hypot(*(a + b for a, b in zip(world_u, world_s)))
