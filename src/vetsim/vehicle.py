"""Rigid-body dynamics for the two vehicles.

Both robots follow the same marine-craft model in body coordinates,

    M nu_dot + C(nu) nu + D(nu) nu = tau + rotated world disturbance,

with a diagonal mass matrix M, the standard skew-symmetric Coriolis matrix
built from M, and damping D(nu) = diag(d_lin) + diag(d_quad * |nu|). The
underwater robot uses the full 6-DoF form (surge, sway, heave, roll, pitch,
yaw); the surface robot uses the planar 3-DoF form (surge, sway, yaw).

Integration is semi-implicit Euler at a fixed step: the velocity update
solves (M + dt*(C + D)) nu' = M nu + dt * tau_total with C and D frozen at
the current velocity, which keeps the step passive for any non-negative
damping and stable under stiff damping; the pose then integrates with the
new velocity. Commands are velocity-valued; thrust allocation scales them
by a constant gain so the steady-state speed approximately equals the
commanded value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .frames import EulerAngles, Pose3, Pose6, euler_rate_rows, wrap_angle


class DimensionMismatch(ValueError):
    """Vector length does not match the vehicle's degree-of-freedom count."""


@dataclass(frozen=True)
class VehicleParams:
    """Diagonal model parameters; length 6 (underwater) or 3 (surface).

    mass               diagonal of M (kg, kg m^2)
    damping_linear     linear damping coefficients (N s/m, N m s/rad)
    damping_quadratic  quadratic damping coefficients
    thrust_gain        command-to-wrench diagonal gain
    velocity_bound_linear   per-component command clip and the norm bound
                            enforced on the linear body velocity (m/s)
    velocity_bound_angular  per-component command clip for angular axes (rad/s)
    """

    mass: tuple
    damping_linear: tuple
    damping_quadratic: tuple
    thrust_gain: tuple
    velocity_bound_linear: float
    velocity_bound_angular: float

    def __post_init__(self) -> None:
        n = len(self.mass)
        if n not in (3, 6):
            raise ValueError("vehicle model supports 3 or 6 degrees of freedom")
        for name in ("damping_linear", "damping_quadratic", "thrust_gain"):
            if len(getattr(self, name)) != n:
                raise ValueError(f"{name} must have {n} entries")
        if any(m <= 0 for m in self.mass):
            raise ValueError("mass entries must be positive")
        if any(d < 0 for d in self.damping_linear + self.damping_quadratic):
            raise ValueError("damping entries must be non-negative")
        if self.velocity_bound_linear <= 0 or self.velocity_bound_angular <= 0:
            raise ValueError("velocity bounds must be positive")

    @property
    def dof(self) -> int:
        return len(self.mass)


@dataclass(frozen=True)
class Disturbance:
    """Constant world-frame wrench active over a closed time window."""

    force: tuple
    torque: tuple = (0.0, 0.0, 0.0)
    t_start: float = 0.0
    t_end: float = 0.0

    def __post_init__(self) -> None:
        if len(self.force) != 3 or len(self.torque) != 3:
            raise ValueError("disturbance force and torque are 3-vectors")
        if self.t_end < self.t_start:
            raise ValueError("disturbance window must have t_end >= t_start")

    def active(self, t: float) -> bool:
        return self.t_start <= t <= self.t_end


def _check_dof(u: np.ndarray, params: VehicleParams) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.shape != (params.dof,):
        raise DimensionMismatch(
            f"expected a {params.dof}-vector, got shape {u.shape}"
        )
    return u


def as_floats(v) -> list:
    """A vector as a list of Python floats; per-tick scalar code runs several
    times faster on these than on numpy scalars."""
    if isinstance(v, np.ndarray):
        return v.tolist()
    return [float(x) for x in v]


def allocate_thrust(u: np.ndarray, params: VehicleParams) -> np.ndarray:
    """Map a command vector to a body wrench through the diagonal gain."""
    u = _check_dof(u, params)
    return np.asarray(params.thrust_gain, dtype=float) * u


def _coriolis_flat(nu: list, mass: tuple) -> list:
    """C(nu) for a diagonal mass, as a row-major list of floats."""
    if len(nu) == 3:
        mu, mv = mass[0] * nu[0], mass[1] * nu[1]
        return [0.0, 0.0, -mv, 0.0, 0.0, mu, mv, -mu, 0.0]
    # linear (a) and angular (b) momentum
    a0, a1, a2 = mass[0] * nu[0], mass[1] * nu[1], mass[2] * nu[2]
    b0, b1, b2 = mass[3] * nu[3], mass[4] * nu[4], mass[5] * nu[5]
    return [
        0.0, 0.0, 0.0, 0.0, a2, -a1,
        0.0, 0.0, 0.0, -a2, 0.0, a0,
        0.0, 0.0, 0.0, a1, -a0, 0.0,
        0.0, a2, -a1, 0.0, b2, -b1,
        -a2, 0.0, a0, -b2, 0.0, b0,
        a1, -a0, 0.0, b1, -b0, 0.0,
    ]


def coriolis_matrix(nu: np.ndarray, params: VehicleParams) -> np.ndarray:
    """Skew-symmetric Coriolis/centripetal matrix for the diagonal mass."""
    nu = _check_dof(nu, params)
    return np.array(_coriolis_flat(nu.tolist(), params.mass)).reshape(params.dof, params.dof)


def damping_force(nu: np.ndarray, params: VehicleParams) -> np.ndarray:
    """D(nu) nu with linear plus quadratic (|nu_i| nu_i) terms."""
    nu = _check_dof(nu, params)
    d_lin = np.asarray(params.damping_linear, dtype=float)
    d_quad = np.asarray(params.damping_quadratic, dtype=float)
    return (d_lin + d_quad * np.abs(nu)) * nu


def clip_axes(u: list, params: VehicleParams) -> list:
    """Clip each component of a float command to its per-axis bound."""
    lin = params.velocity_bound_linear
    ang = params.velocity_bound_angular
    n_lin = 2 if len(u) == 3 else 3
    out = []
    for i, v in enumerate(u):
        bound = lin if i < n_lin else ang
        out.append(bound if v > bound else -bound if v < -bound else v)
    return out


def saturate(u: np.ndarray, params: VehicleParams) -> np.ndarray:
    """Clip each command component to its per-axis bound."""
    u = _check_dof(u, params)
    return np.array(clip_axes(u.tolist(), params))


def clip_norm(vec: np.ndarray, bound: float) -> np.ndarray:
    """Scale a vector down so its Euclidean norm is <= bound, exactly."""
    out = np.asarray(vec, dtype=float).copy()
    norm = float(np.linalg.norm(out))
    # One rescale can land a few ulp above the bound; repeat until it holds.
    for _ in range(4):
        if norm <= bound or norm == 0.0:
            return out
        out *= bound / norm
        norm = float(np.linalg.norm(out))
    out *= 1.0 - 1e-15
    return out


# Below this fraction of the squared bound a float sum of squares proves the
# norm is within the bound, so clip_norm would return the vector unchanged.
_INSIDE_BOUND = 1.0 - 1e-12


class VehicleModel:
    """Model parameters as floats, with the integration step."""

    def __init__(self, params: VehicleParams):
        self.params = params
        self.dof = params.dof
        self._mass = tuple(float(m) for m in params.mass)
        self._d_lin = tuple(float(d) for d in params.damping_linear)
        self._d_quad = tuple(float(d) for d in params.damping_quadratic)
        self._gain = np.asarray(params.thrust_gain, dtype=float)
        self._n_lin = 2 if self.dof == 3 else 3
        self._bound = params.velocity_bound_linear
        self._inside = self._bound * self._bound * _INSIDE_BOUND

    def allocate(self, u: np.ndarray) -> np.ndarray:
        return self._gain * u

    def step(
        self,
        pose: Pose6 | Pose3,
        nu: np.ndarray,
        tau: np.ndarray,
        dt: float,
        world_force: np.ndarray | None = None,
        world_torque: np.ndarray | None = None,
    ):
        """Advance one step; returns (new_pose, new_body_velocity)."""
        if self.dof == 6:
            return self._step6(pose, nu, tau, dt, world_force, world_torque)
        return self._step3(pose, nu, tau, dt, world_force, world_torque)

    def _solve_velocity(self, nu: list, tau_total: list, dt: float) -> list:
        """Solve (M + dt*(C + D)) nu' = M nu + dt*tau and clip the linear norm."""
        mass = self._mass
        n = self.dof
        diag = [
            m + dt * (dl + dq * abs(v))
            for m, dl, dq, v in zip(mass, self._d_lin, self._d_quad, nu)
        ]
        rhs = [m * v + dt * f for m, v, f in zip(mass, nu, tau_total)]
        coriolis = _coriolis_flat(nu, mass)
        if n == 3:
            # Closed form for [[a, 0, p], [0, b, q], [-p, -q, e]], the 3-DoF
            # shape of M + dt*(C + D).
            a, b, e = diag
            p, q = dt * coriolis[2], dt * coriolis[5]
            r0, r1, r2 = rhs
            z = (r2 + p * r0 / a + q * r1 / b) / (e + p * p / a + q * q / b)
            nu_new = [(r0 - p * z) / a, (r1 - q * z) / b, z]
        else:
            matrix = [dt * c for c in coriolis]
            matrix[:: n + 1] = diag
            nu_new = np.linalg.solve(np.array(matrix).reshape(n, n), np.array(rhs)).tolist()
        n_lin = self._n_lin
        if sum([v * v for v in nu_new[:n_lin]]) > self._inside:
            nu_new[:n_lin] = clip_norm(nu_new[:n_lin], self._bound).tolist()
        return nu_new

    def _step6(self, pose: Pose6, nu, tau, dt, world_force, world_torque):
        att = pose.attitude
        (r0, r1, r2, r3, r4, r5, r6, r7, r8), (x, y, z) = pose.flat_transform
        ea, eb, ec, ed, ee, ef = euler_rate_rows(att)
        tau_total = as_floats(tau)
        # world wrenches enter through the transposed rotation
        for offset, wrench in ((0, world_force), (3, world_torque)):
            if wrench is not None:
                wx, wy, wz = as_floats(wrench)
                tau_total[offset] += r0 * wx + r3 * wy + r6 * wz
                tau_total[offset + 1] += r1 * wx + r4 * wy + r7 * wz
                tau_total[offset + 2] += r2 * wx + r5 * wy + r8 * wz
        nu_new = self._solve_velocity(as_floats(nu), tau_total, dt)
        u, v, w, p, q, r = nu_new
        new_att = EulerAngles(
            wrap_angle(att.phi + dt * (p + ea * q + eb * r)),
            wrap_angle(att.theta + dt * (ec * q + ed * r)),
            wrap_angle(att.psi + dt * (ee * q + ef * r)),
        )
        new_pose = Pose6(
            x + dt * (r0 * u + r1 * v + r2 * w),
            y + dt * (r3 * u + r4 * v + r5 * w),
            z + dt * (r6 * u + r7 * v + r8 * w),
            new_att,
        )
        return new_pose, np.array(nu_new)

    def _step3(self, pose: Pose3, nu, tau, dt, world_force, world_torque):
        # surface Jacobian [[c, -s, 0], [s, c, 0], [0, 0, 1]]
        c, s = math.cos(pose.psi), math.sin(pose.psi)
        tau_total = as_floats(tau)
        if world_force is not None:
            fx, fy = as_floats(world_force)[:2]
            tau_total[0] += c * fx + s * fy
            tau_total[1] += -s * fx + c * fy
        if world_torque is not None:
            tau_total[2] += as_floats(world_torque)[2]
        nu_new = self._solve_velocity(as_floats(nu), tau_total, dt)
        u, v, r = nu_new
        new_pose = Pose3(
            pose.x + dt * (c * u - s * v),
            pose.y + dt * (s * u + c * v),
            wrap_angle(pose.psi + dt * r),
        )
        return new_pose, np.array(nu_new)


def step(
    pose: Pose6 | Pose3,
    nu: np.ndarray,
    tau: np.ndarray,
    params: VehicleParams,
    dt: float,
    disturbance: Disturbance | None = None,
    t: float = 0.0,
):
    """One integration step; applies the disturbance if its window covers t."""
    force = torque = None
    if disturbance is not None and disturbance.active(t):
        force = np.asarray(disturbance.force, dtype=float)
        torque = np.asarray(disturbance.torque, dtype=float)
    return VehicleModel(params).step(pose, nu, tau, dt, force, torque)
