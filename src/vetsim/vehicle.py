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
from functools import cached_property

import numpy as np

from .frames import EulerAngles, Pose3, Pose6, euler_rate_rows, wrap_angle


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

    mass: tuple[float, ...]
    damping_linear: tuple[float, ...]
    damping_quadratic: tuple[float, ...]
    thrust_gain: tuple[float, ...]
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

    @cached_property
    def axis_bounds(self) -> tuple:
        """Per-axis command bound: linear on surge, sway (and heave under
        water), angular on the rotational axes."""
        n_lin = 2 if self.dof == 3 else 3
        return ((self.velocity_bound_linear,) * n_lin
                + (self.velocity_bound_angular,) * (self.dof - n_lin))


@dataclass(frozen=True)
class Disturbance:
    """Constant world-frame wrench active over a closed time window."""

    force: tuple[float, ...]
    torque: tuple[float, ...] = (0.0, 0.0, 0.0)
    t_start: float = 0.0
    t_end: float = 0.0

    def __post_init__(self) -> None:
        if len(self.force) != 3 or len(self.torque) != 3:
            raise ValueError("disturbance force and torque are 3-vectors")
        if self.t_end < self.t_start:
            raise ValueError("disturbance window must have t_end >= t_start")

    def active(self, t):
        """Whether the window covers time t, elementwise for an array of times."""
        return (self.t_start <= t) & (t <= self.t_end)


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


def coriolis_matrix(nu, params: VehicleParams) -> np.ndarray:
    """Skew-symmetric Coriolis/centripetal matrix for the diagonal mass."""
    nu = [float(v) for v in nu]
    return np.array(_coriolis_flat(nu, params.mass)).reshape(params.dof, params.dof)


def saturate(u, params: VehicleParams) -> list:
    """Clip each component of a float command to its per-axis bound."""
    return [b if v > b else -b if v < -b else v for v, b in zip(u, params.axis_bounds)]


def clip_norm(v: list, bound: float) -> list:
    """Scale a float vector down so its Euclidean norm is <= bound, exactly.

    math.hypot does not overflow where the sum of squares would, so huge
    components still land on the bound instead of collapsing to zero.
    """
    norm = math.hypot(*v)
    if norm <= bound or norm == 0.0:
        return v
    if norm == math.inf:  # the norm itself overflows: rescale first
        largest = max(abs(x) for x in v)
        v = [x / largest for x in v]
        norm = math.hypot(*v)
    # One rescale can land a few ulp above the bound; repeat until it holds.
    for _ in range(4):
        if norm <= bound:
            return v
        scale = bound / norm
        v = [x * scale for x in v]
        norm = math.hypot(*v)
    return [x * (1.0 - 1e-15) for x in v]


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
        self._gain = tuple(float(g) for g in params.thrust_gain)
        self._n_lin = 2 if self.dof == 3 else 3
        self._bound = params.velocity_bound_linear
        self._inside = self._bound * self._bound * _INSIDE_BOUND

    def allocate(self, u: list) -> list:
        """Body wrench for a float command, through the diagonal gain."""
        return [g * v for g, v in zip(self._gain, u)]

    def step(self, pose, nu, tau, dt, world_force=None, world_torque=None):
        """Advance one step. nu, tau and the optional world-frame force and
        torque are float sequences; returns (new_pose, new velocity list)."""
        if self.dof == 6:
            return self._advance6(pose, nu, tau, dt, world_force, world_torque)
        return self._advance3(pose, nu, tau, dt, world_force, world_torque)

    def _solve_velocity(self, nu, tau_total, dt: float) -> list:
        """Solve (M + dt*(C + D)) nu' = M nu + dt*tau and clip the linear norm."""
        mass = self._mass
        d_lin, d_quad = self._d_lin, self._d_quad
        diag = []
        rhs = []
        for i, v in enumerate(nu):
            diag.append(mass[i] + dt * (d_lin[i] + d_quad[i] * abs(v)))
            rhs.append(mass[i] * v + dt * tau_total[i])
        c = _coriolis_flat(nu, mass)
        if self.dof == 3:
            # Closed form for [[a, 0, p], [0, b, q], [-p, -q, e]], the 3-DoF
            # shape of M + dt*(C + D).
            a, b, e = diag
            p, q = dt * c[2], dt * c[5]
            r0, r1, r2 = rhs
            z = (r2 + p * r0 / a + q * r1 / b) / (e + p * p / a + q * q / b)
            nu_new = [(r0 - p * z) / a, (r1 - q * z) / b, z]
        else:
            nu_new = _solve_schur6(diag, c, rhs, dt)
        n_lin = self._n_lin
        squares = nu_new[0] * nu_new[0] + nu_new[1] * nu_new[1]
        if n_lin == 3:
            squares += nu_new[2] * nu_new[2]
        if squares > self._inside:
            nu_new[:n_lin] = clip_norm(nu_new[:n_lin], self._bound)
        return nu_new

    def _advance6(self, pose: Pose6, nu, tau, dt, world_force, world_torque):
        att = pose.attitude
        (r0, r1, r2, r3, r4, r5, r6, r7, r8), (x, y, z) = pose.flat_transform
        ea, eb, ec, ed, ee, ef = euler_rate_rows(att)
        f0, f1, f2, f3, f4, f5 = tau
        # world wrenches enter through the transposed rotation
        if world_force is not None:
            wx, wy, wz = world_force
            f0 += r0 * wx + r3 * wy + r6 * wz
            f1 += r1 * wx + r4 * wy + r7 * wz
            f2 += r2 * wx + r5 * wy + r8 * wz
        if world_torque is not None:
            wx, wy, wz = world_torque
            f3 += r0 * wx + r3 * wy + r6 * wz
            f4 += r1 * wx + r4 * wy + r7 * wz
            f5 += r2 * wx + r5 * wy + r8 * wz
        nu_new = self._solve_velocity(nu, (f0, f1, f2, f3, f4, f5), dt)
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
        return new_pose, nu_new

    def _advance3(self, pose: Pose3, nu, tau, dt, world_force, world_torque):
        # surface Jacobian [[c, -s, 0], [s, c, 0], [0, 0, 1]]
        c, s = math.cos(pose.psi), math.sin(pose.psi)
        f0, f1, f2 = tau
        if world_force is not None:
            fx, fy = world_force[0], world_force[1]
            f0 += c * fx + s * fy
            f1 += -s * fx + c * fy
        if world_torque is not None:
            f2 += world_torque[2]
        nu_new = self._solve_velocity(nu, (f0, f1, f2), dt)
        u, v, r = nu_new
        new_pose = Pose3(
            pose.x + dt * (c * u - s * v),
            pose.y + dt * (s * u + c * v),
            wrap_angle(pose.psi + dt * r),
        )
        return new_pose, nu_new


def _solve_schur6(diag: list, c: list, rhs: list, dt: float) -> list:
    """Solve the 6-DoF (M + dt*(C + D)) nu' = rhs in closed form.

    diag is the diagonal of M + dt*D and c the row-major C(nu). The linear
    3x3 block of C is zero, so the linear block of the matrix is diagonal:
    eliminate it and solve the angular 3x3 Schur complement by cofactors.
    """
    i0, i1, i2 = 1.0 / diag[0], 1.0 / diag[1], 1.0 / diag[2]
    # B = dt*C[lin, ang] and K = dt*C[ang, lin] (K scaled by the inverse
    # linear diagonal)
    b00, b01, b02 = dt * c[3], dt * c[4], dt * c[5]
    b10, b11, b12 = dt * c[9], dt * c[10], dt * c[11]
    b20, b21, b22 = dt * c[15], dt * c[16], dt * c[17]
    k00, k01, k02 = dt * c[18] * i0, dt * c[19] * i1, dt * c[20] * i2
    k10, k11, k12 = dt * c[24] * i0, dt * c[25] * i1, dt * c[26] * i2
    k20, k21, k22 = dt * c[30] * i0, dt * c[31] * i1, dt * c[32] * i2
    # S = diag(ang) + dt*C[ang, ang] - K B
    s0 = diag[3] + dt * c[21] - (k00 * b00 + k01 * b10 + k02 * b20)
    s1 = dt * c[22] - (k00 * b01 + k01 * b11 + k02 * b21)
    s2 = dt * c[23] - (k00 * b02 + k01 * b12 + k02 * b22)
    s3 = dt * c[27] - (k10 * b00 + k11 * b10 + k12 * b20)
    s4 = diag[4] + dt * c[28] - (k10 * b01 + k11 * b11 + k12 * b21)
    s5 = dt * c[29] - (k10 * b02 + k11 * b12 + k12 * b22)
    s6 = dt * c[33] - (k20 * b00 + k21 * b10 + k22 * b20)
    s7 = dt * c[34] - (k20 * b01 + k21 * b11 + k22 * b21)
    s8 = diag[5] + dt * c[35] - (k20 * b02 + k21 * b12 + k22 * b22)
    r0, r1, r2, r3, r4, r5 = rhs
    q0 = r3 - (k00 * r0 + k01 * r1 + k02 * r2)
    q1 = r4 - (k10 * r0 + k11 * r1 + k12 * r2)
    q2 = r5 - (k20 * r0 + k21 * r1 + k22 * r2)
    a00, a01, a02 = s4 * s8 - s5 * s7, s2 * s7 - s1 * s8, s1 * s5 - s2 * s4
    a10, a11, a12 = s5 * s6 - s3 * s8, s0 * s8 - s2 * s6, s2 * s3 - s0 * s5
    a20, a21, a22 = s3 * s7 - s4 * s6, s1 * s6 - s0 * s7, s0 * s4 - s1 * s3
    inv_det = 1.0 / (s0 * a00 + s1 * a10 + s2 * a20)
    y0 = (a00 * q0 + a01 * q1 + a02 * q2) * inv_det
    y1 = (a10 * q0 + a11 * q1 + a12 * q2) * inv_det
    y2 = (a20 * q0 + a21 * q1 + a22 * q2) * inv_det
    return [
        (r0 - (b00 * y0 + b01 * y1 + b02 * y2)) * i0,
        (r1 - (b10 * y0 + b11 * y1 + b12 * y2)) * i1,
        (r2 - (b20 * y0 + b21 * y1 + b22 * y2)) * i2,
        y0,
        y1,
        y2,
    ]
