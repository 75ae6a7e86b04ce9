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
new velocity. C(nu) is never formed: for a diagonal M it is made of the
linear momentum a = M1 v and the angular momentum b = M2 w alone, so each
update reads the momenta directly. In 6-DoF the linear block of the matrix
is diagonal and is eliminated; in 3-DoF the system has a closed form.

Commands are velocity-valued. A step takes a robot's sub-task and tether
commands as they are logged and allocates thrust in its own body: it sums
them, clips the sum per axis and scales it by a constant gain, so the
steady-state speed approximately equals the commanded value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .frames import TWO_PI


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


def clip_norm(v: list, bound: float) -> list:
    """Scale a float vector down so its Euclidean norm is <= bound, exactly.

    math.hypot does not overflow where the sum of squares would, so huge
    components still land on the bound instead of collapsing to zero, even
    where their norm overflows. An infinite component makes the vector NaN.
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
        scale = bound / norm
        v = [x * scale for x in v]
        norm = math.hypot(*v)
        if norm <= bound:
            return v
    return [x * (1.0 - 1e-15) for x in v]  # a NaN norm never holds


# Below this fraction of the squared bound a float sum of squares proves the
# norm is within the bound, so clip_norm would return the vector unchanged.
_INSIDE_BOUND = 1.0 - 1e-12


class VehicleModel:
    """Model parameters as floats, with the integration step."""

    def __init__(self, params: VehicleParams):
        self.dof = params.dof
        self._mass = tuple(float(m) for m in params.mass)
        self._d_lin = tuple(float(d) for d in params.damping_linear)
        self._d_quad = tuple(float(d) for d in params.damping_quadratic)
        self._gain = tuple(float(g) for g in params.thrust_gain)
        self._axis_bounds = params.axis_bounds
        self._bound = params.velocity_bound_linear
        self._inside = self._bound * self._bound * _INSIDE_BOUND

    def step(self, pose, nu, u_sub, u_xi, dt, rotation, rates=None, wrench=None):
        """Advance one step from a pose tuple, (x, y, z, phi, theta, psi) or
        (x, y, psi), under the sub-task and tether commands u_sub and u_xi.
        rotation is the pose's nine body-to-world floats
        (frames.flat_transform) and, under water, rates its euler_rate_rows:
        the tick computes both once. nu, u_sub and u_xi are float sequences
        dof long; wrench, read under water only, is None or a world (force,
        torque) pair of 3-sequences. Returns (new pose tuple, new velocity
        list). The body wrench is the two commands' sum, clipped per axis to
        the axis bounds and scaled by the diagonal gain; a NaN sum passes the
        clip unchanged. Each model's body is written out in full, that
        allocation, the velocity solve, the norm bound on the linear velocity
        and the angle wraps (frames.wrap_angle's expression) included, so a
        step calls no Python function but clip_norm, and that only on a
        velocity past the bound."""
        if self.dof == 6:
            x, y, z, phi, theta, psi = pose
            r0, r1, r2, r3, r4, r5, r6, r7, r8 = rotation
            ea, eb, ec, ed, ee, ef = rates
            # the body wrench; the solve below binds s0-s5 and b0-b2 anew
            (g0, g1, g2, g3, g4, g5), (b0, b1, b2, b3, b4, b5) = self._gain, self._axis_bounds
            (s0, s1, s2, s3, s4, s5), (x0, x1, x2, x3, x4, x5) = u_sub, u_xi
            f0 = g0 * (b0 if (v := s0 + x0) > b0 else -b0 if v < -b0 else v)
            f1 = g1 * (b1 if (v := s1 + x1) > b1 else -b1 if v < -b1 else v)
            f2 = g2 * (b2 if (v := s2 + x2) > b2 else -b2 if v < -b2 else v)
            f3 = g3 * (b3 if (v := s3 + x3) > b3 else -b3 if v < -b3 else v)
            f4 = g4 * (b4 if (v := s4 + x4) > b4 else -b4 if v < -b4 else v)
            f5 = g5 * (b5 if (v := s5 + x5) > b5 else -b5 if v < -b5 else v)
            # a world wrench enters through the transposed rotation
            if wrench is not None:
                (wx, wy, wz), (tx, ty, tz) = wrench
                f0 += r0 * wx + r3 * wy + r6 * wz
                f1 += r1 * wx + r4 * wy + r7 * wz
                f2 += r2 * wx + r5 * wy + r8 * wz
                f3 += r0 * tx + r3 * ty + r6 * tz
                f4 += r1 * tx + r4 * ty + r7 * tz
                f5 += r2 * tx + r5 * ty + r8 * tz
            # Solve (M + dt*(C + D)) nu' = M nu + dt*tau in closed form. C(nu)
            # is written on the linear momentum a = M1 v and the angular
            # momentum b = M2 w: its lin-lin block is zero, its lin-ang and
            # ang-lin blocks are both -S(a) and its ang-ang block is -S(b),
            # with S(x) @ y the cross product x X y. So the linear block of
            # the matrix is diagonal: eliminate it and solve the angular 3x3
            # Schur complement by cofactors. Only C's structural zeros are
            # left out of the sums.
            m0, m1, m2, m3, m4, m5 = self._mass
            l0, l1, l2, l3, l4, l5 = self._d_lin
            n0, n1, n2, n3, n4, n5 = self._d_quad
            u, v, w, p, q, r = nu
            a0, a1, a2 = m0 * u, m1 * v, m2 * w
            b0, b1, b2 = m3 * p, m4 * q, m5 * r
            # the diagonal of M + dt*D, and the right-hand side
            i0 = 1.0 / (m0 + dt * (l0 + n0 * abs(u)))
            i1 = 1.0 / (m1 + dt * (l1 + n1 * abs(v)))
            i2 = 1.0 / (m2 + dt * (l2 + n2 * abs(w)))
            d3 = m3 + dt * (l3 + n3 * abs(p))
            d4 = m4 + dt * (l4 + n4 * abs(q))
            d5 = m5 + dt * (l5 + n5 * abs(r))
            h0, h1, h2 = a0 + dt * f0, a1 + dt * f1, a2 + dt * f2
            h3, h4, h5 = b0 + dt * f3, b1 + dt * f4, b2 + dt * f5
            # B = dt*C[lin, ang] = -dt*S(a), and K = dt*C[ang, lin] (the same
            # entries) scaled by the inverse linear diagonal
            c01, c02, c12 = dt * a2, dt * -a1, dt * a0
            c10, c20, c21 = -c01, -c02, -c12
            k01, k02, k12 = c01 * i1, c02 * i2, c12 * i2
            k10, k20, k21 = c10 * i0, c20 * i0, c21 * i1
            # S = diag(ang) + dt*C[ang, ang] - K B, with dt*C[ang, ang] = -dt*S(b)
            g01, g02, g12 = dt * b2, dt * -b1, dt * b0
            s0 = d3 - (k01 * c10 + k02 * c20)
            s1 = g01 - k02 * c21
            s2 = g02 - k01 * c12
            s3 = -g01 - k12 * c20
            s4 = d4 - (k10 * c01 + k12 * c21)
            s5 = g12 - k10 * c02
            s6 = -g02 - k21 * c10
            s7 = -g12 - k20 * c01
            s8 = d5 - (k20 * c02 + k21 * c12)
            q0 = h3 - (k01 * h1 + k02 * h2)
            q1 = h4 - (k10 * h0 + k12 * h2)
            q2 = h5 - (k20 * h0 + k21 * h1)
            a00, a01, a02 = s4 * s8 - s5 * s7, s2 * s7 - s1 * s8, s1 * s5 - s2 * s4
            a10, a11, a12 = s5 * s6 - s3 * s8, s0 * s8 - s2 * s6, s2 * s3 - s0 * s5
            a20, a21, a22 = s3 * s7 - s4 * s6, s1 * s6 - s0 * s7, s0 * s4 - s1 * s3
            inv_det = 1.0 / (s0 * a00 + s1 * a10 + s2 * a20)
            p = (a00 * q0 + a01 * q1 + a02 * q2) * inv_det
            q = (a10 * q0 + a11 * q1 + a12 * q2) * inv_det
            r = (a20 * q0 + a21 * q1 + a22 * q2) * inv_det
            u = (h0 - (c01 * q + c02 * r)) * i0
            v = (h1 - (c10 * p + c12 * r)) * i1
            w = (h2 - (c20 * p + c21 * q)) * i2
            if u * u + v * v + w * w > self._inside:
                u, v, w = clip_norm([u, v, w], self._bound)
            new_pose = (
                x + dt * (r0 * u + r1 * v + r2 * w),
                y + dt * (r3 * u + r4 * v + r5 * w),
                z + dt * (r6 * u + r7 * v + r8 * w),
                math.pi - (math.pi - (phi + dt * (p + ea * q + eb * r))) % TWO_PI,
                math.pi - (math.pi - (theta + dt * (ec * q + ed * r))) % TWO_PI,
                math.pi - (math.pi - (psi + dt * (ee * q + ef * r))) % TWO_PI,
            )
            return new_pose, [u, v, w, p, q, r]
        x, y, psi = pose
        # surface Jacobian [[c, -s, 0], [s, c, 0], [0, 0, 1]]
        c, s = rotation[0], rotation[3]
        (g0, g1, g2), (b0, b1, b2) = self._gain, self._axis_bounds
        (s0, s1, s2), (x0, x1, x2) = u_sub, u_xi
        f0 = g0 * (b0 if (v := s0 + x0) > b0 else -b0 if v < -b0 else v)
        f1 = g1 * (b1 if (v := s1 + x1) > b1 else -b1 if v < -b1 else v)
        f2 = g2 * (b2 if (v := s2 + x2) > b2 else -b2 if v < -b2 else v)
        m0, m1, m2 = self._mass
        dl0, dl1, dl2 = self._d_lin
        dq0, dq1, dq2 = self._d_quad
        u, v, r = nu
        mu, mv = m0 * u, m1 * v
        # Closed form for [[a, 0, p], [0, b, q], [-p, -q, e]], the 3-DoF
        # shape of M + dt*(C + D); C's two entries are the momenta -mv, mu.
        a = m0 + dt * (dl0 + dq0 * abs(u))
        b = m1 + dt * (dl1 + dq1 * abs(v))
        e = m2 + dt * (dl2 + dq2 * abs(r))
        p, q = dt * -mv, dt * mu
        r0, r1, r2 = mu + dt * f0, mv + dt * f1, m2 * r + dt * f2
        r = (r2 + p * r0 / a + q * r1 / b) / (e + p * p / a + q * q / b)
        u, v = (r0 - p * r) / a, (r1 - q * r) / b
        if u * u + v * v > self._inside:
            u, v = clip_norm([u, v], self._bound)
        new_pose = (
            x + dt * (c * u - s * v), y + dt * (s * u + c * v),
            math.pi - (math.pi - (psi + dt * r)) % TWO_PI,
        )
        return new_pose, [u, v, r]
