"""Frame conventions and rotation algebra shared by the whole simulator.

World frame: x/y horizontal, z up. Body frames coincide with the world frame
at zero attitude. Attitude is yaw-pitch-roll (ZYX): rotate psi about world z,
then theta about the intermediate y, then phi about the body x. All angles are
radians; normalised angles live in (-pi, pi].

A pose is a float tuple: (x, y, z, phi, theta, psi) for the underwater robot,
(x, y, psi) for the surface robot, which sits level at z = 0. A transform is
flat: (nine row-major rotation floats, (x, y, z)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

TWO_PI = 2.0 * math.pi

# Pitch guard for the Euler-rate transform: 1/cos(theta) stays below ~1e3.
GIMBAL_GUARD = 1e-3


class GimbalSingularity(ValueError):
    """Pitch magnitude too close to pi/2 for the Euler-rate transform."""


def wrap_angle(angle: float) -> float:
    """Normalise an angle to (-pi, pi]; the -pi boundary maps to +pi."""
    return math.pi - (math.pi - angle) % TWO_PI


def projected_distance(pose_u: tuple, pose_s: tuple) -> float:
    """Horizontal separation in metres between two pose tuples, each led by
    its x and y."""
    return math.hypot(pose_u[0] - pose_s[0], pose_u[1] - pose_s[1])


def flat_transform(pose: tuple) -> tuple:
    """Body-to-world flat transform of a pose tuple of either robot."""
    if len(pose) == 3:
        x, y, psi = pose
        c, s = math.cos(psi), math.sin(psi)
        return (c, -s, 0.0, s, c, 0.0, 0.0, 0.0, 1.0), (x, y, 0.0)
    x, y, z, phi, theta, psi = pose
    return rotation_zyx(phi, theta, psi), (x, y, z)


def rotation_zyx(phi: float, theta: float, psi: float) -> tuple:
    """ZYX body-to-world rotation as nine row-major floats."""
    cphi, sphi = math.cos(phi), math.sin(phi)
    cth, sth = math.cos(theta), math.sin(theta)
    cpsi, spsi = math.cos(psi), math.sin(psi)
    return (
        cpsi * cth, -spsi * cphi + cpsi * sth * sphi, cpsi * sth * cphi + spsi * sphi,
        spsi * cth, cpsi * cphi + spsi * sth * sphi, -cpsi * sphi + spsi * sth * cphi,
        -sth, cth * sphi, cth * cphi,
    )


def euler_rate_rows(phi: float, theta: float) -> tuple:
    """The six non-constant entries (a, b, c, d, e, f) of the Euler-rate map

        [[1, a, b], [0, c, d], [0, e, f]]

    that takes body angular velocity to Euler-angle rates.

    Raises GimbalSingularity when |theta| >= pi/2 - 1e-3, where the inverse
    does not exist (1/cos(theta) blows up).
    """
    if abs(theta) >= math.pi / 2.0 - GIMBAL_GUARD:
        raise GimbalSingularity(f"pitch {theta:.6f} rad is inside the gimbal guard band")
    cphi, sphi = math.cos(phi), math.sin(phi)
    cth = math.cos(theta)
    tth = math.tan(theta)
    return (sphi * tth, cphi * tth, cphi, -sphi, sphi / cth, cphi / cth)


def rotate(rotation: tuple, vector) -> tuple:
    """A 3-vector rotated by nine row-major rotation floats."""
    r0, r1, r2, r3, r4, r5, r6, r7, r8 = rotation
    x, y, z = vector
    return (r0 * x + r1 * y + r2 * z, r3 * x + r4 * y + r5 * z, r6 * x + r7 * y + r8 * z)


def compose(a: tuple, b: tuple) -> tuple:
    """Flat transform equivalent to applying b first, then a."""
    (rot_a, (ax, ay, az)), (rot_b, pos_b) = a, b
    columns = [rotate(rot_a, rot_b[j::3]) for j in range(3)]
    x, y, z = rotate(rot_a, pos_b)
    return tuple(v for row in zip(*columns) for v in row), (x + ax, y + ay, z + az)


def invert(t: tuple) -> tuple:
    """Inverse of a flat transform: the transposed rotation, and the
    translation rotated back and negated."""
    rot, pos = t
    back = rot[0::3] + rot[1::3] + rot[2::3]
    x, y, z = rotate(back, pos)
    return back, (-x, -y, -z)


def pose_from_transform(t: tuple) -> tuple:
    """The pose tuple (x, y, z, phi, theta, psi) of a flat body-to-world
    transform, with the ZYX angles recovered from its rotation."""
    (r0, _, _, r3, _, _, r6, r7, r8), (x, y, z) = t
    theta = -math.asin(min(1.0, max(-1.0, r6)))
    return (x, y, z, math.atan2(r7, r8), theta, math.atan2(r3, r0))


_ORTHONORMAL_TOL = 1e-9


@dataclass(frozen=True)
class RigidTransform:
    """A camera or tag mount: the rotation (three rows) and translation that
    map mount coordinates into body coordinates. It is checked once, when
    built; the simulation reads its flat form."""

    rotation: tuple[tuple[float, ...], ...]
    translation: tuple[float, ...]

    def __post_init__(self) -> None:
        rows = self.rotation
        if len(rows) != 3 or any(len(row) != 3 for row in rows) or len(self.translation) != 3:
            raise ValueError("rigid transform needs a 3x3 rotation and 3-vector")
        rot = self.flat[0]
        # checked first so that NaN or huge entries never reach the product
        if not all(abs(v) <= 1.0 + _ORTHONORMAL_TOL for v in rot):
            raise ValueError("rotation entries must lie in [-1, 1]")
        gram = [rotate(rot, row) for row in rows]
        err = max(abs(gram[i][j] - (i == j)) for i in range(3) for j in range(3))
        (a, b, c), (d, e, f), (g, h, i) = rows
        det = a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)
        if err > _ORTHONORMAL_TOL or abs(det - 1.0) > _ORTHONORMAL_TOL:
            raise ValueError(
                f"rotation is not orthonormal within tolerance (err={err:.3e}, det={det:.12f})"
            )

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), (0.0, 0.0, 0.0))

    @cached_property
    def flat(self) -> tuple:
        """(nine row-major rotation floats, three translation floats), made once."""
        return tuple(v for row in self.rotation for v in row), tuple(self.translation)
