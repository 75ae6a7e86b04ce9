"""Frame conventions and rotation algebra shared by the whole simulator.

World frame: x/y horizontal, z up. Body frames coincide with the world frame
at zero attitude. Attitude is yaw-pitch-roll (ZYX): rotate psi about world z,
then theta about the intermediate y, then phi about the body x. All angles are
radians; normalised angles live in (-pi, pi].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# Pitch guard for the Euler-rate transform: 1/cos(theta) stays below ~1e3.
GIMBAL_GUARD = 1e-3


class GimbalSingularity(ValueError):
    """Pitch magnitude too close to pi/2 for the Euler-rate transform."""


def wrap_angle(angle: float) -> float:
    """Normalise an angle to (-pi, pi]; the -pi boundary maps to +pi."""
    return math.pi - (math.pi - angle) % TWO_PI


@dataclass(frozen=True)
class EulerAngles:
    """Roll (phi), pitch (theta), yaw (psi) in radians."""

    phi: float
    theta: float
    psi: float


@dataclass(frozen=True)
class Pose6:
    """Full pose of the underwater robot: world position plus attitude."""

    x: float
    y: float
    z: float
    attitude: EulerAngles

    def as_tuple(self) -> tuple:
        a = self.attitude
        return (self.x, self.y, self.z, a.phi, a.theta, a.psi)


@dataclass(frozen=True)
class Pose3:
    """Planar pose of the surface robot: x, y and yaw at z = 0."""

    x: float
    y: float
    psi: float

    def as_tuple(self) -> tuple:
        return (self.x, self.y, self.psi)

    def lifted(self) -> Pose6:
        """Embed in 3D: the surface robot sits on the z = 0 plane, level."""
        return Pose6(self.x, self.y, 0.0, EulerAngles(0.0, 0.0, self.psi))


def projected_distance(pose_u: tuple, pose_s: tuple) -> float:
    """Horizontal separation in metres between two pose tuples, each led by
    its x and y."""
    return math.hypot(pose_u[0] - pose_s[0], pose_u[1] - pose_s[1])


def flat_transform(pose: tuple) -> tuple:
    """Body-to-world transform of a pose tuple as plain floats: (nine
    row-major rotation entries, (x, y, z)). A pose is (x, y, z, phi, theta,
    psi), or (x, y, psi) for the surface robot, which sits level at z = 0."""
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


def rotation_body_to_world(attitude: EulerAngles) -> np.ndarray:
    """ZYX rotation matrix mapping body coordinates into world coordinates."""
    return np.array(rotation_zyx(attitude.phi, attitude.theta, attitude.psi)).reshape(3, 3)


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


def rotation_about_x(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rotation_about_z(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


_ORTHONORMAL_TOL = 1e-9


@dataclass(eq=False)
class RigidTransform:
    """Rotation plus translation; maps source-frame coordinates to target."""

    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self) -> None:
        self.rotation = np.asarray(self.rotation, dtype=float)
        self.translation = np.asarray(self.translation, dtype=float)
        if self.rotation.shape != (3, 3) or self.translation.shape != (3,):
            raise ValueError("rigid transform needs a 3x3 rotation and 3-vector")
        # checked first so that NaN or huge entries never reach the product
        if not (np.abs(self.rotation) <= 1.0 + _ORTHONORMAL_TOL).all():
            raise ValueError("rotation entries must lie in [-1, 1]")
        err = np.max(np.abs(self.rotation @ self.rotation.T - np.eye(3)))
        det = np.linalg.det(self.rotation)
        if err > _ORTHONORMAL_TOL or abs(det - 1.0) > _ORTHONORMAL_TOL:
            raise ValueError(
                f"rotation is not orthonormal within tolerance (err={err:.3e}, det={det:.12f})"
            )

    @staticmethod
    def identity() -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3))

    @staticmethod
    def _trusted(rotation: np.ndarray, translation: np.ndarray) -> "RigidTransform":
        # Construction bypass for transforms that are orthonormal by
        # algebra (products and inverses of validated rotations); the
        # validating __init__ stays the only public entry point.
        t = object.__new__(RigidTransform)
        t.rotation = rotation
        t.translation = translation
        return t

    def apply(self, point: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(point, dtype=float) + self.translation

    def apply_vector(self, vector: np.ndarray) -> np.ndarray:
        return self.rotation @ np.asarray(vector, dtype=float)

    def flat(self) -> tuple:
        """(nine row-major rotation floats, three translation floats)."""
        return tuple(self.rotation.ravel().tolist()), tuple(self.translation.tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RigidTransform):
            return NotImplemented
        return np.array_equal(self.rotation, other.rotation) and np.array_equal(
            self.translation, other.translation
        )


def compose(a: RigidTransform, b: RigidTransform) -> RigidTransform:
    """Transform equivalent to applying b first, then a."""
    return RigidTransform._trusted(
        a.rotation @ b.rotation, a.rotation @ b.translation + a.translation
    )


def invert(t: RigidTransform) -> RigidTransform:
    rot = t.rotation.T
    return RigidTransform._trusted(rot.copy(), -rot @ t.translation)


def transform_from_pose(pose: Pose6 | Pose3) -> RigidTransform:
    """Body-to-world transform for a pose (planar poses are lifted)."""
    if isinstance(pose, Pose3):
        pose = pose.lifted()
    return RigidTransform._trusted(
        rotation_body_to_world(pose.attitude), np.array([pose.x, pose.y, pose.z], dtype=float)
    )


def euler_from_rotation(rot: np.ndarray) -> EulerAngles:
    """Recover ZYX Euler angles from a rotation matrix."""
    theta = -math.asin(min(1.0, max(-1.0, float(rot[2, 0]))))
    phi = math.atan2(float(rot[2, 1]), float(rot[2, 2]))
    psi = math.atan2(float(rot[1, 0]), float(rot[0, 0]))
    return EulerAngles(phi, theta, psi)


def pose_from_transform(t: RigidTransform) -> Pose6:
    x, y, z = (float(v) for v in t.translation)
    return Pose6(x, y, z, euler_from_rotation(t.rotation))
