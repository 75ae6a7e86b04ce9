"""Independent numpy geometry that the tests check vetsim's float algebra against.

Rotations are products of elementary rotations and transforms are 4x4
homogeneous matrices, so nothing here shares code with vetsim.frames.
"""

import math

import numpy as np


def rot_x(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(angle):
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def rotation(pose):
    """Body-to-world rotation of a pose tuple: Rz(psi) @ Ry(theta) @ Rx(phi),
    or Rz(psi) for a level surface pose (x, y, psi)."""
    if len(pose) == 3:
        return rot_z(pose[2])
    _, _, _, phi, theta, psi = pose
    return rot_z(psi) @ rot_y(theta) @ rot_x(phi)


def homogeneous(rot, translation):
    m = np.eye(4)
    m[:3, :3] = rot
    m[:3, 3] = translation
    return m


def pose_matrix(pose):
    """4x4 body-to-world transform of a pose tuple."""
    position = (pose[0], pose[1], 0.0) if len(pose) == 3 else pose[:3]
    return homogeneous(rotation(pose), position)


def mount_matrix(mount):
    """4x4 transform of a RigidTransform mount."""
    return homogeneous(np.array(mount.rotation), mount.translation)


def as_flat(m):
    """A 4x4 transform as a flat transform, (nine row-major floats, (x, y, z))."""
    return tuple(m[:3, :3].ravel().tolist()), tuple(m[:3, 3].tolist())
