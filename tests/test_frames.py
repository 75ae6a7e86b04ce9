"""Rotations, Euler kinematics, angle wrapping and rigid transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from reference_geometry import rotation, rot_x, rot_y, rot_z
from vetsim.frames import (
    GimbalSingularity,
    RigidTransform,
    compose,
    euler_rate_rows,
    flat_transform,
    invert,
    pose_from_transform,
    rotate,
    rotation_zyx,
    wrap_angle,
)

angles = st.floats(-4.0 * math.pi, 4.0 * math.pi, allow_nan=False)
# pitch bounded away from the +-pi/2 singularity of the rate transform
safe_pitch = st.floats(-1.4, 1.4)


def random_transform(rng, reach):
    """A flat transform with a random rotation and a translation in
    [-reach, reach]^3."""
    return rotation_zyx(*rng.uniform(-math.pi, math.pi, 3)), tuple(rng.uniform(-reach, reach, 3))


def matrix(rot):
    return np.reshape(rot, (3, 3))


# --- fixed numerical anchors -------------------------------------------------

def test_yaw_quarter_turn_sends_body_x_to_world_y():
    rot = rotation_zyx(0.0, 0.0, math.pi / 2)
    np.testing.assert_allclose(rotate(rot, (1.0, 0.0, 0.0)), [0.0, 1.0, 0.0], atol=1e-12)


def test_roll_quarter_turn_sends_body_y_to_world_z():
    rot = rotation_zyx(math.pi / 2, 0.0, 0.0)
    np.testing.assert_allclose(rotate(rot, (0.0, 1.0, 0.0)), [0.0, 0.0, 1.0], atol=1e-12)


# euler_rate_rows gives (a, b, c, d, e, f) of [[1, a, b], [0, c, d], [0, e, f]]

def test_rate_transform_row_three_at_45_45():
    *_, e, f = euler_rate_rows(math.pi / 4, math.pi / 4)
    np.testing.assert_allclose([e, f], [1.0, 1.0], atol=1e-12)


def test_rate_transform_identity_at_level_attitude():
    rows = euler_rate_rows(0.0, 0.0)
    np.testing.assert_allclose(rows, [0.0, 0.0, 1.0, 0.0, 0.0, 1.0], atol=1e-12)


def test_rate_transform_rejects_gimbal_pitch():
    with pytest.raises(GimbalSingularity):
        euler_rate_rows(0.0, math.pi / 2)
    with pytest.raises(GimbalSingularity):
        euler_rate_rows(0.0, -math.pi / 2 + 1e-4)
    # just outside the guard band is fine
    euler_rate_rows(0.0, math.pi / 2 - 2e-3)


def test_wrap_angle_anchors():
    assert wrap_angle(3.0 * math.pi / 2) == pytest.approx(-math.pi / 2)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(0.3) == pytest.approx(0.3)
    assert wrap_angle(math.pi) == pytest.approx(math.pi)


def test_surface_jacobian_quarter_turn():
    # the surface robot's body-to-world rate map is the rotation about z
    j = matrix(flat_transform((0.0, 0.0, math.pi / 2))[0])
    np.testing.assert_allclose(j @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(j[:, 2], [0.0, 0.0, 1.0], atol=1e-12)


# --- properties ---------------------------------------------------------------

@given(angles)
def test_wrap_angle_lands_in_half_open_interval(a):
    w = wrap_angle(a)
    assert -math.pi < w <= math.pi


@given(angles)
def test_wrap_angle_idempotent(a):
    w = wrap_angle(a)
    assert wrap_angle(w) == pytest.approx(w, abs=1e-12)


@given(st.floats(-math.pi + 1e-6, math.pi))
def test_wrap_angle_periodic(a):
    assert wrap_angle(a + 2.0 * math.pi) == pytest.approx(a, abs=1e-9)
    assert wrap_angle(a - 2.0 * math.pi) == pytest.approx(a, abs=1e-9)


@given(angles, angles, angles)
def test_rotation_orthonormal_unit_determinant(phi, theta, psi):
    rot = matrix(rotation_zyx(phi, theta, psi))
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-9)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)


@given(angles, safe_pitch, angles)
def test_euler_round_trip_reproduces_rotation(phi, theta, psi):
    rot = rotation_zyx(phi, theta, psi)
    back = pose_from_transform((rot, (0.0, 0.0, 0.0)))
    np.testing.assert_allclose(rotation_zyx(*back[3:]), rot, atol=1e-9)


@given(st.floats(-math.pi, math.pi))
def test_surface_jacobian_is_planar_rotation(psi):
    j = matrix(flat_transform((0.0, 0.0, psi))[0])
    np.testing.assert_allclose(j @ j.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(j) == pytest.approx(1.0, abs=1e-12)


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = random_transform(rng, 5.0)
        rot, pos = compose(t, invert(t))
        np.testing.assert_allclose(matrix(rot), np.eye(3), atol=1e-9)
        np.testing.assert_allclose(pos, 0.0, atol=1e-9)


def test_compose_is_associative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, c = (random_transform(rng, 2.0) for _ in range(3))
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(left[0], right[0], atol=1e-9)
        np.testing.assert_allclose(left[1], right[1], atol=1e-9)


def test_apply_point_versus_vector():
    t = rotation_zyx(0.0, 0.0, math.pi / 2), (1.0, 2.0, 3.0)
    identity = RigidTransform.identity().flat[0]
    # a point is a pure translation: composing moves it by the translation too
    _, point = compose(t, (identity, (1.0, 0.0, 0.0)))
    np.testing.assert_allclose(point, [1.0, 3.0, 3.0], atol=1e-12)
    # vectors ignore the translation part
    np.testing.assert_allclose(rotate(t[0], (1.0, 0.0, 0.0)), [0.0, 1.0, 0.0], atol=1e-12)


def test_transform_constructor_rejects_non_rotation():
    zero = (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        RigidTransform(((2.0, 0.0, 0.0), (0.0, 2.0, 0.0), (0.0, 0.0, 2.0)), zero)
    with pytest.raises(ValueError):
        RigidTransform(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, -1.0)), zero)  # improper
    with pytest.raises(ValueError, match="3x3 rotation and 3-vector"):
        RigidTransform(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)), zero)
    # rejected before the orthonormality product, which would warn on these
    for bad in (math.nan, math.inf, 1e300):
        rows = ((1.0, bad, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        with pytest.raises(ValueError, match=r"rotation entries must lie in \[-1, 1\]"):
            RigidTransform(rows, zero)


def test_pose_transform_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pose = (
            *rng.uniform(-2, 2, 3),
            rng.uniform(-math.pi, math.pi),
            rng.uniform(-1.4, 1.4),
            rng.uniform(-math.pi, math.pi),
        )
        back = pose_from_transform(flat_transform(pose))
        np.testing.assert_allclose(back[:3], pose[:3], atol=1e-9)
        np.testing.assert_allclose(rotation(back), rotation(pose), atol=1e-9)


def test_planar_pose_lifts_to_six_dof():
    # the surface robot sits level on the z = 0 plane
    rot, position = flat_transform((1.0, -2.0, 0.4))
    assert position == (1.0, -2.0, 0.0)
    np.testing.assert_allclose(rot, rotation_zyx(0.0, 0.0, 0.4), atol=1e-15)
    assert pose_from_transform((rot, position)) == pytest.approx((1.0, -2.0, 0.0, 0.0, 0.0, 0.4))


def test_flat_transform_matches_the_rigid_transform_of_the_pose():
    """Against the product of elementary rotations Rz(psi) Ry(theta) Rx(phi)."""
    rng = np.random.default_rng(5)
    for _ in range(25):
        x, y, z, psi = rng.uniform(-2, 2, 4)
        phi, theta = rng.uniform(-1.4, 1.4, 2)
        cases = (((x, y, z, phi, theta, psi), rot_z(psi) @ rot_y(theta) @ rot_x(phi), z),
                 ((x, y, psi), rot_z(psi), 0.0))
        for pose, reference, height in cases:
            rot, position = flat_transform(pose)
            np.testing.assert_allclose(matrix(rot), reference, atol=1e-15)
            assert position == (x, y, height)
