"""Rotations, Euler kinematics, angle wrapping and rigid transforms."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from vetsim.frames import (
    EulerAngles,
    GimbalSingularity,
    Pose3,
    Pose6,
    RigidTransform,
    compose,
    euler_from_rotation,
    euler_rate_rows,
    flat_transform,
    invert,
    pose_from_transform,
    rotation_about_z,
    rotation_body_to_world,
    transform_from_pose,
    wrap_angle,
)

angles = st.floats(-4.0 * math.pi, 4.0 * math.pi, allow_nan=False)
# pitch bounded away from the +-pi/2 singularity of the rate transform
safe_pitch = st.floats(-1.4, 1.4)


def random_rotation(rng):
    att = EulerAngles(*rng.uniform(-math.pi, math.pi, 3))
    return rotation_body_to_world(att)


# --- fixed numerical anchors -------------------------------------------------

def test_yaw_quarter_turn_sends_body_x_to_world_y():
    rot = rotation_body_to_world(EulerAngles(0.0, 0.0, math.pi / 2))
    np.testing.assert_allclose(rot @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], atol=1e-12)


def test_roll_quarter_turn_sends_body_y_to_world_z():
    rot = rotation_body_to_world(EulerAngles(math.pi / 2, 0.0, 0.0))
    np.testing.assert_allclose(rot @ [0.0, 1.0, 0.0], [0.0, 0.0, 1.0], atol=1e-12)


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
    j = rotation_about_z(math.pi / 2)
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
    rot = rotation_body_to_world(EulerAngles(phi, theta, psi))
    np.testing.assert_allclose(rot @ rot.T, np.eye(3), atol=1e-9)
    assert np.linalg.det(rot) == pytest.approx(1.0, abs=1e-9)


@given(angles, safe_pitch, angles)
def test_euler_round_trip_reproduces_rotation(phi, theta, psi):
    rot = rotation_body_to_world(EulerAngles(phi, theta, psi))
    back = euler_from_rotation(rot)
    np.testing.assert_allclose(rotation_body_to_world(back), rot, atol=1e-9)


@given(st.floats(-math.pi, math.pi))
def test_surface_jacobian_is_planar_rotation(psi):
    j = rotation_about_z(psi)
    np.testing.assert_allclose(j @ j.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(j) == pytest.approx(1.0, abs=1e-12)


def test_compose_with_inverse_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(50):
        t = RigidTransform(random_rotation(rng), rng.uniform(-5, 5, 3))
        ident = compose(t, invert(t))
        np.testing.assert_allclose(ident.rotation, np.eye(3), atol=1e-9)
        np.testing.assert_allclose(ident.translation, 0.0, atol=1e-9)


def test_compose_is_associative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, c = (
            RigidTransform(random_rotation(rng), rng.uniform(-2, 2, 3))
            for _ in range(3)
        )
        left = compose(compose(a, b), c)
        right = compose(a, compose(b, c))
        np.testing.assert_allclose(left.rotation, right.rotation, atol=1e-9)
        np.testing.assert_allclose(left.translation, right.translation, atol=1e-9)


def test_apply_point_versus_vector():
    t = RigidTransform(
        rotation_body_to_world(EulerAngles(0.0, 0.0, math.pi / 2)),
        np.array([1.0, 2.0, 3.0]),
    )
    np.testing.assert_allclose(t.apply([1.0, 0.0, 0.0]), [1.0, 3.0, 3.0], atol=1e-12)
    # vectors ignore the translation part
    np.testing.assert_allclose(t.apply_vector([1.0, 0.0, 0.0]), [0.0, 1.0, 0.0], atol=1e-12)


def test_transform_constructor_rejects_non_rotation():
    with pytest.raises(ValueError):
        RigidTransform(np.eye(3) * 2.0, np.zeros(3))
    with pytest.raises(ValueError):
        RigidTransform(np.diag([1.0, 1.0, -1.0]), np.zeros(3))  # improper
    # rejected before the orthonormality product, which would warn on these
    for bad in (math.nan, math.inf, 1e300):
        rotation = np.eye(3)
        rotation[0, 1] = bad
        with pytest.raises(ValueError, match=r"rotation entries must lie in \[-1, 1\]"):
            RigidTransform(rotation, np.zeros(3))


def test_pose_transform_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(25):
        pose = Pose6(
            *rng.uniform(-2, 2, 3),
            EulerAngles(
                rng.uniform(-math.pi, math.pi),
                rng.uniform(-1.4, 1.4),
                rng.uniform(-math.pi, math.pi),
            ),
        )
        back = pose_from_transform(transform_from_pose(pose))
        np.testing.assert_allclose(
            back.as_tuple()[:3], pose.as_tuple()[:3], atol=1e-9
        )
        np.testing.assert_allclose(
            rotation_body_to_world(back.attitude),
            rotation_body_to_world(pose.attitude),
            atol=1e-9,
        )


def test_planar_pose_lifts_to_six_dof():
    lifted = Pose3(1.0, -2.0, 0.4).lifted()
    assert lifted.as_tuple()[:3] == (1.0, -2.0, 0.0)
    assert lifted.attitude.phi == 0.0 and lifted.attitude.theta == 0.0
    assert lifted.attitude.psi == pytest.approx(0.4)


def test_flat_transform_matches_the_rigid_transform_of_the_pose():
    rng = np.random.default_rng(5)
    for _ in range(25):
        x, y, z, psi = rng.uniform(-2, 2, 4)
        phi, theta = rng.uniform(-1.4, 1.4, 2)
        for pose in (Pose6(x, y, z, EulerAngles(phi, theta, psi)), Pose3(x, y, psi)):
            rotation, position = flat_transform(pose.as_tuple())
            reference = transform_from_pose(pose)
            np.testing.assert_allclose(np.reshape(rotation, (3, 3)), reference.rotation,
                                       atol=1e-15)
            assert position == tuple(reference.translation.tolist())
