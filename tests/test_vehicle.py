"""Rigid-body dynamics: allocation, Coriolis, damping, bounds, energy."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vetsim.frames import EulerAngles, Pose3, Pose6
from vetsim.vehicle import (
    Disturbance,
    VehicleModel,
    VehicleParams,
    clip_norm,
    coriolis_matrix,
    saturate,
)


def params6(**overrides):
    base = dict(
        mass=(11.0, 11.0, 11.0, 0.2, 0.2, 0.25),
        damping_linear=(4.0, 4.0, 4.0, 0.07, 0.07, 0.07),
        damping_quadratic=(18.0, 18.0, 18.0, 1.5, 1.5, 1.5),
        thrust_gain=(5.8, 5.8, 5.8, 0.38, 0.38, 0.38),
        velocity_bound_linear=0.1,
        velocity_bound_angular=0.2,
    )
    base.update(overrides)
    return VehicleParams(**base)


def params3(**overrides):
    base = dict(
        mass=(15.0, 15.0, 0.6),
        damping_linear=(7.0, 7.0, 0.4),
        damping_quadratic=(20.0, 20.0, 1.0),
        thrust_gain=(7.0, 7.0, 0.4),
        velocity_bound_linear=0.1,
        velocity_bound_angular=0.2,
    )
    base.update(overrides)
    return VehicleParams(**base)


vel6 = st.lists(st.floats(-0.5, 0.5), min_size=6, max_size=6)
vel3 = st.lists(st.floats(-0.5, 0.5), min_size=3, max_size=3)


def test_allocation_is_the_diagonal_gain():
    p = params6(thrust_gain=(2.0, 2.0, 2.0, 1.0, 1.0, 1.0))
    u = [0.1, 0.0, 0.0, 0.0, 0.0, 0.2]
    np.testing.assert_allclose(
        VehicleModel(p).allocate(u), [0.2, 0.0, 0.0, 0.0, 0.0, 0.2]
    )


@given(vel6)
def test_coriolis_produces_no_power_6dof(nu):
    nu = np.array(nu)
    c = coriolis_matrix(nu, params6())
    assert abs(nu @ (c @ nu)) <= 1e-10


@given(vel3)
def test_coriolis_produces_no_power_3dof(nu):
    nu = np.array(nu)
    c = coriolis_matrix(nu, params3())
    assert abs(nu @ (c @ nu)) <= 1e-10


def test_saturation_anchors():
    p = params6()
    out = saturate([0.5, 0.0, 0.0, 0.0, 0.0, -1.0], p)
    assert out == [0.1, 0.0, 0.0, 0.0, 0.0, -0.2]

    out3 = saturate([0.5, -0.01, -1.0], params3())
    assert out3 == [0.1, -0.01, -0.2]


@given(st.lists(st.floats(-3, 3), min_size=6, max_size=6))
def test_saturation_is_idempotent(u):
    p = params6()
    once = saturate(u, p)
    assert saturate(once, p) == once
    assert all(abs(v) <= 0.1 + 1e-15 for v in once[:3])
    assert all(abs(v) <= 0.2 + 1e-15 for v in once[3:])


def test_clip_norm_exact_on_the_bound():
    clipped = clip_norm([3.0, 4.0], 1.0)
    assert math.hypot(*clipped) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(clipped, [0.6, 0.8], atol=1e-12)
    # below the bound the vector passes through untouched
    assert clip_norm([0.1, 0.0], 1.0) == [0.1, 0.0]


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e307])
def test_clip_norm_puts_overflowing_vectors_on_the_bound(scale):
    # the sum of squares overflows here; the clip must still keep the direction
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        clipped = clip_norm([scale, scale, 0.0], 0.1)
    np.testing.assert_allclose(clipped, [0.1 / math.sqrt(2.0)] * 2 + [0.0], rtol=1e-12)
    assert math.hypot(*clipped) <= 0.1


def reference_velocity(nu, tau, params, dt):
    """The semi-implicit velocity update as a dense matrix solve."""
    nu, tau = np.array(nu), np.array(tau)
    mass = np.asarray(params.mass)
    damping = np.asarray(params.damping_linear) + np.asarray(params.damping_quadratic) * np.abs(nu)
    matrix = np.diag(mass) + dt * (coriolis_matrix(nu, params) + np.diag(damping))
    nu_new = np.linalg.solve(matrix, mass * nu + dt * tau)
    n_lin = 2 if params.dof == 3 else 3
    nu_new[:n_lin] = clip_norm(nu_new[:n_lin].tolist(), params.velocity_bound_linear)
    return nu_new


@settings(max_examples=60)
@given(vel6, st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
def test_6dof_velocity_update_matches_the_dense_solve(nu, tau):
    p = params6()
    pose = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
    _, nu_new = VehicleModel(p).step(pose, nu, tau, 0.02)
    np.testing.assert_allclose(nu_new, reference_velocity(nu, tau, p, 0.02), rtol=1e-12, atol=1e-15)


@settings(max_examples=60)
@given(vel3, st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
def test_3dof_closed_form_matches_the_dense_solve(nu, tau):
    p = params3()
    _, nu_new = VehicleModel(p).step(Pose3(0.0, 0.0, 0.0), nu, tau, 0.02)
    np.testing.assert_allclose(nu_new, reference_velocity(nu, tau, p, 0.02), rtol=1e-12, atol=1e-15)


def test_disturbance_window_is_closed():
    d = Disturbance(force=(1.0, 0.0, 0.0), t_start=2.0, t_end=5.0)
    t = np.array([2.0, 5.0, 3.3, 1.999, 5.001])
    np.testing.assert_array_equal(d.active(t), [True, True, True, False, False])
    # a single time still works
    assert d.active(2.0) and not d.active(5.001)


def test_steady_surge_speed_matches_drag_balance():
    # constant surge force against linear+quadratic drag; terminal speed
    # solves d_lin*v + d_quad*v^2 = F
    p = params6()
    f = 0.2
    d_lin, d_quad = p.damping_linear[0], p.damping_quadratic[0]
    expected = (-d_lin + math.sqrt(d_lin**2 + 4.0 * d_quad * f)) / (2.0 * d_quad)
    assert expected < p.velocity_bound_linear  # below the norm clip

    model = VehicleModel(p)
    pose = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
    nu = [0.0] * 6
    tau = [f, 0.0, 0.0, 0.0, 0.0, 0.0]
    for _ in range(3000):
        pose, nu = model.step(pose, nu, tau, 0.02)
    assert nu[0] == pytest.approx(expected, rel=0.01)


def test_pure_heave_advances_depth_by_dt_times_velocity():
    p = params6(damping_linear=(0.0,) * 6, damping_quadratic=(0.0,) * 6)
    model = VehicleModel(p)
    pose = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
    nu = [0.0, 0.0, 0.1, 0.0, 0.0, 0.0]
    pose2, nu2 = model.step(pose, nu, [0.0] * 6, 0.02)
    assert pose2.z == pytest.approx(-1.0 + 0.002, abs=1e-15)
    np.testing.assert_allclose(nu2, nu, atol=1e-12)


def test_planar_step_integrates_heading():
    model = VehicleModel(params3(damping_linear=(0.0,) * 3, damping_quadratic=(0.0,) * 3))
    pose = Pose3(0.0, 0.0, 0.0)
    nu = [0.0, 0.0, 0.1]
    pose2, _ = model.step(pose, nu, [0.0] * 3, 0.02)
    assert pose2.psi == pytest.approx(0.002)
    assert pose2.x == 0.0 and pose2.y == 0.0


@settings(max_examples=100)
@given(vel6)
def test_unforced_step_never_gains_energy(nu):
    p = params6()
    model = VehicleModel(p)
    mass = np.asarray(p.mass)
    pose = Pose6(0.0, 0.0, -1.0, EulerAngles(0.1, 0.2, -0.3))
    before = 0.5 * float(np.dot(nu, mass * nu))
    _, nu2 = model.step(pose, nu, [0.0] * 6, 0.02)
    after = 0.5 * float(np.dot(nu2, mass * nu2))
    assert after <= before + 1e-12


@given(st.floats(10.0, 500.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_velocity_norm_bound_is_exact_under_large_forcing(scale, dy, dz):
    p = params6()
    model = VehicleModel(p)
    pose = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
    nu = [0.0] * 6
    tau = [scale, scale * dy, scale * dz, 0.0, 0.0, 0.0]
    for _ in range(10):
        pose, nu = model.step(pose, nu, tau, 0.02)
    assert np.linalg.norm(nu[:3]) <= p.velocity_bound_linear + 1e-12


def test_planar_linear_norm_bound_under_large_forcing():
    p = params3()
    model = VehicleModel(p)
    pose = Pose3(0.0, 0.0, 0.0)
    nu = [0.0] * 3
    tau = [50.0, 30.0, 0.0]
    for _ in range(10):
        pose, nu = model.step(pose, nu, tau, 0.02)
    assert np.linalg.norm(nu[:2]) <= p.velocity_bound_linear + 1e-12


def test_steady_yaw_rate_matches_drag_balance():
    # torque tau against 0.4*r + 1.0*r^2; same balance as the surge case
    p = params3()
    torque = 0.08
    d_lin, d_quad = p.damping_linear[2], p.damping_quadratic[2]
    expected = (-d_lin + math.sqrt(d_lin**2 + 4.0 * d_quad * torque)) / (2.0 * d_quad)
    model = VehicleModel(p)
    pose = Pose3(0.0, 0.0, 0.0)
    nu = [0.0] * 3
    tau = [0.0, 0.0, torque]
    for _ in range(3000):
        pose, nu = model.step(pose, nu, tau, 0.02)
    assert nu[2] == pytest.approx(expected, rel=0.01)


def test_world_frame_disturbance_enters_through_the_attitude():
    # a world +x push on a yawed vehicle shows up rotated in the body frame
    p = params6(damping_linear=(0.0,) * 6, damping_quadratic=(0.0,) * 6)
    model = VehicleModel(p)
    pose = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, math.pi / 2))
    _, nu = model.step(
        pose, [0.0] * 6, [0.0] * 6, 0.02, world_force=(1.0, 0.0, 0.0)
    )
    # body y axis points along world -x after a +90 degree yaw
    assert nu[0] == pytest.approx(0.0, abs=1e-12)
    assert nu[1] < 0.0
