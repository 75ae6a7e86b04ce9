"""Rigid-body dynamics: allocation, Coriolis, damping, bounds, energy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vetsim.frames import EulerAngles, Pose3, Pose6
from vetsim.vehicle import (
    DimensionMismatch,
    Disturbance,
    VehicleModel,
    VehicleParams,
    allocate_thrust,
    clip_norm,
    coriolis_matrix,
    damping_force,
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


vel6 = st.tuples(*[st.floats(-0.5, 0.5) for _ in range(6)]).map(np.array)
vel3 = st.tuples(*[st.floats(-0.5, 0.5) for _ in range(3)]).map(np.array)


def test_allocation_is_the_diagonal_gain():
    p = params6(thrust_gain=(2.0, 2.0, 2.0, 1.0, 1.0, 1.0))
    u = np.array([0.1, 0.0, 0.0, 0.0, 0.0, 0.2])
    np.testing.assert_allclose(
        allocate_thrust(u, p), [0.2, 0.0, 0.0, 0.0, 0.0, 0.2]
    )


def test_allocation_rejects_wrong_length():
    with pytest.raises(DimensionMismatch):
        allocate_thrust(np.zeros(3), params6())
    with pytest.raises(DimensionMismatch):
        allocate_thrust(np.zeros(6), params3())


@given(vel6)
def test_coriolis_produces_no_power_6dof(nu):
    c = coriolis_matrix(nu, params6())
    assert abs(nu @ (c @ nu)) <= 1e-10


@given(vel3)
def test_coriolis_produces_no_power_3dof(nu):
    c = coriolis_matrix(nu, params3())
    assert abs(nu @ (c @ nu)) <= 1e-10


def test_damping_anchors():
    lin = params6(damping_linear=(1.0,) * 6, damping_quadratic=(0.0,) * 6)
    nu = np.array([0.5, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert damping_force(nu, lin)[0] == pytest.approx(0.5)

    quad = params6(damping_linear=(0.0,) * 6, damping_quadratic=(2.0,) * 6)
    assert damping_force(nu, quad)[0] == pytest.approx(0.5)  # 2 * 0.5 * |0.5|


@given(vel6)
def test_damping_opposes_motion(nu):
    d = damping_force(nu, params6())
    assert float(nu @ d) >= 0.0


def test_saturation_anchors():
    p = params6()
    out = saturate(np.array([0.5, 0.0, 0.0, 0.0, 0.0, -1.0]), p)
    np.testing.assert_allclose(out, [0.1, 0.0, 0.0, 0.0, 0.0, -0.2])

    out3 = saturate(np.array([0.5, -0.01, -1.0]), params3())
    np.testing.assert_allclose(out3, [0.1, -0.01, -0.2])


@given(st.tuples(*[st.floats(-3, 3) for _ in range(6)]).map(np.array))
def test_saturation_is_idempotent(u):
    p = params6()
    once = saturate(u, p)
    np.testing.assert_array_equal(saturate(once, p), once)
    assert np.all(np.abs(once[:3]) <= 0.1 + 1e-15)
    assert np.all(np.abs(once[3:]) <= 0.2 + 1e-15)


def test_clip_norm_exact_on_the_bound():
    v = np.array([3.0, 4.0])
    clipped = clip_norm(v, 1.0)
    assert np.linalg.norm(clipped) == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(clipped, [0.6, 0.8], atol=1e-12)
    # below the bound the vector passes through untouched
    np.testing.assert_array_equal(clip_norm(np.array([0.1, 0.0]), 1.0), [0.1, 0.0])


def reference_velocity(nu, tau, params, dt):
    """The semi-implicit velocity update as a dense matrix solve."""
    mass = np.asarray(params.mass)
    damping = np.asarray(params.damping_linear) + np.asarray(params.damping_quadratic) * np.abs(nu)
    matrix = np.diag(mass) + dt * (coriolis_matrix(nu, params) + np.diag(damping))
    nu_new = np.linalg.solve(matrix, mass * nu + dt * tau)
    n_lin = 2 if params.dof == 3 else 3
    nu_new[:n_lin] = clip_norm(nu_new[:n_lin], params.velocity_bound_linear)
    return nu_new


@settings(max_examples=60)
@given(vel6, st.tuples(*[st.floats(-3.0, 3.0) for _ in range(6)]).map(np.array))
def test_6dof_velocity_update_matches_the_dense_solve(nu, tau):
    p = params6()
    pose = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
    _, nu_new = VehicleModel(p).step(pose, nu, tau, 0.02)
    np.testing.assert_allclose(nu_new, reference_velocity(nu, tau, p, 0.02), rtol=1e-12, atol=1e-15)


@settings(max_examples=60)
@given(vel3, st.tuples(*[st.floats(-3.0, 3.0) for _ in range(3)]).map(np.array))
def test_3dof_closed_form_matches_the_dense_solve(nu, tau):
    p = params3()
    _, nu_new = VehicleModel(p).step(Pose3(0.0, 0.0, 0.0), nu, tau, 0.02)
    np.testing.assert_allclose(nu_new, reference_velocity(nu, tau, p, 0.02), rtol=1e-12, atol=1e-15)


def test_disturbance_window_is_closed():
    d = Disturbance(force=(1.0, 0.0, 0.0), t_start=2.0, t_end=5.0)
    assert d.active(2.0) and d.active(5.0) and d.active(3.3)
    assert not d.active(1.999) and not d.active(5.001)


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
    nu = np.zeros(6)
    tau = np.array([f, 0.0, 0.0, 0.0, 0.0, 0.0])
    for _ in range(3000):
        pose, nu = model.step(pose, nu, tau, 0.02)
    assert nu[0] == pytest.approx(expected, rel=0.01)


def test_pure_heave_advances_depth_by_dt_times_velocity():
    p = params6(damping_linear=(0.0,) * 6, damping_quadratic=(0.0,) * 6)
    model = VehicleModel(p)
    pose = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
    nu = np.array([0.0, 0.0, 0.1, 0.0, 0.0, 0.0])
    pose2, nu2 = model.step(pose, nu, np.zeros(6), 0.02)
    assert pose2.z == pytest.approx(-1.0 + 0.002, abs=1e-15)
    np.testing.assert_allclose(nu2, nu, atol=1e-12)


def test_planar_step_integrates_heading():
    model = VehicleModel(params3(damping_linear=(0.0,) * 3, damping_quadratic=(0.0,) * 3))
    pose = Pose3(0.0, 0.0, 0.0)
    nu = np.array([0.0, 0.0, 0.1])
    pose2, _ = model.step(pose, nu, np.zeros(3), 0.02)
    assert pose2.psi == pytest.approx(0.002)
    assert pose2.x == 0.0 and pose2.y == 0.0


@settings(max_examples=100)
@given(vel6)
def test_unforced_step_never_gains_energy(nu):
    p = params6()
    model = VehicleModel(p)
    mass = np.asarray(p.mass)
    pose = Pose6(0.0, 0.0, -1.0, EulerAngles(0.1, 0.2, -0.3))
    before = 0.5 * float(nu @ (mass * nu))
    _, nu2 = model.step(pose, nu, np.zeros(6), 0.02)
    after = 0.5 * float(nu2 @ (mass * nu2))
    assert after <= before + 1e-12


@given(st.floats(10.0, 500.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_velocity_norm_bound_is_exact_under_large_forcing(scale, dy, dz):
    p = params6()
    model = VehicleModel(p)
    pose = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
    nu = np.zeros(6)
    tau = np.array([scale, scale * dy, scale * dz, 0.0, 0.0, 0.0])
    for _ in range(10):
        pose, nu = model.step(pose, nu, tau, 0.02)
    assert np.linalg.norm(nu[:3]) <= p.velocity_bound_linear + 1e-12


def test_planar_linear_norm_bound_under_large_forcing():
    p = params3()
    model = VehicleModel(p)
    pose = Pose3(0.0, 0.0, 0.0)
    nu = np.zeros(3)
    tau = np.array([50.0, 30.0, 0.0])
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
    nu = np.zeros(3)
    tau = np.array([0.0, 0.0, torque])
    for _ in range(3000):
        pose, nu = model.step(pose, nu, tau, 0.02)
    assert nu[2] == pytest.approx(expected, rel=0.01)


def test_world_frame_disturbance_enters_through_the_attitude():
    # a world +x push on a yawed vehicle shows up rotated in the body frame
    p = params6(damping_linear=(0.0,) * 6, damping_quadratic=(0.0,) * 6)
    model = VehicleModel(p)
    pose = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, math.pi / 2))
    _, nu = model.step(
        pose, np.zeros(6), np.zeros(6), 0.02, world_force=np.array([1.0, 0.0, 0.0])
    )
    # body y axis points along world -x after a +90 degree yaw
    assert nu[0] == pytest.approx(0.0, abs=1e-12)
    assert nu[1] < 0.0
