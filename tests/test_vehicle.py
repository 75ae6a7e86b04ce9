"""Rigid-body dynamics: the step's allocation and its clip, Coriolis, damping, bounds, energy."""

import dataclasses
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from vetsim.frames import euler_rate_rows, flat_transform
from vetsim.vehicle import (
    Disturbance,
    VehicleModel,
    VehicleParams,
    clip_norm,
)


def advance(model, pose, nu, u_sub, u_xi, dt, **world):
    """VehicleModel.step with the pose tuple's rotation and Euler-rate rows,
    computed as one simulation tick computes them."""
    rates = euler_rate_rows(pose[3], pose[4]) if len(pose) == 6 else None
    return model.step(pose, nu, u_sub, u_xi, dt, flat_transform(pose)[0], rates, **world)


# A power of two: tau / GEAR * GEAR is tau for every tau whose quotient is
# not subnormal, and tau / GEAR lies within every command bound for the
# wrenches the dynamics tests drive (linear ones up to 819 N).
GEAR = 2.0 ** 13


def step(params, pose, nu, tau, dt, **world):
    """One step of the vehicle of params driven by the body wrench tau: every
    thrust gain is GEAR and the sub-task command tau / GEAR, the tether
    command -0.0, which adds nothing to any float, so the command passes the
    clip and scales back to tau."""
    n = params.dof
    command = [f / GEAR for f in tau]
    assert all(abs(c) <= b for c, b in zip(command, params.axis_bounds))
    model = VehicleModel(dataclasses.replace(params, thrust_gain=(GEAR,) * n))
    return advance(model, pose, nu, command, [-0.0] * n, dt, **world)


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


def unit_gain(params):
    """params with every thrust gain 1, so the wrench is the clipped sum."""
    return dataclasses.replace(params, thrust_gain=(1.0,) * params.dof)


# The start of the allocation tests: a tilted pose at rest with every
# velocity -0.0, so each momentum is -0.0, which adds nothing to the
# wrench's term.
REST = {6: ((0.0, 0.0, -1.0, 0.1, -0.2, 0.3), [-0.0] * 6), 3: ((0.0, 0.0, 0.3), [-0.0] * 3)}


def stepped(params, u_sub, u_xi, nu=None):
    """The bytes of the pose and velocity one 0.02 s step of the vehicle of
    params makes from REST, or from REST's pose at the velocity nu, under the
    commands u_sub and u_xi."""
    pose, rest = REST[params.dof]
    new_pose, new_nu = advance(VehicleModel(params), pose, rest if nu is None else nu,
                               u_sub, u_xi, 0.02)
    return np.array([*new_pose, *new_nu]).tobytes()


def assert_wrench(params, u_sub, u_xi, wrench):
    """The step of params allocates exactly wrench for u_sub and u_xi: its
    step from REST is bit for bit the step of an open model under the
    command wrench. The open model has unit gains and bounds that nothing
    here reaches, so it takes a command as its wrench, NaN and -0.0 included
    (x + -0.0 and 1.0 * x are x for every float); from REST neither model's
    velocity comes near the norm bound."""
    n = params.dof
    open_model = dataclasses.replace(params, thrust_gain=(1.0,) * n,
                                     velocity_bound_linear=1e100, velocity_bound_angular=1e100)
    assert stepped(params, u_sub, u_xi) == stepped(open_model, wrench, [-0.0] * n)


def test_allocation_is_the_diagonal_gain():
    p = params6(thrust_gain=(2.0, 2.0, 2.0, 1.0, 1.0, 1.0))
    u = [0.1, 0.0, 0.0, 0.0, 0.0, 0.2]
    assert_wrench(p, u, [0.0] * 6, [0.2, 0.0, 0.0, 0.0, 0.0, 0.2])


def test_allocation_sums_disjoint_commands():
    sub = [0.0, 0.0, 0.05, 0.01, 0.0, 0.0]
    xi = [0.02, -0.01, 0.0, 0.0, 0.0, 0.03]
    assert_wrench(unit_gain(params6()), sub, xi, [0.02, -0.01, 0.05, 0.01, 0.0, 0.03])


@pytest.mark.parametrize("params", [params6(), params3()], ids=["6dof", "3dof"])
def test_allocation_clips_every_axis_on_both_sides(params):
    """Each axis on its own, driven past its bound either way by the
    sub-task, by the tether command, and by their sum alone: the wrench is
    the gain times the bound, and every other axis stays zero. A sum that
    only one part pushes past the bound is pulled back by the other."""
    n = params.dof
    for axis, (g, b) in enumerate(zip(params.thrust_gain, params.axis_bounds)):
        # (sub-task, tether, whether their sum is past the bound)
        cases = (
            (3.0 * b, 0.0, True),
            (0.0, 3.0 * b, True),
            (0.75 * b, 0.75 * b, True),  # each part within the bound
            (3.0 * b, -2.5 * b, False),  # clipping each part first would give 0
        )
        for sign in (1.0, -1.0):
            for s, x, clips in cases:
                u_sub, u_xi, wrench = [0.0] * n, [0.0] * n, [0.0] * n
                u_sub[axis], u_xi[axis] = sign * s, sign * x
                wrench[axis] = g * (sign * b if clips else sign * s + sign * x)
                assert_wrench(params, u_sub, u_xi, wrench)


@pytest.mark.parametrize("params", [params6(), params3()], ids=["6dof", "3dof"])
def test_allocation_passes_nan_and_keeps_the_sign_of_zero(params):
    """Read off the step itself, not against the open model, which shares
    the clip: a NaN spreads through the solve, and a zero's sign shows only
    where it meets zeros. A NaN command passes the clip: the velocity on its
    axis is NaN, where a clipped command would leave it finite. -0 + -0 is
    -0, and the gain keeps it; -0 + 0 is +0: on each axis, some start at
    REST's pose, with each velocity and each other command a signed zero,
    makes different steps of the two sums."""
    n = params.dof
    signed_zeros = list(itertools.product((0.0, -0.0), repeat=n))
    for axis in range(n):
        u_sub = [0.0] * n
        u_sub[axis] = math.nan
        _, nu = advance(VehicleModel(params), *REST[n], u_sub, [0.0] * n, 0.02)
        assert math.isnan(nu[axis]), axis
        minus, plus = [-0.0] * n, [-0.0] * n
        plus[axis] = 0.0
        for nu, others in itertools.product(signed_zeros, signed_zeros):
            u_sub = [*others[:axis], -0.0, *others[axis + 1:]]
            if stepped(params, u_sub, minus, nu) != stepped(params, u_sub, plus, nu):
                break
        else:
            pytest.fail(f"no start tells -0 + -0 from -0 + 0 on axis {axis}")


finite_command = st.floats(-1.0, 1.0)


@given(st.lists(finite_command, min_size=6, max_size=6),
       st.lists(finite_command, min_size=6, max_size=6),
       st.lists(st.floats(0.1, 10.0), min_size=6, max_size=6, unique=True))
@example([0.1, -0.1, 0.2, -0.2, -0.0, 0.0], [0.0, -0.0, -0.1, 0.1, -0.0, -0.0],
         [1.5, 2.5, 3.5, 4.5, 5.5, 6.5])
def test_allocation_is_the_clipped_sum_through_the_gain(u_sub, u_xi, gains):
    """Bit for bit the clip-then-scale the log derives its saturated totals
    with, for both models (the surface one takes the first three axes), at
    the preset gains and at distinct per-axis gains, so each axis is pinned
    to its own gain and its own operands."""
    distinct = (params6(thrust_gain=tuple(gains)), params3(thrust_gain=tuple(gains[:3])))
    for params in (params6(), params3(), *distinct):
        n = params.dof
        s, x = u_sub[:n], u_xi[:n]
        expected = np.clip(np.add(s, x), -np.array(params.axis_bounds), params.axis_bounds)
        expected *= params.thrust_gain
        assert_wrench(params, s, x, expected.tolist())


command = st.floats() | st.sampled_from([0.0, -0.0, math.nan])


@given(st.lists(command, min_size=6, max_size=6), st.lists(command, min_size=6, max_size=6))
@example([math.nan, -0.0, 0.0, -0.0, 1e308, -math.inf],
         [0.0, -0.0, math.nan, 0.0, 1e308, math.inf])
def test_a_step_takes_its_two_commands_as_their_clipped_sum(u_sub, u_xi):
    """step(..., s, x, ...) is bit for bit step(..., clip(s + x), [-0.0] * n,
    ...) for any floats, NaN, infinities and signed zeros included: x + -0.0
    is x for every float, and the clip leaves a clipped sum as it is."""
    for params in (params6(), params3()):
        n = params.dof
        s, x = u_sub[:n], u_xi[:n]
        with np.errstate(invalid="ignore", over="ignore"):
            total = np.clip(np.add(s, x), -np.array(params.axis_bounds), params.axis_bounds)
        assert stepped(params, s, x) == stepped(params, total.tolist(), [-0.0] * n)


def skew(a):
    """S(a), with S(a) @ b the cross product a x b."""
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def coriolis_matrix(nu, params):
    """C(nu) for a diagonal mass M in the skew-symmetric form (Fossen):
    [[0, -S(M1 v)], [-S(M1 v), -S(M2 w)]], or its planar cut in 3-DoF."""
    momentum = np.asarray(params.mass) * np.asarray(nu, dtype=float)
    if params.dof == 3:
        mu, mv, _ = momentum
        return np.array([[0.0, 0.0, -mv], [0.0, 0.0, mu], [mv, -mu, 0.0]])
    linear = -skew(momentum[:3])
    return np.block([[np.zeros((3, 3)), linear], [linear, -skew(momentum[3:])]])


# The model never forms C(nu): its solves read the momenta directly. The
# dense-solve tests below check them against this matrix.
@given(vel6)
def test_coriolis_produces_no_power_6dof(nu):
    c = coriolis_matrix(nu, params6())
    nu = np.array(nu)
    assert abs(nu @ (c @ nu)) <= 1e-10


@given(vel3)
def test_coriolis_produces_no_power_3dof(nu):
    c = coriolis_matrix(nu, params3())
    nu = np.array(nu)
    assert abs(nu @ (c @ nu)) <= 1e-10


def test_saturation_anchors():
    assert_wrench(unit_gain(params6()), [0.5, 0.0, 0.0, 0.0, 0.0, -1.0], [0.0] * 6,
                  [0.1, 0.0, 0.0, 0.0, 0.0, -0.2])
    assert_wrench(unit_gain(params3()), [0.5, -0.01, -1.0], [0.0] * 3, [0.1, -0.01, -0.2])


@given(st.lists(st.floats(-3, 3), min_size=6, max_size=6))
def test_saturation_is_idempotent(u):
    params = unit_gain(params6())
    bounds = np.array(params.axis_bounds)
    once = np.clip(np.add(u, [0.0] * 6), -bounds, bounds).tolist()
    assert_wrench(params, u, [0.0] * 6, once)
    assert_wrench(params, once, [0.0] * 6, once)
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


@pytest.mark.parametrize("bound", [0.1, 1e308])
def test_clip_norm_puts_a_vector_whose_norm_overflows_on_the_bound(bound):
    # math.hypot itself overflows here; the bound may lie above the rescaled norm
    big = [1.5e308, -1.5e308, 0.75e308]
    assert math.hypot(*big) == math.inf
    clipped = clip_norm(big, bound)
    np.testing.assert_allclose(clipped, [bound / 1.5, -bound / 1.5, bound / 3.0], rtol=1e-12)
    assert math.hypot(*clipped) <= bound


def test_clip_norm_makes_a_vector_with_an_infinite_component_nan():
    assert all(math.isnan(x) for x in clip_norm([math.inf, 0.0, 1.0], 0.1))


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
# at rest; pure angular velocity; linear speed exactly on the norm bound
@example([0.0] * 6, [0.0] * 6)
@example([0.0] * 6, [0.5, -0.3, 0.2, 0.01, -0.02, 0.03])
@example([0.0, 0.0, 0.0, 0.1, -0.2, 0.15], [0.0, 0.0, 0.0, 0.02, 0.01, -0.03])
@example([0.0, 0.06, 0.08, 0.05, 0.0, -0.1], [0.0, 3.0, 3.0, 0.0, 0.0, 0.0])
def test_6dof_velocity_update_matches_the_dense_solve(nu, tau):
    p = params6()
    pose = (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    _, nu_new = step(p, pose, nu, tau, 0.02)
    np.testing.assert_allclose(nu_new, reference_velocity(nu, tau, p, 0.02), rtol=1e-12, atol=1e-15)


@settings(max_examples=60)
@given(vel3, st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
@example([0.0] * 3, [0.0] * 3)
@example([0.0, 0.0, 0.15], [0.0, 0.0, -0.05])
@example([0.06, 0.08, 0.1], [3.0, 3.0, 0.0])
def test_3dof_closed_form_matches_the_dense_solve(nu, tau):
    p = params3()
    _, nu_new = step(p, (0.0, 0.0, 0.0), nu, tau, 0.02)
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

    pose = (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    nu = [0.0] * 6
    tau = [f, 0.0, 0.0, 0.0, 0.0, 0.0]
    for _ in range(3000):
        pose, nu = step(p, pose, nu, tau, 0.02)
    assert nu[0] == pytest.approx(expected, rel=0.01)


def test_pure_heave_advances_depth_by_dt_times_velocity():
    p = params6(damping_linear=(0.0,) * 6, damping_quadratic=(0.0,) * 6)
    pose = (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    nu = [0.0, 0.0, 0.1, 0.0, 0.0, 0.0]
    pose2, nu2 = step(p, pose, nu, [0.0] * 6, 0.02)
    assert pose2[2] == pytest.approx(-1.0 + 0.002, abs=1e-15)
    np.testing.assert_allclose(nu2, nu, atol=1e-12)


def test_planar_step_integrates_heading():
    p = params3(damping_linear=(0.0,) * 3, damping_quadratic=(0.0,) * 3)
    pose = (0.0, 0.0, 0.0)
    nu = [0.0, 0.0, 0.1]
    pose2, _ = step(p, pose, nu, [0.0] * 3, 0.02)
    assert pose2[2] == pytest.approx(0.002)
    assert pose2[:2] == (0.0, 0.0)


@settings(max_examples=100)
@given(vel6)
def test_unforced_step_never_gains_energy(nu):
    p = params6()
    mass = np.asarray(p.mass)
    pose = (0.0, 0.0, -1.0, 0.1, 0.2, -0.3)
    before = 0.5 * float(np.dot(nu, mass * nu))
    _, nu2 = step(p, pose, nu, [0.0] * 6, 0.02)
    after = 0.5 * float(np.dot(nu2, mass * nu2))
    assert after <= before + 1e-12


@given(st.floats(10.0, 500.0), st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_velocity_norm_bound_is_exact_under_large_forcing(scale, dy, dz):
    p = params6()
    pose = (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    nu = [0.0] * 6
    tau = [scale, scale * dy, scale * dz, 0.0, 0.0, 0.0]
    for _ in range(10):
        pose, nu = step(p, pose, nu, tau, 0.02)
    assert np.linalg.norm(nu[:3]) <= p.velocity_bound_linear + 1e-12


def test_planar_linear_norm_bound_under_large_forcing():
    p = params3()
    pose = (0.0, 0.0, 0.0)
    nu = [0.0] * 3
    tau = [50.0, 30.0, 0.0]
    for _ in range(10):
        pose, nu = step(p, pose, nu, tau, 0.02)
    assert np.linalg.norm(nu[:2]) <= p.velocity_bound_linear + 1e-12


def test_steady_yaw_rate_matches_drag_balance():
    # torque tau against 0.4*r + 1.0*r^2; same balance as the surge case
    p = params3()
    torque = 0.08
    d_lin, d_quad = p.damping_linear[2], p.damping_quadratic[2]
    expected = (-d_lin + math.sqrt(d_lin**2 + 4.0 * d_quad * torque)) / (2.0 * d_quad)
    pose = (0.0, 0.0, 0.0)
    nu = [0.0] * 3
    tau = [0.0, 0.0, torque]
    for _ in range(3000):
        pose, nu = step(p, pose, nu, tau, 0.02)
    assert nu[2] == pytest.approx(expected, rel=0.01)


def test_world_frame_disturbance_enters_through_the_attitude():
    # a world +x push on a yawed vehicle shows up rotated in the body frame
    p = params6(damping_linear=(0.0,) * 6, damping_quadratic=(0.0,) * 6)
    pose = (0.0, 0.0, -1.0, 0.0, 0.0, math.pi / 2)
    wrench = ((1.0, 0.0, 0.0), (1.0, 0.0, 0.0))  # a world +x force and torque
    _, nu = step(p, pose, [0.0] * 6, [0.0] * 6, 0.02, wrench=wrench)
    # body y axis points along world -x after a +90 degree yaw
    assert nu[0] == pytest.approx(0.0, abs=1e-12)
    assert nu[1] < 0.0
    assert nu[3] == pytest.approx(0.0, abs=1e-12)
    assert nu[4] < 0.0
