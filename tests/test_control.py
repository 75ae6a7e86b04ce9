"""Sub-task PD laws, the elastic tether law, command mixing, mounting checks."""

import dataclasses
import inspect
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vetsim.control import (
    DepthAttitudeState,
    PdGains,
    SubTaskTarget,
    VetFilterState,
    VetGains,
    baseline_ibvs,
    camera_to_body,
    check_connectivity,
    combined_control,
    subtask_control_surface,
    subtask_control_underwater,
    surface_pd,
    underwater_pd,
    vet_law,
)
from vetsim.frames import (
    EulerAngles,
    Pose3,
    Pose6,
    RigidTransform,
    surface_jacobian,
)
from vetsim.perception import (
    CameraModel,
    RegionLabel,
    TagModel,
    TagObservation,
    project_tag,
    tag_geometry,
    tether_state,
)
from vetsim.vehicle import VehicleParams

FLIP_X = np.diag([1.0, -1.0, -1.0])


def up_camera():
    return CameraModel(640, 480, 400.0, RigidTransform.identity())


def down_camera():
    return CameraModel(640, 480, 400.0, RigidTransform(FLIP_X, np.zeros(3)))


def square_obs(cx, cy, half=20.0, yaw=0.0, t=0.0, detected=True):
    corners = np.array(
        [
            [cx - half, cy - half],
            [cx + half, cy - half],
            [cx + half, cy + half],
            [cx - half, cy + half],
        ]
    )
    return TagObservation(corners, yaw, t, detected)


def wide_gains(**overrides):
    """Tether gains with bounds high enough that nothing clips."""
    base = dict(u_max_x=1.0, u_max_y=1.0)
    base.update(overrides)
    return VetGains(**base)


# --- sub-task controllers ------------------------------------------------------

def test_depth_error_anchor():
    gains = underwater_pd(0.5, 0.15)
    state = DepthAttitudeState(z=-1.5, phi=0.0, theta=0.0, dz=0.0, dphi=0.0, dtheta=0.0)
    target = SubTaskTarget(z_d=-1.0)
    u = subtask_control_underwater(state, target, gains)
    assert u[2] == pytest.approx(0.25)
    np.testing.assert_array_equal(u[[0, 1, 5]], 0.0)


def test_attitude_errors_wrap():
    gains = underwater_pd(1.0, 0.0)
    state = DepthAttitudeState(
        z=-1.0, phi=-math.pi + 0.1, theta=0.0, dz=0.0, dphi=0.0, dtheta=0.0
    )
    target = SubTaskTarget(z_d=-1.0, phi_d=math.pi - 0.1)
    u = subtask_control_underwater(state, target, gains)
    assert u[3] == pytest.approx(-0.2)  # short way round, not 2*pi - 0.2


def test_underwater_controller_rejects_lateral_gains():
    mixed = PdGains(kp=(1.0, 0.0, 0.5, 0.5, 0.5, 0.0), kd=(0.0,) * 6)
    state = DepthAttitudeState(z=-1.0, phi=0.0, theta=0.0, dz=0.0, dphi=0.0, dtheta=0.0)
    with pytest.raises(ValueError):
        subtask_control_underwater(state, SubTaskTarget(), mixed)


def test_underwater_pd_zero_pattern():
    gains = underwater_pd(0.5, 0.15)
    assert gains.kp == (0.0, 0.0, 0.5, 0.5, 0.5, 0.0)
    assert gains.kd == (0.0, 0.0, 0.15, 0.15, 0.15, 0.0)


def test_surface_anchor():
    u = subtask_control_surface(
        Pose3(0.0, 0.0, 0.0), np.zeros(3), SubTaskTarget(x_d=0.1), surface_pd(1.0, 0.0)
    )
    assert u[0] == pytest.approx(0.1)
    assert u[1] == 0.0 and u[2] == 0.0


def test_surface_yaw_anchor():
    u = subtask_control_surface(
        Pose3(0.0, 0.0, 0.0),
        np.zeros(3),
        SubTaskTarget(psi_d=math.pi / 2),
        surface_pd(1.0, 0.0),
    )
    assert u[2] == pytest.approx(math.pi / 2)


def test_surface_error_rotates_into_the_body_frame():
    # world +x error seen from a vehicle yawed +90 degrees is a -y body error
    u = subtask_control_surface(
        Pose3(0.0, 0.0, math.pi / 2),
        np.zeros(3),
        SubTaskTarget(x_d=1.0),
        surface_pd(1.0, 0.0),
    )
    assert u[0] == pytest.approx(0.0, abs=1e-12)
    assert u[1] == pytest.approx(-1.0)


def test_surface_speed_limit_clips_linear_axes_only():
    u = subtask_control_surface(
        Pose3(0.0, 0.0, 0.0),
        np.zeros(3),
        SubTaskTarget(x_d=5.0, psi_d=1.0),
        surface_pd(1.0, 0.0),
        speed_limit=0.1,
    )
    assert u[0] == pytest.approx(0.1)
    assert u[2] == pytest.approx(1.0)


def test_surface_controller_is_zero_at_the_target():
    pose = Pose3(0.7, -0.3, 1.1)
    u = subtask_control_surface(
        pose, np.zeros(3), SubTaskTarget(x_d=0.7, y_d=-0.3, psi_d=1.1), surface_pd(5.0, 5.0)
    )
    np.testing.assert_allclose(u, 0.0, atol=1e-12)


# --- tether law ------------------------------------------------------------------

def test_tether_command_is_zero_at_the_image_centre():
    cmd, _ = vet_law(square_obs(320.0, 240.0), VetFilterState.initial(), VetGains(), up_camera())
    assert cmd.detected and cmd.region is RegionLabel.SAFE
    np.testing.assert_allclose(cmd.u, 0.0, atol=1e-9)
    assert cmd.subtask_weight == 1.0


def test_elastic_gain_anchor():
    # half-normalised offset with unit elastic gain and no clipping
    obs = square_obs(480.0, 240.0)
    cmd, _ = vet_law(obs, VetFilterState.initial(), wide_gains(), up_camera())
    assert cmd.region is RegionLabel.ELASTIC
    assert cmd.u[0] == pytest.approx(0.5)
    assert cmd.u[1] == pytest.approx(0.0)


def test_safe_region_uses_the_weaker_gain():
    obs = square_obs(330.0, 240.0, half=40.0)  # l_bar 80, offset inside the safe box
    cmd, _ = vet_law(obs, VetFilterState.initial(), wide_gains(), up_camera())
    assert cmd.region is RegionLabel.SAFE
    assert cmd.u[0] == pytest.approx(0.5 * 10.0 / 320.0)


def test_danger_region_commands_the_bound_along_the_error():
    obs = square_obs(20.0, 240.0)
    cmd, _ = vet_law(obs, VetFilterState.initial(), VetGains(), up_camera())
    assert cmd.region is RegionLabel.DANGER
    assert abs(cmd.u[0]) == pytest.approx(0.1)
    assert cmd.u[0] < 0.0
    assert cmd.u[1] == pytest.approx(0.0, abs=1e-12)


def test_command_clips_per_axis():
    obs = square_obs(480.0, 240.0)
    cmd, _ = vet_law(obs, VetFilterState.initial(), VetGains(), up_camera())
    assert cmd.u[0] == pytest.approx(0.1)  # 0.5 raw, clipped to u_max


def test_yaw_gain_acts_on_the_relative_yaw():
    obs = square_obs(320.0, 240.0, yaw=0.4)
    cmd, _ = vet_law(obs, VetFilterState.initial(), VetGains(k_psi=0.5), up_camera())
    assert cmd.u[2] == pytest.approx(0.2)


def test_lost_detection_holds_and_decays_the_command():
    gains = VetGains()  # hold_half_life 0.5 s
    cam = up_camera()
    cmd0, state = vet_law(square_obs(480.0, 240.0, t=0.0), VetFilterState.initial(), gains, cam)
    assert cmd0.u[0] == pytest.approx(0.1)

    lost1, state = vet_law(square_obs(0, 0, t=0.5, detected=False), state, gains, cam)
    assert not lost1.detected and lost1.region is None
    assert lost1.u[0] == pytest.approx(0.05)

    lost2, state = vet_law(square_obs(0, 0, t=1.0, detected=False), state, gains, cam)
    assert lost2.u[0] == pytest.approx(0.025)


def test_lost_detection_with_no_history_commands_zero():
    cmd, _ = vet_law(
        square_obs(0, 0, detected=False), VetFilterState.initial(), VetGains(), up_camera()
    )
    np.testing.assert_array_equal(cmd.u, 0.0)
    assert cmd.subtask_weight == 1.0


def test_hold_weight_relaxes_toward_full_subtask():
    """During a blackout the leader's yield fades out with the held command."""
    gains = VetGains(yield_fraction=0.2)
    cam = up_camera()
    # deep in the elastic band: the leader is yielding (weight < 1)
    _, state = vet_law(square_obs(560.0, 240.0, t=0.0), VetFilterState.initial(), gains, cam)
    assert state.held_weight < 1.0
    lost, state2 = vet_law(square_obs(0, 0, t=0.5, detected=False), state, gains, cam)
    assert state.held_weight < lost.subtask_weight < 1.0


def test_rate_damping_opposes_closing_motion():
    gains = wide_gains()
    cam = up_camera()
    _, state = vet_law(square_obs(480.0, 240.0, t=0.0), VetFilterState.initial(), gains, cam)
    moving, _ = vet_law(square_obs(470.0, 240.0, t=0.02), state, gains, cam)
    static, _ = vet_law(square_obs(470.0, 240.0, t=0.02), VetFilterState.initial(), gains, cam)
    assert moving.region is RegionLabel.ELASTIC
    assert moving.u[0] < static.u[0]  # error is shrinking, damping pulls back


def test_rate_filter_resets_after_reacquisition():
    gains = VetGains()
    cam = up_camera()
    _, state = vet_law(square_obs(480.0, 240.0, t=0.0), VetFilterState.initial(), gains, cam)
    _, state = vet_law(square_obs(460.0, 240.0, t=0.02), state, gains, cam)
    assert state.rate != (0.0, 0.0)
    _, state = vet_law(square_obs(0, 0, t=0.04, detected=False), state, gains, cam)
    _, state = vet_law(square_obs(440.0, 240.0, t=0.06), state, gains, cam)
    assert state.rate == (0.0, 0.0)
    assert state.last_center is not None


def test_gain_validation():
    with pytest.raises(ValueError):
        VetGains(k_safe_p=1.0, k_elastic_p=0.5)
    with pytest.raises(ValueError):
        VetGains(yield_fraction=0.0)
    with pytest.raises(ValueError):
        VetGains(u_max_x=0.0)
    with pytest.raises(ValueError, match="hold_half_life must be positive"):
        VetGains(hold_half_life=0.0)
    with pytest.raises(ValueError, match="rate_time_constant must be non-negative"):
        VetGains(rate_time_constant=-0.1)


# --- one-way baseline ---------------------------------------------------------------

def test_baseline_leader_input_is_always_zero():
    for obs in (square_obs(480.0, 240.0), square_obs(0, 0, detected=False)):
        _, leader = baseline_ibvs(obs, VetGains(), up_camera())
        np.testing.assert_array_equal(leader, 0.0)


def test_baseline_commands_zero_on_loss():
    follower, _ = baseline_ibvs(square_obs(0, 0, detected=False), VetGains(), up_camera())
    np.testing.assert_array_equal(follower, 0.0)


def test_baseline_uses_a_uniform_gain_everywhere():
    gains = wide_gains()
    cam = up_camera()
    near, _ = baseline_ibvs(square_obs(340.0, 240.0), gains, cam)
    far, _ = baseline_ibvs(square_obs(480.0, 240.0), gains, cam)
    assert near[0] == pytest.approx(gains.k_elastic_p * 20.0 / 320.0)
    assert far[0] == pytest.approx(gains.k_elastic_p * 160.0 / 320.0)


def test_baseline_is_stateless():
    out1, _ = baseline_ibvs(square_obs(400.0, 300.0), VetGains(), up_camera())
    out2, _ = baseline_ibvs(square_obs(400.0, 300.0), VetGains(), up_camera())
    np.testing.assert_array_equal(out1, out2)


# --- frame mapping and mixing ---------------------------------------------------------

def test_camera_to_body_identity_mount():
    out = camera_to_body(np.array([0.02, -0.03, 0.04]), RigidTransform.identity(), 6)
    np.testing.assert_allclose(out, [0.02, -0.03, 0.0, 0.0, 0.0, 0.04])


def test_camera_to_body_flipped_mount():
    mount = RigidTransform(FLIP_X, np.zeros(3))
    out6 = camera_to_body(np.array([0.02, -0.03, 0.04]), mount, 6)
    np.testing.assert_allclose(out6, [0.02, 0.03, 0.0, 0.0, 0.0, -0.04])
    out3 = camera_to_body(np.array([0.02, -0.03, 0.04]), mount, 3)
    np.testing.assert_allclose(out3, [0.02, 0.03, -0.04])


def test_camera_to_body_never_touches_subtask_axes():
    rng = np.random.default_rng(5)
    mount = RigidTransform(FLIP_X, np.zeros(3))
    for _ in range(20):
        out = camera_to_body(rng.uniform(-1, 1, 3), mount, 6)
        np.testing.assert_array_equal(out[2:5], 0.0)


def params6():
    return VehicleParams(
        mass=(11.0,) * 3 + (0.2, 0.2, 0.25),
        damping_linear=(4.0,) * 3 + (0.07,) * 3,
        damping_quadratic=(18.0,) * 3 + (1.5,) * 3,
        thrust_gain=(5.8,) * 3 + (0.38,) * 3,
        velocity_bound_linear=0.1,
        velocity_bound_angular=0.2,
    )


def test_combined_control_concatenates_disjoint_commands():
    sub = np.array([0.0, 0.0, 0.05, 0.01, 0.0, 0.0])
    xi = np.array([0.02, -0.01, 0.0, 0.0, 0.0, 0.03])
    np.testing.assert_allclose(combined_control(sub, xi, params6()), sub + xi)


def test_combined_control_saturates_the_sum():
    sub = np.array([0.08, 0.0, 0.0, 0.0, 0.0, 0.0])
    xi = np.array([0.08, 0.0, 0.0, 0.0, 0.0, 0.0])
    out = combined_control(sub, xi, params6())
    assert out[0] == pytest.approx(0.1)


def test_combined_control_weight_scales_linear_subtask_only():
    sub = np.array([0.04, 0.02, 0.06, 0.01, 0.0, 0.0])
    xi = np.zeros(6)
    out = combined_control(sub, xi, params6(), subtask_weight=0.5)
    np.testing.assert_allclose(out, [0.02, 0.01, 0.03, 0.01, 0.0, 0.0])


def test_combined_control_rejects_mismatched_shapes():
    with pytest.raises(ValueError):
        combined_control(np.zeros(3), np.zeros(6), params6())


# --- mounting balance ------------------------------------------------------------------

def test_connectivity_residual_for_colocated_mounts():
    ident = RigidTransform.identity()
    flip = RigidTransform(FLIP_X, np.zeros(3))
    pose_u = Pose6(0.4, -0.2, -1.0, EulerAngles(0.0, 0.0, 0.3))
    residual = check_connectivity(ident, ident, flip, flip, pose_u, Pose3(0.0, 0.0, -0.7))
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_connectivity_residual_for_mirrored_offsets():
    cam_u = RigidTransform(np.eye(3), np.array([0.1, 0.0, 0.0]))
    tag_u = RigidTransform.identity()
    cam_s = RigidTransform(FLIP_X, np.array([-0.1, 0.0, 0.0]))
    tag_s = RigidTransform(FLIP_X, np.zeros(3))
    pose_u = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
    residual = check_connectivity(cam_u, tag_u, cam_s, tag_s, pose_u, Pose3(0.0, 0.0, 0.0))
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_connectivity_residual_flags_an_unbalanced_pair():
    offset = RigidTransform(np.eye(3), np.array([0.1, 0.0, 0.0]))
    ident = RigidTransform.identity()
    flip = RigidTransform(FLIP_X, np.zeros(3))
    cam_s = RigidTransform(FLIP_X, np.array([0.1, 0.0, 0.0]))
    pose_u = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
    residual = check_connectivity(offset, ident, cam_s, flip, pose_u, Pose3(0.0, 0.0, 0.0))
    assert residual == pytest.approx(0.2)


# --- coupled geometry properties ----------------------------------------------------------

@settings(max_examples=60)
@given(
    st.floats(0.25, 0.45),
    st.floats(-math.pi, math.pi),
    st.floats(-math.pi, math.pi),
)
def test_world_frame_tether_commands_are_anti_parallel(r, bearing, heading):
    """With aligned headings the two tether pulls cancel exactly (the
    convoy's operating condition once the yaw coupling has converged)."""
    dx, dy = r * math.cos(bearing), r * math.sin(bearing)
    pose_u = Pose6(dx, dy, -1.0, EulerAngles(0.0, 0.0, heading))
    pose_s = Pose3(0.0, 0.0, heading)
    cam_u, cam_s = up_camera(), down_camera()
    tag_u = TagModel(0.1, RigidTransform.identity())
    tag_s = TagModel(0.1, RigidTransform(FLIP_X, np.zeros(3)))

    obs_us = project_tag(pose_u, pose_s, cam_u, tag_s, 0.0)
    obs_su = project_tag(pose_s, pose_u, cam_s, tag_u, 0.0)
    assume(obs_us.detected and obs_su.detected)

    gains = VetGains()
    cmd_us, _ = vet_law(obs_us, VetFilterState.initial(), gains, cam_u)
    cmd_su, _ = vet_law(obs_su, VetFilterState.initial(), gains, cam_s)

    rot_u = np.array(
        [[math.cos(heading), -math.sin(heading)], [math.sin(heading), math.cos(heading)]]
    )
    world_u = rot_u @ camera_to_body(cmd_us.u, cam_u.mount, 6)[:2]
    world_s = (surface_jacobian(heading) @ camera_to_body(cmd_su.u, cam_s.mount, 3))[:2]

    norm_u, norm_s = np.linalg.norm(world_u), np.linalg.norm(world_s)
    assume(norm_u > 1e-9)
    assert norm_s == pytest.approx(norm_u, rel=1e-9)
    cosine = float(world_u @ world_s) / (norm_u * norm_s)
    assert cosine == pytest.approx(-1.0, abs=1e-3)


def test_elastic_stretch_decays_monotonically_in_closed_loop():
    """One robot on a 1-D single-integrator plant servoing on the other's
    tag: the pixel offset shrinks every step until the safe region."""
    cam = up_camera()
    tag_s = TagModel(0.1, RigidTransform(FLIP_X, np.zeros(3)))
    gains = VetGains()
    state = VetFilterState.initial()
    x = 0.5
    dt = 0.02
    xi_trace = []
    regions = []
    for k in range(1500):
        pose_u = Pose6(x, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
        obs = project_tag(pose_u, Pose3(0.0, 0.0, 0.0), cam, tag_s, k * dt)
        assert obs.detected
        xi_trace.append(tether_state(obs, cam).xi)
        cmd, state = vet_law(obs, state, gains, cam)
        regions.append(cmd.region)
        x += dt * float(cmd.u[0])
    assert regions[0] is RegionLabel.ELASTIC
    assert regions[-1] is RegionLabel.SAFE
    diffs = np.diff(np.asarray(xi_trace))
    assert np.all(diffs <= 1e-9)
    assert abs(x) < 0.1


# --- structural isolation -------------------------------------------------------------------

def test_underwater_controller_sees_only_self_measurable_state():
    """The depth controller's measured input carries three states and their
    rates; the surface robot's pose cannot reach it by construction."""
    names = {f.name for f in dataclasses.fields(DepthAttitudeState)}
    assert names == {"z", "phi", "theta", "dz", "dphi", "dtheta"}
    measured = [n for n in names if not n.startswith("d")]
    assert len(measured) == 3  # strictly fewer than the six pose states

    params = inspect.signature(subtask_control_underwater).parameters
    assert list(params) == ["measured", "target", "gains"]
    assert params["measured"].annotation == "DepthAttitudeState"
