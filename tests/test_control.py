"""Sub-task PD laws, the elastic tether law and mounting checks."""

import inspect
import math
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from vetsim.control import (
    DepthAttitudeState,
    PdGains,
    VET_START,
    VetGains,
    baseline_ibvs,
    camera_to_body,
    check_connectivity,
    subtask_control_surface,
    subtask_control_underwater,
    uniform_pd,
    vet_law,
)
from vetsim.frames import RigidTransform, flat_transform, wrap_angle
from vetsim.perception import UNSEEN, CameraModel, TagModel, observe, project_tag

FLIP_X = ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))
ZERO = (0.0, 0.0, 0.0)


def up_camera():
    return CameraModel(640, 480, 400.0, RigidTransform.identity())


def down_camera():
    return CameraModel(640, 480, 400.0, RigidTransform(FLIP_X, ZERO))


def seen(cx, cy, cam, half=20.0):
    """The observation of a detected axis-aligned square tag image centred at
    (cx, cy), its sides 2 * half pixels long, as project_tag measures one."""
    return observe((cx, cy), 2.0 * half, math.hypot(2.0 * half, 2.0 * half), cam.flat)


def wide_gains(**overrides):
    """Tether gains with bounds high enough that nothing clips."""
    base = dict(u_max_x=1.0, u_max_y=1.0)
    base.update(overrides)
    return VetGains(**base)


# --- sub-task controllers ------------------------------------------------------

def surface_command(pose, nu, target, gains, speed_limit=None):
    """subtask_control_surface at a pose tuple, with its rotation."""
    return subtask_control_surface(
        pose, flat_transform(pose)[0], nu, target, gains.flat, speed_limit
    )


def test_depth_error_anchor():
    gains = uniform_pd(0.5, 0.15)
    state = DepthAttitudeState(z=-1.5, phi=0.0, theta=0.0, dz=0.0, dphi=0.0, dtheta=0.0)
    target = (-1.0, 0.0, 0.0)  # (z, phi, theta)
    u = subtask_control_underwater(state, target, gains.flat)
    assert u[2] == pytest.approx(0.25)
    assert [u[0], u[1], u[5]] == [0.0, 0.0, 0.0]


def test_attitude_errors_wrap():
    gains = uniform_pd(1.0, 0.0)
    state = DepthAttitudeState(
        z=-1.0, phi=-math.pi + 0.1, theta=0.0, dz=0.0, dphi=0.0, dtheta=0.0
    )
    target = (-1.0, math.pi - 0.1, 0.0)
    u = subtask_control_underwater(state, target, gains.flat)
    assert u[3] == pytest.approx(-0.2)  # short way round, not 2*pi - 0.2


@pytest.mark.parametrize("target, measured", [
    (0.3, 0.0), (math.pi - 0.1, -math.pi + 0.1), (-math.pi, 0.0), (0.0, math.pi),
    (3.0 * math.pi / 2, 0.25), (-7.5, 2.0), (1e6, -1e6),
])
def test_the_pds_wrap_their_angle_errors_as_wrap_angle_does(target, measured):
    """Both PDs write frames.wrap_angle's expression out: with unit
    proportional gains and no damping, their angle outputs are wrap_angle of
    the error bit for bit, the -pi boundary included."""
    gains = uniform_pd(1.0, 0.0).flat
    wrapped = wrap_angle(target - measured)
    state = DepthAttitudeState(z=0.0, phi=measured, theta=measured, dz=0.0, dphi=0.0, dtheta=0.0)
    u = subtask_control_underwater(state, (0.0, target, target), gains)
    assert u[3] == u[4] == wrapped
    pose = (0.0, 0.0, measured)
    u = subtask_control_surface(pose, flat_transform(pose)[0], ZERO, (0.0, 0.0, target), gains,
                                None)
    assert u[2] == wrapped


def test_underwater_x_y_and_yaw_outputs_are_zero_for_any_gains():
    # the gains are (z, phi, theta) only: no gain can reach the other three axes
    gains = PdGains((0.7, 1.3, 2.1), (0.4, 0.9, 1.7))
    state = DepthAttitudeState(z=-1.5, phi=0.2, theta=-0.3, dz=0.1, dphi=-0.2, dtheta=0.3)
    u = subtask_control_underwater(state, (-1.0, 0.0, 0.0), gains.flat)
    assert all(v != 0.0 for v in u[2:5])
    assert [u[0], u[1], u[5]] == [0.0, 0.0, 0.0]
    assert u[2] == pytest.approx(0.7 * 0.5 - 0.4 * 0.1)


def test_surface_anchor():
    u = surface_command(
        (0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.1, 0.0, 0.0), uniform_pd(1.0, 0.0)
    )
    assert u[0] == pytest.approx(0.1)
    assert u[1] == 0.0 and u[2] == 0.0


def test_surface_yaw_anchor():
    u = surface_command(
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
        (0.0, 0.0, math.pi / 2),
        uniform_pd(1.0, 0.0),
    )
    assert u[2] == pytest.approx(math.pi / 2)


def test_surface_error_rotates_into_the_body_frame():
    # world +x error seen from a vehicle yawed +90 degrees is a -y body error
    u = surface_command(
        (0.0, 0.0, math.pi / 2),
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        uniform_pd(1.0, 0.0),
    )
    assert u[0] == pytest.approx(0.0, abs=1e-12)
    assert u[1] == pytest.approx(-1.0)


def test_surface_speed_limit_clips_linear_axes_only():
    u = surface_command(
        (0.0, 0.0, 0.0),
        (0.0, 0.0, 0.0),
        (5.0, 0.0, 1.0),
        uniform_pd(1.0, 0.0),
        speed_limit=0.1,
    )
    assert u[0] == pytest.approx(0.1)
    assert u[2] == pytest.approx(1.0)


def test_surface_controller_is_zero_at_the_target():
    pose = (0.7, -0.3, 1.1)
    u = surface_command(
        pose, (0.0, 0.0, 0.0), (0.7, -0.3, 1.1), uniform_pd(5.0, 5.0)
    )
    np.testing.assert_allclose(u, 0.0, atol=1e-12)


# --- tether law ------------------------------------------------------------------

def test_tether_command_is_zero_at_the_image_centre():
    cam = up_camera()
    obs = seen(320.0, 240.0, cam)
    _, _, region, _, _ = obs
    assert region == "safe"
    u, weight, _ = vet_law(obs, 0.0, 0.0, VET_START, VetGains().flat, cam.flat)
    np.testing.assert_allclose(u, 0.0, atol=1e-9)
    assert weight == 1.0


def test_elastic_gain_anchor():
    # half-normalised offset with unit elastic gain and no clipping
    cam = up_camera()
    obs = seen(480.0, 240.0, cam)
    _, _, region, _, _ = obs
    assert region == "elastic"
    u, _, _ = vet_law(obs, 0.0, 0.0, VET_START, wide_gains().flat, cam.flat)
    assert u[0] == pytest.approx(0.5)
    assert u[1] == pytest.approx(0.0)


def test_safe_region_uses_the_weaker_gain():
    cam = up_camera()
    obs = seen(330.0, 240.0, cam, half=40.0)  # l_bar 80, inside the safe box
    _, _, region, _, _ = obs
    assert region == "safe"
    u, _, _ = vet_law(obs, 0.0, 0.0, VET_START, wide_gains().flat, cam.flat)
    assert u[0] == pytest.approx(0.5 * 10.0 / 320.0)


def test_danger_region_commands_the_bound_along_the_error():
    cam = up_camera()
    obs = seen(20.0, 240.0, cam)
    _, _, region, _, _ = obs
    assert region == "danger"
    u, _, _ = vet_law(obs, 0.0, 0.0, VET_START, VetGains().flat, cam.flat)
    assert abs(u[0]) == pytest.approx(0.1)
    assert u[0] < 0.0
    assert u[1] == pytest.approx(0.0, abs=1e-12)


def test_danger_region_with_no_error_commands_only_the_yaw():
    # built by hand: observe() puts a centred tag in the safe box, whose half-width
    # l_bar / 2 is above zero for any tag it measures
    obs = ((320.0, 240.0), (0.0, 0.0), "danger", 1.5, 0.0)
    gains = VetGains(k_psi=0.5)
    u, weight, _ = vet_law(obs, 0.4, 0.0, VET_START, gains.flat, up_camera().flat)
    assert u == (0.0, 0.0, gains.k_psi * 0.4)
    assert weight == 0.0


def test_command_clips_per_axis():
    cam = up_camera()
    u, _, _ = vet_law(seen(480.0, 240.0, cam), 0.0, 0.0, VET_START, VetGains().flat, cam.flat)
    assert u[0] == pytest.approx(0.1)  # 0.5 raw, clipped to u_max


# an error component and the command component both tether laws make of it at
# unit gain, clipped to the default u_max of 0.1
CLIP_CASES = {
    "nan": (math.nan, math.nan),
    "zero": (0.0, 0.0),
    "negative_zero": (-0.0, -0.0),
    "upper_bound": (0.1, 0.1),
    "lower_bound": (-0.1, -0.1),
    "past_upper": (0.5, 0.1),
    "past_lower": (-math.inf, -0.1),
}


@pytest.mark.parametrize("case", CLIP_CASES)
def test_tether_laws_clip_bit_for_bit_and_pass_nan(case):
    """The per-axis clip keeps -0.0 and the exact bounds bit for bit and lets
    a NaN error through, in vet_law and baseline_ibvs alike."""
    error, expected = CLIP_CASES[case]
    obs = ((320.0, 240.0), (error, error), "safe", 0.0, 0.0)
    cam = up_camera()
    gains = VetGains(k_safe_p=1.0, k_elastic_p=2.0)
    vet, _, _ = vet_law(obs, 0.0, 0.0, VET_START, gains.flat, cam.flat)
    base = baseline_ibvs(obs, 0.0, VetGains(k_elastic_p=1.0).flat)
    for got in (*vet[:2], *base[:2]):
        if math.isnan(expected):
            assert math.isnan(got)
        else:
            assert struct.pack("<d", got) == struct.pack("<d", expected)


def test_yaw_gain_acts_on_the_relative_yaw():
    cam = up_camera()
    u, _, _ = vet_law(
        seen(320.0, 240.0, cam), 0.4, 0.0, VET_START, VetGains(k_psi=0.5).flat, cam.flat
    )
    assert u[2] == pytest.approx(0.2)


def test_lost_detection_holds_and_decays_the_command():
    gains = VetGains()  # hold_half_life 0.5 s
    cam = up_camera()
    u0, _, state = vet_law(seen(480.0, 240.0, cam), 0.0, 0.0, VET_START, gains.flat, cam.flat)
    assert u0[0] == pytest.approx(0.1)

    lost1, _, state = vet_law(UNSEEN, 0.0, 0.5, state, gains.flat, cam.flat)
    assert lost1[0] == pytest.approx(0.05)

    lost2, _, state = vet_law(UNSEEN, 0.0, 1.0, state, gains.flat, cam.flat)
    assert lost2[0] == pytest.approx(0.025)


def test_lost_detection_with_no_history_commands_zero():
    u, weight, _ = vet_law(UNSEEN, 0.0, 0.0, VET_START, VetGains().flat, up_camera().flat)
    assert list(u) == [0.0, 0.0, 0.0]
    assert weight == 1.0


def test_hold_weight_relaxes_toward_full_subtask():
    """During a blackout the leader's yield fades out with the held command."""
    gains = VetGains(yield_fraction=0.2)
    cam = up_camera()
    # deep in the elastic band: the leader is yielding (weight < 1)
    _, _, state = vet_law(seen(560.0, 240.0, cam), 0.0, 0.0, VET_START, gains.flat, cam.flat)
    _, _, _, _, held_weight = state
    assert held_weight < 1.0
    _, weight, _ = vet_law(UNSEEN, 0.0, 0.5, state, gains.flat, cam.flat)
    assert held_weight < weight < 1.0


def test_rate_damping_opposes_closing_motion():
    gains = wide_gains()
    cam = up_camera()
    _, _, state = vet_law(seen(480.0, 240.0, cam), 0.0, 0.0, VET_START, gains.flat, cam.flat)
    obs = seen(470.0, 240.0, cam)
    moving, _, _ = vet_law(obs, 0.0, 0.02, state, gains.flat, cam.flat)
    static, _, _ = vet_law(obs, 0.0, 0.02, VET_START, gains.flat, cam.flat)
    _, _, region, _, _ = obs
    assert region == "elastic"
    assert moving[0] < static[0]  # error is shrinking, damping pulls back


def test_rate_filter_resets_after_reacquisition():
    gains = VetGains()
    cam = up_camera()
    _, _, state = vet_law(seen(480.0, 240.0, cam), 0.0, 0.0, VET_START, gains.flat, cam.flat)
    _, _, state = vet_law(seen(460.0, 240.0, cam), 0.0, 0.02, state, gains.flat, cam.flat)
    _, _, rate, _, _ = state
    assert rate != (0.0, 0.0)
    _, _, state = vet_law(UNSEEN, 0.0, 0.04, state, gains.flat, cam.flat)
    _, _, state = vet_law(seen(440.0, 240.0, cam), 0.0, 0.06, state, gains.flat, cam.flat)
    last_center, _, rate, _, _ = state
    assert rate == (0.0, 0.0)
    assert last_center is not None


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

def test_baseline_commands_zero_on_loss():
    follower = baseline_ibvs(UNSEEN, 0.0, VetGains().flat)
    assert list(follower) == [0.0, 0.0, 0.0]


def test_baseline_uses_a_uniform_gain_everywhere():
    gains = wide_gains()
    cam = up_camera()
    near = baseline_ibvs(seen(340.0, 240.0, cam), 0.0, gains.flat)
    far = baseline_ibvs(seen(480.0, 240.0, cam), 0.0, gains.flat)
    assert near[0] == pytest.approx(gains.k_elastic_p * 20.0 / 320.0)
    assert far[0] == pytest.approx(gains.k_elastic_p * 160.0 / 320.0)


def test_baseline_is_stateless():
    cam = up_camera()
    out1 = baseline_ibvs(seen(400.0, 300.0, cam), 0.0, VetGains().flat)
    out2 = baseline_ibvs(seen(400.0, 300.0, cam), 0.0, VetGains().flat)
    assert out1 == out2


# --- frame mapping and mixing ---------------------------------------------------------

# camera mounts as the nine row-major rotation entries camera_to_body takes
IDENTITY = RigidTransform.identity().flat[0]
FLIPPED = RigidTransform(FLIP_X, ZERO).flat[0]


def test_camera_to_body_identity_mount():
    out = camera_to_body((0.02, -0.03, 0.04), IDENTITY, 6)
    np.testing.assert_allclose(out, [0.02, -0.03, 0.0, 0.0, 0.0, 0.04])


def test_camera_to_body_flipped_mount():
    out6 = camera_to_body((0.02, -0.03, 0.04), FLIPPED, 6)
    np.testing.assert_allclose(out6, [0.02, 0.03, 0.0, 0.0, 0.0, -0.04])
    out3 = camera_to_body((0.02, -0.03, 0.04), FLIPPED, 3)
    np.testing.assert_allclose(out3, [0.02, 0.03, -0.04])


@pytest.mark.parametrize("yaw", [0.3, -2.0])
@pytest.mark.parametrize("base", [((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)), FLIP_X],
                         ids=["up", "down"])
def test_camera_to_body_with_a_yawed_mount_matches_the_rotation(base, yaw):
    # a mount turned about the optical axis has non-zero r1 and r3, so every
    # term of the linear part counts
    c, s = math.cos(yaw), math.sin(yaw)
    rot = np.array(base) @ np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    mount = RigidTransform(tuple(map(tuple, rot.tolist())), ZERO).flat[0]
    assert mount[1] != 0.0 and mount[3] != 0.0
    rng = np.random.default_rng(11)
    for cx, cy, cpsi in rng.uniform(-1, 1, (20, 3)).tolist():
        linear = rot @ [cx, cy, 0.0]  # rotates as a vector
        spin = rot @ [0.0, 0.0, cpsi]  # rotates as an axis
        expected6 = [linear[0], linear[1], 0.0, 0.0, 0.0, spin[2]]
        np.testing.assert_allclose(camera_to_body((cx, cy, cpsi), mount, 6), expected6,
                                   rtol=1e-12, atol=1e-15)
        np.testing.assert_allclose(camera_to_body((cx, cy, cpsi), mount, 3),
                                   [linear[0], linear[1], spin[2]], rtol=1e-12, atol=1e-15)


def test_camera_to_body_never_touches_subtask_axes():
    rng = np.random.default_rng(5)
    for _ in range(20):
        out = camera_to_body(rng.uniform(-1, 1, 3).tolist(), FLIPPED, 6)
        assert out[2:5] == [0.0, 0.0, 0.0]


# --- mounting balance ------------------------------------------------------------------

def test_connectivity_residual_for_colocated_mounts():
    ident, flip = (IDENTITY, ZERO), (FLIPPED, ZERO)
    pose_u = (0.4, -0.2, -1.0, 0.0, 0.0, 0.3)
    residual = check_connectivity(ident, ident, flip, flip, pose_u, (0.0, 0.0, -0.7))
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_connectivity_residual_for_mirrored_offsets():
    cam_u = (IDENTITY, (0.1, 0.0, 0.0))
    tag_u = (IDENTITY, ZERO)
    cam_s = (FLIPPED, (-0.1, 0.0, 0.0))
    tag_s = (FLIPPED, ZERO)
    pose_u = (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    residual = check_connectivity(cam_u, tag_u, cam_s, tag_s, pose_u, (0.0, 0.0, 0.0))
    assert residual == pytest.approx(0.0, abs=1e-12)


def test_connectivity_residual_flags_an_unbalanced_pair():
    offset = (IDENTITY, (0.1, 0.0, 0.0))
    ident = (IDENTITY, ZERO)
    flip = (FLIPPED, ZERO)
    cam_s = (FLIPPED, (0.1, 0.0, 0.0))
    pose_u = (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    residual = check_connectivity(offset, ident, cam_s, flip, pose_u, (0.0, 0.0, 0.0))
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
    pose_u = (dx, dy, -1.0, 0.0, 0.0, heading)
    pose_s = (0.0, 0.0, heading)
    cam_u, cam_s = up_camera(), down_camera()
    tag_u = TagModel(0.1, RigidTransform.identity())
    tag_s = TagModel(0.1, RigidTransform(FLIP_X, ZERO))

    tf_u, tf_s = flat_transform(pose_u), flat_transform(pose_s)
    obs_us, yaw_us = project_tag(tf_u, tf_s, cam_u.flat, tag_s.flat)
    obs_su, yaw_su = project_tag(tf_s, tf_u, cam_s.flat, tag_u.flat)
    assume(obs_us is not UNSEEN and obs_su is not UNSEEN)

    gains = VetGains()
    state = VET_START
    cmd_us, _, _ = vet_law(obs_us, yaw_us, 0.0, state, gains.flat, cam_u.flat)
    cmd_su, _, _ = vet_law(obs_su, yaw_su, 0.0, state, gains.flat, cam_s.flat)

    rot = np.array(
        [[math.cos(heading), -math.sin(heading)], [math.sin(heading), math.cos(heading)]]
    )
    world_u = rot @ camera_to_body(cmd_us, cam_u.mount.flat[0], 6)[:2]
    world_s = rot @ camera_to_body(cmd_su, cam_s.mount.flat[0], 3)[:2]

    norm_u, norm_s = np.linalg.norm(world_u), np.linalg.norm(world_s)
    assume(norm_u > 1e-9)
    assert norm_s == pytest.approx(norm_u, rel=1e-9)
    cosine = float(world_u @ world_s) / (norm_u * norm_s)
    assert cosine == pytest.approx(-1.0, abs=1e-3)


def test_elastic_stretch_decays_monotonically_in_closed_loop():
    """One robot on a 1-D single-integrator plant servoing on the other's
    tag: the pixel offset shrinks every step until the safe region."""
    cam = up_camera()
    tag_s = TagModel(0.1, RigidTransform(FLIP_X, ZERO))
    gains = VetGains()
    state = VET_START
    x = 0.5
    dt = 0.02
    xi_trace = []
    regions = []
    for k in range(1500):
        observer = flat_transform((x, 0.0, -1.0, 0.0, 0.0, 0.0))
        obs, yaw = project_tag(observer, flat_transform((0.0, 0.0, 0.0)), cam.flat, tag_s.flat)
        assert obs is not UNSEEN
        _, _, region, _, xi = obs
        xi_trace.append(xi)
        u, _, state = vet_law(obs, yaw, k * dt, state, gains.flat, cam.flat)
        regions.append(region)
        x += dt * u[0]
    assert regions[0] == "elastic"
    assert regions[-1] == "safe"
    diffs = np.diff(np.asarray(xi_trace))
    assert np.all(diffs <= 1e-9)
    assert abs(x) < 0.1


# --- structural isolation -------------------------------------------------------------------

def test_underwater_controller_sees_only_self_measurable_state():
    """The depth controller's measured input carries three states and their
    rates; the surface robot's pose cannot reach it by construction."""
    names = set(DepthAttitudeState._fields)
    assert names == {"z", "phi", "theta", "dz", "dphi", "dtheta"}
    measured = [n for n in names if not n.startswith("d")]
    assert len(measured) == 3  # strictly fewer than the six pose states

    params = inspect.signature(subtask_control_underwater).parameters
    assert list(params) == ["measured", "target", "gains"]
    assert params["measured"].annotation == "DepthAttitudeState"
