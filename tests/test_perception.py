"""Tag projection, image-plane geometry, region labels and dropout."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vetsim.frames import (
    EulerAngles,
    Pose3,
    Pose6,
    RigidTransform,
    compose,
    rotation_about_x,
    rotation_about_z,
    transform_from_pose,
    wrap_angle,
)
from vetsim.perception import (
    CameraModel,
    DropoutModel,
    RegionLabel,
    TagModel,
    classify_region,
    elastic_penetration,
    project_tag,
    tag_geometry,
    tether_offset,
)

FLIP_X = np.diag([1.0, -1.0, -1.0])


def up_camera():
    """Underwater camera: aligned with the body, optical axis along +z."""
    return CameraModel(640, 480, 400.0, RigidTransform.identity())


def down_camera():
    return CameraModel(640, 480, 400.0, RigidTransform(FLIP_X, np.zeros(3)))


def top_tag():
    return TagModel(0.1, RigidTransform.identity())


def bottom_tag():
    return TagModel(0.1, RigidTransform(FLIP_X, np.zeros(3)))


def square(cx, cy, half=20.0):
    """Corner pixels ax, ay, bx, ..., dy of an axis-aligned square tag image."""
    return [cx - half, cy - half, cx + half, cy - half, cx + half, cy + half, cx - half, cy + half]


# --- tag geometry -------------------------------------------------------------

def test_square_geometry_anchor():
    center, l_bar, h_bar = tag_geometry(square(320.0, 240.0))
    assert center == pytest.approx((320.0, 240.0))
    assert l_bar == pytest.approx(40.0)
    assert h_bar == pytest.approx(40.0 * math.sqrt(2.0))


@given(st.floats(-200, 200), st.floats(-200, 200))
def test_geometry_is_translation_invariant(dx, dy):
    base = square(320.0, 240.0)
    moved = [v + (dy if i % 2 else dx) for i, v in enumerate(base)]
    c0, l0, h0 = tag_geometry(base)
    c1, l1, h1 = tag_geometry(moved)
    assert c1[0] - c0[0] == pytest.approx(dx, abs=1e-9)
    assert c1[1] - c0[1] == pytest.approx(dy, abs=1e-9)
    assert l1 == pytest.approx(l0)
    assert h1 == pytest.approx(h0)


def test_geometry_size_survives_cyclic_corner_relabelling():
    pixels = square(300.0, 200.0)
    rolled = pixels[-2:] + pixels[:-2]  # d, a, b, c
    c0, l0, h0 = tag_geometry(pixels)
    c1, l1, h1 = tag_geometry(rolled)
    assert c0 == pytest.approx(c1)
    assert l0 == pytest.approx(l1)
    assert h0 == pytest.approx(h1)


# --- region classification ------------------------------------------------------

def test_region_anchors():
    cam = up_camera()
    assert classify_region((320.0, 240.0), 100.0, 60.0, cam) is RegionLabel.SAFE
    assert classify_region((100.0, 240.0), 100.0, 60.0, cam) is RegionLabel.ELASTIC
    assert classify_region((20.0, 240.0), 100.0, 60.0, cam) is RegionLabel.DANGER


def test_region_partition_covers_every_pixel():
    cam = up_camera()
    labels = {
        classify_region((float(x), float(y)), 48.0, 66.0, cam)
        for x in range(0, 641, 1)
        for y in range(0, 481, 1)
    }
    assert labels == {RegionLabel.SAFE, RegionLabel.ELASTIC, RegionLabel.DANGER}


@given(
    st.floats(-50, 690),
    st.floats(-50, 530),
    st.floats(1.0, 400.0),
    st.floats(1.0, 300.0),
)
def test_region_always_classifies(cx, cy, l_bar, h_bar):
    label = classify_region((cx, cy), l_bar, h_bar, up_camera())
    assert label in (RegionLabel.SAFE, RegionLabel.ELASTIC, RegionLabel.DANGER)


@given(
    st.floats(0, 640),
    st.floats(0, 480),
    st.floats(1.0, 300.0),
    st.floats(1.0, 300.0),
    st.floats(0.0, 200.0),
)
def test_growing_tag_never_reduces_safety(cx, cy, l_bar, h_bar, grow):
    """A closer (larger) tag can only move the label toward safe."""
    rank = {RegionLabel.DANGER: 0, RegionLabel.ELASTIC: 1, RegionLabel.SAFE: 2}
    cam = up_camera()
    before = classify_region((cx, cy), l_bar, h_bar, cam)
    after = classify_region((cx, cy), l_bar + grow, h_bar, cam)
    assert rank[after] >= rank[before]


def test_elastic_penetration_grows_toward_danger():
    cam = up_camera()
    l_bar, h_bar = 48.0, 66.0
    inner = elastic_penetration((330.0, 240.0), l_bar, h_bar, cam)
    deeper = elastic_penetration((150.0, 240.0), l_bar, h_bar, cam)
    assert inner == 0.0  # still in the safe box
    assert deeper > 0.0
    # at the elastic border the penetration reaches one
    at_border = elastic_penetration((float(h_bar), 240.0), l_bar, h_bar, cam)
    assert at_border >= 1.0


# --- tether state ---------------------------------------------------------------

def test_tether_state_anchors():
    cam = up_camera()
    assert tether_offset(tag_geometry(square(350.0, 280.0))[0], cam) == pytest.approx(50.0)
    assert tether_offset(tag_geometry(square(0.0, 0.0))[0], cam) == pytest.approx(400.0)
    assert tether_offset(tag_geometry(square(320.0, 240.0))[0], cam) == 0.0


# --- projection -----------------------------------------------------------------

def test_projection_of_facing_tag_lands_at_image_centre():
    pose_u = Pose6(0.0, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
    pose_s = Pose3(0.0, 0.0, 0.0)
    pixels, _, detected = project_tag(pose_u, pose_s, up_camera(), bottom_tag())
    assert detected
    center, l_bar, h_bar = tag_geometry(pixels)
    assert center == pytest.approx((320.0, 240.0), abs=1e-9)
    # apparent side: focal * side / depth = 400 * 0.1 / 1
    assert l_bar == pytest.approx(40.0, abs=1e-9)
    assert h_bar == pytest.approx(40.0 * math.sqrt(2.0), abs=1e-9)


def test_projection_scales_inversely_with_depth():
    pose_u = Pose6(0.0, 0.0, -2.0, EulerAngles(0.0, 0.0, 0.0))
    pixels, _, _ = project_tag(pose_u, Pose3(0.0, 0.0, 0.0), up_camera(), bottom_tag())
    _, l_bar, _ = tag_geometry(pixels)
    assert l_bar == pytest.approx(20.0, abs=1e-9)


def test_projection_is_mutual_for_the_default_mounts():
    pose_u = Pose6(0.3, -0.2, -1.0, EulerAngles(0.0, 0.0, 0.0))
    pose_s = Pose3(0.0, 0.0, 0.0)
    _, _, detected_us = project_tag(pose_u, pose_s, up_camera(), bottom_tag())
    _, _, detected_su = project_tag(pose_s, pose_u, down_camera(), top_tag())
    assert detected_us and detected_su


def test_tag_behind_the_camera_is_not_detected():
    pose_u = Pose6(0.0, 0.0, 1.0, EulerAngles(0.0, 0.0, 0.0))  # above the surface
    _, _, detected = project_tag(pose_u, Pose3(0.0, 0.0, 0.0), up_camera(), bottom_tag())
    assert not detected


def test_tag_leaving_the_frame_is_not_detected():
    # 0.9 m lateral offset at 1 m depth projects past the image border
    pose_u = Pose6(0.9, 0.0, -1.0, EulerAngles(0.0, 0.0, 0.0))
    _, _, detected = project_tag(pose_u, Pose3(0.0, 0.0, 0.0), up_camera(), bottom_tag())
    assert not detected


@settings(max_examples=60)
@given(
    st.floats(-0.4, 0.4),
    st.floats(-0.25, 0.25),
    st.floats(-math.pi, math.pi),
)
def test_projected_yaw_round_trip(dx, dy, psi):
    """The reported camera yaw recovers the relative heading exactly."""
    pose_u = Pose6(dx, dy, -1.0, EulerAngles(0.0, 0.0, 0.0))
    pose_s = Pose3(0.0, 0.0, psi)
    _, yaw, detected = project_tag(pose_u, pose_s, up_camera(), bottom_tag())
    if not detected:
        return
    # the flipped surface tag appears at the surface robot's own heading,
    # so a yaw-tracking law on this signal aligns the pair
    assert wrap_angle(yaw - psi) == pytest.approx(0.0, abs=1e-6)


def test_projected_pixel_offset_matches_pinhole_model():
    pose_u = Pose6(0.25, -0.1, -1.0, EulerAngles(0.0, 0.0, 0.0))
    pixels, _, _ = project_tag(pose_u, Pose3(0.0, 0.0, 0.0), up_camera(), bottom_tag())
    center, _, _ = tag_geometry(pixels)
    # relative position of the tag in the camera frame is (-0.25, +0.1, 1)
    assert center[0] == pytest.approx(320.0 - 400.0 * 0.25, abs=1e-9)
    assert center[1] == pytest.approx(240.0 + 400.0 * 0.1, abs=1e-9)


def reference_projection(observer_pose, target_pose, cam, tag):
    """The projection written with rigid transforms and matrix products."""
    world_from_cam = compose(transform_from_pose(observer_pose), cam.mount)
    world_from_tag = compose(transform_from_pose(target_pose), tag.mount)
    rot_cam_tag = world_from_cam.rotation.T @ world_from_tag.rotation
    t_cam_tag = world_from_cam.rotation.T @ (
        world_from_tag.translation - world_from_cam.translation
    )
    corners_cam = tag.corners_local() @ rot_cam_tag.T + t_cam_tag
    depths = corners_cam[:, 2]
    pixels = np.empty((4, 2))
    pixels[:, 0] = cam.focal_length * corners_cam[:, 0] / depths + cam.width / 2.0
    pixels[:, 1] = cam.focal_length * corners_cam[:, 1] / depths + cam.height / 2.0
    yaw = wrap_angle(math.atan2(rot_cam_tag[1, 0], rot_cam_tag[0, 0]))
    return pixels, yaw, bool(np.all(depths > 0.0))


angle = st.floats(-0.5, 0.5)


@settings(max_examples=80)
@given(
    st.tuples(st.floats(-0.3, 0.3), st.floats(-0.3, 0.3), st.floats(-1.5, -0.5)),
    st.tuples(angle, angle, st.floats(-math.pi, math.pi)),
    st.floats(-math.pi, math.pi),
    st.tuples(angle, st.floats(-0.05, 0.05)),
)
def test_projection_matches_the_rigid_transform_reference(position, attitude, psi_s, mount):
    """Both directions, with non-trivial mounts, agree with the matrix form."""
    pose_u = Pose6(*position, EulerAngles(*attitude))
    pose_s = Pose3(0.05, -0.02, psi_s)
    tilt, offset = mount
    cam = CameraModel(
        640, 480, 400.0, RigidTransform(rotation_about_x(tilt), np.array([offset, 0.0, 0.02]))
    )
    tag = TagModel(
        0.1, RigidTransform(FLIP_X @ rotation_about_z(tilt), np.array([0.0, offset, 0.0]))
    )
    for observer, target in ((pose_u, pose_s), (pose_s, pose_u)):
        corners, camera_yaw, detected = project_tag(observer, target, cam, tag)
        pixels, yaw, in_front = reference_projection(observer, target, cam, tag)
        if not in_front:
            assert not detected
            continue
        np.testing.assert_allclose(np.reshape(corners, (4, 2)), pixels, rtol=1e-12, atol=1e-9)
        assert wrap_angle(camera_yaw - yaw) == pytest.approx(0.0, abs=1e-12)
        in_frame = bool(
            np.all((pixels >= 0.0) & (pixels <= np.array([640.0, 480.0])))
        )
        assert detected == in_frame


# --- dropout ----------------------------------------------------------------------

def ticks(n, dt=0.02):
    return np.arange(n) * dt


def test_scheduled_window_forces_loss():
    model = DropoutModel(scheduled_windows=((2.0, 4.0),))
    t = np.array([1.0, 2.0, 4.0, 4.5])
    hits = model.blanked(t, np.random.default_rng(0))
    np.testing.assert_array_equal(hits, [False, True, True, False])
    # a single time still works
    assert model.scheduled(2.0) and not model.scheduled(4.5)


def test_zero_rate_passes_the_observation_through():
    # no drop and no draw: the seeded sequence of later draws is untouched
    model = DropoutModel()
    rng = np.random.default_rng(0)
    assert not model.blanked(ticks(100), rng).any()
    assert rng.random() == np.random.default_rng(0).random()


def test_random_rate_drop_count_is_binomial():
    rate = 0.3
    n = 10_000
    model = DropoutModel(random_rate=rate)
    dropped = int(model.blanked(ticks(n), np.random.default_rng(42)).sum())
    sigma = math.sqrt(n * rate * (1.0 - rate))
    assert abs(dropped - n * rate) <= 3.0 * sigma


def test_random_dropout_is_reproducible():
    model = DropoutModel(random_rate=0.5)
    seq_a = model.blanked(ticks(1), np.random.default_rng(9))
    seq1 = model.blanked(ticks(200), np.random.default_rng(9))
    seq2 = model.blanked(ticks(200), np.random.default_rng(9))
    np.testing.assert_array_equal(seq1, seq2)
    assert seq_a[0] == seq1[0]


def test_one_array_draw_equals_as_many_scalar_draws():
    # why blanking a whole run at once reproduces the per-tick drops
    n = 1000
    rng = np.random.default_rng(5)
    scalar = [rng.random() for _ in range(n)]
    assert np.random.default_rng(5).random(n).tolist() == scalar
    model = DropoutModel(scheduled_windows=((1.0, 2.0),), random_rate=0.3)
    t = ticks(n)
    per_tick = [bool(model.scheduled(tk)) or u < 0.3 for tk, u in zip(t.tolist(), scalar)]
    assert model.blanked(t, np.random.default_rng(5)).tolist() == per_tick


def test_dropout_model_rejects_bad_windows():
    with pytest.raises(ValueError):
        DropoutModel(scheduled_windows=((3.0, 2.0),))
    with pytest.raises(ValueError):
        DropoutModel(scheduled_windows=((0.0, 2.0), (1.0, 3.0)))
    with pytest.raises(ValueError):
        DropoutModel(random_rate=1.0)
