"""Tag projection, image-plane geometry, region labels and dropout."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_geometry import as_flat, homogeneous, mount_matrix, pose_matrix, rot_x, rot_y, rot_z
from vetsim import perception
from vetsim.frames import RigidTransform, flat_transform, wrap_angle
from vetsim.perception import (
    _MIN_DEPTH,
    _UNSEEN_TAG,
    CameraModel,
    UNSEEN,
    DropoutModel,
    TagModel,
    observe,
    project_tag,
)

FLIP_X = ((1.0, 0.0, 0.0), (0.0, -1.0, 0.0), (0.0, 0.0, -1.0))


def up_camera():
    """Underwater camera: aligned with the body, optical axis along +z."""
    return CameraModel(640, 480, 400.0, RigidTransform.identity())


def down_camera():
    return CameraModel(640, 480, 400.0, RigidTransform(FLIP_X, (0.0, 0.0, 0.0)))


def top_tag():
    return TagModel(0.1, RigidTransform.identity())


def bottom_tag():
    return TagModel(0.1, RigidTransform(FLIP_X, (0.0, 0.0, 0.0)))


def project(observer, target, cam, tag):
    """project_tag between two pose tuples."""
    return project_tag(flat_transform(observer), flat_transform(target), cam.flat, tag.flat)


def geometry(observer, target, cam=None, tag=None):
    """The centre, mean side and mean diagonal that project_tag hands observe
    for a detected tag, by default the surface robot's seen from below, or
    None when it measures nothing."""
    handed = []
    with mock.patch.object(perception, "observe", lambda *args: handed.append(args[:3])):
        project(observer, target, cam or up_camera(), tag or bottom_tag())
    assert len(handed) <= 1
    return handed[0] if handed else None


# --- tag geometry -------------------------------------------------------------

def test_square_geometry_anchor():
    # half a metre below the tag: 400 px * 0.1 m / 0.5 m = 80 px sides
    center, l_bar, h_bar = geometry((0.0, 0.0, -0.5, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert center == pytest.approx((320.0, 240.0), abs=1e-9)
    assert l_bar == pytest.approx(80.0, abs=1e-9)
    assert h_bar == pytest.approx(80.0 * math.sqrt(2.0), abs=1e-9)


@given(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5))
def test_geometry_is_translation_invariant(dx, dy):
    """Moving the camera parallel to the tag moves its image by f / depth
    pixels per metre, the other way, and leaves its size alone."""
    c0, l0, h0 = geometry((0.0, 0.0, -1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    c1, l1, h1 = geometry((dx, dy, -1.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert c1[0] - c0[0] == pytest.approx(-400.0 * dx, abs=1e-9)
    assert c1[1] - c0[1] == pytest.approx(-400.0 * dy, abs=1e-9)
    assert l1 == pytest.approx(l0)
    assert h1 == pytest.approx(h0)


def test_geometry_size_survives_cyclic_corner_relabelling():
    # turning the tag by quarter turns relabels its image's corners cyclically
    pose_u = (0.05, -0.1, -1.0, 0.0, 0.0, 0.0)
    c0, l0, h0 = geometry(pose_u, (0.0, 0.0, 0.0))
    for quarter_turns in (1, 2, 3):
        c1, l1, h1 = geometry(pose_u, (0.0, 0.0, quarter_turns * math.pi / 2.0))
        assert c0 == pytest.approx(c1)
        assert l0 == pytest.approx(l1)
        assert h0 == pytest.approx(h1)


# --- region classification ------------------------------------------------------

def test_region_anchors():
    cam = up_camera()
    _, _, region, _, _ = observe((320.0, 240.0), 100.0, 60.0, cam.flat)
    assert region == "safe"
    _, _, region, _, _ = observe((100.0, 240.0), 100.0, 60.0, cam.flat)
    assert region == "elastic"
    _, _, region, _, _ = observe((20.0, 240.0), 100.0, 60.0, cam.flat)
    assert region == "danger"


def test_region_partition_covers_every_pixel():
    cam = up_camera()
    labels = set()
    for x in range(0, 641, 1):
        for y in range(0, 481, 1):
            _, _, region, _, _ = observe((float(x), float(y)), 48.0, 66.0, cam.flat)
            labels.add(region)
    assert labels == {"safe", "elastic", "danger"}


@given(
    st.floats(-50, 690),
    st.floats(-50, 530),
    st.floats(1.0, 400.0),
    st.floats(1.0, 300.0),
)
def test_region_always_classifies(cx, cy, l_bar, h_bar):
    _, _, label, _, _ = observe((cx, cy), l_bar, h_bar, up_camera().flat)
    assert label in ("safe", "elastic", "danger")


@given(
    st.floats(0, 640),
    st.floats(0, 480),
    st.floats(1.0, 300.0),
    st.floats(1.0, 300.0),
    st.floats(0.0, 200.0),
)
def test_growing_tag_never_reduces_safety(cx, cy, l_bar, h_bar, grow):
    """A closer (larger) tag can only move the label toward safe."""
    rank = {"danger": 0, "elastic": 1, "safe": 2}
    cam = up_camera()
    _, _, before, _, _ = observe((cx, cy), l_bar, h_bar, cam.flat)
    _, _, after, _, _ = observe((cx, cy), l_bar + grow, h_bar, cam.flat)
    assert rank[after] >= rank[before]


def test_elastic_penetration_grows_toward_danger():
    cam = up_camera()
    l_bar, h_bar = 48.0, 66.0
    _, _, _, inner, _ = observe((330.0, 240.0), l_bar, h_bar, cam.flat)
    _, _, _, deeper, _ = observe((150.0, 240.0), l_bar, h_bar, cam.flat)
    assert inner == 0.0  # still in the safe box
    assert deeper > 0.0
    # at the elastic border the penetration reaches one
    _, _, _, at_border, _ = observe((float(h_bar), 240.0), l_bar, h_bar, cam.flat)
    assert at_border >= 1.0
    # off the centre on both axes the deeper one counts: 96 px of the 150 px
    # band above the safe box, against 96 px of the 230 px band beside it
    for x in (320.0, 200.0):
        _, _, _, penetration, _ = observe((x, 120.0), l_bar, h_bar, cam.flat)
        assert penetration == pytest.approx(96.0 / 150.0)


def test_observation_offsets_are_normalised_by_the_half_extents():
    cam = up_camera()
    center, error, _, _, xi = observe((480.0, 120.0), 48.0, 66.0, cam.flat)
    assert center == (480.0, 120.0)
    assert error == (0.5, -0.5)
    assert xi == pytest.approx(math.hypot(160.0, 120.0))
    center, error, region, penetration, xi = UNSEEN
    assert center is None and error is None and region == "none"
    assert math.isnan(penetration) and math.isnan(xi)


# --- tether state ---------------------------------------------------------------

def test_tether_state_anchors():
    cam = up_camera()
    l_bar, h_bar = 40.0, 40.0 * math.sqrt(2.0)
    _, _, _, _, xi = observe((350.0, 280.0), l_bar, h_bar, cam.flat)
    assert xi == pytest.approx(50.0)
    _, _, _, _, xi = observe((0.0, 0.0), l_bar, h_bar, cam.flat)
    assert xi == pytest.approx(400.0)
    _, _, _, _, xi = observe((320.0, 240.0), l_bar, h_bar, cam.flat)
    assert xi == 0.0


# --- projection -----------------------------------------------------------------

def test_projection_of_facing_tag_lands_at_image_centre():
    pose_u = (0.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    pose_s = (0.0, 0.0, 0.0)
    (center, error, region, penetration, xi), _ = project(pose_u, pose_s, up_camera(), bottom_tag())
    assert center == pytest.approx((320.0, 240.0), abs=1e-9)
    assert error == pytest.approx((0.0, 0.0), abs=1e-12)
    assert (region, penetration) == ("safe", 0.0)
    assert xi == pytest.approx(0.0, abs=1e-9)
    # apparent side: focal * side / depth = 400 * 0.1 / 1
    _, l_bar, h_bar = geometry(pose_u, pose_s)
    assert l_bar == pytest.approx(40.0, abs=1e-9)
    assert h_bar == pytest.approx(40.0 * math.sqrt(2.0), abs=1e-9)


def test_projection_scales_inversely_with_depth():
    _, l_bar, _ = geometry((0.0, 0.0, -2.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0))
    assert l_bar == pytest.approx(20.0, abs=1e-9)


def test_projection_is_mutual_for_the_default_mounts():
    pose_u = (0.3, -0.2, -1.0, 0.0, 0.0, 0.0)
    pose_s = (0.0, 0.0, 0.0)
    obs_us, _ = project(pose_u, pose_s, up_camera(), bottom_tag())
    obs_su, _ = project(pose_s, pose_u, down_camera(), top_tag())
    assert obs_us is not UNSEEN and obs_su is not UNSEEN


def test_tag_behind_the_camera_is_not_detected():
    pose_u = (0.0, 0.0, 1.0, 0.0, 0.0, 0.0)  # above the surface
    obs, _ = project(pose_u, (0.0, 0.0, 0.0), up_camera(), bottom_tag())
    assert obs is UNSEEN


def test_tag_leaving_the_frame_is_not_detected():
    # 0.9 m lateral offset at 1 m depth projects past the image border
    pose_u = (0.9, 0.0, -1.0, 0.0, 0.0, 0.0)
    obs, _ = project(pose_u, (0.0, 0.0, 0.0), up_camera(), bottom_tag())
    assert obs is UNSEEN


@settings(max_examples=60)
@given(
    st.floats(-0.4, 0.4),
    st.floats(-0.25, 0.25),
    st.floats(-math.pi, math.pi),
)
def test_projected_yaw_round_trip(dx, dy, psi):
    """The reported camera yaw recovers the relative heading exactly."""
    pose_u = (dx, dy, -1.0, 0.0, 0.0, 0.0)
    pose_s = (0.0, 0.0, psi)
    obs, yaw = project(pose_u, pose_s, up_camera(), bottom_tag())
    if obs is UNSEEN:
        return
    # the flipped surface tag appears at the surface robot's own heading,
    # so a yaw-tracking law on this signal aligns the pair
    assert wrap_angle(yaw - psi) == pytest.approx(0.0, abs=1e-6)


def test_projected_pixel_offset_matches_pinhole_model():
    pose_u = (0.25, -0.1, -1.0, 0.0, 0.0, 0.0)
    (center, _, _, _, _), _ = project(pose_u, (0.0, 0.0, 0.0), up_camera(), bottom_tag())
    # relative position of the tag in the camera frame is (-0.25, +0.1, 1)
    assert center[0] == pytest.approx(320.0 - 400.0 * 0.25, abs=1e-9)
    assert center[1] == pytest.approx(240.0 + 400.0 * 0.1, abs=1e-9)


def corners_local(side):
    """Tag corners a, b, c, d counter-clockwise from top-left, z = 0; the
    a->b edge runs along the tag's +x axis (its centreline)."""
    h = side / 2.0
    return np.array([[-h, -h, 0.0], [h, -h, 0.0], [h, h, 0.0], [-h, h, 0.0]])


def reference_projection(observer_pose, target_pose, cam, tag):
    """The projection written with homogeneous transforms and matrix products."""
    world_from_cam = pose_matrix(observer_pose) @ mount_matrix(cam.mount)
    world_from_tag = pose_matrix(target_pose) @ mount_matrix(tag.mount)
    rot_cam = world_from_cam[:3, :3]
    rot_cam_tag = rot_cam.T @ world_from_tag[:3, :3]
    t_cam_tag = rot_cam.T @ (world_from_tag[:3, 3] - world_from_cam[:3, 3])
    corners_cam = corners_local(tag.side) @ rot_cam_tag.T + t_cam_tag
    depths = corners_cam[:, 2]
    pixels = np.empty((4, 2))
    pixels[:, 0] = cam.focal_length * corners_cam[:, 0] / depths + cam.width / 2.0
    pixels[:, 1] = cam.focal_length * corners_cam[:, 1] / depths + cam.height / 2.0
    yaw = wrap_angle(math.atan2(rot_cam_tag[1, 0], rot_cam_tag[0, 0]))
    return pixels, yaw, bool(np.all(depths > 0.0))


def rows(matrix):
    """A numpy rotation as the tuple rows a RigidTransform holds."""
    return tuple(map(tuple, matrix.tolist()))


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
    pose_u = (*position, *attitude)
    pose_s = (0.05, -0.02, psi_s)
    tilt, offset = mount
    cam = CameraModel(640, 480, 400.0, RigidTransform(rows(rot_x(tilt)), (offset, 0.0, 0.02)))
    tag = TagModel(0.1, RigidTransform(rows(FLIP_X @ rot_z(tilt)), (0.0, offset, 0.0)))
    for observer, target in ((pose_u, pose_s), (pose_s, pose_u)):
        obs, camera_yaw = project(observer, target, cam, tag)
        measured = geometry(observer, target, cam, tag)
        pixels, yaw, in_front = reference_projection(observer, target, cam, tag)
        if not in_front:
            assert (obs, camera_yaw) == (UNSEEN, 0.0) and measured is None
            continue
        in_frame = bool(
            np.all((pixels >= 0.0) & (pixels <= np.array([640.0, 480.0])))
        )
        assert (obs is not UNSEEN) == in_frame == (measured is not None)
        if in_frame:  # an undetected tag is measured not at all, its yaw is zero
            center, l_bar, h_bar = measured
            sides = np.linalg.norm(pixels - np.roll(pixels, -1, axis=0), axis=1)
            diagonals = np.linalg.norm(pixels[:2] - pixels[2:], axis=1)
            np.testing.assert_allclose(
                [*center, l_bar, h_bar], [*pixels.mean(axis=0), sides.mean(), diagonals.mean()],
                rtol=1e-12, atol=1e-9,
            )
            assert obs[0] == center
            assert wrap_angle(camera_yaw - yaw) == pytest.approx(0.0, abs=1e-12)


# With the surface robot turned 45 degrees its tag images as a diamond: corner
# a leftmost, b lowest, c rightmost, d highest. Each of these offsets of the
# underwater robot pushes that one corner alone past the image border.
ONE_CORNER_OUT = {"a": (0.75, 0.0), "b": (0.0, -0.55), "c": (-0.75, 0.0), "d": (0.0, 0.55)}


@pytest.mark.parametrize("pose_u", [
    (0.0, 0.0, 1.0, 0.0, 0.0, 0.0),  # above the surface: the tag is behind the camera
    (0.0, 0.0, 0.0, 0.0, 0.0, 0.0),  # every corner at depth zero
    (0.0, 0.0, -0.5 * _MIN_DEPTH, 0.0, 0.0, 0.0),  # in front, but within _MIN_DEPTH
    (0.0, 0.0, 0.5 * _MIN_DEPTH, 0.0, 0.0, 0.0),
    (math.nan, 0.0, -1.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, -1.0, math.nan, 0.0, 0.0),
], ids=["behind", "zero_depth", "near_depth_front", "near_depth_behind", "nan_x", "nan_roll"])
def test_every_undetected_tag_is_the_one_undetected_value(pose_u):
    assert project(pose_u, (0.0, 0.0, 0.0), up_camera(), bottom_tag()) is _UNSEEN_TAG


@pytest.mark.parametrize("corner", sorted(ONE_CORNER_OUT))
def test_a_tag_with_one_corner_out_of_frame_is_the_one_undetected_value(corner):
    pose_u = (*ONE_CORNER_OUT[corner], -1.0, 0.0, 0.0, 0.0)
    pose_s = (0.0, 0.0, math.pi / 4.0)
    pixels, _, in_front = reference_projection(pose_u, pose_s, up_camera(), bottom_tag())
    out = ~np.all((pixels >= 0.0) & (pixels <= np.array([640.0, 480.0])), axis=1)
    assert in_front and out.tolist() == [name == corner for name in "abcd"]
    assert project(pose_u, pose_s, up_camera(), bottom_tag()) is _UNSEEN_TAG


# A corner behind the camera lands inside the image when divided by its
# negative depth only if the image diagonal spans more than 90 degrees (the
# default camera's spans exactly 90), so this camera has f = 100 px. The tag
# sits 0.5 m up its optical axis, turned a quarter turn per corner and tilted
# 60 degrees so that one corner dips behind the camera.
WIDE_CAMERA = CameraModel(640, 480, 100.0, RigidTransform.identity())
QUARTER_TURNS_BEHIND = {"a": 3, "b": 2, "c": 1, "d": 0}


@pytest.mark.parametrize("corner", sorted(QUARTER_TURNS_BEHIND))
def test_a_tag_with_one_corner_behind_the_camera_is_the_one_undetected_value(corner):
    tag = TagModel(math.sqrt(2.0), RigidTransform.identity())
    turn = rot_y(-math.pi / 3.0) @ rot_z((0.5 + QUARTER_TURNS_BEHIND[corner]) * math.pi / 2.0)
    corners = corners_local(tag.side) @ turn.T + (0.0, 0.0, 0.5)
    pixels = 100.0 * corners[:, :2] / corners[:, 2:] + (320.0, 240.0)
    assert (corners[:, 2] < 0.0).tolist() == [name == corner for name in "abcd"]
    assert np.all((pixels >= 0.0) & (pixels <= (640.0, 480.0)))  # the one behind too
    target = as_flat(homogeneous(turn, (0.0, 0.0, 0.5)))
    assert project_tag(as_flat(np.eye(4)), target, WIDE_CAMERA.flat, tag.flat) is _UNSEEN_TAG


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
