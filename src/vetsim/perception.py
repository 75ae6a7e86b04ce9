"""Simulated tag perception.

Each robot carries one square fiducial tag and one camera. The camera is a
pinhole with the optical axis along its +z, image x to the right (width axis)
and image y down (height axis):

    u = f * X / Z + W / 2,   v = f * Y / Z + V / 2.

A tag is detected when all four corners project with positive depth inside
the image rectangle. Mounts are sensor poses expressed in the body frame, so
`mount.rotation` maps camera/tag coordinates into body coordinates.

Image regions partition the frame around the detected tag: a safe box at the
centre sized by the mean tag side length, an elastic band outside it, and a
danger margin near the image border sized by the mean tag diagonal.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frames import Pose3, Pose6, RigidTransform, wrap_angle


class RegionLabel(enum.Enum):
    SAFE = "safe"
    ELASTIC = "elastic"
    DANGER = "danger"


@dataclass(frozen=True)
class CameraModel:
    """Pinhole camera rigidly mounted on a robot body."""

    width: int
    height: int
    focal_length: float
    mount: RigidTransform

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0 or self.focal_length <= 0:
            raise ValueError("camera dimensions and focal length must be positive")

    @cached_property
    def flat_mount(self) -> tuple:
        """The mount as plain floats, converted once (see RigidTransform.flat)."""
        return self.mount.flat()


@dataclass(frozen=True)
class TagModel:
    """Square tag of a given side length mounted on a robot body."""

    side: float
    mount: RigidTransform

    def __post_init__(self) -> None:
        if self.side <= 0:
            raise ValueError("tag side must be positive")

    @cached_property
    def flat_mount(self) -> tuple:
        """The mount as plain floats, converted once (see RigidTransform.flat)."""
        return self.mount.flat()

    def corners_local(self) -> np.ndarray:
        """Corners a, b, c, d counter-clockwise from top-left, z = 0.

        The a->b edge runs along the tag's +x axis (its centreline).
        """
        h = self.side / 2.0
        return np.array(
            [
                [-h, -h, 0.0],
                [h, -h, 0.0],
                [h, h, 0.0],
                [-h, h, 0.0],
            ]
        )


@dataclass(frozen=True)
class DropoutModel:
    """Scheduled blackout windows plus an independent per-tick drop rate,
    drawn from the run's generator (seeded by ScenarioConfig.seed)."""

    scheduled_windows: tuple[tuple[float, ...], ...] = ()
    random_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.random_rate < 1.0:
            raise ValueError("random_rate must be in [0, 1)")
        last_end = -math.inf
        for window in self.scheduled_windows:
            if len(window) != 2 or window[1] < window[0]:
                raise ValueError("each window must be (t_start, t_end) with t_end >= t_start")
            if window[0] < last_end:
                raise ValueError("windows must be ordered and non-overlapping")
            last_end = window[1]

    def scheduled(self, t):
        """Whether a window covers time t, elementwise for an array of times."""
        hit = np.zeros(np.shape(t), dtype=bool)
        for t0, t1 in self.scheduled_windows:
            hit = hit | ((t0 <= t) & (t <= t1))
        return hit

    def blanked(self, t: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Which of the times t the model blanks: the scheduled ones, and others
        at random_rate from one uniform draw per time (no draw at rate 0), so
        a fixed seed reproduces the same drops."""
        drawn = rng.random(len(t)) < self.random_rate if self.random_rate > 0.0 else False
        return self.scheduled(t) | drawn


_MIN_DEPTH = 1e-9


def project_tag(
    observer_pose: Pose6 | Pose3,
    target_pose: Pose6 | Pose3,
    cam: CameraModel,
    tag: TagModel,
) -> tuple:
    """Project the target robot's tag into the observer's camera.

    Returns (pixels, yaw, detected): the eight pixel coordinates ax, ay, bx,
    ..., dy of corners a, b, c, d; the relative yaw; the detected flag. The
    relative yaw is the rotation of the tag's +x axis about the optical
    axis, measured in image coordinates; it is exact regardless of where the
    tag sits in the frame.
    """
    (c0, c1, c2, c3, c4, c5, c6, c7, c8), (cx, cy, cz) = cam.flat_mount
    (o0, o1, o2, o3, o4, o5, o6, o7, o8), (ox, oy, oz) = observer_pose.flat_transform
    # world_from_cam = observer body-to-world composed with the camera mount
    w0 = o0 * c0 + o1 * c3 + o2 * c6
    w1 = o0 * c1 + o1 * c4 + o2 * c7
    w2 = o0 * c2 + o1 * c5 + o2 * c8
    w3 = o3 * c0 + o4 * c3 + o5 * c6
    w4 = o3 * c1 + o4 * c4 + o5 * c7
    w5 = o3 * c2 + o4 * c5 + o5 * c8
    w6 = o6 * c0 + o7 * c3 + o8 * c6
    w7 = o6 * c1 + o7 * c4 + o8 * c7
    w8 = o6 * c2 + o7 * c5 + o8 * c8
    wx = o0 * cx + o1 * cy + o2 * cz + ox
    wy = o3 * cx + o4 * cy + o5 * cz + oy
    wz = o6 * cx + o7 * cy + o8 * cz + oz

    (g0, g1, g2, g3, g4, g5, g6, g7, g8), (gx, gy, gz) = tag.flat_mount
    (r0, r1, r2, r3, r4, r5, r6, r7, r8), (tx, ty, tz) = target_pose.flat_transform
    # the tag's x and y axes and its centre, in the world frame
    ax = r0 * g0 + r1 * g3 + r2 * g6
    ay = r3 * g0 + r4 * g3 + r5 * g6
    az = r6 * g0 + r7 * g3 + r8 * g6
    bx = r0 * g1 + r1 * g4 + r2 * g7
    by = r3 * g1 + r4 * g4 + r5 * g7
    bz = r6 * g1 + r7 * g4 + r8 * g7
    dx = r0 * gx + r1 * gy + r2 * gz + tx - wx
    dy = r3 * gx + r4 * gy + r5 * gz + ty - wy
    dz = r6 * gx + r7 * gy + r8 * gz + tz - wz

    # ... and in camera coordinates (world_from_cam rotation transposed)
    xa0 = w0 * ax + w3 * ay + w6 * az
    xa1 = w1 * ax + w4 * ay + w7 * az
    xa2 = w2 * ax + w5 * ay + w8 * az
    ya0 = w0 * bx + w3 * by + w6 * bz
    ya1 = w1 * bx + w4 * by + w7 * bz
    ya2 = w2 * bx + w5 * by + w8 * bz
    p0 = w0 * dx + w3 * dy + w6 * dz
    p1 = w1 * dx + w4 * dy + w7 * dz
    p2 = w2 * dx + w5 * dy + w8 * dz

    # corners a, b, c, d as in TagModel.corners_local
    h = tag.side / 2.0
    f = cam.focal_length
    width, height = cam.width, cam.height
    half_w, half_v = width / 2.0, height / 2.0
    pixels = []
    detected = True
    for sx, sy in ((-h, -h), (h, -h), (h, h), (-h, h)):
        depth = sx * xa2 + sy * ya2 + p2
        if abs(depth) < _MIN_DEPTH:
            return (0.0,) * 8, 0.0, False
        u = f * (sx * xa0 + sy * ya0 + p0) / depth + half_w
        v = f * (sx * xa1 + sy * ya1 + p1) / depth + half_v
        detected = detected and depth > 0.0 and 0.0 <= u <= width and 0.0 <= v <= height
        pixels += (u, v)
    return pixels, wrap_angle(math.atan2(xa1, xa0)), detected


def tag_geometry(pixels) -> tuple:
    """Centre, mean side length and mean diagonal of a projected tag, from
    the eight corner floats of project_tag.

    Returns ((cx, cy), l_bar, h_bar) in pixels.
    """
    ax, ay, bx, by, cx, cy, dx, dy = pixels
    center = ((ax + bx + cx + dx) / 4.0, (ay + by + cy + dy) / 4.0)
    l_bar = (
        math.hypot(ax - bx, ay - by)
        + math.hypot(bx - cx, by - cy)
        + math.hypot(cx - dx, cy - dy)
        + math.hypot(ax - dx, ay - dy)
    ) / 4.0
    h_bar = (math.hypot(ax - cx, ay - cy) + math.hypot(bx - dx, by - dy)) / 2.0
    return center, l_bar, h_bar


def classify_region(center, l_bar: float, h_bar: float, cam: CameraModel) -> RegionLabel:
    """Label the tag centre as safe, elastic or danger.

    Safe is the open box of half-width l_bar/2 around the image centre;
    elastic is the open box h_bar clear of every border, minus safe; danger
    is everything else. Every pixel receives exactly one label.
    """
    x, y = float(center[0]), float(center[1])
    w, v = float(cam.width), float(cam.height)
    if (w - l_bar) / 2.0 < x < (w + l_bar) / 2.0 and (v - l_bar) / 2.0 < y < (v + l_bar) / 2.0:
        return RegionLabel.SAFE
    if h_bar < x < w - h_bar and h_bar < y < v - h_bar:
        return RegionLabel.ELASTIC
    return RegionLabel.DANGER


def elastic_penetration(center, l_bar: float, h_bar: float, cam: CameraModel) -> float:
    """How far the tag centre sits into the elastic band, per axis maximum.

    0 inside the safe box, 1 at the danger boundary, above 1 inside danger.
    Used by the control layer to fade the leader's own task out as the tag
    drifts toward the border.
    """
    return max(
        _penetration(center[0], cam.width, l_bar, h_bar),
        _penetration(center[1], cam.height, l_bar, h_bar),
    )


def _penetration(value: float, extent: float, l_bar: float, h_bar: float) -> float:
    """elastic_penetration along one image axis."""
    safe_lo = (extent - l_bar) / 2.0
    safe_hi = (extent + l_bar) / 2.0
    depth = max(safe_lo - value, value - safe_hi, 0.0)
    if depth == 0.0:
        return 0.0
    span = safe_lo - h_bar  # distance from the safe edge to the danger edge
    return depth / span if span > 0.0 else math.inf


def tether_offset(center, cam: CameraModel) -> float:
    """xi: the distance in pixels from the image centre to a tag centre."""
    return math.hypot(center[0] - cam.width / 2.0, center[1] - cam.height / 2.0)

