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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .frames import TWO_PI, RigidTransform


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
    def flat(self) -> tuple:
        """(mount.flat, width, height, focal_length, width / 2.0, height / 2.0),
        made once: the form the tick reads."""
        return (self.mount.flat, self.width, self.height, self.focal_length,
                self.width / 2.0, self.height / 2.0)


@dataclass(frozen=True)
class TagModel:
    """Square tag of a given side length mounted on a robot body.

    Its corners a, b, c, d run counter-clockwise from top-left in the tag
    plane z = 0, at (-h, -h), (h, -h), (h, h), (-h, h) for h = side / 2; the
    a->b edge runs along the tag's +x axis (its centreline).
    """

    side: float
    mount: RigidTransform

    def __post_init__(self) -> None:
        if self.side <= 0:
            raise ValueError("tag side must be positive")

    @cached_property
    def flat(self) -> tuple:
        """(mount.flat, side, side / 2.0), made once: the form the tick reads."""
        return self.mount.flat, self.side, self.side / 2.0


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

UNSEEN = (None, None, "none", math.nan, math.nan)
"""The observation of a tag the camera does not detect, in observe's layout."""

_UNSEEN_TAG = (UNSEEN, 0.0)
"""project_tag's result for every tag the camera does not detect, and the
run loop's for a blanked camera."""


def project_tag(observer: tuple, target: tuple, cam: tuple, tag: tuple) -> tuple:
    """Project the target robot's tag into the observer's camera and measure it.

    observer and target are the two bodies' flat transforms, (nine row-major
    body-to-world rotation floats, (x, y, z)), as frames.flat_transform gives;
    cam and tag are the observer's CameraModel.flat and the target's
    TagModel.flat.

    Returns (observation, yaw) for a detected tag: observe's tuple, from the
    centre, mean side length and mean diagonal of the projected corners a,
    b, c, d, and the relative yaw, the rotation of the tag's +x axis about
    the optical axis, measured in image coordinates; it is exact regardless
    of where the tag sits in the frame. Returns _UNSEEN_TAG itself, UNSEEN
    with a zero yaw, for a tag with a corner less than _MIN_DEPTH in front
    of the camera or outside the image, or with a NaN in its pose.
    """
    ((c0, c1, c2, c3, c4, c5, c6, c7, c8), (cx, cy, cz)), width, height, f, half_w, half_v = cam
    (o0, o1, o2, o3, o4, o5, o6, o7, o8), (ox, oy, oz) = observer
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

    ((g0, g1, g2, g3, g4, g5, g6, g7, g8), (gx, gy, gz)), _, h = tag
    (r0, r1, r2, r3, r4, r5, r6, r7, r8), (tx, ty, tz) = target
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

    # corners a, b, c, d as in TagModel, at -hx - hy, hx - hy, hx + hy and
    # -hx + hy from the tag centre; the first one out of view ends it
    hx0, hx1, hx2 = h * xa0, h * xa1, h * xa2
    hy0, hy1, hy2 = h * ya0, h * ya1, h * ya2
    if (da := -hx2 - hy2 + p2) < _MIN_DEPTH:
        return _UNSEEN_TAG
    ua, va = f * (-hx0 - hy0 + p0) / da + half_w, f * (-hx1 - hy1 + p1) / da + half_v
    if not (0.0 <= ua <= width and 0.0 <= va <= height):
        return _UNSEEN_TAG
    if (db := hx2 - hy2 + p2) < _MIN_DEPTH:
        return _UNSEEN_TAG
    ub, vb = f * (hx0 - hy0 + p0) / db + half_w, f * (hx1 - hy1 + p1) / db + half_v
    if not (0.0 <= ub <= width and 0.0 <= vb <= height):
        return _UNSEEN_TAG
    if (dc := hx2 + hy2 + p2) < _MIN_DEPTH:
        return _UNSEEN_TAG
    uc, vc = f * (hx0 + hy0 + p0) / dc + half_w, f * (hx1 + hy1 + p1) / dc + half_v
    if not (0.0 <= uc <= width and 0.0 <= vc <= height):
        return _UNSEEN_TAG
    if (dd := -hx2 + hy2 + p2) < _MIN_DEPTH:
        return _UNSEEN_TAG
    ud, vd = f * (-hx0 + hy0 + p0) / dd + half_w, f * (-hx1 + hy1 + p1) / dd + half_v
    if not (0.0 <= ud <= width and 0.0 <= vd <= height):
        return _UNSEEN_TAG
    # the centre, mean side and mean diagonal of the four corners
    center = ((ua + ub + uc + ud) / 4.0, (va + vb + vc + vd) / 4.0)
    l_bar = (
        math.hypot(ua - ub, va - vb)
        + math.hypot(ub - uc, vb - vc)
        + math.hypot(uc - ud, vc - vd)
        + math.hypot(ua - ud, va - vd)
    ) / 4.0
    h_bar = (math.hypot(ua - uc, va - vc) + math.hypot(ub - ud, vb - vd)) / 2.0
    # the yaw wrapped to (-pi, pi], frames.wrap_angle's expression
    return observe(center, l_bar, h_bar, cam), math.pi - (math.pi - math.atan2(xa1, xa0)) % TWO_PI


def observe(center, l_bar: float, h_bar: float, cam: tuple) -> tuple:
    """Measure a detected tag once, from its centre, mean side length and
    mean diagonal in pixels, as project_tag takes them off the corners, in
    the camera whose CameraModel.flat is cam.

    Returns the plain tuple (center, error, region, penetration, xi): the
    tag centre (cx, cy) in pixels; error, its offset from the image centre
    normalised by the image half-extents; region, "safe", "elastic" or
    "danger"; penetration, how far the centre sits into the elastic band (0
    inside the safe box, 1 at the danger boundary, above 1 inside danger);
    and xi, the centre's distance in pixels from the image centre. UNSEEN is
    the same layout for an undetected tag: region "none", no centre or
    error, NaN penetration and xi.

    Safe is the open box of half-width l_bar/2 around the image centre;
    elastic is the open box h_bar clear of every border, minus safe; danger
    is everything else. Every pixel receives exactly one label.
    """
    x, y = center
    _, w, v, _, half_w, half_v = cam
    lo_x, hi_x = (w - l_bar) / 2.0, (w + l_bar) / 2.0
    lo_y, hi_y = (v - l_bar) / 2.0, (v + l_bar) / 2.0
    if lo_x < x < hi_x and lo_y < y < hi_y:
        region, penetration = "safe", 0.0
    else:
        region = "elastic" if h_bar < x < w - h_bar and h_bar < y < v - h_bar else "danger"
        # per axis, the depth past the safe box over the span from its edge
        # to the danger edge; the deeper axis counts, as max would pick it
        depth_x, span_x = max(lo_x - x, x - hi_x, 0.0), lo_x - h_bar
        depth_y, span_y = max(lo_y - y, y - hi_y, 0.0), lo_y - h_bar
        pen_x = 0.0 if depth_x == 0.0 else depth_x / span_x if span_x > 0.0 else math.inf
        pen_y = 0.0 if depth_y == 0.0 else depth_y / span_y if span_y > 0.0 else math.inf
        penetration = pen_y if pen_y > pen_x else pen_x
    return (
        center, ((x - half_w) / half_w, (y - half_v) / half_v), region, penetration,
        math.hypot(x - half_w, y - half_v),
    )
