"""Minimal deterministic SVG plots for trajectory logs.

Plots are built by direct string assembly so identical runs yield identical
files, with no rendering backend involved. Four views cover the analysis:
planar trajectories, separation over time, commanded velocities over time
and tether state over time. Perturbation and camera-blackout intervals show
up as shaded spans on the time plots. Lines are drawn at display resolution,
not with every tick (see ``_polyline``).
"""

from __future__ import annotations

import math

import numpy as np

from .config import planner_waypoints
from .log import TrajectoryLog

_WIDTH = 660
_HEIGHT = 420
_MARGIN_L = 62
_MARGIN_R = 16
_MARGIN_T = 34
_MARGIN_B = 46

_COLOR_U = "#1f77b4"
_COLOR_S = "#d62728"
_COLOR_ALT = "#7f7f7f"
_COLOR_SPAN_PERTURB = "#f2c57c"
_COLOR_SPAN_DROPOUT = "#cdd3d8"


def _fmt(v: float) -> str:
    return "%.2f" % v


class _Frame:
    """Maps data coordinates onto the pixel box of one set of axes."""

    def __init__(self, x_range, y_range):
        x_lo, x_hi = x_range
        y_lo, y_hi = y_range
        if not (math.isfinite(x_lo) and math.isfinite(x_hi)) or x_hi <= x_lo:
            x_lo, x_hi = 0.0, 1.0
        if not (math.isfinite(y_lo) and math.isfinite(y_hi)) or y_hi <= y_lo:
            y_lo, y_hi = 0.0, 1.0
        self.x_lo, self.x_hi = x_lo, x_hi
        self.y_lo, self.y_hi = y_lo, y_hi
        self.left = _MARGIN_L
        self.right = _WIDTH - _MARGIN_R
        self.top = _MARGIN_T
        self.bottom = _HEIGHT - _MARGIN_B

    def px(self, x: float) -> float:
        frac = (x - self.x_lo) / (self.x_hi - self.x_lo)
        return self.left + frac * (self.right - self.left)

    def py(self, y: float) -> float:
        frac = (y - self.y_lo) / (self.y_hi - self.y_lo)
        return self.bottom - frac * (self.bottom - self.top)


def _nice_ticks(lo: float, hi: float, target: int = 5):
    span = hi - lo  # infinite also when finite ends are too far apart
    if not math.isfinite(span) or span <= 0:
        return [0.0, 1.0]
    step = 10.0 ** math.floor(math.log10(span / max(target, 1)))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if span / (step * mult) <= target:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(round(v, 12))
        v += step
    return ticks


def _pad_range(lo: float, hi: float, frac: float = 0.05):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return 0.0, 1.0
    if hi <= lo:
        return lo - 1.0, hi + 1.0
    pad = (hi - lo) * frac
    return lo - pad, hi + pad


def _axes(frame: _Frame, title: str, x_label: str, y_label: str) -> list:
    parts = [
        f'<rect x="{_fmt(frame.left)}" y="{_fmt(frame.top)}" '
        f'width="{_fmt(frame.right - frame.left)}" '
        f'height="{_fmt(frame.bottom - frame.top)}" '
        'fill="white" stroke="#444444" stroke-width="1"/>'
    ]
    for tx in _nice_ticks(frame.x_lo, frame.x_hi):
        if tx < frame.x_lo - 1e-12 or tx > frame.x_hi + 1e-12:
            continue
        x = frame.px(tx)
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(frame.bottom)}" '
            f'x2="{_fmt(x)}" y2="{_fmt(frame.bottom + 5)}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(frame.bottom + 18)}" '
            'font-size="11" text-anchor="middle" fill="#222222">'
            f"{tx:g}</text>"
        )
    for ty in _nice_ticks(frame.y_lo, frame.y_hi):
        if ty < frame.y_lo - 1e-12 or ty > frame.y_hi + 1e-12:
            continue
        y = frame.py(ty)
        parts.append(
            f'<line x1="{_fmt(frame.left - 5)}" y1="{_fmt(y)}" '
            f'x2="{_fmt(frame.left)}" y2="{_fmt(y)}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{_fmt(frame.left - 8)}" y="{_fmt(y + 4)}" '
            'font-size="11" text-anchor="end" fill="#222222">'
            f"{ty:g}</text>"
        )
    parts.append(
        f'<text x="{_fmt((frame.left + frame.right) / 2)}" y="20" '
        'font-size="13" text-anchor="middle" fill="#111111">'
        f"{title}</text>"
    )
    parts.append(
        f'<text x="{_fmt((frame.left + frame.right) / 2)}" '
        f'y="{_fmt(_HEIGHT - 10)}" font-size="11" text-anchor="middle" '
        f'fill="#222222">{x_label}</text>'
    )
    parts.append(
        f'<text x="14" y="{_fmt((frame.top + frame.bottom) / 2)}" '
        'font-size="11" text-anchor="middle" fill="#222222" '
        f'transform="rotate(-90 14 {_fmt((frame.top + frame.bottom) / 2)})">'
        f"{y_label}</text>"
    )
    return parts


def _m4(qx, qy, starts):
    """M4 mask on hundredths of a pixel: each column's first, last, lowest and highest.
    Each index in ``starts`` (the runs' first points) opens a column of its own."""
    new_col = np.r_[True, qx[1:] // 100 != qx[:-1] // 100]
    new_col[starts] = True
    cols = np.flatnonzero(new_col)
    col = np.cumsum(new_col)
    keep = np.zeros(len(qx), dtype=bool)
    keep[cols] = keep[np.r_[cols[1:] - 1, len(qx) - 1]] = True
    for extreme in (np.minimum, np.maximum):  # the earliest point at each extreme
        at = np.flatnonzero(qy == extreme.reduceat(qy, cols)[col - 1])
        keep[at[np.r_[True, col[at[1:]] != col[at[:-1]]]]] = True
    return keep


def _grid(qx, qy, starts):
    """Mask of each point in another 0.5 px cell than its predecessor, and of each
    run's first and last (runs open at ``starts``)."""
    cell = np.column_stack((qx, qy)) // 50
    keep = np.r_[True, (cell[1:] != cell[:-1]).any(axis=1)]
    keep[starts] = keep[starts[1:] - 1] = keep[-1] = True
    return keep


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf, as with Python floats
def _polyline(frame: _Frame, xs, ys, color: str, width: float = 1.5, dash=None,
              thin=None) -> list:
    """Polylines at display resolution, split at non-finite points so gaps stay gaps.

    Runs of one point are dropped. ``thin`` masks the points drawn, judged on the
    printed hundredths of a pixel so that a log read back from its CSV draws the
    same ones: M4 (Jugel et al., PVLDB 7(10), 2014), the default, for time series
    draws the raster of every point; ``_grid`` for x-y paths keeps each dropped one
    within 1 px. A series is mapped, thinned and printed once, whatever its runs.
    """
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    finite = np.r_[False, np.isfinite(xs) & np.isfinite(ys), False]
    drawn = np.flatnonzero(finite[1:-1] & (finite[:-2] | finite[2:]))  # not lone points
    if not len(drawn):
        return []
    starts = np.flatnonzero(np.diff(drawn, prepend=-2) != 1)  # run starts within drawn
    px, py = frame.px(xs[drawn]), frame.py(ys[drawn])
    kept = np.flatnonzero((thin or _m4)(np.rint(px * 100), np.rint(py * 100), starts))
    flat = np.column_stack((px[kept], py[kept])).ravel().tolist()
    points = (("%.2f,%.2f " * len(kept)) % tuple(flat)).split(" ")
    bounds = np.searchsorted(kept, np.r_[starts, len(drawn)]).tolist()
    return [f'<polyline points="{" ".join(points[lo:hi])}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{dash_attr}/>' for lo, hi in zip(bounds, bounds[1:])]


def _spans(frame: _Frame, windows, color: str) -> list:
    parts = []
    for t0, t1 in windows:
        a = max(t0, frame.x_lo)
        b = min(t1, frame.x_hi)
        if b <= a:
            continue
        parts.append(
            f'<rect x="{_fmt(frame.px(a))}" y="{_fmt(frame.top)}" '
            f'width="{_fmt(frame.px(b) - frame.px(a))}" '
            f'height="{_fmt(frame.bottom - frame.top)}" '
            f'fill="{color}" fill-opacity="0.45" stroke="none"/>'
        )
    return parts


def _legend(entries) -> list:
    parts = []
    x = _MARGIN_L + 8
    for label, color in entries:
        parts.append(
            f'<line x1="{_fmt(x)}" y1="{_fmt(_MARGIN_T + 12)}" '
            f'x2="{_fmt(x + 18)}" y2="{_fmt(_MARGIN_T + 12)}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{_fmt(x + 22)}" y="{_fmt(_MARGIN_T + 16)}" '
            f'font-size="11" fill="#222222">{label}</text>'
        )
        x += 30 + 7 * len(label)
    return parts


def _document(parts: list) -> str:
    body = "\n".join(parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n'
        f"{body}\n</svg>\n"
    )


def _time_axes(frame: _Frame, config, title: str, y_label: str, threshold=None) -> list:
    """Axes of a time plot with its event spans and the threshold line, if any."""
    parts = _axes(frame, title, "t (s)", y_label)
    parts += _spans(frame, config.dropout.scheduled_windows, _COLOR_SPAN_DROPOUT)
    parts += _spans(frame, [(d.t_start, d.t_end) for d in config.perturbations],
                    _COLOR_SPAN_PERTURB)
    if threshold is not None:
        y = _fmt(frame.py(threshold))
        parts.append(f'<line x1="{_fmt(frame.left)}" y1="{y}" x2="{_fmt(frame.right)}" '
                     f'y2="{y}" stroke="#555555" stroke-dasharray="5,4"/>')
    return parts


def plot_trajectory(log: TrajectoryLog) -> str:
    """Top view of both robots' paths, waypoints and the tank outline."""
    cfg = log.config
    xs = [cfg.tank_min[0], cfg.tank_max[0]]
    ys = [cfg.tank_min[1], cfg.tank_max[1]]
    frame = _Frame(_pad_range(min(xs), max(xs)), _pad_range(min(ys), max(ys)))
    parts = _axes(frame, "planar trajectories", "x (m)", "y (m)")
    parts.append(
        f'<rect x="{_fmt(frame.px(cfg.tank_min[0]))}" '
        f'y="{_fmt(frame.py(cfg.tank_max[1]))}" '
        f'width="{_fmt(frame.px(cfg.tank_max[0]) - frame.px(cfg.tank_min[0]))}" '
        f'height="{_fmt(frame.py(cfg.tank_min[1]) - frame.py(cfg.tank_max[1]))}" '
        'fill="none" stroke="#999999" stroke-dasharray="4,3"/>'
    )
    for wx, wy, _ in planner_waypoints(cfg.planner):
        parts.append(
            f'<circle cx="{_fmt(frame.px(wx))}" cy="{_fmt(frame.py(wy))}" '
            'r="4" fill="none" stroke="#2ca02c" stroke-width="1.5"/>'
        )
    if len(log) > 0:
        parts += _polyline(frame, log.pose_u[:, 0], log.pose_u[:, 1], _COLOR_U, thin=_grid)
        parts += _polyline(frame, log.pose_s[:, 0], log.pose_s[:, 1], _COLOR_S, thin=_grid)
        parts.append(
            f'<circle cx="{_fmt(frame.px(log.pose_u[0, 0]))}" '
            f'cy="{_fmt(frame.py(log.pose_u[0, 1]))}" r="3" fill="{_COLOR_U}"/>'
        )
        parts.append(
            f'<circle cx="{_fmt(frame.px(log.pose_s[0, 0]))}" '
            f'cy="{_fmt(frame.py(log.pose_s[0, 1]))}" r="3" fill="{_COLOR_S}"/>'
        )
    parts += _legend([("underwater", _COLOR_U), ("surface", _COLOR_S)])
    return _document(parts)


def _time_range(log: TrajectoryLog):
    if len(log) == 0:
        return 0.0, 1.0
    return float(log.t[0]), max(float(log.t[-1]), float(log.t[0]) + 1e-9)


def plot_distance(log: TrajectoryLog, threshold=None) -> str:
    """Horizontal separation over time with shaded event intervals."""
    t_lo, t_hi = _time_range(log)
    d_hi = float(np.max(log.proj_dist)) if len(log) else 1.0
    if threshold is not None:
        d_hi = max(d_hi, threshold)
    frame = _Frame((t_lo, t_hi), _pad_range(0.0, max(d_hi, 1e-6)))
    parts = _time_axes(frame, log.config, "horizontal separation", "distance (m)", threshold)
    parts += _polyline(frame, log.t, log.proj_dist, _COLOR_U)
    parts += _legend([("separation", _COLOR_U)])
    return _document(parts)


def plot_distance_overlay(log_a: TrajectoryLog, log_b: TrajectoryLog,
                          label_a: str, label_b: str, threshold=None) -> str:
    """Two separation traces on shared axes, for method comparison."""
    t_hi = 1.0
    d_hi = 1e-6
    for log in (log_a, log_b):
        if len(log):
            t_hi = max(t_hi, float(log.t[-1]))
            d_hi = max(d_hi, float(np.max(log.proj_dist)))
    if threshold is not None:
        d_hi = max(d_hi, threshold)
    frame = _Frame((0.0, t_hi), _pad_range(0.0, d_hi))
    parts = _time_axes(frame, log_a.config, "horizontal separation", "distance (m)", threshold)
    parts += _polyline(frame, log_a.t, log_a.proj_dist, _COLOR_U)
    parts += _polyline(frame, log_b.t, log_b.proj_dist, _COLOR_ALT)
    parts += _legend([(label_a, _COLOR_U), (label_b, _COLOR_ALT)])
    return _document(parts)


def plot_commands(log: TrajectoryLog) -> str:
    """Planar components of both robots' saturated velocity commands."""
    t_lo, t_hi = _time_range(log)
    bound = max(
        log.config.params_u.velocity_bound_linear,
        log.config.params_s.velocity_bound_linear,
    )
    frame = _Frame((t_lo, t_hi), _pad_range(-bound, bound, 0.15))
    parts = _time_axes(frame, log.config, "commanded velocities", "command (m/s)")
    parts += _polyline(frame, log.t, log.u_total_u[:, 0], _COLOR_U)
    parts += _polyline(frame, log.t, log.u_total_u[:, 1], _COLOR_U, dash="4,3")
    parts += _polyline(frame, log.t, log.u_total_s[:, 0], _COLOR_S)
    parts += _polyline(frame, log.t, log.u_total_s[:, 1], _COLOR_S, dash="4,3")
    parts += _legend(
        [("uU x", _COLOR_U), ("uU y (dash)", _COLOR_U),
         ("uS x", _COLOR_S), ("uS y (dash)", _COLOR_S)]
    )
    return _document(parts)


def plot_tether(log: TrajectoryLog) -> str:
    """Tether offset xi seen from each camera; gaps where detection dropped."""
    t_lo, t_hi = _time_range(log)
    xi = np.concatenate([log.xi_us, log.xi_su])
    finite = xi[np.isfinite(xi)]
    xi_hi = float(finite.max()) if finite.size else 1.0
    frame = _Frame((t_lo, t_hi), _pad_range(0.0, max(xi_hi, 1e-6)))
    parts = _time_axes(frame, log.config, "tether state", "xi (px)")
    parts += _polyline(frame, log.t, log.xi_us, _COLOR_U)
    parts += _polyline(frame, log.t, log.xi_su, _COLOR_S)
    parts += _legend([("upward view", _COLOR_U), ("downward view", _COLOR_S)])
    return _document(parts)
