"""Minimal deterministic SVG plots for trajectory logs.

Plots are built by direct string assembly so identical runs yield identical
files, with no rendering backend involved. Four views cover the analysis:
planar trajectories, separation over time, commanded velocities over time
and tether state over time. Perturbation and camera-blackout intervals show
up as shaded spans on the time plots. Each series is one path drawn at
display resolution, not with every tick, in integer hundredths of a pixel (see
``_series_path``), and a point that lies strictly inside the segment between its
neighbours is not printed: the drawn lines are the same, in fewer bytes. A
position more than 2**24 hundredths of a pixel out, as an overflow to inf, is
drawn at that bound, so no number printed is inf.
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
_LINE_WIDTH = 150  # of every data path, in hundredths of a pixel
_FAR = 2 ** 24  # hundredths of a pixel: a position further out is drawn there
_TICK_TARGET = 5  # an axis spans at most this many tick steps


def _fmt(v: float) -> str:
    return "%.2f" % min(max(v, -_FAR / 100), _FAR / 100)


def _ends(lo: float, hi: float):
    """lo, hi if both are finite and still apart when halved, else 0.0, 1.0."""
    ok = math.isfinite(lo) and math.isfinite(hi) and hi / 2 - lo / 2 > 0
    return (lo, hi) if ok else (0.0, 1.0)


class _Frame:
    """Maps data coordinates onto the pixel box of one set of axes.

    Differences are taken on halves, so that they are finite for any finite ends.
    Halving is exact for normal floats, where the mapping is that of ``x - lo``.
    """

    def __init__(self, x_range, y_range):
        self.x_lo, self.x_hi = _ends(*x_range)
        self.y_lo, self.y_hi = _ends(*y_range)
        self.left = _MARGIN_L
        self.right = _WIDTH - _MARGIN_R
        self.top = _MARGIN_T
        self.bottom = _HEIGHT - _MARGIN_B

    def px(self, x: float) -> float:
        frac = (x / 2 - self.x_lo / 2) / (self.x_hi / 2 - self.x_lo / 2)
        return self.left + frac * (self.right - self.left)

    def py(self, y: float) -> float:
        frac = (y / 2 - self.y_lo / 2) / (self.y_hi / 2 - self.y_lo / 2)
        return self.bottom - frac * (self.bottom - self.top)


def _nice_ticks(lo: float, hi: float):
    """Round tick values within the finite lo..hi (to 1e-12), _TICK_TARGET steps or
    fewer; lo and hi themselves if the span is too narrow to step through."""
    half = hi / 2 - lo / 2  # half the span, finite for finite ends
    if not half > 1e-9 * max(abs(lo), abs(hi), 1e-300):  # narrower, v + step could round to v
        return [lo, hi]
    step = 10.0 ** math.floor(math.log10(half / (_TICK_TARGET / 2)))
    for mult in (1.0, 2.0, 5.0, 10.0):
        if half / (step * mult) <= _TICK_TARGET / 2:
            step *= mult
            break
    first = math.ceil(lo / step) * step
    ticks = []
    v = first
    while v <= hi + step * 1e-9:
        ticks.append(round(v, 12))
        v += step
    return [t for t in ticks if lo - 1e-12 <= t <= hi + 1e-12]  # rounding can leave the range


def _pad_range(lo: float, hi: float, frac: float = 0.05):
    if not (math.isfinite(lo) and math.isfinite(hi)):
        return 0.0, 1.0
    pad = (hi / 2 - lo / 2) * (2 * frac)  # halves, as in _Frame
    return lo - pad, hi + pad


def _el(tag: str, text=None, **attrs) -> str:
    """One SVG element. Attributes come out in call order with ``_`` in a name
    written ``-``; numbers are printed by ``_fmt``, strings as they are."""
    attr = " ".join(f'{name.replace("_", "-")}="{v if isinstance(v, str) else _fmt(v)}"'
                    for name, v in attrs.items())
    return f"<{tag} {attr}/>" if text is None else f"<{tag} {attr}>{text}</{tag}>"


def _axes(frame: _Frame, title: str, x_label: str, y_label: str) -> list:
    parts = [_el("rect", x=frame.left, y=frame.top, width=frame.right - frame.left,
                 height=frame.bottom - frame.top, fill="white", stroke="#444444",
                 stroke_width="1")]
    for tx in _nice_ticks(frame.x_lo, frame.x_hi):
        x = frame.px(tx)
        parts += [_el("line", x1=x, y1=frame.bottom, x2=x, y2=frame.bottom + 5, stroke="#444444"),
                  _el("text", f"{tx:g}", x=x, y=frame.bottom + 18, font_size="11",
                      text_anchor="middle", fill="#222222")]
    for ty in _nice_ticks(frame.y_lo, frame.y_hi):
        y = frame.py(ty)
        parts += [_el("line", x1=frame.left - 5, y1=y, x2=frame.left, y2=y, stroke="#444444"),
                  _el("text", f"{ty:g}", x=frame.left - 8, y=y + 4, font_size="11",
                      text_anchor="end", fill="#222222")]
    mid_x, mid_y = (frame.left + frame.right) / 2, (frame.top + frame.bottom) / 2
    return parts + [
        _el("text", title, x=mid_x, y="20", font_size="13", text_anchor="middle", fill="#111111"),
        _el("text", x_label, x=mid_x, y=_HEIGHT - 10, font_size="11", text_anchor="middle",
            fill="#222222"),
        _el("text", y_label, x="14", y=mid_y, font_size="11", text_anchor="middle",
            fill="#222222", transform=f"rotate(-90 14 {_fmt(mid_y)})"),
    ]


def _m4(qx, qy, starts):
    """M4 mask on integer hundredths of a pixel: each column's first, last, lowest and
    highest. ``_series_path`` passes ``int64``; floats holding the same integers give
    the same mask. Each index in ``starts`` (the runs' first points) opens a column
    of its own."""
    pixel = qx // 100  # each point's pixel column
    new_col = np.r_[True, pixel[1:] != pixel[:-1]]
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


def _corners(q, opens):
    """Mask of the points of ``q`` (int64 hundredths, runs opening at ``opens``) that
    are not strictly inside the segment between their neighbours, where the step in
    ``u`` and the step out ``v`` have ``u x v == 0`` and ``u . v > 0``. A point where
    the path doubles back stays, and so does each run's first and last. With ``|q|``
    at most 2**24, steps fit in 2**25 and products in 2**50: the test is exact."""
    step = np.diff(q, axis=0)
    u, v = step[:-1], step[1:]
    inside = np.r_[False, (u[:, 0] * v[:, 1] == u[:, 1] * v[:, 0]) & ((u * v).sum(axis=1) > 0),
                   False]
    inside[opens] = inside[opens[1:] - 1] = False
    return ~inside


@np.errstate(over="ignore", invalid="ignore")  # overflow gives inf, as with Python floats
def _series_path(frame: _Frame, xs, ys, color: str, dash=None, thin=None) -> list:
    """One path at display resolution, with a subpath per run of finite points.

    Runs of one point are dropped, so gaps stay gaps. The numbers are integer
    hundredths of a pixel under ``scale(.01)``: each run is an absolute ``M x y``,
    then relative ``l dx dy`` steps. ``thin`` masks the points drawn, judged on those
    hundredths so that a log read back from its CSV draws the same ones: M4 (Jugel
    et al., PVLDB 7(10), 2014), the default, for time series draws the raster of
    every point; ``_grid`` for x-y paths keeps each dropped one within 1 px. Of the
    points kept, ``_corners`` then drops each that lies strictly inside the segment
    between its neighbours, tested exactly on the hundredths: the lines drawn, their
    length and so the dash phase stay as they were. A series is mapped, thinned and
    printed once, whatever its runs.
    """
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    finite = np.r_[False, np.isfinite(xs) & np.isfinite(ys), False]
    drawn = np.flatnonzero(finite[1:-1] & (finite[:-2] | finite[2:]))  # not lone points
    if not len(drawn):
        return []
    starts = np.flatnonzero(np.diff(drawn, prepend=-2) != 1)  # run starts within drawn
    q = np.clip(np.rint(np.column_stack((frame.px(xs[drawn]), frame.py(ys[drawn]))) * 100),
                -_FAR, _FAR).astype(np.int64)
    kept = np.flatnonzero((thin or _m4)(q[:, 0], q[:, 1], starts))
    kept = kept[_corners(q[kept], np.searchsorted(kept, starts))]
    q, opens = q[kept], np.searchsorted(kept, starts)
    steps = np.diff(q, axis=0, prepend=0)
    steps[opens] = q[opens]
    fmt = np.full(len(kept), " %d %d", dtype=object)  # every run keeps two points or more
    fmt[opens], fmt[opens + 1] = "M%d %dl", "%d %d"
    d = ("".join(fmt) % tuple(steps.ravel().tolist())).replace(" -", "-")
    return [f'<path transform="scale(.01)" d="{d}" fill="none" stroke="{color}" '
            f'stroke-width="{_LINE_WIDTH}"{dash_attr}/>']


def _spans(frame: _Frame, windows, color: str) -> list:
    clipped = [(max(t0, frame.x_lo), min(t1, frame.x_hi)) for t0, t1 in windows]
    return [_el("rect", x=frame.px(a), y=frame.top, width=frame.px(b) - frame.px(a),
                height=frame.bottom - frame.top, fill=color, fill_opacity="0.45", stroke="none")
            for a, b in clipped if b > a]


def _legend(entries) -> list:
    parts = []
    x = _MARGIN_L + 8
    for label, color in entries:
        parts += [_el("line", x1=x, y1=_MARGIN_T + 12, x2=x + 18, y2=_MARGIN_T + 12,
                      stroke=color, stroke_width="2"),
                  _el("text", label, x=x + 22, y=_MARGIN_T + 16, font_size="11", fill="#222222")]
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


def _time_plot(config, t_range, y_range, title, y_label, traces, threshold=None) -> str:
    """A time plot: axes, the config's event spans, the threshold line if any, and
    one path and legend entry per ``(t, values, label, color, dash)`` trace."""
    frame = _Frame(t_range, y_range)
    parts = _axes(frame, title, "t (s)", y_label)
    parts += _spans(frame, config.dropout.scheduled_windows, _COLOR_SPAN_DROPOUT)
    parts += _spans(frame, [(d.t_start, d.t_end) for d in config.perturbations],
                    _COLOR_SPAN_PERTURB)
    if threshold is not None:
        y = frame.py(threshold)
        parts.append(_el("line", x1=frame.left, y1=y, x2=frame.right, y2=y, stroke="#555555",
                         stroke_dasharray="5,4"))
    for t, values, _, color, dash in traces:
        parts += _series_path(frame, t, values, color, dash=dash)
    parts += _legend([(label, color) for _, _, label, color, _ in traces])
    return _document(parts)


def plot_trajectory(log: TrajectoryLog) -> str:
    """Top view of both robots' paths, waypoints and the tank outline."""
    cfg = log.config
    (x_lo, y_lo), (x_hi, y_hi) = cfg.tank_min[:2], cfg.tank_max[:2]
    frame = _Frame(_pad_range(x_lo, x_hi), _pad_range(y_lo, y_hi))
    parts = _axes(frame, "planar trajectories", "x (m)", "y (m)")
    # a tank edge far off the canvas is drawn just off it, where it looks the same
    x0, x1 = (min(max(frame.px(x), -_WIDTH), 2 * _WIDTH) for x in (x_lo, x_hi))
    y0, y1 = (min(max(frame.py(y), -_HEIGHT), 2 * _HEIGHT) for y in (y_hi, y_lo))
    parts.append(_el("rect", x=x0, y=y0, width=x1 - x0, height=y1 - y0, fill="none",
                     stroke="#999999", stroke_dasharray="4,3"))
    for wx, wy, _ in planner_waypoints(cfg.planner):
        parts.append(_el("circle", cx=frame.px(wx), cy=frame.py(wy), r="4", fill="none",
                         stroke="#2ca02c", stroke_width="1.5"))
    if len(log) > 0:
        parts += _series_path(frame, log.pose_u[:, 0], log.pose_u[:, 1], _COLOR_U, thin=_grid)
        parts += _series_path(frame, log.pose_s[:, 0], log.pose_s[:, 1], _COLOR_S, thin=_grid)
        for pose, color in ((log.pose_u, _COLOR_U), (log.pose_s, _COLOR_S)):
            x, y = pose[0, :2].tolist()  # Python floats overflow to inf without a warning
            parts.append(_el("circle", cx=frame.px(x), cy=frame.py(y), r="3", fill=color))
    parts += _legend([("underwater", _COLOR_U), ("surface", _COLOR_S)])
    return _document(parts)


def _time_range(log: TrajectoryLog):
    if len(log) == 0:
        return 0.0, 1.0
    return float(log.t[0]), max(float(log.t[-1]), float(log.t[0]) + 1e-9)


def _distance_plot(logs, labels, t_range, d_hi: float, threshold: float) -> str:
    """Separation traces on shared axes that reach d_hi, the threshold and 1e-6 m."""
    d_hi = max(d_hi, threshold)
    traces = [(log.t, log.proj_dist, label, color, None)
              for log, label, color in zip(logs, labels, (_COLOR_U, _COLOR_ALT))]
    return _time_plot(logs[0].config, t_range, _pad_range(0.0, max(d_hi, 1e-6)),
                      "horizontal separation", "distance (m)", traces, threshold)


def plot_distance(log: TrajectoryLog, threshold: float) -> str:
    """Horizontal separation over time with shaded event intervals."""
    d_hi = float(np.max(log.proj_dist)) if len(log) else 1.0
    return _distance_plot((log,), ("separation",), _time_range(log), d_hi, threshold)


def plot_distance_overlay(log_a: TrajectoryLog, log_b: TrajectoryLog,
                          label_a: str, label_b: str, threshold: float) -> str:
    """Two separation traces on shared axes, for method comparison."""
    t_hi, d_hi = 1.0, 1e-6
    for log in (log_a, log_b):
        if len(log):
            t_hi = max(t_hi, float(log.t[-1]))
            d_hi = max(d_hi, float(np.max(log.proj_dist)))
    return _distance_plot((log_a, log_b), (label_a, label_b), (0.0, t_hi), d_hi, threshold)


def plot_commands(log: TrajectoryLog) -> str:
    """Planar components of both robots' saturated velocity commands."""
    bound = max(log.config.params_u.velocity_bound_linear,
                log.config.params_s.velocity_bound_linear)
    return _time_plot(log.config, _time_range(log), _pad_range(-bound, bound, 0.15),
                      "commanded velocities", "command (m/s)",
                      [(log.t, log.u_total_u[:, 0], "uU x", _COLOR_U, None),
                       (log.t, log.u_total_u[:, 1], "uU y (dash)", _COLOR_U, "400,300"),
                       (log.t, log.u_total_s[:, 0], "uS x", _COLOR_S, None),
                       (log.t, log.u_total_s[:, 1], "uS y (dash)", _COLOR_S, "400,300")])


def plot_tether(log: TrajectoryLog) -> str:
    """Tether offset xi seen from each camera; gaps where detection dropped."""
    xi = np.concatenate([log.xi_us, log.xi_su])
    finite = xi[np.isfinite(xi)]
    xi_hi = float(finite.max()) if finite.size else 1.0
    return _time_plot(log.config, _time_range(log), _pad_range(0.0, max(xi_hi, 1e-6)),
                      "tether state", "xi (px)",
                      [(log.t, log.xi_us, "upward view", _COLOR_U, None),
                       (log.t, log.xi_su, "downward view", _COLOR_S, None)])
