"""SVG paths at display resolution: M4 on the time plots, a grid rule on x-y paths.

The reference renderer below draws every finite point, as the plots did before
they were decimated; the tests compare the decimated plots against it.
"""

import contextlib
import dataclasses
import io
import json
import math
import re
import tempfile
import xml.etree.ElementTree as ET
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_config_fuzz import _refuse as refuse_constant
from test_svg_lock import CASES, _draw

from vetsim import plotting
from vetsim.cli import main
from vetsim.scenario import preset, run

COLUMNS = 582  # pixel columns of a plot area: 660 px wide less the margins


def every_point(frame, xs, ys, color, width=1.5, dash=None, thin=None):
    """Reference polylines: every point, split where x or y is not finite."""
    parts, points = [], []
    for x, y in list(zip(xs.tolist(), ys.tolist())) + [(math.nan, math.nan)]:
        if math.isfinite(x) and math.isfinite(y):
            points.append("%.2f,%.2f" % (frame.px(x), frame.py(y)))
            continue
        if len(points) >= 2:
            parts.append(f'<polyline points="{" ".join(points)}"/>')
        points = []
    return parts


def polylines(svg):
    """The pixel points of each reference polyline and of each subpath of a data
    path, as (n, 2) float arrays in document order."""
    lines = []
    for points, d in re.findall(
            r'<polyline points="([^"]*)"|<path transform="scale\(\.01\)" d="([^"]*)"', svg):
        if points:
            lines.append(np.array([p.split(",") for p in points.split()], dtype=float))
        for subpath in d.split("M")[1:]:  # M x y, then l dx dy ... in hundredths
            steps = np.array(re.findall(r"-?\d+", subpath), dtype=float).reshape(-1, 2)
            lines.append(np.cumsum(steps, axis=0) / 100)
    return lines


def finite_runs(*series):
    """Runs of two or more ticks at which every series is finite."""
    ok = np.logical_and.reduce([np.isfinite(s) for s in series]).astype(int)
    starts = np.flatnonzero(np.diff(np.r_[0, ok]) == 1)
    ends = np.flatnonzero(np.diff(np.r_[ok, 0]) == -1) + 1
    return int(np.sum(ends - starts >= 2))


def with_gaps(values, rng):
    """Blank single ticks, short and long stretches, and the first tick."""
    values = values.copy()
    n = len(values)
    values[0] = np.nan
    for k in rng.choice(n - 3, size=30, replace=False):
        values[k:k + rng.choice([1, 1, 2, 40, 700])] = np.nan
    values[n // 2 - 1], values[n // 2 + 1] = np.nan, np.nan  # a lone finite tick
    return values


def synthetic_log(t, rng, gaps=True):
    """A nominal log whose plotted series are noisy walks, flats and spikes."""
    n = len(t)

    def series(scale):
        walk = np.cumsum(rng.normal(0.0, scale, n))
        walk[n // 5:n // 4] = walk[n // 5]  # a flat stretch: ties at both extremes
        # a stretch flat to 12 significant digits, the precision of trajectory.csv
        walk[n // 3:n // 3 + 400] = walk[n // 3] * (1 + rng.normal(0.0, 1e-14, 400))
        walk[rng.choice(n, size=50)] += rng.normal(0.0, 30 * scale, 50)
        return with_gaps(walk, rng) if gaps else walk

    commands = np.column_stack([series(0.002) for _ in range(6)])
    log = run(dataclasses.replace(preset("nominal"), duration=0.1))
    return dataclasses.replace(
        log, t=t, proj_dist=np.abs(series(0.01)), xi_us=np.abs(series(1.0)),
        xi_su=np.abs(series(1.0)), u_total_u=commands, u_total_s=commands[:, :3],
    )


def time_plots(log, other):
    return {
        "distance": (plotting.plot_distance((log,), ("separation",), 0.3), [log.proj_dist]),
        "overlay": (plotting.plot_distance((log, other), ("a", "b"), 0.3),
                    [log.proj_dist, other.proj_dist]),
        "commands": (plotting.plot_commands(log),
                     [log.u_total_u[:, 0], log.u_total_u[:, 1],
                      log.u_total_s[:, 0], log.u_total_s[:, 1]]),
        "tether": (plotting.plot_tether(log), [log.xi_us, log.xi_su]),
    }


def m4_points(points):
    """The points M4 keeps of a run: per pixel column, in order, its first and last
    point and the first point at its lowest and at its highest y."""
    col = np.floor(points[:, 0])
    keep = set()
    for c in np.unique(col):
        at = np.flatnonzero(col == c)
        keep |= {at[0], at[-1], at[np.argmin(points[at, 1])], at[np.argmax(points[at, 1])]}
    return points[sorted(keep)]


def hundredths(line):
    return np.rint(line * 100).astype(np.int64)


def drop_inner(q):
    """The points of an integer (n, 2) line of two points or more but those strictly
    inside the segment between their two neighbours: the step in and the step out
    are parallel and point the same way. The first and last point stay."""
    q = q.tolist()
    out = q[:1]
    for (ax, ay), (bx, by), (cx, cy) in zip(q, q[1:], q[2:]):
        ux, uy, vx, vy = bx - ax, by - ay, cx - bx, cy - by
        if not (ux * vy == uy * vx and ux * vx + uy * vy > 0):
            out.append([bx, by])
    return np.array(out + q[-1:], dtype=np.int64)


def test_m4_keeps_every_columns_first_last_min_and_max(monkeypatch):
    rng = np.random.default_rng(3)
    # 40 ticks per pixel column, none near a column edge except the first and
    # last tick, so the printed x of every point names its column; in every
    # seventh column all 40 share one time, so that a path drawn there runs up and
    # down one vertical line and, where a series is flat, stays on one point
    offsets = np.tile((np.arange(40) + 0.5) / 40, (COLUMNS, 1))
    offsets[::7] = 0.5
    inner = (np.arange(COLUMNS)[:, None] + offsets).ravel()
    t = np.r_[0.0, inner, float(COLUMNS)]
    log, other = synthetic_log(t, rng), synthetic_log(t, rng)
    decimated = time_plots(log, other)
    monkeypatch.setattr(plotting, "_series_path", every_point)
    reference = time_plots(log, other)
    for name, (svg, series) in decimated.items():
        lines, full = polylines(svg), polylines(reference[name][0])
        assert len(lines) == len(full) == sum(finite_runs(log.t, s) for s in series), name
        for line, every in zip(lines, full):
            # M4's points, less those strictly inside their neighbours' segment
            assert np.array_equal(hundredths(line), drop_inner(hundredths(m4_points(every)))), name
        assert sum(map(len, lines)) < sum(map(len, full)) / 5, name  # decimation engaged


# hundredths of a pixel: near the origin, so that columns and cells repeat, and
# anywhere up to the clip bound, the bound itself included
HUNDREDTHS = st.one_of(st.integers(-400, 400), st.sampled_from([-plotting._FAR, plotting._FAR]),
                       st.integers(-plotting._FAR, plotting._FAR))


@settings(max_examples=150)
@given(st.data())
def test_thinning_on_int64_hundredths_keeps_the_points_float64_does(data):
    n = data.draw(st.integers(2, 40))
    qx, qy = (np.array(data.draw(st.lists(HUNDREDTHS, min_size=n, max_size=n)), dtype=np.int64)
              for _ in "xy")
    starts = np.array([0, *sorted(data.draw(st.sets(st.integers(1, n - 1), max_size=6)))])
    for thin in (plotting._m4, plotting._grid):
        expected = thin(qx.astype(np.float64), qy.astype(np.float64), starts)
        assert np.array_equal(thin(qx, qy, starts), expected), thin.__name__


def pieces(n_max):
    """Integer x-y points: lines (flat, a ramp or a tie, with any integer step),
    lines out and back along themselves, lines broken by a gap, lone points between
    gaps, and gaps in x, in y or in both."""
    point = st.integers(-60, 60)
    step = st.integers(-3, 3)
    line = st.builds(lambda x, y, dx, dy, k: [(x + i * dx, y + i * dy) for i in range(k)],
                     point, point, step, step, st.integers(1, 8))
    out_and_back = line.map(lambda pts: pts + pts[-2::-1])
    broken = line.flatmap(lambda pts: st.integers(0, len(pts)).map(
        lambda i: pts[:i] + [(math.nan, math.nan)] + pts[i:]))
    lone = st.tuples(point, point).map(lambda p: [(math.nan, 0), p, (0, math.nan)])
    gap = st.sampled_from([[(math.nan, math.nan)], [(math.nan, 1)], [(1, math.nan)]])
    parts = st.lists(st.one_of(line, out_and_back, broken, lone, gap), min_size=1, max_size=n_max)
    return parts.map(lambda parts: np.array([p for part in parts for p in part], dtype=float))


@settings(max_examples=300)
@given(pieces(12), st.sampled_from([plotting._m4, plotting._grid]),
       st.sampled_from([1, 100, 10**6]))
def test_a_path_prints_the_thinned_points_but_those_inside_their_neighbours(points, thin, scale):
    # one data unit is one pixel, so a point's hundredths are exact integers; a
    # scale of 10**6 puts points past the 2**24 clip bound
    frame = plotting._Frame((0.0, 582.0), (0.0, 340.0))
    xs, ys = points[:, 0] * scale, points[:, 1] * scale
    drawn = plotting._series_path(frame, xs, ys, "#000000", thin=thin)
    decoded = [hundredths(line) for line in polylines("".join(drawn))]
    q = np.clip(np.column_stack((6200 + 100 * xs, 37400 - 100 * ys)), -2 ** 24, 2 ** 24)
    finite = np.flatnonzero(np.isfinite(q).all(axis=1))
    runs = [r for r in np.split(finite, np.flatnonzero(np.diff(finite) != 1) + 1) if len(r) >= 2]
    assert len(decoded) == len(runs)
    if not runs:
        return
    # the thinning mask over the drawn points together, each run opening a column
    # or cell of its own
    qd = q[np.concatenate(runs)].astype(np.int64)
    starts = np.cumsum([0] + [len(r) for r in runs[:-1]])
    keep = np.split(thin(qd[:, 0], qd[:, 1], starts), starts[1:])
    for line, run_, kept in zip(decoded, runs, keep):
        assert np.array_equal(line, drop_inner(q[run_][kept].astype(np.int64)))
        assert (line[0] == q[run_[0]]).all() and (line[-1] == q[run_[-1]]).all()
        assert len(drop_inner(line)) == len(line)  # no printed point is inside its neighbours


def test_a_log_read_back_from_its_csv_draws_the_same_points():
    rng = np.random.default_rng(11)
    log = synthetic_log(np.arange(20_001) * 0.02, rng)
    # what log_from_csv returns for the log that run() returned
    read_back = dataclasses.replace(log, **{
        name: np.char.mod("%.12g", getattr(log, name)).astype(float)
        for name in ("t", "proj_dist", "xi_us", "xi_su", "u_total_u", "u_total_s")
    })
    for (name, (svg, _)), (again, _) in zip(time_plots(log, log).items(),
                                           time_plots(read_back, read_back).values()):
        assert svg == again, name


FAR_PX = 2 ** 24 / 100  # the furthest position drawn, in pixels


def far_value_svgs():
    """Plots of a log whose pixels overflow to inf (commands) or pass 2**24
    hundredths of a pixel (path), and whose start point is off at inf."""
    log = run(dataclasses.replace(preset("nominal"), duration=1.0))
    u = log.u_total_u.copy()
    u[10, 0], u[11, 0] = 1e306, -1.7e308
    pose = log.pose_u.copy()
    pose[5, 0], pose[0, 1] = 1e306, -1e308
    return {"commands": plotting.plot_commands(dataclasses.replace(log, u_total_u=u)),
            "trajectory": plotting.plot_trajectory(dataclasses.replace(log, pose_u=pose))}


def test_values_beyond_the_float_range_in_pixels_render():
    # numpy warns where Python floats overflow to inf; warnings are errors here
    svgs = far_value_svgs()
    for svg in svgs.values():
        assert "inf" not in svg and "<path" in svg
    ux = polylines(svgs["commands"])[0]  # the first trace, uU x
    assert ux[10, 1] == -FAR_PX and ux[11, 1] == FAR_PX
    path_u = polylines(svgs["trajectory"])[0]
    assert path_u[0, 1] == FAR_PX and path_u[:, 0].max() == FAR_PX
    assert f'cy="{FAR_PX:.2f}" r="3"' in svgs["trajectory"]  # the start point


_INT = r"-?\d+"
_SEP = r"(?: (?=\d)|(?=-))"  # a space, or none before a minus sign
DATA_PATH = re.compile(
    rf"(?:M{_INT}{_SEP}{_INT}l{_INT}{_SEP}{_INT}(?:{_SEP}{_INT}{_SEP}{_INT})*)+")


def assert_well_formed(svg, name):
    """The SVG parses, holds no inf or nan token, and every path is in integers."""
    assert not re.search(r"\b(?:inf|nan)\b", svg, re.IGNORECASE), name
    for path in ET.fromstring(svg).iter("{http://www.w3.org/2000/svg}path"):
        assert path.get("transform") == "scale(.01)", name
        assert DATA_PATH.fullmatch(path.get("d")), name


@pytest.mark.parametrize("case", CASES + ("far_values",))
def test_every_svg_is_well_formed_with_integer_paths(case, tmp_path):
    if case == "far_values":
        svgs = {**far_value_svgs(), "wide_tank": wide_tank_svg(tmp_path)}
    else:
        svgs = _draw(case, tmp_path)
    for name, svg in svgs.items():
        assert_well_formed(svg, name)


def tick_labels(svg):
    """The x axis's tick labels and the y axis's, in document order."""
    return (re.findall(r'y="392.00" font-size="11" text-anchor="middle" fill="#222222">([^<]*)<', svg),
            re.findall(r'text-anchor="end" fill="#222222">([^<]*)<', svg))


def test_the_overlay_keeps_each_modes_time_axis(tmp_path):
    # one axis rule for one log or two: a sub-second compare's overlay ends where
    # each mode's own separation plot does, not at 1 s
    out = tmp_path / "cmp"
    assert main(["compare", "--preset", "nominal", "--set", "duration=0.5",
                 "--out", str(out)]) == 0
    overlay = tick_labels((out / "distance_overlay.svg").read_text())[0]
    assert overlay[-1] == "0.5"
    for mode in ("vet", "baseline"):
        svg = (out / mode / "plots" / "distance_vs_time.svg").read_text()
        assert tick_labels(svg)[0] == overlay, mode


def wide_tank_svg(tmp_path):
    out = tmp_path / "bundle"
    assert main(["run", "--preset", "nominal", "--set", "duration=1",
                 "--set", "tank_min=[-1.7e308,-1.7e308,-2.66]",
                 "--set", "tank_max=[1.7e308,1.7e308,0]", "--out", str(out)]) == 0
    return (out / "plots" / "trajectory_xy.svg").read_text()


def test_a_tank_too_wide_to_pad_plots_on_unit_axes(tmp_path):
    # padding the tank by 1.7e307 a side overflows its x and y ranges to -inf..inf:
    # the trajectory plot falls back to 0..1 on both axes, and the outline is
    # drawn off the canvas
    svg = wide_tank_svg(tmp_path)
    unit = ["0", "0.2", "0.4", "0.6", "0.8", "1"]
    assert tick_labels(svg) == (unit, unit)
    assert "nan" not in svg and "inf" not in svg
    assert '<rect x="-660.00" y="-420.00" width="1980.00" height="1260.00"' in svg


def bundle_svgs(tmp_path, args):
    """The SVGs of a 2 s run with the given arguments, which must exit 0, each
    checked to be well formed."""
    out = tmp_path / "bundle"
    assert main(["run", "--set", "duration=2", *args, "--out", str(out)]) == 0
    svgs = {path.stem: path.read_text() for path in (out / "plots").glob("*.svg")}
    for name, svg in svgs.items():
        assert_well_formed(svg, name)
    return svgs


@pytest.mark.parametrize("args, start", [
    # finite ends 1.78e308 apart, more than the largest float: both robots at the
    # tank's centre
    (["--preset", "nominal", "--set", "tank_min=[-8.9e307,-8.9e307,-2.66]",
      "--set", "tank_max=[8.9e307,8.9e307,0]"], "M35300 20400l"),
    # a tank from x = -0.5 to 1.7e308 and both robots at x = 1e300, which on this
    # scale is the tank's left edge
    (["--preset", "navigation_real", "--set", "initial_pose_s=[1e300,0,0]",
      "--set", "initial_pose_u=[1e300,0,-1,0,0,0]", "--set", "tank_max=[1.7e308,0.66,0]"],
     "M8845 10519l"),
], ids=["ends_too_far_apart", "robots_far_out"])
def test_a_tank_with_far_finite_ends_draws_true_to_scale(tmp_path, args, start):
    svg = bundle_svgs(tmp_path, args)["trajectory_xy"]
    # padded 5% a side, the tank spans 1/1.1 of the 582 x 340 px plot area
    assert '<rect x="88.45" y="49.45" width="529.09" height="309.09"' in svg
    assert [d[:len(start)] for d in re.findall(r' d="([^"]*)"', svg)] == [start, start]


FAR_VALUES = st.builds(lambda sign, v: sign * v, st.sampled_from([-1, 1]),
                       st.floats(1e300, 1.79e308))
OUTLINE = re.compile(r'<rect x="([^"]*)" y="([^"]*)" width="([^"]*)" height="([^"]*)" fill="none"')


def pads_to_finite(lo, hi):
    """Whether lo..hi padded 5% a side ends within the float range, in exact arithmetic."""
    pad = (Fraction(hi) - Fraction(lo)) / 20
    return max(abs(Fraction(lo) - pad), abs(Fraction(hi) + pad)) < Fraction(1.79e308)


@settings(max_examples=20)
@given(st.data())
def test_far_tank_bounds_and_poses_draw_or_fail_cleanly(data):
    cfg = preset("nominal")
    lo, hi = ([data.draw(st.just(v) | FAR_VALUES) for v in ends[:2]]
              for ends in (cfg.tank_min, cfg.tank_max))
    # each robot coordinate at a tank end, where the preset has it, or far off
    pose_u, pose_s = ([data.draw(st.sampled_from([lo[k], hi[k], v]) | FAR_VALUES)
                       for k, v in enumerate(pose[:2])]
                      for pose in (cfg.initial_pose_u, cfg.initial_pose_s))
    args = ["run", "--preset", "nominal", "--set", "duration=2"]
    for key, value in (("tank_min", [*lo, cfg.tank_min[2]]), ("tank_max", [*hi, cfg.tank_max[2]]),
                       ("initial_pose_u", [*pose_u, *cfg.initial_pose_u[2:]]),
                       ("initial_pose_s", [*pose_s, *cfg.initial_pose_s[2:]])):
        args += ["--set", f"{key}={json.dumps(value)}"]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        out = Path(tmp) / "bundle"
        code = main(args + ["--out", str(out)])
        # a config error, or a command or separation past the float range; neither writes
        assert code in (0, 2, 3), args
        assert out.exists() == (code == 0), args
        if code == 3:
            assert err.getvalue().startswith("simulation failed: "), args
        if code != 0:
            return
        for name in ("summary.json", "config_echo.json"):
            json.loads((out / name).read_text(), parse_constant=refuse_constant)
        svgs = {path.name: path.read_text() for path in (out / "plots").glob("*.svg")}
        again = Path(tmp) / "replot"
        assert main(["plot", "--run", str(out), "--out", str(again)]) == 0, args
        assert {path.name: path.read_text() for path in (again / "plots").glob("*.svg")} == svgs
    for svg in svgs.values():
        assert_well_formed(svg, args)
    if all(pads_to_finite(a, b) for a, b in zip(lo, hi)):
        # padded 5% a side, the tank spans 1/1.1 of the 582 x 340 px plot area
        outlines = [OUTLINE.search(svg) for svg in svgs.values() if "planar trajectories" in svg]
        assert [m.groups() for m in outlines] == [("88.45", "49.45", "529.09", "309.09")], args


@pytest.mark.parametrize("args, plot, labels", [
    # a command axis one subnormal step wide halves to no width: it falls back to 0..1
    (["--preset", "nominal", "--set", "params_u.velocity_bound_linear=5e-324",
      "--set", "params_s.velocity_bound_linear=5e-324"],
     "velocity_vs_time", ["0", "0.2", "0.4", "0.6", "0.8", "1"]),
    # a tank one float step wide at y = 1: its axis is ticked at its ends only
    (["--preset", "nominal", "--set", "tank_min=[1,1,-2.66]",
      "--set", "tank_max=[1.0000000000000002,1.0000000000000002,0]",
      "--set", "initial_pose_u=[1,1,-1,0,0,0]", "--set", "initial_pose_s=[1,1,0]"],
     "trajectory_xy", ["1", "1"]),
], ids=["halves_to_nothing", "one_step_wide"])
def test_an_axis_too_narrow_to_tick_through_draws(tmp_path, args, plot, labels):
    assert tick_labels(bundle_svgs(tmp_path, args)[plot])[1] == labels


@pytest.mark.parametrize("args, axis", [
    # the time axis ends at 0.29999999997 s
    (["--set", "dt=0.09999999999", "--set", "duration=0.29999999997"], 0),
    # the distance axis, padded 5% past the threshold, ends at 0.29999999997 m
    (["--threshold", "0.2857142856857143"], 1),
], ids=["time", "distance"])
def test_a_tick_just_past_the_axis_end_is_not_drawn(tmp_path, args, axis):
    out = tmp_path / "bundle"
    assert main(["run", "--preset", "nominal", *args, "--out", str(out)]) == 0
    svg = (out / "plots" / "distance_vs_time.svg").read_text()
    assert tick_labels(svg)[axis] == ["0", "0.1", "0.2"]


def distances_to_polyline(points, line):
    """Each point's distance to the nearest segment of a polyline."""
    a, b = line[:-1], line[1:]
    ab = b - a
    length2 = np.maximum((ab ** 2).sum(axis=1), 1e-12)
    out = []
    for chunk in np.array_split(points, max(1, len(points) // 256)):
        ap = chunk[:, None, :] - a[None, :, :]
        s = np.clip((ap * ab).sum(axis=2) / length2, 0.0, 1.0)
        gap = ap - s[:, :, None] * ab[None, :, :]
        out.append(np.sqrt((gap ** 2).sum(axis=2)).min(axis=1))
    return np.concatenate(out)


def test_trajectory_keeps_ends_and_gaps_within_one_pixel(monkeypatch):
    rng = np.random.default_rng(5)
    n = 6000
    k = np.arange(n)
    log = run(dataclasses.replace(preset("nominal"), duration=0.1))
    pose_u = np.zeros((n, 6))
    pose_s = np.zeros((n, 3))
    for pose, phase in ((pose_u, 0.0), (pose_s, 1.0)):
        pose[:, 0] = with_gaps(1.4 + 2.0 * np.sin(k / 3000 + phase)
                               + rng.normal(0.0, 0.0005, n), rng)
        pose[:, 1] = 0.8 + 1.5 * np.sin(k / 1500 + phase) + rng.normal(0.0, 0.0005, n)
        pose[2000:2600, :2] += rng.normal(0.0, 0.008, (600, 2))  # about 1 px of jitter
    log = dataclasses.replace(log, t=k * 0.05, pose_u=pose_u, pose_s=pose_s)
    svg = plotting.plot_trajectory(log)
    monkeypatch.setattr(plotting, "_series_path", every_point)
    lines, full = polylines(svg), polylines(plotting.plot_trajectory(log))
    expected = finite_runs(pose_u[:, 0], pose_u[:, 1]) + finite_runs(pose_s[:, 0], pose_s[:, 1])
    assert len(lines) == len(full) == expected  # every gap is still a gap
    for line, every in zip(lines, full):
        assert (line[0] == every[0]).all() and (line[-1] == every[-1]).all()
        assert distances_to_polyline(every, line).max() < 1.0
    assert sum(map(len, lines)) < sum(map(len, full)) / 2  # decimation engaged


@pytest.mark.parametrize("n", [10_001, 200_001])
def test_time_series_polylines_are_bounded_by_the_plot_width(n):
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, n * 0.02, n)
    log = synthetic_log(t, rng, gaps=False)
    for name, (svg, series) in time_plots(log, log).items():
        lines = polylines(svg)
        assert len(lines) == len(series), name
        for line in lines:
            # four points for each of the 582 columns and for the right edge
            assert len(line) <= 4 * COLUMNS + 4, name


def per_run(frame, xs, ys, color, width=1.5, dash=None, thin=None):
    """Reference polylines: the loop over finite runs, thinning each run on its own."""
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    finite = np.flatnonzero(np.isfinite(xs) & np.isfinite(ys))
    parts = []
    for run_ in np.split(finite, np.flatnonzero(np.diff(finite) != 1) + 1):
        if len(run_) < 2:
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            px, py = frame.px(xs[run_]), frame.py(ys[run_])
            keep = (thin or plotting._m4)(np.rint(px * 100), np.rint(py * 100), np.array([0]))
        flat = np.column_stack((px[keep], py[keep])).ravel().tolist()
        pts = ("%.2f,%.2f " * (len(flat) // 2))[:-1] % tuple(flat)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="{width}"{dash_attr}/>')
    return parts


def run_lengths(values):
    """Lengths of the runs of finite values."""
    ok = np.isfinite(values).astype(int)
    return np.flatnonzero(np.diff(np.r_[ok, 0]) == -1) - np.flatnonzero(np.diff(np.r_[0, ok]) == 1)


def test_dense_gaps_draw_as_the_per_run_loop_did(monkeypatch):
    rng = np.random.default_rng(30)
    n = 3001

    def dropped(values):  # Bernoulli(0.3) single-tick gaps, as with random dropout
        values = values.copy()
        values[rng.random(values.shape) < 0.3] = np.nan
        return values

    log = synthetic_log(np.arange(n) * 0.02, rng, gaps=False)
    k = np.arange(n)
    path = np.column_stack([1.4 + 2.0 * np.sin(k / 900), 0.8 + 1.5 * np.sin(k / 450),
                            rng.normal(0.0, 0.01, (n, 4))])
    path[1000:1600, 0] = path[1000, 0]  # up and down one line, turning back at each peak
    path[1000:1600, 1] = path[1000, 1] + 0.3 * np.sin(np.arange(600) / 5)
    for step in range(10):  # a staircase of jumps and pauses: points that repeat
        path[2000 + 20 * step:2020 + 20 * step, :2] = path[2000, :2] + 0.1 * step
    commands = dropped(log.u_total_u)
    log = dataclasses.replace(
        log, xi_us=dropped(log.xi_us), xi_su=dropped(log.xi_su), u_total_u=commands,
        u_total_s=commands[:, :3], pose_u=dropped(path), pose_s=dropped(path[:, [1, 0, 2]]),
    )
    lengths = run_lengths(log.xi_us)
    assert (lengths == 1).any() and (lengths == 2).any()  # lone points and 2-point runs

    calls = []
    real_m4 = plotting._m4
    monkeypatch.setattr(plotting, "_m4", lambda *args: calls.append(1) or real_m4(*args))
    plotting.plot_tether(log)
    assert len(calls) == 2  # one thinning pass per series, not one per run
    monkeypatch.setattr(plotting, "_m4", real_m4)

    drawn = time_plots(log, log)
    drawn["trajectory"] = (plotting.plot_trajectory(log), [])
    monkeypatch.setattr(plotting, "_series_path", per_run)
    reference = time_plots(log, log)
    reference["trajectory"] = (plotting.plot_trajectory(log), [])
    for name, (svg, series) in drawn.items():
        lines, expected_lines = polylines(svg), polylines(reference[name][0])
        assert len(lines) == len(expected_lines), name
        for line, expected_line in zip(lines, expected_lines):
            assert np.array_equal(hundredths(line), drop_inner(hundredths(expected_line))), name
        if series:
            assert len(polylines(svg)) == sum(finite_runs(log.t, s) for s in series), name
    expected = sum(finite_runs(pose[:, 0], pose[:, 1]) for pose in (log.pose_u, log.pose_s))
    assert len(polylines(drawn["trajectory"][0])) == expected
