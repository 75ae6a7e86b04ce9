"""Planners, configuration round trips and the closed-loop run."""

import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

import vetsim.scenario as scenario
from vetsim.frames import GimbalSingularity, Pose3
from vetsim.scenario import (
    CSV_COLUMNS,
    ConfigError,
    InvalidBounds,
    Lawnmower,
    MAX_LANES,
    PRESET_NAMES,
    ScenarioConfig,
    SimFailure,
    UnknownPreset,
    lawnmower_path,
    log_from_csv,
    planner_step,
    preset,
    run,
)
from vetsim.vehicle import Disturbance, VehicleModel
from vetsim.perception import CameraModel, DropoutModel

# config_echo.json of every preset in config schema v2; v1/ holds one echo in
# schema v1, with the two keys v2 removed (dropout.seed and
# appendix_sign_convention).
ECHOES = Path(__file__).with_name("config_echoes")


def short(name, duration, **tweaks):
    cfg = preset(name)
    cfg.duration = duration
    for key, value in tweaks.items():
        setattr(cfg, key, value)
    cfg.validate()
    return cfg


# --- lawnmower planner ----------------------------------------------------------

def test_lawnmower_lane_count_anchor():
    spec = Lawnmower(0.0, 3.6, 0.0, 2.4, 0.6)
    points = lawnmower_path(spec)
    assert len(points) == 10  # 5 lanes, 2 waypoints each
    lanes = sorted({p[1] for p in points})
    np.testing.assert_allclose(lanes, [0.0, 0.6, 1.2, 1.8, 2.4])


def test_two_lane_box_is_an_s_shape():
    points = lawnmower_path(Lawnmower(0.0, 1.0, 0.0, 0.5, 0.5))
    assert points == (
        (0.0, 0.0, 0.0),
        (1.0, 0.0, 0.0),
        (1.0, 0.5, math.pi),
        (0.0, 0.5, math.pi),
    )


def test_wide_spacing_degenerates_to_one_lane():
    points = lawnmower_path(Lawnmower(0.0, 1.0, 0.0, 0.4, 0.6))
    assert len(points) == 2
    assert all(p[1] == 0.0 for p in points)


def test_heading_faces_along_each_lane():
    points = lawnmower_path(Lawnmower(0.0, 2.0, 0.0, 1.2, 0.6))
    assert [p[2] for p in points] == [0.0, 0.0, math.pi, math.pi, 0.0, 0.0]


def test_lawnmower_rejects_degenerate_areas():
    with pytest.raises(InvalidBounds):
        lawnmower_path(Lawnmower(1.0, 1.0, 0.0, 1.0, 0.5))
    with pytest.raises(InvalidBounds):
        lawnmower_path(Lawnmower(0.0, 1.0, 2.0, 1.0, 0.5))
    # the lane count is checked against the cap before any waypoint is built
    assert len(lawnmower_path(Lawnmower(0.0, 1.0, 0.0, MAX_LANES - 1.0, 1.0))) == 2 * MAX_LANES
    for y_max, spacing in ((float(MAX_LANES), 1.0), (1e300, 0.6), (1.0, 1e-300)):
        with pytest.raises(InvalidBounds, match=f"more than {MAX_LANES} lanes"):
            lawnmower_path(Lawnmower(0.0, 1.0, 0.0, y_max, spacing))


# --- waypoint sequencing ----------------------------------------------------------

def test_planner_advances_inside_the_capture_radius():
    wps = ((0.1, 0.0, 0.0), (1.0, 0.0, 0.5))
    target, index = planner_step(Pose3(0.0, 0.0, 0.0), wps, 0.15)
    assert index == 1
    assert (target.x_d, target.y_d, target.psi_d) == (1.0, 0.0, 0.5)


def test_planner_holds_position_before_capture():
    wps = ((1.0, 0.0, 0.0),)
    target, index = planner_step(Pose3(0.0, 0.0, 0.0), wps, 0.15)
    assert index == 0
    assert target.x_d == 1.0


def test_planner_holds_the_terminal_waypoint():
    wps = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.3))
    target, index = planner_step(Pose3(1.0, 0.01, 0.0), wps, 0.15, index=1)
    assert index == 2  # captured, counted once
    assert target.x_d == 1.0
    target, index = planner_step(Pose3(1.0, 0.0, 0.0), wps, 0.15, index=index)
    assert index == 2
    assert target.x_d == 1.0 and target.psi_d == 0.3


def test_planner_with_no_waypoints_holds_the_current_pose():
    target, index = planner_step(Pose3(0.4, -0.2, 0.9), (), 0.15)
    assert index == 0
    assert (target.x_d, target.y_d, target.psi_d) == (0.4, -0.2, 0.9)


# --- configuration -----------------------------------------------------------------

def test_presets_are_known_and_validated():
    assert PRESET_NAMES == (
        "navigation_real",
        "navigation_sim",
        "nominal",
        "perturbation_real",
        "perturbation_sim",
    )
    for name in PRESET_NAMES:
        cfg = preset(name)
        cfg.validate()
        assert cfg.name == name


def test_unknown_preset_raises():
    with pytest.raises(UnknownPreset):
        preset("freestyle")


def test_config_round_trips_through_plain_data():
    for name in PRESET_NAMES:
        cfg = preset(name)
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again == cfg, name


def test_config_echoes_match_the_recorded_ones():
    for name in PRESET_NAMES:
        text = (ECHOES / f"{name}.json").read_text()
        cfg = ScenarioConfig.from_dict(json.loads(text))
        assert cfg == preset(name), name
        assert json.dumps(cfg.to_dict(), indent=2, sort_keys=True) + "\n" == text, name


def test_v1_echo_loads_to_the_same_config():
    data = json.loads((ECHOES / "v1" / "navigation_real.json").read_text())
    assert data["dropout"]["seed"] == 0 and data["appendix_sign_convention"] is False
    assert ScenarioConfig.from_dict(data) == preset("navigation_real")
    assert "seed" in data["dropout"]  # the input is not changed
    data["appendix_sign_convention"] = True
    with pytest.raises(ConfigError, match="appendix_sign_convention.*legacy sign convention"):
        ScenarioConfig.from_dict(data)


def test_config_rejects_unknown_and_missing_keys():
    edits = {
        "unknown config keys: ['extra']": lambda d: d.update(extra=1),
        "missing config keys: ['dt']": lambda d: d.pop("dt"),
        "unknown config keys at camera_u: ['bogus']": lambda d: d["camera_u"].update(bogus=1),
        "unknown config keys at planner: ['nope']": lambda d: d["planner"].update(nope=1),
        "unknown config keys at dropout: ['extra']": lambda d: d["dropout"].update(extra=1),
        "unknown config keys at perturbations.0: ['bogus']":
            lambda d: d["perturbations"][0].update(bogus=1),
        "missing config keys at vet: ['k_psi']": lambda d: d["vet"].pop("k_psi"),
    }
    for message, edit in edits.items():
        data = preset("perturbation_sim").to_dict()
        edit(data)
        with pytest.raises(ConfigError, match=re.escape(message)):
            ScenarioConfig.from_dict(data)


def test_validate_rejects_bad_fields():
    cfg = preset("nominal")
    cfg.mode = "teleport"
    with pytest.raises(ConfigError):
        cfg.validate()

    cfg = preset("nominal")
    cfg.dt = 0.5
    with pytest.raises(ConfigError):
        cfg.validate()

    cfg = preset("nominal")
    cfg.tank_max = (cfg.tank_min[0], 2.66, 0.0)
    with pytest.raises(ConfigError):
        cfg.validate()

    cfg = preset("nominal")
    cfg.initial_pose_u = (99.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        cfg.validate()

    # the planner's type is checked before the config is serialised
    cfg = preset("nominal")
    cfg.planner = "x"
    with pytest.raises(ConfigError, match="planner must be Setpoints or Lawnmower"):
        cfg.validate()

    cfg = preset("nominal")
    cfg.seed = -1
    with pytest.raises(ConfigError, match="seed must be non-negative"):
        cfg.validate()

    # an int beyond the float range is not a finite number either
    cfg = preset("nominal")
    cfg.camera_u = CameraModel(10**400, 480, 400.0, cfg.camera_u.mount)
    with pytest.raises(ConfigError, match="not finite floats at camera_u.width"):
        cfg.validate()


def test_preset_objects_are_independent():
    a = preset("nominal")
    a.duration = 1.0
    assert preset("nominal").duration != 1.0


# --- the run loop ----------------------------------------------------------------------

def test_zero_duration_yields_a_single_record():
    log = run(short("nominal", 0.0))
    assert len(log) == 1
    assert log.t[0] == 0.0


def test_records_are_evenly_spaced():
    cfg = short("nominal", 3.0)
    log = run(cfg)
    assert len(log) == 151
    np.testing.assert_allclose(np.diff(log.t), cfg.dt, atol=1e-12)


def test_same_seed_is_bit_identical():
    cfg_a = short("perturbation_sim", 16.0)
    cfg_b = short("perturbation_sim", 16.0)
    assert run(cfg_a).to_csv_text() == run(cfg_b).to_csv_text()


def test_random_dropout_is_seed_deterministic():
    cfg_a = short("nominal", 5.0, dropout=DropoutModel(random_rate=0.3))
    cfg_b = short("nominal", 5.0, dropout=DropoutModel(random_rate=0.3))
    text_a = run(cfg_a).to_csv_text()
    assert text_a == run(cfg_b).to_csv_text()
    assert sum(not d for d in run(cfg_a).detected_us) > 10
    # the top-level seed is the one seed, and it has an effect
    cfg_c = short("nominal", 5.0, dropout=DropoutModel(random_rate=0.3), seed=cfg_a.seed + 1)
    assert not np.array_equal(run(cfg_a).detected_us, run(cfg_c).detected_us)


def test_csv_header_is_frozen():
    golden = (
        "t,xU,yU,zU,phiU,thetaU,psiU,xS,yS,psiS,"
        "uU_sub_x,uU_sub_y,uU_sub_z,uU_sub_phi,uU_sub_theta,uU_sub_psi,"
        "uU_xi_x,uU_xi_y,uU_xi_z,uU_xi_phi,uU_xi_theta,uU_xi_psi,"
        "uS_sub_x,uS_sub_y,uS_sub_psi,uS_xi_x,uS_xi_y,uS_xi_psi,"
        "detectedUS,detectedSU,regionUS,regionSU,xiUS,xiSU,projDist,eventFlags"
    )
    assert ",".join(CSV_COLUMNS) == golden
    log = run(short("nominal", 0.0))
    assert log.to_csv_text().splitlines()[0] == golden


def test_log_round_trips_through_csv():
    cfg = short("perturbation_sim", 16.0)
    log = run(cfg)
    again = log_from_csv(log.to_csv_text(), cfg)
    assert len(again) == len(log)
    np.testing.assert_allclose(again.pose_u, log.pose_u, atol=1e-9)
    np.testing.assert_allclose(again.pose_s, log.pose_s, atol=1e-9)
    np.testing.assert_allclose(again.proj_dist, log.proj_dist, atol=1e-9)
    np.testing.assert_array_equal(again.detected_us, log.detected_us)
    assert again.region_us == log.region_us
    assert again.event_flags == log.event_flags
    # event text survives exactly; timestamps carry 12 significant digits
    assert [f for _, f in again.events] == [f for _, f in log.events]
    np.testing.assert_allclose(
        [t for t, _ in again.events], [t for t, _ in log.events], atol=1e-9
    )
    assert again.waypoints_captured == log.waypoints_captured
    assert again.waypoints_total == log.waypoints_total
    # totals are reconstructed from the logged split commands
    np.testing.assert_allclose(again.u_total_u, log.u_total_u, atol=1e-9)


def test_log_from_csv_rejects_foreign_headers():
    cfg = short("nominal", 0.0)
    with pytest.raises(ConfigError):
        log_from_csv("a,b,c\n1,2,3\n", cfg)


def test_log_from_csv_accepts_a_header_only_file():
    cfg = short("nominal", 0.0)
    log = log_from_csv(",".join(CSV_COLUMNS) + "\n", cfg)
    assert len(log) == 0


def test_perturbation_window_is_flagged_and_applied():
    cfg = short("perturbation_sim", 16.0)
    log = run(cfg)
    flat = [f for flags in log.event_flags for f in flags.split(";") if f]
    assert "perturb_start" in flat and "perturb_end" in flat
    start = next(t for t, f in log.events if f == "perturb_start")
    assert start == pytest.approx(cfg.perturbations[0].t_start, abs=cfg.dt)
    # the push moves the underwater robot backwards along x
    k0 = int(round(start / cfg.dt))
    assert log.pose_u[min(k0 + 100, len(log) - 1), 0] < log.pose_u[k0, 0]


def test_scheduled_dropout_blanks_detection_and_is_flagged():
    cfg = short("nominal", 4.0, dropout=DropoutModel(scheduled_windows=((1.0, 2.0),)))
    log = run(cfg)
    flat = [f for flags in log.event_flags for f in flags.split(";") if f]
    assert "dropout_start" in flat and "dropout_end" in flat
    inside = (log.t >= 1.0) & (log.t <= 2.0)
    assert not log.detected_us[inside].any()
    # the surface camera is unaffected by the underwater camera's blackout
    assert log.detected_su[inside].all()


def test_waypoint_capture_flags_match_the_counter():
    cfg = short("navigation_sim", 120.0)
    log = run(cfg)
    flat = [f for flags in log.event_flags for f in flags.split(";") if f]
    assert flat.count("waypoint_capture") == log.waypoints_captured
    assert log.waypoints_total == 8
    assert log.waypoints_captured >= 4


def test_events_at_tick_zero_come_in_the_documented_order():
    cfg = short(
        "nominal", 1.0,
        dropout=DropoutModel(scheduled_windows=((0.0, 0.5), (0.9, 2.0))),
        perturbations=(Disturbance((1.0, 0.0, 0.0), t_start=0.0, t_end=0.3),),
    )
    log = run(cfg)
    assert log.event_flags[0] == "dropout_start;perturb_start"
    assert log.events[:2] == [(0.0, "dropout_start"), (0.0, "perturb_start")]
    # a window that covers the last tick never ends
    assert log.event_flags[-1] == ""
    flat = [f for _, f in log.events]
    assert flat.count("dropout_start") == 2 and flat.count("dropout_end") == 1
    assert flat.count("perturb_end") == 1
    # line of sight and regions change only after tick 0, though the
    # blackout hides the tag from the first tick on
    assert not log.detected_us[0]
    assert "los_loss_us" not in log.event_flags[0]


def per_tick_events(log):
    """eventFlags found by scanning the log one tick at a time against the
    tick before, with the dropout windows and disturbances evaluated at each
    time: the reference for the transitions run reads off all at once."""
    cfg = log.config
    out = []
    before = {"clamped_u": False, "clamped_s": False, "dropout": False, "perturb": False,
              "wp": 0}
    for k, t in enumerate(log.t.tolist()):
        now = {
            "clamped_u": log.clamped_u[k], "clamped_s": log.clamped_s[k],
            "dropout": bool(cfg.dropout.scheduled(t)),
            "perturb": any(d.active(t) for d in cfg.perturbations),
            "wp": int(log.wp_index[k]),
            "us": log.detected_us[k], "su": log.detected_su[k],
            "region_us": log.region_us[k], "region_su": log.region_su[k],
        }
        if k == 0:  # nothing to compare line of sight and regions with
            before.update({key: now[key] for key in ("us", "su", "region_us", "region_su")})
        events = [f"wall_clamp_{robot}" for robot in ("u", "s")
                  if now[f"clamped_{robot}"] and not before[f"clamped_{robot}"]]
        for name in ("dropout", "perturb"):
            if now[name] != before[name]:
                events.append(f"{name}_start" if now[name] else f"{name}_end")
        events += ["waypoint_capture"] * (now["wp"] - before["wp"])
        for pair in ("us", "su"):
            if now[pair] != before[pair]:
                events.append(f"los_regain_{pair}" if now[pair] else f"los_loss_{pair}")
        for key in ("region_us", "region_su"):
            if now[key] != before[key]:
                events.append(f"{key}:{before[key]}-{now[key]}")
        out.append(";".join(events))
        before = now
    return out


@pytest.mark.parametrize("mode", ["vet", "baseline"])
def test_event_flags_match_a_per_tick_scan(mode):
    # random and scheduled blackouts, one window past the end, overlapping
    # pushes from tick 0 on, and walls tight enough to clamp both robots
    cfg = short(
        "perturbation_real", 12.0, mode=mode,
        dropout=DropoutModel(scheduled_windows=((0.0, 0.5), (3.0, 4.0), (11.5, 20.0)),
                             random_rate=0.3),
        perturbations=(Disturbance((-10.0, 0.0, 0.0), t_start=0.0, t_end=3.0),
                       Disturbance((0.0, 5.0, 0.0), t_start=2.0, t_end=6.0)),
        tank_min=(0.0, -1.0, -2.0), tank_max=(0.45, 0.66, 0.0),
    )
    log = run(cfg)
    flat = {f.split(":")[0] for flags in log.event_flags for f in flags.split(";") if f}
    assert flat >= {"wall_clamp_u", "wall_clamp_s", "dropout_start", "dropout_end",
                    "perturb_start", "perturb_end", "los_loss_us", "los_regain_us",
                    "region_us", "region_su"}
    assert log.event_flags == per_tick_events(log)


def test_waypoint_captures_match_a_per_tick_scan():
    planner = scenario.Setpoints(((0.0, 0.0, 0.0), (0.05, 0.0, 0.0), (0.5, 0.5, 0.0)))
    log = run(short("nominal", 20.0, planner=planner))
    # the first two lie within the capture radius of the start
    assert log.event_flags[0] == "waypoint_capture;waypoint_capture"
    assert log.wp_index[0] == 2
    assert log.waypoints_captured == log.waypoints_total == 3
    assert log.event_flags == per_tick_events(log)


def test_wrenches_sum_the_active_disturbances_in_config_order():
    cfg = short("nominal", 4.0, perturbations=(
        Disturbance((0.1, -0.0, 0.7), (0.01, 0.0, -0.03), t_start=0.5, t_end=3.0),
        Disturbance((0.2, 0.0, -0.7), (0.02, -0.0, 0.03), t_start=1.0, t_end=2.0),
        Disturbance((0.7, 1e-17, 0.0), (-0.03, 0.5, 1e-9), t_start=1.5, t_end=3.5),
    ))
    ts = np.arange(201) * cfg.dt
    _, _, perturbed, wrenches = scenario._time_inputs(cfg, ts)
    for k, t in enumerate(ts.tolist()):
        active = [d for d in cfg.perturbations if d.active(t)]
        assert perturbed[k] == bool(active)
        if not active:
            assert wrenches[k] is None
            continue
        force, torque = [0.0] * 3, [0.0] * 3
        for d in active:
            force = [a + b for a, b in zip(force, d.force)]
            torque = [a + b for a, b in zip(torque, d.torque)]
        # repr tells 0.0 from -0.0, which == does not
        assert repr([list(v) for v in wrenches[k]]) == repr([force, torque]), k


def test_wall_clamp_keeps_the_pair_inside_and_is_flagged():
    cfg = short(
        "nominal",
        20.0,
        tank_min=(-0.5, -0.5, -2.0),
        tank_max=(0.45, 0.45, 0.0),
    )
    log = run(cfg)
    flat = [f for flags in log.event_flags for f in flags.split(";") if f]
    assert "wall_clamp_s" in flat
    assert np.all(log.pose_s[:, 0] <= 0.45 + 1e-12)
    assert np.all(log.pose_u[:, 0] <= 0.45 + 1e-12)


def test_nominal_run_stays_inside_the_tank():
    cfg = short("nominal", 30.0)
    log = run(cfg)
    for axis in range(3):
        assert np.all(log.pose_u[:, axis] >= cfg.tank_min[axis] - 1e-9)
        assert np.all(log.pose_u[:, axis] <= cfg.tank_max[axis] + 1e-9)
    for axis in range(2):
        assert np.all(log.pose_s[:, axis] >= cfg.tank_min[axis] - 1e-9)
        assert np.all(log.pose_s[:, axis] <= cfg.tank_max[axis] + 1e-9)
    flat = [f for flags in log.event_flags for f in flags.split(";") if f]
    assert "wall_clamp_u" not in flat and "wall_clamp_s" not in flat


def test_runaway_attitude_propagates_the_gimbal_error():
    cfg = short(
        "nominal",
        15.0,
        perturbations=(Disturbance((0.0, 0.0, 0.0), (0.0, 5.0, 0.0), 0.0, 15.0),),
    )
    with pytest.raises(GimbalSingularity):
        run(cfg)


def test_baseline_mode_never_moves_the_leader_sideways():
    cfg = short("nominal", 10.0, mode="baseline")
    log = run(cfg)
    # the leader's tether command stays identically zero in baseline mode
    np.testing.assert_array_equal(log.u_xi_s, 0.0)


def test_programming_errors_in_the_integrator_propagate(monkeypatch):
    def broken(self, *args, **kwargs):
        raise TypeError("a bug, not a simulation failure")

    monkeypatch.setattr(VehicleModel, "step", broken)
    with pytest.raises(TypeError, match="a bug"):
        run(short("nominal", 1.0))


def test_arithmetic_errors_in_the_integrator_become_sim_failures(monkeypatch):
    def diverging(self, *args, **kwargs):
        raise ZeroDivisionError("float division by zero")

    monkeypatch.setattr(VehicleModel, "step", diverging)
    with pytest.raises(SimFailure, match="t=0.000"):
        run(short("nominal", 1.0))


def dropout_run(mode):
    """perturbation_real with random dropout through the push: NaN xi
    cells, region changes, line-of-sight events and perturbation flags."""
    return run(short("perturbation_real", 12.0, mode=mode,
                     dropout=DropoutModel(random_rate=0.3)))


def per_cell_csv(log):
    """The CSV written one cell at a time, the way the schema reads."""
    fmt = "%.12g"
    lines = [",".join(CSV_COLUMNS)]
    for k in range(len(log.t)):
        row = [fmt % log.t[k]]
        for block in (log.pose_u, log.pose_s, log.u_sub_u, log.u_xi_u, log.u_sub_s, log.u_xi_s):
            row += [fmt % v for v in block[k]]
        row.append("1" if log.detected_us[k] else "0")
        row.append("1" if log.detected_su[k] else "0")
        row.append(log.region_us[k])
        row.append(log.region_su[k])
        row.append(fmt % log.xi_us[k])
        row.append(fmt % log.xi_su[k])
        row.append(fmt % log.proj_dist[k])
        row.append(log.event_flags[k])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("mode", ["vet", "baseline"])
def test_csv_writer_matches_the_per_cell_formatter(mode):
    log = dropout_run(mode)
    assert np.isnan(log.xi_us).any()
    assert any("perturb_start" in flags for flags in log.event_flags)
    assert log.to_csv_text() == per_cell_csv(log)


@pytest.mark.parametrize("mode", ["vet", "baseline"])
def test_log_arrays_have_the_documented_shapes_and_types(mode):
    log = run(short("nominal", 2.0, mode=mode))
    n = len(log)
    assert n == 101
    shapes = {
        "t": (n,), "pose_u": (n, 6), "pose_s": (n, 3), "nu_u": (n, 6), "nu_s": (n, 3),
        "u_sub_u": (n, 6), "u_xi_u": (n, 6), "u_sub_s": (n, 3), "u_xi_s": (n, 3),
        "u_total_u": (n, 6), "u_total_s": (n, 3), "xi_us": (n,), "xi_su": (n,),
        "proj_dist": (n,), "detected_us": (n,), "detected_su": (n,),
        "wp_index": (n,), "clamped_u": (n,), "clamped_s": (n,),
    }
    for name, shape in shapes.items():
        array = getattr(log, name)
        assert array.shape == shape, name
        if name.startswith(("detected_", "clamped_")):
            want = bool
        else:
            want = np.int64 if name == "wp_index" else np.float64
        assert array.dtype == want, name
    for name in ("region_us", "region_su", "event_flags"):
        assert len(getattr(log, name)) == n
    # the arrays share one buffer; writing to one must leave the others alone
    before = {name: getattr(log, name).copy() for name in shapes}
    for name in shapes:
        getattr(log, name)[...] = 7
        for other in shapes:
            if other != name:
                np.testing.assert_array_equal(getattr(log, other), before[other])
        getattr(log, name)[...] = before[name]


def test_each_detected_observation_is_measured_once(monkeypatch):
    calls = []
    measure = scenario.tag_geometry

    def counted(pixels):
        calls.append(1)
        return measure(pixels)

    monkeypatch.setattr(scenario, "tag_geometry", counted)
    log = dropout_run("vet")
    assert len(calls) == int(log.detected_us.sum() + log.detected_su.sum()) > 0
