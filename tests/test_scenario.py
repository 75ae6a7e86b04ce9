"""Planners, configuration round trips and the closed-loop run."""

import dataclasses
import io
import itertools
import json
import math
import re
import sys
from pathlib import Path

import numpy as np
import pytest

import vetsim.control as control
import vetsim.frames as frames
import vetsim.perception as perception
import vetsim.scenario as scenario
import vetsim.vehicle as vehicle
from vetsim.control import PdGains, VetGains, uniform_pd
from vetsim.frames import GimbalSingularity, RigidTransform
from vetsim.config import (
    ConfigError,
    InvalidBounds,
    Lawnmower,
    MAX_LANES,
    ScenarioConfig,
    Setpoints,
    _encode,
    _field_types,
    lawnmower_path,
)
from vetsim.log import CSV_COLUMNS, _CSV_CHUNK, TrajectoryLog, _event_flags, log_from_csv
from vetsim.scenario import (
    PRESET_NAMES,
    SimFailure,
    UnknownPreset,
    planner_step,
    preset,
    run,
)
from vetsim.vehicle import Disturbance, VehicleModel
from vetsim.perception import CameraModel, DropoutModel, TagModel

# config_echo.json of every preset in config schema v3; v2/ holds them in schema
# v2, whose pd_u has six gains per vector (x, y and yaw at 0), and v1/ one echo
# in schema v1, with the two keys v2 removed (dropout.seed and
# appendix_sign_convention).
ECHOES = Path(__file__).with_name("config_echoes")


def short(name, duration, **tweaks):
    return dataclasses.replace(preset(name), duration=duration, **tweaks)


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
    target, index = planner_step((0.0, 0.0, 0.0), wps, 0.15, 0)
    assert index == 1
    assert target == (1.0, 0.0, 0.5)


def test_planner_holds_position_before_capture():
    wps = ((1.0, 0.0, 0.0),)
    target, index = planner_step((0.0, 0.0, 0.0), wps, 0.15, 0)
    assert index == 0
    assert target == (1.0, 0.0, 0.0)


def test_planner_holds_the_terminal_waypoint():
    wps = ((0.0, 0.0, 0.0), (1.0, 0.0, 0.3))
    target, index = planner_step((1.0, 0.01, 0.0), wps, 0.15, index=1)
    assert index == 2  # captured, counted once
    assert target == (1.0, 0.0, 0.3)
    target, index = planner_step((1.0, 0.0, 0.0), wps, 0.15, index=index)
    assert index == 2
    assert target == (1.0, 0.0, 0.3)


def test_planner_with_no_waypoints_holds_the_current_pose():
    current = (0.4, -0.2, 0.9)
    target, index = planner_step(current, (), 0.15, 0)
    assert target is current and index == 0
    # the target follows the pose tick by tick
    moved = (0.5, -0.1, 1.0)
    assert planner_step(moved, (), 0.15, index) == (moved, 0)


def test_planner_reuses_the_target_until_the_index_moves():
    # the target is the waypoints entry itself: nothing is built per tick
    wps = ((1.0, 0.0, 0.0), (2.0, 0.0, 0.5))
    target, index = planner_step((0.0, 0.0, 0.0), wps, 0.15, 0)
    assert target is wps[0] and index == 0
    same, index = planner_step((0.5, 0.0, 0.0), wps, 0.15, index)
    assert same is target and index == 0
    moved, index = planner_step((1.0, 0.1, 0.0), wps, 0.15, index)
    assert moved is wps[1] and index == 1


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
        assert preset(name).name == name


def test_unknown_preset_raises():
    with pytest.raises(UnknownPreset):
        preset("freestyle")


def test_config_round_trips_through_plain_data():
    for name in PRESET_NAMES:
        cfg = preset(name)
        again = ScenarioConfig.from_dict(cfg.to_dict())
        assert again == cfg, name


FLAT_PARTS = ("camera_u", "camera_s", "tag_u", "tag_s", "vet", "pd_u", "pd_s")


def documented_flat(part):
    """A config part's flat form in the order its docstring gives."""
    if isinstance(part, CameraModel):
        return (part.mount.flat, part.width, part.height, part.focal_length,
                part.width / 2.0, part.height / 2.0)
    if isinstance(part, TagModel):
        return part.mount.flat, part.side, part.side / 2.0
    if isinstance(part, PdGains):
        return part.kp, part.kd
    return tuple(getattr(part, f.name) for f in dataclasses.fields(VetGains))


@pytest.mark.parametrize("name", PRESET_NAMES + ("odd_sizes",))
def test_the_flat_forms_hold_their_fields_once_and_survive_a_round_trip(name):
    """Each flat form the tick reads is its part's fields in the documented
    order, made once (the same object on every read), and a to_dict/from_dict
    round trip gives parts whose flat forms print the same, ints included."""
    if name == "odd_sizes":
        base = preset("perturbation_real")
        cfg = dataclasses.replace(
            base, camera_u=CameraModel(641, 479, 333.3, base.camera_u.mount),
            tag_s=TagModel(0.07, base.tag_s.mount),
            vet=VetGains(0.2, 0.9, 0.05, 0.3, 0.07, 0.11, 0.4, 0.25, 0.03),
            pd_u=PdGains((0.1, 0.2, 0.3), (0.4, 0.5, 0.6)))
    else:
        cfg = preset(name)
    for attr in FLAT_PARTS:
        part = getattr(cfg, attr)
        flat = part.flat
        assert repr(flat) == repr(documented_flat(part)), attr
        assert part.flat is flat, attr
    again = ScenarioConfig.from_dict(json.loads(json.dumps(cfg.to_dict())))
    assert again == cfg
    for attr in FLAT_PARTS:
        assert repr(getattr(again, attr).flat) == repr(getattr(cfg, attr).flat), attr


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


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_v2_echoes_load_to_the_same_config(name):
    data = json.loads((ECHOES / "v2" / f"{name}.json").read_text())
    assert data["pd_u"]["kp"] == [0.0, 0.0, 0.5, 0.5, 0.5, 0.0]
    assert ScenarioConfig.from_dict(data) == preset(name)
    assert len(data["pd_u"]["kd"]) == 6  # the input is not changed
    # a zero is a zero whatever its JSON spelling
    data["pd_u"]["kd"][:2] = [0, -0.0]
    assert ScenarioConfig.from_dict(data) == preset(name)


@pytest.mark.parametrize("value", [0.1, -1e-300, math.nan, False, "0"])
@pytest.mark.parametrize("gain", [("kp", 0), ("kp", 1), ("kd", 5)])
def test_a_v2_pd_u_with_a_non_zero_x_y_or_yaw_gain_is_refused(gain, value):
    data = json.loads((ECHOES / "v2" / "nominal.json").read_text())
    data["pd_u"][gain[0]][gain[1]] = value
    with pytest.raises(ConfigError, match="pd_u gains on x, y and yaw must be exactly zero"):
        ScenarioConfig.from_dict(data)


@pytest.mark.parametrize("kp, kd", [(6, 3), (3, 6), (4, 4), (2, 2)])
def test_pd_u_gains_of_other_lengths_are_refused(kp, kd):
    data = preset("nominal").to_dict()
    data["pd_u"] = {"kp": [0.0] * kp, "kd": [0.0] * kd}
    with pytest.raises(ConfigError, match="malformed config at pd_u: kp and kd are per-axis"):
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


NOMINAL = preset("nominal")


def _rule(case_id, message, **changes):
    return pytest.param(changes, message, id=case_id)


@pytest.mark.parametrize("changes, message", [
    _rule("mode", "mode must be 'vet' or 'baseline', got 'teleport'", mode="teleport"),
    _rule("seed", "seed must be non-negative, got -1", seed=-1),
    _rule("dt_high", "dt must be in (0, 0.1] seconds", dt=0.5),
    _rule("dt_zero", "dt must be in (0, 0.1] seconds", dt=0.0),
    _rule("duration", "duration must be non-negative", duration=-1.0),
    _rule("ticks", "duration 1e+12 s at dt 0.02 s exceeds 1000000 ticks", duration=1e12),
    _rule("nan", "numbers that are not finite floats at vet.k_psi",
          vet=dataclasses.replace(NOMINAL.vet, k_psi=math.nan)),
    # an int beyond the float range is not a finite number either
    _rule("huge_int", "numbers that are not finite floats at camera_u.width",
          camera_u=CameraModel(10**400, 480, 400.0, NOMINAL.camera_u.mount)),
    _rule("tank_length", "tank bounds are 3-vectors", tank_min=(-1.0, -1.0)),
    _rule("tank_extent", "tank must have positive extent on every axis",
          tank_max=(-1.0, 2.66, 0.0)),
    _rule("pose_length", "initial poses are a 6-tuple and a 3-tuple", initial_pose_s=(0.0, 0.0)),
    _rule("pose_u_outside", "underwater initial pose lies outside the tank",
          initial_pose_u=(99.0, 0.0, -1.0, 0.0, 0.0, 0.0)),
    _rule("pose_s_outside", "surface initial pose lies outside the tank",
          initial_pose_s=(0.0, 99.0, 0.0)),
    _rule("dof", "underwater model is 6-DoF, surface model 3-DoF", params_u=NOMINAL.params_s),
    _rule("lanes", "lawnmower area needs more than 10000 lanes",
          planner=Lawnmower(0.0, 1.0, 0.0, 1.0, 1e-300)),
])
def test_a_config_breaking_a_rule_is_never_made(changes, message):
    """Each rule holds for a config derived with dataclasses.replace and for
    one read from_dict, with the same message."""
    exact = f"^{re.escape(message)}$"
    with pytest.raises(ConfigError, match=exact):
        dataclasses.replace(NOMINAL, **changes)
    hints = _field_types(ScenarioConfig)
    tree = NOMINAL.to_dict() | {key: _encode(value, hints[key]) for key, value in changes.items()}
    with pytest.raises(ConfigError, match=exact):
        ScenarioConfig.from_dict(tree)


def test_the_planner_type_is_checked_before_the_config_is_serialised():
    with pytest.raises(ConfigError, match="planner must be Setpoints or Lawnmower"):
        dataclasses.replace(NOMINAL, planner="x")


def test_a_config_field_cannot_be_assigned():
    with pytest.raises(dataclasses.FrozenInstanceError):
        preset("nominal").duration = 1.0


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
    assert csv_text(run(cfg_a)) == csv_text(run(cfg_b))


def test_random_dropout_is_seed_deterministic():
    cfg_a = short("nominal", 5.0, dropout=DropoutModel(random_rate=0.3))
    cfg_b = short("nominal", 5.0, dropout=DropoutModel(random_rate=0.3))
    text_a = csv_text(run(cfg_a))
    assert text_a == csv_text(run(cfg_b))
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
    assert csv_text(log).splitlines()[0] == golden


def test_log_from_csv_rejects_foreign_headers():
    cfg = short("nominal", 0.0)
    with pytest.raises(ConfigError):
        log_from_csv(io.StringIO("a,b,c\n1,2,3\n"), cfg)


def test_log_from_csv_accepts_a_header_only_file():
    cfg = short("nominal", 0.0)
    log = log_from_csv(io.StringIO(",".join(CSV_COLUMNS) + "\n"), cfg)
    assert len(log) == 0


@pytest.mark.parametrize("mode", ["vet", "baseline"])
@pytest.mark.parametrize("name", [*PRESET_NAMES, "perturbation_real+dropout"])
def test_log_from_csv_is_a_fixed_point_of_the_writer(name, mode):
    # every cell bit for bit: NaN xi, -0 commands, labels and event flags
    if name.endswith("+dropout"):
        cfg = short(name.split("+")[0], 12.0, mode=mode, dropout=DropoutModel(random_rate=0.3))
    else:
        cfg = short(name, min(preset(name).duration, 20.0), mode=mode)
    log = run(cfg)
    text = csv_text(log)
    again = log_from_csv(io.StringIO(text), cfg)
    assert csv_text(again) == text
    # every field as run() built it: the clock, flags, labels and event flags
    # exactly, the CSV's other floats to their 12 printed digits, the totals
    # derived alike
    for item in dataclasses.fields(TrajectoryLog):
        ran, read = getattr(log, item.name), getattr(again, item.name)
        if item.name == "config" or isinstance(ran, list):
            assert read is ran or read == ran, item.name
        elif item.name == "t" or ran.dtype == bool:
            np.testing.assert_array_equal(read, ran, err_msg=item.name)
        elif item.name.startswith("u_total_"):
            # within the rounding of the two printed addends, sub and xi
            robot = item.name[-1]
            split = np.abs(getattr(log, f"u_sub_{robot}")) + np.abs(getattr(log, f"u_xi_{robot}"))
            assert (np.abs(read - ran) <= 5e-12 * split + 1e-17).all(), item.name
        else:
            printed = [float(f"{v:.12g}") for v in ran.ravel().tolist()]
            np.testing.assert_array_equal(read.ravel(), printed, err_msg=item.name)


def corrupt_row(text, row, corrupt):
    """text with data row `row` (1 is the first after the header) corrupted."""
    lines = text.splitlines()
    lines[row] = ",".join(corrupt(lines[row].split(",")))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("where", ["row_300", "last_row"])
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda cells: cells[:-1], "row {} has 35 fields"),
        (lambda cells: cells[:5] + ["zero"] + cells[6:], "row {} is not numeric"),
        (lambda cells: [("2" if name == "detectedSU" else cell)
                        for name, cell in zip(CSV_COLUMNS, cells)],
         "row {} column detectedSU is not 0 or 1: '2'"),
    ],
    ids=["short_row", "non_numeric_cell", "bad_detection_flag"],
)
def test_log_from_csv_names_the_global_row_beyond_the_first_chunk(where, corrupt, message):
    cfg = short("nominal", 8.0)  # 401 rows: the reader's second chunk holds rows 257 to 401
    text = csv_text(run(cfg))
    row = 300 if where == "row_300" else 401
    with pytest.raises(ConfigError, match=re.escape(message.format(row))):
        log_from_csv(io.StringIO(corrupt_row(text, row, corrupt)), cfg)


def test_log_from_csv_reads_blank_lines_and_a_missing_final_newline(monkeypatch):
    cfg = short("nominal", 8.0)
    text = csv_text(run(cfg))
    lines = text.splitlines()
    assert csv_text(log_from_csv(io.StringIO(text.rstrip("\n")), cfg)) == text
    # blank lines after the header, at the chunk boundary and at the end
    spaced = lines[:1] + [""] + lines[1:257] + ["", ""] + lines[257:] + [""]
    assert csv_text(log_from_csv(io.StringIO("\n".join(spaced) + "\n"), cfg)) == text
    # a blank line that keeps its "\r\n" ending is blank too, row 10 of the first chunk
    crlf = "".join(lines[k] + "\n" for k in range(11)) + "\r\n" + "\n".join(lines[11:]) + "\n"
    assert csv_text(log_from_csv(io.StringIO(crlf, newline=""), cfg)) == text
    # blank lines before the header
    assert csv_text(log_from_csv(io.StringIO("\r\n\n" + text, newline=""), cfg)) == text
    # a file written with "\r\n" endings throughout, its header too
    assert csv_text(log_from_csv(io.StringIO(text.replace("\n", "\r\n"), newline=""), cfg)) == text
    # a run of blank lines that fills whole chunks is skipped, not taken for the end
    gap = "".join(itertools.islice(itertools.cycle(["\n", "\r\n", "\r\r\n"]), 3 * _CSV_CHUNK))
    gapped = "\n".join(lines[:101]) + "\n" + gap + "\n".join(lines[101:]) + "\n"
    assert csv_text(log_from_csv(io.StringIO(gapped, newline=""), cfg)) == text

    # a line of spaces is not blank: it is a row of one field; nor is a tab,
    # which sorts below "\x0e" as blank lines do
    for cell in (" ", "\t"):
        with pytest.raises(ConfigError, match="row 2 has 1 fields"):
            log_from_csv(io.StringIO("\n".join(lines[:2] + [cell] + lines[2:]) + "\n"), cfg)

    def no_loadtxt(*args, **kwargs):
        raise AssertionError("a header-only file has no rows to parse")

    monkeypatch.setattr(np, "loadtxt", no_loadtxt)
    assert len(log_from_csv(io.StringIO(lines[0] + "\n"), cfg)) == 0


def test_log_from_csv_reads_at_most_one_chunk_past_the_configs_rows():
    cfg = short("nominal", 1.0)  # 51 rows
    header, *rows = csv_text(run(cfg)).splitlines(keepends=True)
    taken = 0

    def endless():  # the rows, then the last one again and again
        nonlocal taken
        for line in itertools.chain([header], rows, itertools.repeat(rows[-1])):
            taken += 1
            yield line

    with pytest.raises(ConfigError, match=re.escape("row 52 column t is 1, not 51 * dt = 1.02")):
        log_from_csv(endless(), cfg)
    assert taken <= 1 + len(rows) + _CSV_CHUNK


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


def run_with_event_inputs(monkeypatch, cfg):
    """run(cfg), and the arrays _event_flags read the events off: the log's
    detection flags plus the loop's waypoint index and wall-clamp flags."""
    inputs = {}

    def capture(arrays, *args, _original=_event_flags):
        inputs.update(arrays)
        return _original(arrays, *args)

    monkeypatch.setattr("vetsim.log._event_flags", capture)
    return run(cfg), inputs


def per_tick_events(log, inputs):
    """eventFlags found by scanning the log and the loop's inputs one tick at
    a time against the tick before, with the dropout windows and disturbances
    evaluated at each time: the reference for the transitions run reads off
    all at once."""
    cfg = log.config
    out = []
    before = {"wall_clamp_u": False, "wall_clamp_s": False, "dropout": False,
              "perturb": False, "wp": 0}
    for k, t in enumerate(log.t.tolist()):
        now = {
            "wall_clamp_u": inputs["wall_clamp_u"][k], "wall_clamp_s": inputs["wall_clamp_s"][k],
            "dropout": bool(cfg.dropout.scheduled(t)),
            "perturb": any(d.active(t) for d in cfg.perturbations),
            "wp": int(inputs["waypoint_index"][k]),
            "us": log.detected_us[k], "su": log.detected_su[k],
            "region_us": log.region_us[k], "region_su": log.region_su[k],
        }
        if k == 0:  # nothing to compare line of sight and regions with
            before.update({key: now[key] for key in ("us", "su", "region_us", "region_su")})
        events = [f"wall_clamp_{robot}" for robot in ("u", "s")
                  if now[f"wall_clamp_{robot}"] and not before[f"wall_clamp_{robot}"]]
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
def test_event_flags_match_a_per_tick_scan(monkeypatch, mode):
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
    log, inputs = run_with_event_inputs(monkeypatch, cfg)
    flat = {f.split(":")[0] for flags in log.event_flags for f in flags.split(";") if f}
    assert flat >= {"wall_clamp_u", "wall_clamp_s", "dropout_start", "dropout_end",
                    "perturb_start", "perturb_end", "los_loss_us", "los_regain_us",
                    "region_us", "region_su"}
    assert log.event_flags == per_tick_events(log, inputs)


def test_waypoint_captures_match_a_per_tick_scan(monkeypatch):
    planner = scenario.Setpoints(((0.0, 0.0, 0.0), (0.05, 0.0, 0.0), (0.5, 0.5, 0.0)))
    log, inputs = run_with_event_inputs(monkeypatch, short("nominal", 20.0, planner=planner))
    # the first two lie within the capture radius of the start
    assert log.event_flags[0] == "waypoint_capture;waypoint_capture"
    assert inputs["waypoint_index"][0] == 2
    assert log.waypoints_captured == log.waypoints_total == 3
    assert log.event_flags == per_tick_events(log, inputs)


@pytest.mark.parametrize("mode", ["vet", "baseline"])
def test_saturated_totals_are_the_commands_the_vehicles_got(monkeypatch, mode):
    # the tight tank clamps both robots and the pull saturates the commands
    cfg = short(
        "perturbation_real", 12.0, mode=mode, dropout=DropoutModel(random_rate=0.3),
        perturbations=(Disturbance((-10.0, 0.0, 0.0), t_start=0.0, t_end=3.0),),
        tank_min=(0.0, -1.0, -2.0), tank_max=(0.45, 0.66, 0.0),
    )
    given = {6: [], 3: []}
    step = VehicleModel.step

    def recorded(self, *args):
        made = step(self, *args)
        given[self.dof].append((self, args, made))
        return made

    monkeypatch.setattr(VehicleModel, "step", recorded)
    log = run(cfg)
    bounds = np.array(cfg.params_u.axis_bounds)
    assert (np.abs(log.u_total_u) == bounds).any()
    # bit for bit, -0 and the clipped bounds included: each step got the
    # logged split, and makes what it makes of the log's saturated total as
    # the whole command (x + -0.0 is x). The last record's command never
    # reaches a vehicle: the run ends before that tick's step.
    logged = ((6, log.u_sub_u, log.u_xi_u, log.u_total_u), (3, log.u_sub_s, log.u_xi_s, log.u_total_s))
    for dof, u_sub, u_xi, total in logged:
        assert len(given[dof]) == len(log) - 1
        splits = [(s, x) for _, (_, _, s, x, *_), _ in given[dof]]
        assert np.array(splits).tobytes() == np.stack([u_sub, u_xi], axis=1)[:-1].tobytes()
        for k, (model, (pose, nu, _, _, *rest), made) in enumerate(given[dof]):
            again = step(model, pose, nu, total[k].tolist(), [-0.0] * dof, *rest)
            assert np.array([*again[0], *again[1]]).tobytes() == \
                np.array([*made[0], *made[1]]).tobytes(), (dof, k)


def test_wrenches_sum_the_active_disturbances_in_config_order():
    cfg = short("nominal", 4.0, perturbations=(
        Disturbance((0.1, -0.0, 0.7), (0.01, 0.0, -0.03), t_start=0.5, t_end=3.0),
        Disturbance((0.2, 0.0, -0.7), (0.02, -0.0, 0.03), t_start=1.0, t_end=2.0),
        Disturbance((0.7, 1e-17, 0.0), (-0.03, 0.5, 1e-9), t_start=1.5, t_end=3.5),
    ))
    ts = np.arange(201) * cfg.dt
    _, wrenches = scenario._time_inputs(cfg, ts)
    for k, t in enumerate(ts.tolist()):
        active = [d for d in cfg.perturbations if d.active(t)]
        assert (wrenches[k] is None) == (not active)
        if not active:
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


def test_runaway_attitude_fails_naming_the_tick():
    cfg = short(
        "nominal",
        15.0,
        perturbations=(Disturbance((0.0, 0.0, 0.0), (0.0, 5.0, 0.0), 0.0, 15.0),),
    )
    detail = r"gimbal guard band at tick 47, t=0\.940 s: pose_u=\["
    with pytest.raises(SimFailure, match=detail) as info:
        run(cfg)
    assert isinstance(info.value.__cause__, GimbalSingularity)


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
    with pytest.raises(SimFailure, match=r"^integration failed \(float division by zero\) "
                       r"at tick 0, t=0\.000 s: pose_u=\[") as failure:
        run(short("nominal", 1.0))
    pose_s = [float(v) for v in preset("nominal").initial_pose_s]
    assert str(failure.value).endswith(f"pose_s={pose_s}")  # the tick's logged state


def dropout_config(mode):
    """perturbation_real with random dropout through the push: NaN xi
    cells, region changes, line-of-sight events and perturbation flags."""
    return short("perturbation_real", 12.0, mode=mode, dropout=DropoutModel(random_rate=0.3))


def dropout_run(mode):
    return run(dropout_config(mode))


def csv_text(log):
    """The whole CSV as one string: the writer's pieces joined."""
    return "".join(log.csv_chunks())


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
    assert csv_text(log) == per_cell_csv(log)


# (field, rows and column, value) written into a 601-row nominal log, whose
# chunks are rows 0-255, 256-511 and 512-600
CSV_EDITS = {
    "constant_negative_zero": ("u_xi_u", np.s_[:256, 0], -0.0),
    "zero_of_both_signs": ("u_xi_u", np.s_[:256, 1], np.tile([0.0, -0.0], 128)),
    "constant_then_varying": ("proj_dist", np.s_[:256], 0.25),
    "all_nan_xi_chunk": ("xi_us", np.s_[256:512], math.nan),
    "nan_of_both_signs": ("xi_su", np.s_[:256], np.tile([math.nan, -math.nan], 128)),
    "constant_false_flags": ("detected_us", np.s_[256:512], False),
    "one_flag_flip": ("detected_su", np.s_[300], False),
}


@pytest.mark.parametrize("case", CSV_EDITS)
def test_csv_writer_prints_chunk_constant_columns_as_the_per_cell_formatter(case):
    name, rows, value = CSV_EDITS[case]
    log = run(short("nominal", 12.0))
    values = getattr(log, name).copy()
    values[rows] = value
    log = dataclasses.replace(log, **{name: values})
    text = csv_text(log)
    assert text == per_cell_csv(log)
    if case == "constant_negative_zero":
        column = CSV_COLUMNS.index("uU_xi_x")
        assert all(line.split(",")[column] == "-0" for line in text.splitlines()[1:257])


def test_csv_writer_prints_a_one_row_last_chunk():
    log = run(short("nominal", 5.12))
    assert len(log) == 257
    assert csv_text(log) == per_cell_csv(log)


@pytest.mark.parametrize("mode", ["vet", "baseline"])
def test_log_arrays_have_the_documented_shapes_and_types(mode):
    log = run(short("nominal", 2.0, mode=mode))
    n = len(log)
    assert n == 101
    shapes = {
        "t": (n,), "pose_u": (n, 6), "pose_s": (n, 3),
        "u_sub_u": (n, 6), "u_xi_u": (n, 6), "u_sub_s": (n, 3), "u_xi_s": (n, 3),
        "u_total_u": (n, 6), "u_total_s": (n, 3), "xi_us": (n,), "xi_su": (n,),
        "proj_dist": (n,), "detected_us": (n,), "detected_su": (n,),
    }
    for name, shape in shapes.items():
        array = getattr(log, name)
        assert array.shape == shape, name
        assert array.dtype == (bool if name.startswith("detected_") else np.float64), name
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
    """project_tag calls observe once for each tag it detects, with that
    camera, and never for one it does not."""
    cameras = []

    def counted(*args, _original=perception.observe):
        cameras.append(args[-1])
        return _original(*args)

    monkeypatch.setattr(perception, "observe", counted)
    log = dropout_run("vet")
    detected = int(log.detected_us.sum() + log.detected_su.sum())
    assert len(cameras) == detected
    assert cameras.count(log.config.camera_u.flat) == int(log.detected_us.sum())
    assert 0 < detected < 2 * len(log)


# Python-level calls per tick of run() on dropout_config, counted by
# sys.setprofile: 23.74 (vet) and 21.89 (baseline), each tick stage being one
# body, the PDs writing their angle wraps out, the depth/attitude measurement
# a plain tuple and one step actuating each robot. Wrapping any per-tick step
# in a helper adds about one call to every tick, which these bounds do not
# leave room for.
CALLS_PER_TICK = {"vet": 24.0, "baseline": 22.0}


@pytest.mark.parametrize("mode", ["vet", "baseline"])
def test_the_tick_keeps_its_call_budget(mode):
    cfg = dropout_config(mode)
    run(cfg)  # anything imported on a first run is imported now
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    sys.setprofile(count)
    try:
        log = run(cfg)
    finally:
        sys.setprofile(None)
    assert calls / len(log) <= CALLS_PER_TICK[mode]


@pytest.mark.parametrize("mode", ["vet", "baseline"])
def test_the_tick_reads_no_config_attribute(monkeypatch, mode):
    """run() reads the cameras, tags and gains before the first tick, in
    their flat forms, and no tick reads them again: a 2 s and a 12 s run of
    dropout_config read the same attributes of CameraModel, TagModel,
    VetGains and PdGains instances the same number of times."""
    long = dropout_config(mode)
    cut = dataclasses.replace(long, duration=2.0)  # the same part objects
    run(cut)  # each part's flat form is made now, once for both runs
    reads = {}
    for cls in (CameraModel, TagModel, VetGains, PdGains):
        def counted(self, name, _cls=cls):
            key = (_cls.__name__, name)
            reads[key] = reads.get(key, 0) + 1
            return object.__getattribute__(self, name)

        monkeypatch.setattr(cls, "__getattribute__", counted)
    counts = []
    for cfg in (cut, long):
        reads.clear()
        log = run(cfg)
        counts.append((dict(reads), len(log)))
    (cut_reads, cut_ticks), (long_reads, long_ticks) = counts
    assert long_ticks > 5 * cut_ticks
    assert ("VetGains", "flat") in cut_reads  # the count does see the reads
    assert long_reads == cut_reads


@pytest.mark.parametrize("mode", ["vet", "baseline"])
def test_the_leaders_subtask_is_weighted_once_where_it_is_logged(monkeypatch, mode):
    """vet mode logs, and sums, the surface sub-task with its linear
    components times the leader's vet_law weight, bit for bit; baseline mode
    logs the sub-task as the PD gave it."""
    cfg = short("perturbation_real", 12.0, mode=mode, dropout=DropoutModel(random_rate=0.3))
    subtasks, weights = [], []

    def surface(*args, _law=scenario.subtask_control_surface):
        subtasks.append(_law(*args))
        return subtasks[-1]

    def tether(*args, _law=scenario.vet_law):
        out = _law(*args)
        if args[-1] is cfg.camera_s.flat:
            weights.append(out[1])
        return out

    monkeypatch.setattr(scenario, "subtask_control_surface", surface)
    monkeypatch.setattr(scenario, "vet_law", tether)
    log = run(cfg)
    if mode == "vet":
        assert any(0.0 < w < 1.0 for w in weights)  # the leader does yield
        expected = [(ux * w, uy * w, upsi) for (ux, uy, upsi), w in zip(subtasks, weights)]
    else:
        assert weights == []
        expected = subtasks
    assert len(expected) == len(log)
    assert np.array(expected).tobytes() == log.u_sub_s.tobytes()


def test_an_empty_planner_targets_the_current_pose_every_tick():
    # With no waypoints and no damping the leader's sub-task command is
    # zero on every tick, while the tether drags the leader away from its
    # start; a target frozen at the start pose would pull it back.
    cfg = short("perturbation_real", 12.0, planner=Setpoints(()), pd_s=uniform_pd(1.0, 0.0))
    log = run(cfg)
    assert np.abs(log.pose_s[:, :2] - log.pose_s[0, :2]).max() > 0.05
    assert np.abs(log.u_xi_s).max() > 0.0
    np.testing.assert_array_equal(log.u_sub_s, 0.0)


@pytest.mark.parametrize("mode", ["vet", "baseline"])
def test_a_tick_transforms_each_pose_once_and_builds_no_pose(monkeypatch, mode):
    """One rotation_zyx (plus one per wall clamp) and one euler_rate_rows per
    tick for the underwater pose; no mount is built, and no target: the
    sub-tasks get the same target objects tick after tick, one underwater and
    one per waypoint the surface robot heads for. The tick's stage calls: one
    project_tag per logged tick and unblanked camera, one observe per
    detected tag and one step per robot and stepped tick (every tick but the
    last)."""
    cfg = short("perturbation_real", 12.0, mode=mode, dropout=DropoutModel(random_rate=0.3))
    homes = {"rotation_zyx": frames, "euler_rate_rows": frames,
             "project_tag": perception, "observe": perception}
    calls = dict.fromkeys(homes, 0)
    for name, home in homes.items():
        def counted(*args, _name=name, _original=getattr(home, name)):
            calls[_name] += 1
            return _original(*args)

        for module in (frames, perception, control, vehicle, scenario):
            if name in vars(module):
                monkeypatch.setattr(module, name, counted)
    steps = []

    def counted_step(self, *args, _step=VehicleModel.step):
        steps.append(self.dof)
        return _step(self, *args)

    monkeypatch.setattr(VehicleModel, "step", counted_step)
    built = []

    def counted_init(self, *args, _init=RigidTransform.__init__, **kwargs):
        built.append(type(self).__name__)
        _init(self, *args, **kwargs)

    monkeypatch.setattr(RigidTransform, "__init__", counted_init)
    # the targets themselves are kept, so no two distinct ones share an id
    targets = {"underwater": [], "surface": []}
    for robot in targets:
        def targeted(*args, _robot=robot, _law=getattr(scenario, f"subtask_control_{robot}")):
            targets[_robot].append(args[1] if _robot == "underwater" else args[3])
            return _law(*args)

        monkeypatch.setattr(scenario, f"subtask_control_{robot}", targeted)
    log, inputs = run_with_event_inputs(monkeypatch, cfg)
    n = len(log)
    blanked, _ = scenario._time_inputs(cfg, log.t)
    assert calls["euler_rate_rows"] == n
    assert calls["project_tag"] == 2 * n - int(blanked.sum()) < 2 * n
    detected = int(log.detected_us.sum() + log.detected_su.sum())
    assert calls["observe"] == detected
    assert steps == [6, 3] * (n - 1)
    assert n <= calls["rotation_zyx"] <= n + int(inputs["wall_clamp_u"].sum())
    assert built == []
    assert len(targets["underwater"]) == len(targets["surface"]) == n
    assert len({id(target) for target in targets["underwater"]}) == 1
    # one surface target object per waypoint headed for: the first and one per index move
    moves = int(np.count_nonzero(np.diff(inputs["waypoint_index"])))
    assert len({id(target) for target in targets["surface"]}) == 1 + moves


def test_the_tick_builds_its_records_as_plain_tuples(monkeypatch):
    """The per-tick records are plain tuples, not record classes: the
    constants _UNSEEN_TAG, UNSEEN and VET_START, and what project_tag,
    observe (inside it), _depth_attitude_state and vet_law (its new state)
    give on every tick, so a NamedTuple or dataclass back on the hot path
    fails here."""
    constants = (perception._UNSEEN_TAG, perception.UNSEEN, control.VET_START)
    assert [type(value) for value in constants] == [tuple] * 3
    outputs = {"project_tag": [], "observe": [], "_depth_attitude_state": [], "vet_law": []}
    for name, made in outputs.items():
        home = perception if name == "observe" else scenario

        def recorded(*args, _made=made, _original=getattr(home, name)):
            _made.append(_original(*args))
            return _made[-1]

        monkeypatch.setattr(home, name, recorded)
    log = dropout_run("vet")
    states = [state for _, _, state in outputs["vet_law"]]
    # both of vet_law's branches ran: seen and held through a dropout
    assert {center is None for center, _, _, _, _ in states} == {True, False}
    measured = outputs["_depth_attitude_state"]
    assert len(measured) == len(log)  # one per tick
    values = outputs["project_tag"] + outputs["observe"] + measured + states
    assert {type(value) for value in values} == {tuple}


@pytest.mark.parametrize("mode", ["vet", "baseline"])
def test_a_blanked_camera_is_never_projected(monkeypatch, mode):
    """The upward camera is projected on every tick the dropout leaves it,
    and on no other; the downward camera on every tick. Skipping the blanked
    projections changes no logged value."""
    cfg = short("perturbation_real", 12.0, mode=mode, dropout=DropoutModel(random_rate=0.3))
    reference = run(cfg)
    upward = []

    def counted(observer, target, cam, tag, _original=scenario.project_tag):
        upward.append(cam is cfg.camera_u.flat)
        return _original(observer, target, cam, tag)

    monkeypatch.setattr(scenario, "project_tag", counted)
    log = run(cfg)
    blanked, _ = scenario._time_inputs(cfg, log.t)
    assert 0 < blanked.sum() < len(log)
    assert len(upward) == 2 * len(log) - int(blanked.sum())
    # per tick: the upward camera first unless blanked, then the downward one
    assert upward == [up for blank in blanked.tolist()
                      for up in ([False] if blank else [True, False])]
    assert csv_text(log) == csv_text(reference)
    assert log.u_total_u.tobytes() == reference.u_total_u.tobytes()
    assert log.u_total_s.tobytes() == reference.u_total_s.tobytes()
