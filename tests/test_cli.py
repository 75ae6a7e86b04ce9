"""End-to-end command line behaviour: bundles, overrides, exit codes."""

import dataclasses
import errno
import io
import json
import os
import runpy
import shutil
import stat
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from test_plotting import polylines
from test_scenario import csv_text, per_cell_csv

from vetsim import cli
from vetsim.cli import main
from vetsim.config import ScenarioConfig
from vetsim.log import CSV_COLUMNS, _CSV_CHUNK, TrajectoryLog, log_from_csv
from vetsim.scenario import PRESET_NAMES, preset, run

ECHOES = Path(__file__).with_name("config_echoes")

BUNDLE_FILES = (
    "config_echo.json",
    "trajectory.csv",
    "summary.json",
    "plots/trajectory_xy.svg",
    "plots/distance_vs_time.svg",
    "plots/velocity_vs_time.svg",
    "plots/tether_state_vs_time.svg",
)


def run_cli(*args):
    return main(list(args))


def test_run_writes_a_complete_bundle(tmp_path, capsys):
    out = tmp_path / "bundle"
    code = run_cli("run", "--preset", "nominal", "--set", "duration=5", "--out", str(out))
    assert code == 0
    for rel in BUNDLE_FILES:
        assert (out / rel).is_file(), rel
    summary = json.loads((out / "summary.json").read_text())
    assert summary["scenario"] == "nominal"
    assert summary["mode"] == "vet"
    assert "max_projected_distance" in summary
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    assert "run complete" in capsys.readouterr().out


def test_repeated_runs_are_byte_identical(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        assert run_cli(
            "run", "--preset", "nominal", "--set", "duration=5", "--out", str(out)
        ) == 0
    assert (out_a / "trajectory.csv").read_bytes() == (out_b / "trajectory.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    for rel in BUNDLE_FILES[3:]:
        assert (out_a / rel).read_bytes() == (out_b / rel).read_bytes()


def test_overrides_reach_the_echoed_config(tmp_path, capsys):
    out = tmp_path / "bundle"
    code = run_cli(
        "run", "--preset", "nominal",
        "--set", "duration=2",
        "--set", "vet.k_psi=0.7",
        "--seed", "9",
        "--mode", "baseline",
        "--out", str(out),
    )
    assert code == 0
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo["duration"] == 2
    assert echo["vet"]["k_psi"] == 0.7
    assert echo["seed"] == 9
    assert echo["mode"] == "baseline"


def test_config_file_round_trip(tmp_path, capsys):
    cfg_path = tmp_path / "scenario.json"
    data = preset("nominal").to_dict()
    data["duration"] = 3.0
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "bundle"
    assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 0
    echo = json.loads((out / "config_echo.json").read_text())
    assert echo == json.loads((out / "config_echo.json").read_text())
    assert echo["duration"] == 3.0


def test_unknown_override_key_fails_cleanly(tmp_path, capsys):
    out = tmp_path / "bundle"
    code = run_cli("run", "--preset", "nominal", "--set", "bogus.key=1", "--out", str(out))
    assert code == 2
    assert not out.exists()  # no partial files
    assert "config error" in capsys.readouterr().err


def _override(text, preset_name="nominal", case_id=None):
    return pytest.param(["--preset", preset_name, "--set", text], id=case_id or text)


HUGE_INT = str(10**400)


@pytest.mark.parametrize(
    "args",
    [_override(text) for text in (
        "vet.k_psi=NaN", "duration=Infinity", "duration=1e12", "pd_u.kp.3=1.0",
        "seed=Infinity", "planner=5", "seed=1.7", "seed=true",
        "camera_u.width=640.7", "vet.k_psi=true", "seed=-1", "planner.kind=[1,2]",
        "planner.kind={}", "duration=0",
        # a str field takes only a string
        "name=[1,2]", "name=null", "mode=5",
        # keys that config schema v2 removed are unknown overrides
        "appendix_sign_convention=no", "dropout.seed=0",
        # mount entries are JSON numbers, not strings or bools
        'camera_u.mount.translation=["0.1",true,0]',
        'camera_u.mount.rotation=[["1","0","0"],["0","1","0"],["0","0","1"]]',
        # list indexes are plain non-negative decimals, not any int() spelling
        "initial_pose_u.-6=0.5", "initial_pose_u.+0=0.5", "initial_pose_u.0_0=0.5",
    )] + [
        pytest.param(["--preset", "nominal", "--seed", "-1"], id="--seed -1"),
        _override(f"camera_u.width={HUGE_INT}", case_id="camera_u.width=10**400"),
        _override(f"camera_s.height={HUGE_INT}", case_id="camera_s.height=10**400"),
        _override("planner.y_max=1e300", "navigation_sim"),
        _override("planner.lane_spacing=1e-300", "navigation_sim"),
    ],
)
def test_invalid_values_fail_cleanly_before_the_run(tmp_path, capsys, args):
    out = tmp_path / "bundle"
    code = run_cli("run", "--set", "duration=0.2", *args, "--out", str(out))
    assert code == 2
    assert not out.exists()  # nothing written
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("args, message", [
    (["--preset", "nominal", "--seed", "-1"], "seed must be non-negative, got -1"),
    (["--preset", "nominal", "--set", "mode=teleport"],
     "mode must be 'vet' or 'baseline', got 'teleport'"),
    (["--preset", "nominal", "--set", "dt=0.5"], "dt must be in (0, 0.1] seconds"),
    (["--preset", "nominal", "--set", "vet.k_psi=NaN"],
     "numbers that are not finite floats at vet.k_psi"),
    (["--preset", "navigation_sim", "--set", "planner.lane_spacing=1e-300"],
     "lawnmower area needs more than 10000 lanes"),
    (["--preset", "nominal", "--set", "duration=0.001"],
     "duration 0.001 s is under one tick (dt 0.02 s); a bundle needs two records"),
    (["--preset", "nominal", "--set", "planner.capture_radius=0"],
     "malformed config at planner: capture_radius must be positive"),
    (["--preset", "nominal", "--set", "planner.waypoints.0=[1,2]"],
     "malformed config at planner: waypoints are (x, y, psi) triples"),
    (["--preset", "navigation_sim", "--set", "planner.speed=0"],
     "malformed config at planner: speed and capture_radius must be positive"),
    (["--preset", "navigation_sim", "--set", "planner.lane_spacing=0"],
     "lane spacing must be positive"),
    (["--preset", "nominal", "--set", "params_u.mass=[1,1,1,1]"],
     "malformed config at params_u: vehicle model supports 3 or 6 degrees of freedom"),
    (["--preset", "nominal", "--set", "params_u.thrust_gain=[1,1,1]"],
     "malformed config at params_u: thrust_gain must have 6 entries"),
    (["--preset", "perturbation_sim", "--set", "perturbations.0.force=[1,2]"],
     "malformed config at perturbations.0: disturbance force and torque are 3-vectors"),
    (["--preset", "nominal", "--set", "name.x=1"], "'name.x' descends into a scalar"),
    (["--preset", "nominal", "--set", "foo"], "override must look like key=value, got 'foo'"),
    (["--config", "missing.json"],  # relative to tmp_path, where the test runs
     "cannot read config file: [Errno 2] No such file or directory: 'missing.json'"),
], ids=["seed", "mode", "dt", "nan", "lanes", "under_one_tick", "capture_radius",
        "waypoint_pair", "speed", "lane_spacing", "mass_dof", "gain_dof", "force_pair",
        "into_a_scalar", "no_equals", "missing_config"])
def test_a_config_error_prints_its_rule(tmp_path, capsys, monkeypatch, args, message):
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "bundle"
    assert run_cli("run", *args, "--out", str(out)) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"config error: {message}\n")


def test_a_v2_config_with_a_yaw_gain_fails_cleanly(tmp_path, capsys):
    data = json.loads((ECHOES / "v2" / "nominal.json").read_text())
    assert run_cli("run", "--config", str(ECHOES / "v2" / "nominal.json"),
                   "--set", "duration=0.2", "--out", str(tmp_path / "ok")) == 0
    data["pd_u"]["kp"][5] = 0.5
    cfg_path = tmp_path / "scenario.json"
    cfg_path.write_text(json.dumps(data))
    out = tmp_path / "bundle"
    assert run_cli("run", "--config", str(cfg_path), "--out", str(out)) == 2
    assert not out.exists()
    assert "pd_u gains on x, y and yaw must be exactly zero" in capsys.readouterr().err


def threshold_error(tmp_path, capsys, command, value):
    """Run a command with --threshold=value; it must exit 2 and write nothing."""
    if command == "plot":
        bundle = tmp_path / "bundle"
        assert run_cli("run", "--preset", "nominal", "--set", "duration=0.2",
                       "--out", str(bundle)) == 0
        args = ["--run", str(bundle)]
    else:
        args = ["--preset", "nominal", "--set", "duration=0.2"]
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *args, f"--threshold={value}", "--out", str(out))
    assert exc.value.code == 2
    assert not out.exists()  # nothing written
    return capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "-Infinity", "1e999", "abc"])
@pytest.mark.parametrize("command", ["run", "compare", "plot"])
def test_threshold_must_be_finite(tmp_path, capsys, command, value):
    err = threshold_error(tmp_path, capsys, command, value)
    assert "--threshold: must be a finite number" in err


@pytest.mark.parametrize("value", ["0", "-0.0", "-1"])
@pytest.mark.parametrize("command", ["run", "compare", "plot"])
def test_threshold_must_be_positive(tmp_path, capsys, command, value):
    err = threshold_error(tmp_path, capsys, command, value)
    assert "--threshold: must be positive" in err


def test_absurd_but_finite_bounds_still_render(tmp_path, capsys):
    # the padded command axis spans more than the largest float
    out = tmp_path / "bundle"
    assert run_cli(
        "run", "--preset", "nominal", "--set", "duration=1",
        "--set", "params_s.velocity_bound_linear=6.92e307", "--out", str(out),
    ) == 0
    assert (out / "plots" / "velocity_vs_time.svg").is_file()


@pytest.mark.parametrize("command, count", [("run", 7), ("compare", 16), ("plot", 4)],
                         ids=["run", "compare", "plot"])
def test_bundle_files_honour_the_umask(tmp_path, capsys, command, count):
    args = ["--preset", "nominal", "--set", "duration=1"]
    if command == "plot":
        assert run_cli("run", *args, "--out", str(tmp_path / "src")) == 0
        args = ["--run", str(tmp_path / "src")]
    out = tmp_path / "bundle"
    old = os.umask(0o027)
    try:
        assert run_cli(command, *args, "--out", str(out)) == 0
    finally:
        os.umask(old)
    files = [p for p in out.rglob("*") if p.is_file()]
    assert len(files) == count
    for path in files:
        assert stat.S_IMODE(path.stat().st_mode) == 0o640, path
    assert not [p for p in out.rglob(".*")]  # no temporary files left behind


SHORT = ("--preset", "nominal", "--set", "duration=0.2")
LONGER = ("--preset", "nominal", "--set", "duration=0.4")  # bytes unlike SHORT's bundle


def tree(root):
    """Every path below root, with each file's bytes."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


def assert_writes_nothing(tmp_path, capsys, argv):
    """The command exits 2 with one line and leaves tmp_path as it found it."""
    before = tree(tmp_path)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: cannot write bundle: "), captured.err
    assert captured.err.count("\n") == 1, captured.err
    assert tree(tmp_path) == before  # no new file, directory or temp file; old bytes kept


@pytest.mark.parametrize("made, blocker, kind, argv", [
    # --out below a regular file
    (None, "f", "file", ["run", *LONGER, "--out", "f/x"]),
    (None, "f", "file", ["compare", *LONGER, "--out", "f/x"]),
    ("run", "f", "file", ["plot", "--run", "b", "--out", "f/y"]),
    # --out that is a regular file
    (None, "f", "file", ["run", *LONGER, "--out", "f"]),
    (None, "f", "file", ["compare", *LONGER, "--out", "f"]),
    ("run", "f", "file", ["plot", "--run", "b", "--out", "f"]),
    # an existing bundle that a file or directory of it blocks
    ("run", "b/plots", "file", ["run", *LONGER, "--out", "b"]),
    ("run", "b/plots", "file", ["plot", "--run", "b"]),
    ("run", "b/trajectory.csv", "dir", ["run", *LONGER, "--out", "b"]),
    (None, "b/baseline", "file", ["compare", *LONGER, "--out", "b"]),
    ("compare", "b/baseline/plots", "file", ["compare", *LONGER, "--out", "b"]),
], ids=["run-below_a_file", "compare-below_a_file", "plot-below_a_file",
        "run-out_is_a_file", "compare-out_is_a_file", "plot-out_is_a_file",
        "run-plots_is_a_file", "plot-plots_is_a_file", "run-csv_is_a_dir",
        "compare-baseline_is_a_file", "compare-baseline_plots_is_a_file"])
def test_an_output_path_that_cannot_be_written_writes_nothing(
        tmp_path, capsys, monkeypatch, made, blocker, kind, argv):
    monkeypatch.chdir(tmp_path)
    if made:  # a good bundle at b, written before the failing command
        assert run_cli(made, *SHORT, "--out", "b") == 0
    block = Path(blocker)
    if block.is_dir():
        shutil.rmtree(block)
    block.unlink(missing_ok=True)
    block.parent.mkdir(parents=True, exist_ok=True)
    if kind == "dir":
        block.mkdir()
    else:
        block.write_text("in the way\n")
    assert_writes_nothing(tmp_path, capsys, argv)


NO_SPACE = OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("out", ["b", "new/sub/x"], ids=["over_a_bundle", "new_dirs"])
@pytest.mark.parametrize("command, k, failure", [
    *[pytest.param("run", k, NO_SPACE, id=f"run-{k}") for k in range(7)],
    *[pytest.param("compare", k, NO_SPACE, id=f"compare-{k}") for k in range(16)],
    # not a write failure: it propagates as it is, once the stage is undone
    pytest.param("run", 3, KeyboardInterrupt(), id="run-3-interrupted"),
    pytest.param("compare", 9, KeyboardInterrupt(), id="compare-9-interrupted"),
])
def test_a_failed_staged_write_writes_nothing(tmp_path, capsys, monkeypatch, command, k,
                                              failure, out):
    monkeypatch.chdir(tmp_path)
    assert run_cli(command, *SHORT, "--out", "b") == 0
    real_fdopen, opened = os.fdopen, []

    def fdopen(*args, **kwargs):
        handle = real_fdopen(*args, **kwargs)
        opened.append(handle)
        if len(opened) == k + 1:  # staged file k, from 0, fails mid-write
            def write(text, _write=handle.write):
                _write(text[:len(text) // 2])
                raise failure
            handle.write = write
        return handle

    monkeypatch.setattr(os, "fdopen", fdopen)
    argv = [command, *LONGER, "--out", out]
    if isinstance(failure, OSError):
        assert_writes_nothing(tmp_path, capsys, argv)
    else:
        before = tree(tmp_path)
        capsys.readouterr()
        with pytest.raises(type(failure)) as raised:
            run_cli(*argv)
        assert raised.value is failure
        assert capsys.readouterr() == ("", "")
        assert tree(tmp_path) == before
    assert len(opened) == k + 1


@pytest.mark.parametrize("out", ["b", "new/sub/x"], ids=["over_a_bundle", "new_dirs"])
@pytest.mark.parametrize("command", ["run", "compare"])
def test_a_failure_while_the_csv_is_formatted_writes_nothing(tmp_path, capsys, monkeypatch,
                                                             command, out):
    monkeypatch.chdir(tmp_path)
    assert run_cli(command, *SHORT, "--out", "b") == 0
    failure, real_chunks = RuntimeError("formatting failed"), TrajectoryLog.csv_chunks

    def csv_chunks(log):  # the header is staged, then the first chunk of rows fails
        yield next(real_chunks(log))
        raise failure

    monkeypatch.setattr(TrajectoryLog, "csv_chunks", csv_chunks)
    before = tree(tmp_path)
    capsys.readouterr()
    with pytest.raises(RuntimeError) as raised:
        run_cli(command, *LONGER, "--out", out)
    assert raised.value is failure
    assert capsys.readouterr() == ("", "")
    assert tree(tmp_path) == before


@pytest.mark.parametrize("rows", [0, 1, _CSV_CHUNK, _CSV_CHUNK + 1])
def test_the_csv_chunks_join_to_the_text_and_the_committed_file(tmp_path, rows):
    cfg = preset("nominal")
    if rows:
        log = run(dataclasses.replace(cfg, duration=(rows - 1) * cfg.dt))
    else:  # a header-only file reads back as an empty log
        log = log_from_csv(io.StringIO(",".join(CSV_COLUMNS) + "\n"), cfg)
    assert len(log) == rows
    chunks = list(log.csv_chunks())
    assert len(chunks) == 1 + -(-rows // _CSV_CHUNK)  # the header, then one per chunk of rows
    assert chunks[0] == ",".join(CSV_COLUMNS) + "\n"
    text = "".join(chunks)
    assert text == csv_text(log) == per_cell_csv(log)
    path = tmp_path / "trajectory.csv"
    cli._commit({path: log.csv_chunks()})
    assert path.read_bytes() == text.encode()


def test_staging_a_bundle_holds_a_chunk_of_the_csv_not_its_text(tmp_path):
    log = run(dataclasses.replace(preset("nominal"), duration=200.0))  # 10,001 rows
    files, _ = cli._render_bundle(log, 0.3, tmp_path)
    tracemalloc.start()
    try:
        cli._commit(files)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = (tmp_path / "trajectory.csv").stat().st_size
    assert peak < size / 4, f"staging peaked at {peak} B for a {size} B CSV"


def test_malformed_config_file_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "bundle"
    assert run_cli("run", "--config", str(bad), "--out", str(out)) == 2
    assert not out.exists()

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"name": "x"}))
    assert run_cli("run", "--config", str(incomplete), "--out", str(out)) == 2


@pytest.mark.parametrize("command, damaged, duration", [
    pytest.param("run", "config_echo.json", 1, id="run-config_echo.json"),
    pytest.param("plot", "config_echo.json", 1, id="plot-config_echo.json"),
    pytest.param("plot", "trajectory.csv", 1, id="plot-trajectory.csv"),
    # 401 rows, the damage in the last: decoding fails after the first chunks are parsed
    pytest.param("plot", "trajectory.csv", 8, id="plot-trajectory.csv-last_row"),
])
def test_a_file_that_is_not_utf8_fails_cleanly(tmp_path, capsys, command, damaged, duration):
    src = tmp_path / "bundle"
    assert run_cli("run", "--preset", "nominal", "--set", f"duration={duration}",
                   "--out", str(src)) == 0
    path = src / damaged
    text = bytearray(path.read_bytes())
    at = len(text) // 2 if duration == 1 else text.rindex(b"\n", 0, -1) + 1
    text[at] = 0xFF  # a byte no UTF-8 text holds
    path.write_bytes(bytes(text))
    capsys.readouterr()
    out = tmp_path / "out"
    if command == "run":
        assert run_cli("run", "--config", str(path), "--out", str(out)) == 2
    else:
        assert run_cli("plot", "--run", str(src), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert f"can't decode byte 0xff in position {at}:" in err  # counted from the file's start
    assert not out.exists()


def test_unknown_preset_is_an_argparse_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", "--preset", "nope", "--out", str(tmp_path))
    assert exc.value.code == 2


PITCH_OVER = (
    '[{"force": [0.0, 0.0, 0.0], "torque": [0.0, 5.0, 0.0],'
    ' "t_start": 0.0, "t_end": 15.0}]'
)


@pytest.mark.parametrize(
    "overrides, detail",
    [
        # a pitch runaway into the gimbal guard band, named with its tick and pose
        (["duration=15", f"perturbations={PITCH_OVER}"],
         "pitch 1.603415 rad is inside the gimbal guard band at tick 47, t=0.940 s: pose_u=["),
        # every config number finite, but the state overflows: NaN poses from
        # the third tick on
        (["duration=2", "params_u.velocity_bound_linear=1e300",
          "params_u.thrust_gain=[1e300,1e300,1e300,1e300,1e300,1e300]"],
         "non-finite state at tick 3, t=0.060 s: pose_u=[nan, nan, nan, nan, nan, nan], pose_s=["),
        # finite poses 2e308 m apart: the separation overflows to inf, which
        # no bundle may hold (summary.json would not be JSON)
        (["duration=1", "tank_min=[-1.7e308,-1,-2.66]", "tank_max=[1.7e308,2.66,0]",
          "initial_pose_u=[-1e308,0,-1,0,0,0]", "initial_pose_s=[1e308,0,0]",
          "planner.waypoints=[[1e308,0,0]]"],
         "non-finite state at tick 0, t=0.000 s: pose_u=[-1e+308, 0.0, -1.0, 0.0, 0.0, 0.0], "
         "pose_s=[1e+308, 0.0, 0.0]"),
    ],
    ids=["pitch_over", "overflow", "separation_overflow"],
)
def test_simulation_failure_maps_to_exit_three(tmp_path, capsys, overrides, detail):
    out = tmp_path / "bundle"
    sets = [arg for item in overrides for arg in ("--set", item)]
    code = run_cli("run", "--preset", "nominal", *sets, "--out", str(out))
    assert code == 3
    assert not out.exists()
    err = capsys.readouterr().err
    assert "simulation failed" in err
    assert detail in err


def test_the_module_runs_as_a_script(tmp_path, monkeypatch, capsys):
    # python3 -m vetsim.cli, the command line of a checkout that is not installed;
    # runpy warns when the module it runs is imported already
    monkeypatch.delitem(sys.modules, "vetsim.cli")
    out = tmp_path / "bundle"
    monkeypatch.setattr(sys, "argv", ["vetsim.cli", "run", "--preset", "nominal",
                                      "--set", "duration=0.2", "--out", str(out)])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("vetsim.cli", run_name="__main__")
    assert exc.value.code == 0
    assert all((out / rel).is_file() for rel in BUNDLE_FILES)


def test_an_infinite_velocity_is_a_simulation_failure(tmp_path, capsys):
    # the first surge thrust on a surge mass of 1e-300 with no surge damping is
    # an infinite velocity, which clip_norm makes NaN and run() refuses
    out = tmp_path / "bundle"
    sets = ["duration=1", "params_u.mass=[1e-300,1,1,1,1,1]",
            "params_u.damping_linear=[0,1,1,1,1,1]", "params_u.damping_quadratic=[0,0,0,0,0,0]",
            "params_u.thrust_gain=[1e20,1,1,1,1,1]"]
    code = run_cli("run", "--preset", "nominal", *(arg for item in sets for arg in ("--set", item)),
                   "--out", str(out))
    assert code == 3
    assert not out.exists()
    assert ("non-finite state at tick 2, t=0.040 s: pose_u=[nan, nan, nan, "
            in capsys.readouterr().err)


def test_compare_writes_both_bundles_and_the_delta(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run_cli(
        "compare", "--preset", "perturbation_sim",
        "--set", "duration=20",
        "--threshold", "0.6",
        "--out", str(out),
    )
    assert code == 0
    for mode in ("vet", "baseline"):
        for rel in BUNDLE_FILES:
            assert (out / mode / rel).is_file(), (mode, rel)
    assert (out / "distance_overlay.svg").is_file()
    delta = json.loads((out / "compare.json").read_text())
    assert set(delta) >= {"vet", "baseline", "baseline_lost_los", "vet_lost_los"}
    assert delta["vet"]["mode"] == "vet"
    assert delta["baseline"]["mode"] == "baseline"


def test_compare_runs_each_mode_whatever_the_config_says(tmp_path, capsys):
    out = tmp_path / "cmp"
    code = run_cli("compare", "--preset", "nominal", "--set", "mode=baseline",
                   "--set", "duration=0.2", "--out", str(out))
    assert code == 0
    for mode in ("vet", "baseline"):
        assert json.loads((out / mode / "config_echo.json").read_text())["mode"] == mode


def test_compare_prints_each_modes_outcome(tmp_path, capsys):
    out = tmp_path / "cmp"
    assert run_cli("compare", "--preset", "perturbation_sim", "--set", "duration=30",
                   "--threshold", "0.6", "--out", str(out)) == 0
    assert capsys.readouterr().out.splitlines() == [
        "compare complete: perturbation_sim",
        "  tethered: success=False, max separation 0.223 m",
        "  one-way:  success=False, max separation 1.528 m",
        f"  bundle: {out}",
    ]


def assert_redraw_round_trips(tmp, name, mode, duration, dt="0.02", threshold="0.3",
                              dropout=None):
    """run, then plot --run elsewhere: the SVGs redraw byte for byte, the CSV
    reads back to itself, and every row keeps the run's physical bounds.
    Returns the bundle's directory and the redraw's."""
    src, dst = tmp / "bundle", tmp / "replot"
    sets = [f"duration={duration}", f"dt={dt}"]
    if dropout is not None:
        sets.append(f"dropout.random_rate={dropout}")
    assert run_cli("run", "--preset", name, "--mode", mode, "--threshold", threshold,
                   *[arg for item in sets for arg in ("--set", item)], "--out", str(src)) == 0
    assert run_cli("plot", "--run", str(src), "--threshold", threshold,
                   "--out", str(dst)) == 0
    for rel in BUNDLE_FILES[3:]:
        assert (src / rel).read_bytes() == (dst / rel).read_bytes(), rel
    cfg = ScenarioConfig.from_dict(json.loads((src / "config_echo.json").read_text()))
    text = (src / "trajectory.csv").read_text()
    log = log_from_csv(text.splitlines(keepends=True), cfg)
    assert csv_text(log) == text
    for pose, axes in ((log.pose_u, 3), (log.pose_s, 2)):  # the surface robot's z is free
        assert np.all(pose[:, :axes] >= np.array(cfg.tank_min[:axes]) - 1e-9)
        assert np.all(pose[:, :axes] <= np.array(cfg.tank_max[:axes]) + 1e-9)
    for total, params in ((log.u_total_u, cfg.params_u), (log.u_total_s, cfg.params_s)):
        assert np.all(np.abs(total) <= np.array(params.axis_bounds))
    if mode == "baseline":  # the leader never moves sideways
        assert np.all(log.u_xi_s == 0.0)
    return src, dst


def test_plot_regenerates_identical_svgs(tmp_path, capsys):
    assert_redraw_round_trips(tmp_path, "nominal", "vet", "4")


@pytest.mark.parametrize("mode", ["vet", "baseline"])
@pytest.mark.parametrize("duration", ["8", "16"])
@pytest.mark.parametrize("name", ["nominal", "perturbation_real"])
def test_plot_redraws_the_runs_svgs_byte_for_byte(tmp_path, capsys, name, duration, mode):
    # at these durations a few ticks' printed times round to the other side
    # of a 0.01 px tie than k * dt does, so the reader must keep run()'s clock
    assert_redraw_round_trips(tmp_path, name, mode, duration)


@settings(max_examples=40)
@given(
    name=st.sampled_from(PRESET_NAMES),
    mode=st.sampled_from(["vet", "baseline"]),
    duration=st.floats(0.1, 20.0),
    dt=st.sampled_from(["0.01", "0.02", "0.05"]),
    threshold=st.floats(0.05, 2.0).map(repr),
    dropout=st.none() | st.floats(0.0, 0.5),
)
def test_generated_bundles_redraw_byte_for_byte(name, mode, duration, dt, threshold, dropout):
    with tempfile.TemporaryDirectory() as tmp:
        assert_redraw_round_trips(Path(tmp), name, mode, repr(duration), dt, threshold, dropout)


def test_plot_regenerates_identical_svgs_from_crlf_line_ends(tmp_path, capsys):
    # 501 rows: the reader's second chunk starts mid-file, after a translated line end
    src = tmp_path / "bundle"
    assert run_cli("run", "--preset", "nominal", "--set", "duration=10", "--out", str(src)) == 0
    csv = src / "trajectory.csv"
    csv.write_bytes(csv.read_bytes().replace(b"\n", b"\r\n"))
    dst = tmp_path / "replot"
    assert run_cli("plot", "--run", str(src), "--out", str(dst)) == 0
    for rel in BUNDLE_FILES[3:]:
        assert (src / rel).read_bytes() == (dst / rel).read_bytes(), rel


def test_plot_regenerates_identical_svgs_of_a_log_with_no_event(tmp_path, capsys):
    # 0.2 s of nominal: no pull, no dropout, no clamp, no capture, the tag stays safe
    src, _ = assert_redraw_round_trips(tmp_path, "nominal", "vet", "0.2")
    rows = (src / "trajectory.csv").read_text().splitlines()[1:]
    assert len(rows) == 11 and all(row.endswith(",") for row in rows)  # eventFlags is last


def test_plot_regenerates_identical_decimated_svgs(tmp_path, capsys):
    # 1,501 ticks on a 582 px wide plot: the path drops points
    _, dst = assert_redraw_round_trips(tmp_path, "nominal", "vet", "30")
    (line,) = polylines((dst / "plots/distance_vs_time.svg").read_text())
    assert len(line) < 1501


def test_plot_regenerates_identical_svgs_across_detection_gaps(tmp_path, capsys):
    # 30% random dropout: NaN offsets split the tether plot into hundreds of runs
    src, _ = assert_redraw_round_trips(tmp_path, "perturbation_real", "vet", "20",
                                       dropout="0.3")
    assert (src / "trajectory.csv").read_text().count(",nan,") > 100


def test_plot_can_select_a_single_kind(tmp_path, capsys):
    src = tmp_path / "bundle"
    assert run_cli("run", "--preset", "nominal", "--set", "duration=2", "--out", str(src)) == 0
    dst = tmp_path / "one"
    assert run_cli(
        "plot", "--run", str(src), "--kind", "distance_vs_time", "--out", str(dst)
    ) == 0
    assert (dst / "plots/distance_vs_time.svg").is_file()
    assert not (dst / "plots/trajectory_xy.svg").exists()


def test_plot_redraws_a_bundle_with_its_own_threshold(tmp_path, capsys):
    # without --threshold, plot draws the distance_threshold summary.json records
    src = tmp_path / "bundle"
    assert run_cli("run", "--preset", "nominal", "--set", "duration=5", "--threshold", "0.5",
                   "--out", str(src)) == 0
    made = {rel: (src / rel).read_bytes() for rel in BUNDLE_FILES[3:]}
    assert run_cli("plot", "--run", str(src)) == 0
    assert {rel: (src / rel).read_bytes() for rel in BUNDLE_FILES[3:]} == made
    # --threshold overrides it, and then the summary is not read
    (src / "summary.json").write_text("{")
    dst = tmp_path / "replot"
    assert run_cli("plot", "--run", str(src), "--threshold", "0.3", "--out", str(dst)) == 0
    distance = "plots/distance_vs_time.svg"
    assert (dst / distance).read_bytes() != made[distance]


def test_plot_draws_the_default_threshold_without_a_summary(tmp_path, capsys):
    src, dst = tmp_path / "bundle", tmp_path / "replot"
    assert run_cli("run", "--preset", "nominal", "--set", "duration=5", "--out", str(src)) == 0
    (src / "summary.json").unlink()
    assert run_cli("plot", "--run", str(src), "--out", str(dst)) == 0
    for rel in BUNDLE_FILES[3:]:
        assert (src / rel).read_bytes() == (dst / rel).read_bytes(), rel


UNREAD, NOT_POSITIVE = ("cannot read the bundle summary's distance_threshold: ",
                        "bundle distance_threshold is not a positive number: ")


@pytest.mark.parametrize("text, message", [
    (b"{", UNREAD + "JSONDecodeError("),
    (b"\xff", UNREAD + "UnicodeDecodeError("),
    (b"[]", UNREAD + "TypeError("),
    (b"{}", UNREAD + "KeyError('distance_threshold')"),
    (b'{"distance_threshold": 0.0}', NOT_POSITIVE + "0.0"),
    (b'{"distance_threshold": -Infinity}', NOT_POSITIVE + "-inf"),
    (b'{"distance_threshold": NaN}', NOT_POSITIVE + "nan"),
    (b'{"distance_threshold": 1e999}', NOT_POSITIVE + "inf"),
    (b'{"distance_threshold": 1' + b"0" * 400 + b"}", NOT_POSITIVE + "1000"),
    (b'{"distance_threshold": "0.5"}', NOT_POSITIVE + "'0.5'"),
    (b'{"distance_threshold": true}', NOT_POSITIVE + "True"),
], ids=["not_json", "not_utf8", "not_an_object", "no_threshold", "zero", "minus_infinity",
        "nan", "overflow", "int_past_the_float_range", "string", "bool"])
def test_plot_rejects_a_summary_without_a_valid_threshold(tmp_path, capsys, text, message):
    src, dst = tmp_path / "bundle", tmp_path / "replot"
    assert run_cli("run", *SHORT, "--out", str(src)) == 0
    (src / "summary.json").write_bytes(text)
    capsys.readouterr()
    assert run_cli("plot", "--run", str(src), "--out", str(dst)) == 2
    assert not dst.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_a_bundle_of_far_robots_redraws_with_no_warning(tmp_path, capsys):
    # both robots at x = y = 1e308: the sum of their coordinates overflows,
    # the projDist check's tolerance must not (the suite makes a warning an error)
    src, dst = tmp_path / "bundle", tmp_path / "replot"
    sets = ["duration=1", "tank_min=[-1,-1,-2.66]", "tank_max=[1.7e308,1.7e308,0]",
            "initial_pose_u=[1e308,1e308,-1,0,0,0]", "initial_pose_s=[1e308,1e308,0]",
            "planner.waypoints=[[1e308,1e308,0]]"]
    assert run_cli("run", "--preset", "nominal", *(arg for item in sets for arg in ("--set", item)),
                   "--out", str(src)) == 0
    assert run_cli("plot", "--run", str(src), "--out", str(dst)) == 0
    for rel in BUNDLE_FILES[3:]:
        assert (src / rel).read_bytes() == (dst / rel).read_bytes(), rel


def test_plot_rejects_a_missing_bundle(tmp_path, capsys):
    assert run_cli("plot", "--run", str(tmp_path / "nowhere")) == 2
    bundle = tmp_path / "bundle"  # its config echo is there, its trajectory is not
    assert run_cli("run", *SHORT, "--out", str(bundle)) == 0
    (bundle / "trajectory.csv").unlink()
    capsys.readouterr()
    assert run_cli("plot", "--run", str(bundle)) == 2
    assert capsys.readouterr().err == ("config error: cannot read bundle: [Errno 2] No such "
                                       f"file or directory: '{bundle / 'trajectory.csv'}'\n")


def with_cell(column, value):
    """A corruption that sets one named cell of a row."""
    return lambda cells: [value if name == column else cell
                          for name, cell in zip(CSV_COLUMNS, cells)]


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda cells: cells[:-1], "row 3 has 35 fields"),
        (lambda cells: cells[:5] + ["zero"] + cells[6:], "row 3 is not numeric"),
        # the one number grammar is loadtxt's: float() would read 0_0 as 0
        (with_cell("phiU", "0_0"), "row 3 is not numeric: column phiU is '0_0'"),
        (lambda cells: [("abc" if name == "detectedUS" else cell)
                        for name, cell in zip(CSV_COLUMNS, cells)],
         "row 3 column detectedUS is not 0 or 1: 'abc'"),
        # run() never writes a non-finite time, pose or command
        (with_cell("xU", "nan"), "row 3 column xU is not finite: nan"),
        (with_cell("xU", "inf"), "row 3 column xU is not finite: inf"),
        (with_cell("xU", "1e999"), "row 3 column xU is not finite: inf"),
        (with_cell("t", "nan"), "row 3 column t is not finite: nan"),
        # nor a non-finite projDist, which lies past the xi columns
        (with_cell("projDist", "inf"), "row 3 column projDist is not finite: inf"),
        (with_cell("projDist", "nan"), "row 3 column projDist is not finite: nan"),
        # run() writes region "none" and xi NaN exactly on undetected rows
        (with_cell("regionUS", "bogus"), "row 3 column regionUS is not a region: 'bogus'"),
        (with_cell("detectedUS", "0"), "row 3 column regionUS is safe where detectedUS is 0"),
        (with_cell("regionSU", "none"), "row 3 column regionSU is none where detectedSU is 1"),
        (with_cell("xiUS", "nan"), "row 3 column xiUS is nan where detectedUS is 1"),
        # and an xi that is a hypot of in-image offsets: finite and not negative
        (with_cell("xiUS", "inf"), "row 3 column xiUS is inf where detectedUS is 1"),
        (with_cell("xiUS", "-5"), "row 3 column xiUS is -5 where detectedUS is 1"),
        (with_cell("xiSU", "-1e-300"), "row 3 column xiSU is -1e-300 where detectedSU is 1"),
        (lambda cells: with_cell("regionSU", "none")(with_cell("detectedSU", "0")(cells)),
         "row 3 column xiSU is 0.0336184668519 where detectedSU is 0"),
        # and exactly the events _event_flags reads off the rest of the log
        (with_cell("eventFlags", "not_an_event"),
         "row 3 column eventFlags is 'not_an_event', not the '' the log and its config give"),
        (with_cell("eventFlags", "perturb_start;region_us:safe-safe"),
         "row 3 column eventFlags is 'perturb_start;region_us:safe-safe', not the ''"),
        (with_cell("eventFlags", "los_loss_us;"),
         "row 3 column eventFlags is 'los_loss_us;', not the ''"),
    ],
    ids=["short_row", "non_numeric_cell", "underscored_number", "bad_detection_flag",
         "pose_nan", "pose_inf", "pose_overflow", "time_nan", "proj_dist_inf", "proj_dist_nan",
         "region_unknown", "region_on_undetected_row", "none_on_detected_row",
         "xi_nan_on_detected_row", "xi_inf_on_detected_row", "xi_negative_on_detected_row",
         "xi_su_below_zero", "xi_on_undetected_row",
         "event_unknown", "event_region_unchanged", "event_empty_token"],
)
def test_plot_rejects_a_corrupt_trajectory(tmp_path, capsys, corrupt, message):
    src = tmp_path / "bundle"
    assert run_cli("run", "--preset", "nominal", "--set", "duration=1", "--out", str(src)) == 0
    csv = src / "trajectory.csv"
    lines = csv.read_text().splitlines()
    lines[3] = ",".join(corrupt(lines[3].split(",")))
    csv.write_text("\n".join(lines) + "\n")
    dst = tmp_path / "replot"
    assert run_cli("plot", "--run", str(src), "--out", str(dst)) == 2
    assert not dst.exists()
    assert message in capsys.readouterr().err


def with_echo(key, value):
    """A damage that sets one top-level key of the bundle's config echo."""
    def damage(bundle):
        echo = json.loads((bundle / "config_echo.json").read_text())
        echo[key] = value
        (bundle / "config_echo.json").write_text(json.dumps(echo))
    return damage


def with_lines(edit):
    """A damage that edits the list of trajectory.csv lines, header first."""
    def damage(bundle):
        csv = bundle / "trajectory.csv"
        lines = csv.read_text().splitlines()
        csv.write_text("\n".join(edit(lines)) + "\n")
    return damage


def row_3_time(lines):
    cells = lines[3].split(",")
    lines[3] = ",".join(["-5", *cells[1:]])
    return lines


@pytest.mark.parametrize(
    "damage, message",
    [
        (with_echo("dt", 0.01), "row 2 column t is 0.02, not 1 * dt = 0.01"),
        (with_echo("duration", 50), "row 52 is missing: duration 50 s at dt 0.02 s makes 2501 rows"),
        (with_lines(row_3_time), "row 3 column t is -5, not 2 * dt = 0.04"),
        (with_lines(lambda lines: lines[:5]), "row 5 is missing: duration 1 s at dt 0.02 s makes 51"),
        (with_lines(lambda lines: lines + lines[-1:]), "row 52 column t is 1, not 51 * dt = 1.02"),
        (with_lines(lambda lines: lines + ["1.02" + lines[-1][1:]]),
         "row 52 is past the end: duration 1 s"),
    ],
    ids=["echo_dt", "echo_duration", "time_row_3", "rows_deleted", "row_repeated", "row_added"],
)
def test_plot_rejects_a_trajectory_off_its_configs_clock(tmp_path, capsys, damage, message):
    src = tmp_path / "bundle"
    assert run_cli("run", "--preset", "nominal", "--set", "duration=1", "--out", str(src)) == 0
    damage(src)
    dst = tmp_path / "replot"
    assert run_cli("plot", "--run", str(src), "--out", str(dst)) == 2
    assert not dst.exists()
    assert message in capsys.readouterr().err


@pytest.fixture(scope="module")
def event_bundle(tmp_path_factory):
    """A 5 s perturbation_real bundle with a pull from 1 to 2 s and a blackout
    of the upward camera from 2.5 to 3 s. Its non-empty eventFlags rows:
    51 perturb_start; 63 region_us:safe-elastic;region_su:safe-elastic;
    102 perturb_end; 126 dropout_start;los_loss_us;region_us:elastic-none;
    152 dropout_end;los_regain_us;region_us:none-elastic."""
    out = tmp_path_factory.mktemp("events") / "bundle"
    assert run_cli("run", "--preset", "perturbation_real", "--set", "duration=5",
                   "--set", "perturbations.0.t_start=1", "--set", "perturbations.0.t_end=2",
                   "--set", "dropout.scheduled_windows=[[2.5,3]]", "--out", str(out)) == 0
    return out


def on_rows(*rows, **cells):
    """A damage that sets the named cells of each given row (1 is the first)."""
    def edit(lines):
        for row in rows:
            lines[row] = ",".join(cells.get(name, cell)
                                  for name, cell in zip(CSV_COLUMNS, lines[row].split(",")))
        return lines
    return with_lines(edit)


def pull_moved_to_3_s(bundle):
    echo = json.loads((bundle / "config_echo.json").read_text())
    echo["perturbations"][0].update(t_start=3.0, t_end=4.0)
    (bundle / "config_echo.json").write_text(json.dumps(echo))


@pytest.mark.parametrize(
    "damage, message",
    [
        (on_rows(126, eventFlags="dropout_start;region_us:elastic-none"),
         "row 126 column eventFlags is 'dropout_start;region_us:elastic-none', not the "
         "'dropout_start;los_loss_us;region_us:elastic-none' the log and its config give"),
        (on_rows(63, eventFlags=""),
         "row 63 column eventFlags is '', not the 'region_us:safe-elastic;region_su:safe-elastic'"),
        (on_rows(20, eventFlags="dropout_start"),
         "row 20 column eventFlags is 'dropout_start', not the ''"),
        (pull_moved_to_3_s, "row 51 column eventFlags is 'perturb_start', not the ''"),
        (on_rows(40, projDist="5"), "row 40 column projDist is 5, not the 0.01967138973"),
        # poses 2e308 m apart with a finite projDist: their distance is inf, with no warning
        (on_rows(40, xU="1e308", xS="-1e308"),
         "row 40 column projDist is 0.0196713897348, not the inf m between the row's poses"),
        # run() cannot clamp on two ticks running and write the token twice
        (on_rows(20, 21, eventFlags="wall_clamp_u"),
         "row 21 column eventFlags is 'wall_clamp_u', not the ''"),
        # the preset's planner has one waypoint
        (on_rows(20, 30, eventFlags="waypoint_capture"),
         "row 30 column eventFlags is 'waypoint_capture', not the ''"),
    ],
    ids=["los_loss_removed", "row_emptied", "spurious_dropout_start", "echo_pull_moved",
         "proj_dist", "proj_dist_of_far_poses", "clamp_on_consecutive_rows",
         "waypoint_capture_too_many"],
)
def test_plot_rejects_events_and_distances_the_log_cannot_give(event_bundle, tmp_path, capsys,
                                                               damage, message):
    src = tmp_path / "bundle"
    shutil.copytree(event_bundle, src)
    damage(src)
    dst = tmp_path / "replot"
    assert run_cli("plot", "--run", str(src), "--out", str(dst)) == 2
    assert not dst.exists()
    assert message in capsys.readouterr().err


NEAR = {"xU": "0.5", "yU": "0", "xS": "-0.5", "yS": "0"}  # 1 m apart
FAR = {"xU": "1e308", "yU": "1e308", "xS": "1e308", "yS": "1e308"}  # coordinates sum past 1.8e308


@pytest.mark.parametrize("poses, proj_dist, accepted", [
    (NEAR, 1 + 1.5e-11, True), (NEAR, 1 - 1.5e-11, True),
    (NEAR, 1 + 2.5e-11, False), (NEAR, 1 - 2.5e-11, False),
    (FAR, 3.9e297, True), (FAR, 4.1e297, False),
], ids=["near_above", "near_below", "near_past_above", "near_past_below", "far", "far_past"])
def test_proj_dist_may_be_off_by_its_rounding(event_bundle, tmp_path, capsys, poses, proj_dist,
                                              accepted):
    """projDist may be off its row's pose distance by 1e-11 times the sum of
    the four coordinates' magnitudes and its own: 2e-11 m for the near
    poses, 4e297 m for the far ones, whose sum overflows but no warning."""
    src = tmp_path / "bundle"
    shutil.copytree(event_bundle, src)
    on_rows(40, projDist=repr(proj_dist), **poses)(src)
    assert run_cli("plot", "--run", str(src), "--out", str(tmp_path / "replot")) == \
        (0 if accepted else 2)


def test_a_lone_clamp_or_capture_token_is_self_consistent(event_bundle, tmp_path, capsys):
    # the limit of reading the loop columns off the tokens: only a re-run sees these
    src = tmp_path / "bundle"
    shutil.copytree(event_bundle, src)
    on_rows(20, eventFlags="wall_clamp_s")(src)
    on_rows(30, eventFlags="waypoint_capture")(src)
    assert run_cli("plot", "--run", str(src), "--out", str(tmp_path / "replot")) == 0


def test_env_var_sets_the_default_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VET_SIM_OUT", str(tmp_path / "envout"))
    assert run_cli("run", "--preset", "nominal", "--set", "duration=1") == 0
    assert (tmp_path / "envout" / "summary.json").is_file()


def test_default_output_dir_is_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("VET_SIM_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "--preset", "nominal", "--set", "duration=1") == 0
    assert (tmp_path / "runs" / "summary.json").is_file()
