"""End-to-end command line behaviour: bundles, overrides, exit codes."""

import json
import os
import stat

import pytest

from vetsim.cli import main
from vetsim.scenario import CSV_COLUMNS, preset

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
        "vet.k_psi=NaN", "duration=Infinity", "duration=1e12", "pd_u.kp.0=1.0",
        "seed=Infinity", "planner=5", "seed=1.7", "seed=true",
        "camera_u.width=640.7", "vet.k_psi=true", "seed=-1", "planner.kind=[1,2]",
        "planner.kind={}", "duration=0",
        # a str field takes only a string
        "name=[1,2]", "name=null", "mode=5",
        # keys that config schema v2 removed are unknown overrides
        "appendix_sign_convention=no", "dropout.seed=0",
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


@pytest.mark.parametrize("value", ["nan", "NaN", "inf", "-inf", "-Infinity", "1e999", "abc"])
@pytest.mark.parametrize("command", ["run", "compare", "plot"])
def test_threshold_must_be_finite(tmp_path, capsys, command, value):
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
    assert "--threshold: must be a finite number" in capsys.readouterr().err


def test_absurd_but_finite_bounds_still_render(tmp_path, capsys):
    # the padded command axis spans more than the largest float
    out = tmp_path / "bundle"
    assert run_cli(
        "run", "--preset", "nominal", "--set", "duration=1",
        "--set", "params_s.velocity_bound_linear=6.92e307", "--out", str(out),
    ) == 0
    assert (out / "plots" / "velocity_vs_time.svg").is_file()


def test_bundle_files_honour_the_umask(tmp_path, capsys):
    out = tmp_path / "bundle"
    old = os.umask(0o027)
    try:
        assert run_cli("run", "--preset", "nominal", "--set", "duration=1", "--out", str(out)) == 0
    finally:
        os.umask(old)
    for rel in BUNDLE_FILES:
        assert stat.S_IMODE((out / rel).stat().st_mode) == 0o640, rel
    assert not [p for p in out.rglob(".*")]  # no temporary files left behind


def test_malformed_config_file_fails_cleanly(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    out = tmp_path / "bundle"
    assert run_cli("run", "--config", str(bad), "--out", str(out)) == 2
    assert not out.exists()

    incomplete = tmp_path / "incomplete.json"
    incomplete.write_text(json.dumps({"name": "x"}))
    assert run_cli("run", "--config", str(incomplete), "--out", str(out)) == 2


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
        # a pitch runaway into the gimbal guard band
        (["duration=15", f"perturbations={PITCH_OVER}"], "gimbal guard band"),
        # every config number finite, but the state overflows: NaN poses from
        # the third tick on
        (["duration=2", "params_u.velocity_bound_linear=1e300",
          "params_u.thrust_gain=[1e300,1e300,1e300,1e300,1e300,1e300]"],
         "non-finite state at tick 3, t=0.060 s: pose_u=[nan, nan, nan, nan, nan, nan], pose_s=["),
    ],
    ids=["pitch_over", "overflow"],
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


def test_plot_regenerates_identical_svgs(tmp_path, capsys):
    src = tmp_path / "bundle"
    assert run_cli("run", "--preset", "nominal", "--set", "duration=4", "--out", str(src)) == 0
    dst = tmp_path / "replot"
    assert run_cli("plot", "--run", str(src), "--out", str(dst)) == 0
    for rel in BUNDLE_FILES[3:]:
        assert (src / rel).read_bytes() == (dst / rel).read_bytes()


def test_plot_can_select_a_single_kind(tmp_path, capsys):
    src = tmp_path / "bundle"
    assert run_cli("run", "--preset", "nominal", "--set", "duration=2", "--out", str(src)) == 0
    dst = tmp_path / "one"
    assert run_cli(
        "plot", "--run", str(src), "--kind", "distance_vs_time", "--out", str(dst)
    ) == 0
    assert (dst / "plots/distance_vs_time.svg").is_file()
    assert not (dst / "plots/trajectory_xy.svg").exists()


def test_plot_accepts_a_header_only_csv(tmp_path, capsys):
    rundir = tmp_path / "empty"
    rundir.mkdir()
    (rundir / "config_echo.json").write_text(json.dumps(preset("nominal").to_dict()))
    (rundir / "trajectory.csv").write_text(",".join(CSV_COLUMNS) + "\n")
    assert run_cli("plot", "--run", str(rundir)) == 0
    svg = (rundir / "plots/distance_vs_time.svg").read_text()
    assert svg.startswith("<svg") or "<svg" in svg


def test_plot_rejects_a_missing_bundle(tmp_path, capsys):
    assert run_cli("plot", "--run", str(tmp_path / "nowhere")) == 2


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda cells: cells[:-1], "row 3 has 35 fields"),
        (lambda cells: cells[:5] + ["zero"] + cells[6:], "row 3 is not numeric"),
    ],
    ids=["short_row", "non_numeric_cell"],
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


def test_env_var_sets_the_default_output_dir(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("VET_SIM_OUT", str(tmp_path / "envout"))
    assert run_cli("run", "--preset", "nominal", "--set", "duration=1") == 0
    assert (tmp_path / "envout" / "summary.json").is_file()


def test_default_output_dir_is_runs(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("VET_SIM_OUT", raising=False)
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "--preset", "nominal", "--set", "duration=1") == 0
    assert (tmp_path / "runs" / "summary.json").is_file()
