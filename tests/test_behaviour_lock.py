"""Behaviour lock: every preset in both modes against a committed reference.

The reference holds, per preset and mode, the summary metrics, every
STRIDE-th trajectory.csv row and the sha256 of the whole CSV. Numbers must
match within 1e-9 (relative and absolute), text cells exactly. The sha256
is informational: a rewrite that sums in another order changes the last
printed digit of some cells without changing the behaviour, so a differing
hash is reported but does not fail the test.

Probe configs (probe_*.json, locked in both modes like a preset) pin what
no preset reaches. No preset moves the underwater robot's heave, roll or
pitch, so probe_tilt starts tilted and off depth and pushes with a heave
force and a roll/pitch torque: it pins the depth/attitude channel, the
coupled 6-DoF velocity solve and the Euler-rate map. In vet mode no preset
reaches the tether law's danger branch, and the downward camera never loses
the tag once seen, so probe_vision (a small downward image, a sideways
push, random and scheduled dropout, a tank that clamps both robots and a
lawnmower survey) pins the danger branch and the leader's held weight. Only
probe_vision's x faces clamped, so probe_walls (a tank a few centimetres
wide, the surface robot sent past two opposite corners, and the underwater
robot pushed toward one corner and the floor, then toward the other corner
and the top) clamps each robot on every face it has: x, y and z under
water, x and y on the surface. Every preset mounts its cameras square to the
body, so camera_to_body's cross terms r1 and r3 are zero in all of them;
probe_mounts turns each camera about its optical axis (the upward one by
0.5 rad, the downward one by -0.4 rad) and pins the tether commands those
terms rotate, through a sideways pull.

The entry point records only the entries the reference lacks (a new probe,
say) and leaves every existing entry byte for byte:

    PYTHONPATH=src python tests/test_behaviour_lock.py

To re-record an entry, in a change that is meant to alter the program's
outputs, delete it from behaviour_lock.json first.
"""

import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from test_scenario import csv_text

import vetsim.scenario as scenario
from vetsim.config import ScenarioConfig
from vetsim.metrics import summarize
from vetsim.scenario import PRESET_NAMES, preset, run

REFERENCE = Path(__file__).with_name("behaviour_lock.json")
PROBES = tuple(sorted(path.stem for path in Path(__file__).parent.glob("probe_*.json")))
STRIDE = 100
THRESHOLD = 0.3
TOL = 1e-9
MODES = ("vet", "baseline")


def _config(name: str, mode: str) -> ScenarioConfig:
    if name in PROBES:
        cfg = ScenarioConfig.from_dict(json.loads(REFERENCE.with_name(f"{name}.json").read_text()))
    else:
        cfg = preset(name)
    return dataclasses.replace(cfg, mode=mode)


def _record(log) -> dict:
    text = csv_text(log)
    lines = text.splitlines()[1:]
    return {
        "summary": summarize(log, THRESHOLD),
        "ticks": len(lines),
        "rows": {str(k): lines[k] for k in range(0, len(lines), STRIDE)},
        "csv_sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def _cell_matches(expected: str, actual: str) -> bool:
    try:
        a, b = float(expected), float(actual)
    except ValueError:
        return expected == actual
    return _close(a, b)


def _close(a: float, b: float) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return math.isclose(a, b, rel_tol=TOL, abs_tol=TOL)


def _mismatches(expected, actual, path="") -> list:
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{path}: keys {sorted(expected)} != {sorted(actual)}"]
        out = []
        for key in expected:
            out += _mismatches(expected[key], actual[key], f"{path}.{key}")
        return out
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{path}: length {len(expected)} != {len(actual)}"]
        out = []
        for i, (e, a) in enumerate(zip(expected, actual)):
            out += _mismatches(e, a, f"{path}[{i}]")
        return out
    numeric = (int, float)
    if (
        isinstance(expected, numeric) and isinstance(actual, numeric)
        and not isinstance(expected, bool) and not isinstance(actual, bool)
    ):
        return [] if _close(float(expected), float(actual)) else [f"{path}: {expected} != {actual}"]
    if type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {expected!r} != {actual!r}"]


def _check(expected: dict, actual: dict, key: str) -> None:
    assert actual["ticks"] == expected["ticks"]
    assert _mismatches(expected["summary"], actual["summary"], "summary") == []
    assert set(actual["rows"]) == set(expected["rows"])
    bad = []
    for k, row in expected["rows"].items():
        want, got = row.split(","), actual["rows"][k].split(",")
        assert len(got) == len(want), f"row {k}"
        bad += [
            f"row {k} col {c}: {w} != {g}"
            for c, (w, g) in enumerate(zip(want, got))
            if not _cell_matches(w, g)
        ]
    assert bad == []
    if actual["csv_sha256"] != expected["csv_sha256"]:
        print(f"{key}: trajectory.csv differs in bytes but matches within {TOL}")


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_matches_the_reference(name, mode, reference):
    key = f"{name}/{mode}"
    _check(reference["runs"][key], _record(run(_config(name, mode))), key)


@pytest.mark.parametrize("mode", MODES)
def test_the_tilted_probe_matches_the_reference(mode, reference):
    log = run(_config("probe_tilt", mode))
    # the probe exists to move the channel no preset moves
    assert (np.ptp(log.pose_u[:, 2:5], axis=0) > 0.0).all()
    assert (np.ptp(log.u_sub_u[:, 2:5], axis=0) > 0.0).all()
    key = f"probe_tilt/{mode}"
    _check(reference["runs"][key], _record(log), key)


@pytest.mark.parametrize("mode", MODES)
def test_the_vision_probe_matches_the_reference(mode, reference, monkeypatch):
    cfg = _config("probe_vision", mode)
    held = []  # the leader's weight on each tick its camera misses the tag

    def leader_weights(obs, *args, _law=scenario.vet_law):
        out = _law(obs, *args)
        center, _, _, _, _ = obs
        if args[-1] is cfg.camera_s.flat and center is None:
            held.append(out[1])
        return out

    monkeypatch.setattr(scenario, "vet_law", leader_weights)
    log = run(cfg)
    # the probe exists to reach what no preset reaches in vet mode
    assert "danger" in log.region_us and "danger" in log.region_su
    names = [event for _, event in log.events]
    assert {"los_loss_su", "wall_clamp_u", "wall_clamp_s"} <= set(names)
    assert log.waypoints_total == 4
    if mode == "vet":
        assert sum(0.0 < weight < 1.0 for weight in held) == 238
        assert log.waypoints_captured == 3
    else:
        assert held == []
        assert log.waypoints_captured == 4
    key = f"probe_vision/{mode}"
    _check(reference["runs"][key], _record(log), key)


@pytest.mark.parametrize("mode", MODES)
def test_the_walls_probe_matches_the_reference(mode, reference):
    cfg = _config("probe_walls", mode)
    log = run(cfg)
    # the probe exists to clamp each robot on each face of the tank it has
    for pose, axes in ((log.pose_u, 3), (log.pose_s, 2)):
        for axis in range(axes):
            assert (pose[:, axis] == cfg.tank_min[axis]).any(), (axis, "min")
            assert (pose[:, axis] == cfg.tank_max[axis]).any(), (axis, "max")
    names = [event for _, event in log.events]
    assert {"wall_clamp_u", "wall_clamp_s"} <= set(names)
    assert log.waypoints_captured == log.waypoints_total == 2
    key = f"probe_walls/{mode}"
    _check(reference["runs"][key], _record(log), key)


@pytest.mark.parametrize("mode", MODES)
def test_the_turned_mounts_probe_matches_the_reference(mode, reference):
    cfg = _config("probe_mounts", mode)
    log = run(cfg)
    # the probe exists to rotate both linear tether components through r1 and r3
    for camera, xi, steered in ((cfg.camera_u, log.u_xi_u, True),
                                (cfg.camera_s, log.u_xi_s, mode == "vet")):
        rotation = camera.mount.flat[0]
        assert rotation[1] != 0.0 and rotation[3] != 0.0  # r1 and r3
        assert (xi[:, :2] != 0.0).all(axis=1).any() == steered
    key = f"probe_mounts/{mode}"
    _check(reference["runs"][key], _record(log), key)


def test_the_tolerance_rejects_a_real_change():
    assert _cell_matches("0.5", "0.5000000001")
    assert not _cell_matches("0.5", "0.500001")
    assert not _cell_matches("safe", "elastic")
    assert _cell_matches("nan", "nan")
    assert _mismatches({"a": [1.0, None]}, {"a": [1.0 + 1e-12, None]}) == []
    assert _mismatches({"a": True}, {"a": 1}) != []


if __name__ == "__main__":
    doc = (json.loads(REFERENCE.read_text()) if REFERENCE.exists()
           else {"stride": STRIDE, "threshold": THRESHOLD, "runs": {}})
    missing = [(name, mode) for name in (*PRESET_NAMES, *PROBES) for mode in MODES
               if f"{name}/{mode}" not in doc["runs"]]
    for name, mode in missing:
        doc["runs"][f"{name}/{mode}"] = _record(run(_config(name, mode)))
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"added {len(missing)} runs to {REFERENCE} ({len(doc['runs'])} in all)", file=sys.stderr)
