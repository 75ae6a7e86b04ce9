"""Behaviour lock: every preset in both modes against a committed reference.

The reference holds, per preset and mode, the summary metrics, every
STRIDE-th trajectory.csv row and the sha256 of the whole CSV. Numbers must
match within 1e-9 (relative and absolute), text cells exactly. The sha256
is informational: a rewrite that sums in another order changes the last
printed digit of some cells without changing the behaviour, so a differing
hash is reported but does not fail the test.

Re-record only in a change that is meant to alter the program's outputs:

    PYTHONPATH=src python tests/test_behaviour_lock.py
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import pytest

from vetsim.metrics import summarize
from vetsim.scenario import PRESET_NAMES, preset, run

REFERENCE = Path(__file__).with_name("behaviour_lock.json")
STRIDE = 100
THRESHOLD = 0.3
TOL = 1e-9
MODES = ("vet", "baseline")


def _record(name: str, mode: str) -> dict:
    cfg = preset(name)
    cfg.mode = mode
    log = run(cfg)
    text = log.to_csv_text()
    lines = text.splitlines()[1:]
    return {
        "summary": summarize(log, THRESHOLD).to_dict(),
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


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", PRESET_NAMES)
def test_preset_matches_the_reference(name, mode, reference):
    expected = reference["runs"][f"{name}/{mode}"]
    actual = _record(name, mode)
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
        print(f"{name}/{mode}: trajectory.csv differs in bytes but matches within {TOL}")


def test_the_tolerance_rejects_a_real_change():
    assert _cell_matches("0.5", "0.5000000001")
    assert not _cell_matches("0.5", "0.500001")
    assert not _cell_matches("safe", "elastic")
    assert _cell_matches("nan", "nan")
    assert _mismatches({"a": [1.0, None]}, {"a": [1.0 + 1e-12, None]}) == []
    assert _mismatches({"a": True}, {"a": 1}) != []


if __name__ == "__main__":
    runs = {
        f"{name}/{mode}": _record(name, mode) for name in PRESET_NAMES for mode in MODES
    }
    doc = {"stride": STRIDE, "threshold": THRESHOLD, "runs": runs}
    REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {REFERENCE} ({len(runs)} runs)", file=sys.stderr)
