"""The failure contract under fuzzed configs and damaged bundles: every input
loads and runs, or fails with a config error (exit 2) or a simulation failure
(exit 3), and a failed command writes nothing."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vetsim.cli import PLOT_KINDS, main
from vetsim.config import ConfigError, ScenarioConfig
from vetsim.log import CSV_COLUMNS
from vetsim.scenario import PRESET_NAMES, SimFailure, preset, run

ECHOES = Path(__file__).with_name("config_echoes")

# Fixed example sets, so the suite gives the same result on every run.
FUZZ = settings(deadline=None, derandomize=True, database=None)


def _paths(tree, prefix=()):
    """The path of every node below the root, containers included; of a
    list's items only the first, so that each field is drawn about as often."""
    if isinstance(tree, dict):
        items = tree.items()
    elif isinstance(tree, list):
        items = enumerate(tree[:1])
    else:
        return []
    return [p for key, sub in items for p in [prefix + (key,), *_paths(sub, prefix + (key,))]]


def _replace(tree, path, value):
    """Put value at path, unless an earlier replacement removed the path."""
    node = tree
    try:
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass


TREES = {name: preset(name).to_dict() for name in PRESET_NAMES}
# saved bundles in older schemas: v1 and v2 (a pd_u of six gains per vector)
for old in ("v1/navigation_real", "v2/perturbation_real"):
    TREES[old] = json.loads((ECHOES / f"{old}.json").read_text())
# tree name -> top-level key -> the paths under it, that key's own included
PATHS = {name: {key: _paths({key: sub}) for key, sub in tree.items()}
         for name, tree in TREES.items()}

_SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=4)
# What replaces a node: an int (negative or huge), a float (NaN, an infinity,
# subnormal or huge), a bool, a string, a list, an object or null.
VALUES = st.one_of(
    st.integers(max_value=-1),
    st.integers(min_value=2**53) | st.just(10**400),
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(min_value=-2.2e-308, max_value=2.2e-308).filter(bool),  # subnormal
    st.floats(min_value=1e200, allow_infinity=False)
    | st.floats(max_value=-1e200, allow_infinity=False),
    st.booleans(),
    st.text(max_size=8) | st.sampled_from(["vet", "baseline", "setpoints", "lawnmower"]),
    st.lists(_SCALARS | st.lists(_SCALARS, max_size=3), max_size=6),
    st.dictionaries(st.text(max_size=4) | st.sampled_from(["kind", "rotation"]), _SCALARS,
                    max_size=3),
    st.none(),
)


def _path(name):
    """A path in tree name: a top-level key first, so that one with many
    nodes below it, such as a camera mount, is drawn no more often than seed."""
    keys = sorted(PATHS[name])
    return st.sampled_from(keys).flatmap(lambda key: st.sampled_from(PATHS[name][key]))


def _edits(names):
    """A tree name and one or two (path, value) replacements in it."""
    return st.sampled_from(names).flatmap(lambda name: st.tuples(
        st.just(name), st.lists(st.tuples(_path(name), VALUES), min_size=1, max_size=2),
    ))


@settings(FUZZ, max_examples=400)
@given(_edits(sorted(TREES)))
def test_from_dict_returns_a_valid_config_or_raises_config_error(case):
    name, edits = case
    tree = copy.deepcopy(TREES[name])
    for path, value in edits:
        _replace(tree, path, value)
    try:
        cfg = ScenarioConfig.from_dict(tree)
    except ConfigError:
        return
    # a valid config is one the loop accepts: two ticks run or fail as a simulation
    try:
        run(dataclasses.replace(cfg, duration=2 * cfg.dt))
    except SimFailure:
        pass


@settings(FUZZ, max_examples=120)
@given(_edits(PRESET_NAMES), st.floats(0.1, 2.0), st.sampled_from(["vet", "baseline"]))
def test_cli_overrides_run_or_fail_cleanly(case, duration, mode):
    name, edits = case
    overrides = [f"{'.'.join(map(str, path))}={json.dumps(value)}" for path, value in edits]
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "bundle"
        args = ["run", "--preset", name, "--mode", mode, "--set", f"duration={duration!r}"]
        for item in overrides:
            args += ["--set", item]
        code = main(args + ["--out", str(out)])
        assert code in (0, 2, 3), overrides
        assert out.exists() == (code == 0), overrides
        if code == 0:
            for name in ("summary.json", "config_echo.json"):
                json.loads((out / name).read_text(), parse_constant=_refuse)
            svgs = {path.name: path.read_text() for path in (out / "plots").glob("*.svg")}
            for svg in svgs.values():
                ET.fromstring(svg)
            again = Path(tmp) / "replot"
            assert main(["plot", "--run", str(out), "--out", str(again)]) == 0, overrides
            assert {path.name: path.read_text()
                    for path in (again / "plots").glob("*.svg")} == svgs, overrides


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


@pytest.fixture(scope="module")
def short_bundle(tmp_path_factory):
    """The config echo and trajectory.csv lines of a 2 s perturbation_real run
    with a pull from 0.5 to 1 s and a blackout of the upward camera from 1.2
    to 1.5 s, so that its eventFlags hold perturb, dropout, los and region tokens."""
    out = tmp_path_factory.mktemp("fuzz") / "bundle"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["run", "--preset", "perturbation_real", "--set", "duration=2",
                     "--set", "perturbations.0.t_start=0.5", "--set", "perturbations.0.t_end=1",
                     "--set", "dropout.scheduled_windows=[[1.2,1.5]]", "--out", str(out)]) == 0
    return (json.loads((out / "config_echo.json").read_text()),
            (out / "trajectory.csv").read_text().splitlines())


# What replaces one trajectory.csv cell: a number, a spelling loadtxt rejects
# and float() does not, a flag, a label or event tokens, or any short text.
CELLS = st.one_of(
    st.sampled_from(["", "0", "1", "-0", "5", "nan", "inf", "1e999", "0_0", "\uff11", " 1",
                     "safe", "none", "danger", "waypoint_capture", "wall_clamp_u", "los_loss_us",
                     "dropout_start", "perturb_end;perturb_start", "region_us:safe-none"]),
    st.floats().map(repr),
    st.text(max_size=6),
)


def _is_leaf(tree, path):
    for key in path:
        tree = tree[key]
    return not isinstance(tree, (dict, list))


@settings(FUZZ, max_examples=150)
@given(data=st.data())
def test_a_damaged_bundle_plots_or_fails_cleanly(short_bundle, data):
    echo, lines = copy.deepcopy(short_bundle[0]), list(short_bundle[1])
    kind = data.draw(st.sampled_from(["cell", "row", "echo leaf"]), label="kind")
    if kind == "cell":
        k = data.draw(st.integers(1, len(lines) - 1), label="row")
        cells = lines[k].split(",")
        cells[data.draw(st.integers(0, len(CSV_COLUMNS) - 1), label="column")] = data.draw(CELLS)
        lines[k] = ",".join(cells)
    elif kind == "row":
        k = data.draw(st.integers(1, len(lines) - 2), label="row")
        edit = data.draw(st.sampled_from(["delete", "repeat", "swap with the next"]))
        lines[k:k + 2] = {"delete": lines[k + 1:k + 2], "repeat": [lines[k]] + lines[k:k + 2],
                          "swap with the next": lines[k:k + 2][::-1]}[edit]
    else:
        leaves = [path for path in _paths(echo) if _is_leaf(echo, path)]
        path = data.draw(st.sampled_from(leaves), label="leaf")
        _replace(echo, path, data.draw(VALUES | st.floats(-5, 5) | st.integers(0, 5)))
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = Path(tmp) / "bundle", Path(tmp) / "replot"
        src.mkdir()
        (src / "config_echo.json").write_text(json.dumps(echo))
        (src / "trajectory.csv").write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["plot", "--run", str(src), "--out", str(dst)])  # raises on a traceback
        if code == 0:
            assert sorted(p.name for p in (dst / "plots").iterdir()) == sorted(
                f"{name}.svg" for name in PLOT_KINDS)
        else:
            assert (code, err.getvalue()[:14]) == (2, "config error: ")
            assert not dst.exists()
