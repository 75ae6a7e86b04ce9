"""Every config leaf has an effect: a small, valid nudge to any numeric leaf of
a probe config (probe_*.json) changes the trajectory.csv of at least one
probe run.

The nudges: a tank face moves 0.05 m inward, the two ends of a dropout window
move toward each other by a tenth of its length, an integer goes up by 1 and
any other number is scaled by 1.01 (0 becomes 0.01). Camera and tag mounts
are left out: a nudged rotation is no longer a rotation.

Each leaf is tried on the probes that have it until one run changes. Most
leaves act from the first tick, so the first round runs the first second of
each probe and the second round each whole probe, the shortest probe first
in both. Vet mode alone reaches every leaf: it runs every channel the
baseline does, and the tether law's own gains.
"""

import copy
import dataclasses
import json
from pathlib import Path

from test_scenario import csv_text
from vetsim.config import ScenarioConfig
from vetsim.scenario import run

PROBES = {path.stem: json.loads(path.read_text())
          for path in sorted(Path(__file__).parent.glob("probe_*.json"))}
# the probe length of each round, in seconds; None is the probe's own
ROUNDS = (1.0, None)
TANK_NUDGE = 0.05

# Leaves no probe run shows an effect of, each with its reason. None is left:
# probe_walls clamps both robots on every face of its tank.
NO_EFFECT = {}


def _leaves(tree, path=()):
    """The path of every numeric leaf below tree, mounts excepted."""
    if isinstance(tree, dict):
        items = [(k, v) for k, v in tree.items() if k != "mount"]
    elif isinstance(tree, list):
        items = enumerate(tree)
    else:
        return [path] if isinstance(tree, (int, float)) and not isinstance(tree, bool) else []
    return [p for key, sub in items for p in _leaves(sub, path + (key,))]


def _nudged(tree: dict, path: tuple) -> dict:
    """A copy of tree with the leaf at path nudged as the module docstring says."""
    tree = copy.deepcopy(tree)
    *parents, key = path
    node = tree
    for part in parents:
        node = node[part]
    value = node[key]
    if parents == ["tank_min"]:
        node[key] = value + TANK_NUDGE
    elif parents == ["tank_max"]:
        node[key] = value - TANK_NUDGE
    elif parents[:2] == ["dropout", "scheduled_windows"]:
        step = (node[1] - node[0]) / 10
        node[key] = value + step if key == 0 else value - step
    elif isinstance(value, int):
        node[key] = value + 1
    else:
        node[key] = value * 1.01 if value else 0.01
    return tree


def _csv(tree: dict) -> str:
    return csv_text(run(dataclasses.replace(ScenarioConfig.from_dict(tree), mode="vet")))


def _copies() -> list:
    """(leaf paths, the probe cut to the round's length, its CSV), in the order tried."""
    by_length = sorted(PROBES.values(), key=lambda tree: tree["duration"])
    cuts = [dict(tree, duration=min(tree["duration"], length or tree["duration"]))
            for length in ROUNDS for tree in by_length]
    return [(set(_leaves(tree)), tree, _csv(tree)) for tree in cuts]


def test_every_numeric_leaf_changes_a_probe_run():
    copies = _copies()
    paths = sorted(set().union(*(leaves for leaves, _, _ in copies)), key=str)
    misses = [".".join(map(str, path)) for path in paths
              if not any(_csv(_nudged(tree, path)) != base
                         for leaves, tree, base in copies if path in leaves)]
    assert misses == sorted(NO_EFFECT)
