"""The benchmark's workloads, the seeds they run with and their output checks.

Every workload is one `vet-sim` command run in-process through
``vetsim.cli.main``. Its outputs are checked against ``reference.json``,
which ``record_reference.py`` wrote from the same commands: summaries and
``compare.json`` must match with floats equal within 1e-9, and tick counts
exactly. The sha256 of each ``trajectory.csv`` is recorded and reported for
information only.
"""

from __future__ import annotations

import hashlib
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_tmp"  # scratch bundles; removed when a run ends
REFERENCE = HERE / "reference.json"

# The benchmark seed picks one of these CLI seeds. Each has a reference, and
# with the dropout workload each gives another random dropout stream.
SEEDS = tuple(range(16))

PLOTS = ("trajectory_xy.svg", "distance_vs_time.svg", "velocity_vs_time.svg",
         "tether_state_vs_time.svg")
BUNDLE_FILES = ("config_echo.json", "trajectory.csv", "summary.json") + tuple(
    f"plots/{name}" for name in PLOTS
)
_FLOAT_TOL = 1e-9
_SUBPROCESS_TIMEOUT_S = 120


def cli_seed(seed: int) -> int:
    return SEEDS[seed % len(SEEDS)]


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def same(got, want, where: str = "") -> list:
    """Differences between two JSON documents; floats compare within 1e-9."""
    if isinstance(want, bool) or isinstance(got, bool) or want is None or got is None:
        return [] if got is want else [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, (int, float)) and isinstance(got, (int, float)):
        if math.isclose(got, want, rel_tol=_FLOAT_TOL, abs_tol=_FLOAT_TOL):
            return []
        return [f"{where}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{where}: keys {sorted(got)} != {sorted(want)}"]
        return [d for key in want for d in same(got[key], want[key], f"{where}.{key}")]
    return [] if got == want else [f"{where}: {got!r} != {want!r}"]


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def read_bundle(path: Path) -> dict:
    """What the reference records about one bundle."""
    csv = (path / "trajectory.csv").read_bytes()
    return {
        "ticks": csv.count(b"\n") - 1,
        "summary": json.loads((path / "summary.json").read_text()),
        "trajectory_sha256": hashlib.sha256(csv).hexdigest(),
    }


def check_bundle(path: Path, want: dict, where: str) -> tuple:
    """(problems, facts) for one run bundle against its reference entry."""
    missing = [name for name in BUNDLE_FILES if not (path / name).is_file()]
    if missing:
        return [f"{where}: missing {missing}"], {}
    got = read_bundle(path)
    problems = same(got["summary"], want["summary"], f"{where}/summary.json")
    if got["ticks"] != want["ticks"]:
        problems.append(f"{where}: {got['ticks']} ticks, reference {want['ticks']}")
    facts = {
        f"{where}.ticks": got["ticks"],
        f"{where}.trajectory_sha256": got["trajectory_sha256"],
        f"{where}.sha256_matches_reference":
            got["trajectory_sha256"] == want["trajectory_sha256"],
    }
    return problems, facts


class Survey:
    """`run --preset navigation_real --mode vet`: the base of the workloads
    and the command that makes replay's source bundle. It is not timed on its
    own: at about 11 s a command, a run held too few of them to be steady."""

    name = "survey"
    preset = "navigation_real"
    simulates = True
    reference_key = "survey"  # entry of reference.json this workload checks

    def config_overrides(self, seed: int) -> dict:
        return {"mode": "vet", "seed": seed}

    def argv(self, seed: int, out: Path) -> list:
        return ["run", "--preset", self.preset, "--mode", "vet",
                "--seed", str(seed), "--out", str(out)]

    def reference(self, ref: dict, seed: int) -> dict:
        return ref[self.reference_key][str(seed)]

    def prepare(self, seed: int, work: Path, ref: dict):
        """Untimed set-up; returns its problems, or None if there is none."""
        return None

    def check(self, out: Path, want: dict) -> tuple:
        problems, facts = check_bundle(out, want, "bundle")
        return problems, facts, tree_bytes(out) if out.is_dir() else 0

    def record(self, out: Path) -> dict:
        return read_bundle(out)


class CompareDropout(Survey):
    name = "compare_dropout"
    reference_key = "compare_dropout"
    preset = "perturbation_real"
    dropout_rate = 0.3

    def config_overrides(self, seed: int) -> dict:
        return {"dropout.random_rate": self.dropout_rate, "seed": seed}

    def argv(self, seed: int, out: Path) -> list:
        return ["compare", "--preset", self.preset,
                "--set", f"dropout.random_rate={self.dropout_rate}",
                "--seed", str(seed), "--out", str(out)]

    def check(self, out: Path, want: dict) -> tuple:
        problems, facts = [], {}
        for mode in ("vet", "baseline"):
            p, f = check_bundle(out / mode, want[mode], mode)
            problems += p
            facts.update(f)
        if not (out / "distance_overlay.svg").is_file():
            problems.append("distance_overlay.svg missing")
        try:
            got = json.loads((out / "compare.json").read_text())
            problems += same(got, want["compare"], "compare.json")
        except (OSError, json.JSONDecodeError) as exc:
            problems.append(f"compare.json unreadable: {exc}")
        return problems, facts, tree_bytes(out) if out.is_dir() else 0

    def record(self, out: Path) -> dict:
        return {
            "compare": json.loads((out / "compare.json").read_text()),
            "vet": read_bundle(out / "vet"),
            "baseline": read_bundle(out / "baseline"),
        }


class Replay(Survey):
    """Re-plot a survey bundle that an untimed set-up step produces."""

    name = "replay"
    simulates = False

    def __init__(self):
        self.bundle = None
        self.svgs = {}

    def argv(self, seed: int, out: Path) -> list:
        return ["plot", "--run", str(self.bundle)]

    def prepare(self, seed: int, work: Path, ref: dict) -> list:
        """Write the source bundle in a child process, so that its memory
        does not count towards this process's peak RSS."""
        self.bundle = work / "source"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "from vetsim.cli import main; sys.exit(main(sys.argv[2:]))")
        argv = Survey().argv(seed, self.bundle)
        try:
            done = subprocess.run(
                [sys.executable, "-c", code, str(SRC), *argv],
                capture_output=True, text=True, timeout=_SUBPROCESS_TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return [f"set-up run took over {_SUBPROCESS_TIMEOUT_S} s"]
        if done.returncode != 0:
            return [f"set-up run exited {done.returncode}: {done.stderr.strip()}"]
        problems, _ = check_bundle(self.bundle, ref, "source")
        if not problems:
            self.svgs = {name: (self.bundle / "plots" / name).read_bytes()
                         for name in PLOTS}
        return problems

    def check(self, out: Path, want: dict) -> tuple:
        problems = [] if self.svgs else ["no checked source bundle to compare with"]
        written = 0
        for name, source in self.svgs.items():
            path = self.bundle / "plots" / name
            data = path.read_bytes() if path.is_file() else b""
            written += len(data)
            if data != source:
                problems.append(f"plots/{name} differs from the source bundle")
        return problems, {"bundle.ticks": want["ticks"]}, written


WORKLOADS = {cls.name: cls for cls in (Replay, CompareDropout)}
