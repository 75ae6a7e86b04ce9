"""SVG lock: the sha256 of every plot drawn from a committed pair of bundles.

The plots promise byte-identical SVGs from identical runs, and `plot --run`
promises the SVGs of the run it redraws. Neither says anything across
commits. This lock does: a change that moves one byte of a plot fails here.

svg_fixture/{vet,baseline} hold the config echo and trajectory of
probe_vision.json cut to 4 s, its scheduled dropout moved to 1.0-1.5 s and its
push to 2-3 s, so each time plot draws both kinds of span, the threshold line
and detection gaps. The bundles were written by

    PYTHONPATH=src python -m vetsim.cli compare --config tests/probe_vision.json \\
        --set duration=4 --set 'dropout.scheduled_windows=[[1.0,1.5]]' \\
        --set perturbations.0.t_start=2 --set perturbations.0.t_end=3 --out <dir>

The lock holds each `plot --run` SVG of both bundles, the overlay of the two
read-back logs as `compare` draws it, and each SVG of a header-only redraw of
the vet bundle's config. The entry point records only the entries the lock
lacks and leaves every existing entry as it is:

    PYTHONPATH=src python tests/test_svg_lock.py

To re-record an entry, in a change that is meant to alter the plots, delete it
from svg_lock.json first.
"""

import hashlib
import json
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

from vetsim import plotting
from vetsim.cli import main
from vetsim.config import ScenarioConfig
from vetsim.log import CSV_COLUMNS, log_from_csv

FIXTURE = Path(__file__).with_name("svg_fixture")
LOCK = Path(__file__).with_name("svg_lock.json")
CASES = ("vet", "baseline", "header_only", "overlay")


def _read(mode: str):
    bundle = FIXTURE / mode
    cfg = ScenarioConfig.from_dict(json.loads((bundle / "config_echo.json").read_text()))
    with (bundle / "trajectory.csv").open() as lines:
        return log_from_csv(lines, cfg)


def _draw(case: str, tmp: Path) -> dict:
    """The SVGs of one case, keyed as in the lock."""
    if case == "overlay":
        svg = plotting.plot_distance((_read("vet"), _read("baseline")),
                                     ("tethered", "one-way"), 0.3)
        return {"overlay/distance_overlay.svg": svg}
    out = tmp / case
    bundle = FIXTURE / case
    if case == "header_only":
        out.mkdir()
        shutil.copy(FIXTURE / "vet" / "config_echo.json", out)
        (out / "trajectory.csv").write_text(",".join(CSV_COLUMNS) + "\n")
        bundle = out
    assert main(["plot", "--run", str(bundle), "--out", str(out)]) == 0
    return {f"{case}/{path.name}": path.read_text()
            for path in sorted((out / "plots").glob("*.svg"))}


def _sha256(svgs: dict) -> dict:
    return {key: hashlib.sha256(svg.encode()).hexdigest() for key, svg in svgs.items()}


@pytest.mark.parametrize("case", CASES)
def test_svgs_match_the_lock(case, tmp_path):
    svgs = _draw(case, tmp_path)
    if case in ("vet", "baseline"):
        # the fixture exists to draw a dropout span and a perturbation span
        assert svgs[f"{case}/distance_vs_time.svg"].count('fill-opacity="0.45"') == 2
    lock = json.loads(LOCK.read_text())
    assert _sha256(svgs) == {key: digest for key, digest in lock.items()
                             if key.split("/")[0] == case}


if __name__ == "__main__":
    lock = json.loads(LOCK.read_text()) if LOCK.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        drawn = {}
        for case in CASES:
            drawn.update(_sha256(_draw(case, Path(tmp))))
    missing = {key: digest for key, digest in drawn.items() if key not in lock}
    lock.update(missing)
    LOCK.write_text(json.dumps(lock, indent=1, sort_keys=True) + "\n")
    print(f"added {len(missing)} SVGs to {LOCK} ({len(lock)} in all)", file=sys.stderr)
