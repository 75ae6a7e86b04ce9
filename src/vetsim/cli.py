"""Command line interface.

Three subcommands:

  run      simulate one scenario and write a result bundle
  compare  run the same scenario with both controllers and diff the outcome
  plot     regenerate the plots for a previously saved bundle

A result bundle is a directory holding config_echo.json, trajectory.csv,
summary.json and plots/*.svg. Each command renders every file it writes but
trajectory.csv before it writes any, then commits them in two phases: it
stages each file as a temp file beside its target, formatting trajectory.csv
chunk by chunk as it stages it, then renames each onto its target. A
staging failure, such as an output path that cannot be written, removes
what the stage made, leaves every old file as it was and exits 2; a failure
while the CSV is formatted undoes the stage the same way. A failure during
the renames cannot restore the files already replaced.
Exit codes: 0 success, 2 configuration problem, 3 simulation failure.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import errno
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

from . import metrics, plotting
from .config import ConfigError, ScenarioConfig
from .log import TrajectoryLog, log_from_csv
from .scenario import PRESET_NAMES, SimFailure, UnknownPreset, preset, run

_DEFAULT_THRESHOLD = 0.3


def _commit(files: dict[Path, str | Iterable[str]]) -> None:
    """Write every file, or none if any cannot be staged (see the module doc).
    A file's text is a str or an iterable of str pieces, each written as it
    comes, so a piece that fails to come is a staging failure."""
    mask = os.umask(0)  # the umask can only be read by setting it; put it straight back
    os.umask(mask)
    made, staged = [], []
    try:
        for path, text in files.items():
            for parent in reversed(path.parents):
                if not parent.is_dir():
                    parent.mkdir()
                    made.append(parent)
            if path.is_dir():  # the rename would refuse it only after earlier renames
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
            fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
            staged.append(tmp)
            with os.fdopen(fd, "w", newline="") as handle:
                for piece in (text,) if isinstance(text, str) else text:
                    handle.write(piece)
            # the temp file is created 0600; give it the mode open() would have
            os.chmod(tmp, 0o666 & ~mask)
    except BaseException as exc:
        for tmp in staged:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        for directory in reversed(made):
            with contextlib.suppress(OSError):
                directory.rmdir()
        if isinstance(exc, OSError):
            raise ConfigError(f"cannot write bundle: {exc}") from exc
        raise
    for tmp, path in zip(staged, files):
        os.replace(tmp, path)


def _set_dotted(tree, dotted_key: str, value) -> None:
    parts = dotted_key.split(".")
    node = tree
    for i, part in enumerate(parts):
        last = i == len(parts) - 1
        if isinstance(node, list):
            # an index as the config paths print it: not -6, +0, 0_0 or 01
            if part not in map(str, range(len(node))):
                raise ConfigError(f"bad override index {part!r} in {dotted_key!r}")
            if last:
                node[int(part)] = value
                return
            node = node[int(part)]
        elif isinstance(node, dict):
            if part not in node:
                raise ConfigError(f"unknown override key {part!r} in {dotted_key!r}")
            if last:
                node[part] = value
                return
            node = node[part]
        else:
            raise ConfigError(f"{dotted_key!r} descends into a scalar")


def _parse_override(text: str):
    key, sep, raw = text.partition("=")
    if not sep or not key:
        raise ConfigError(f"override must look like key=value, got {text!r}")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw  # bare words pass through as strings
    return key, value


def _positive_float(text: str) -> float:
    """argparse type of --threshold: a finite float above zero.

    No separation falls below a threshold of zero or less, so every run
    would fail its mission by construction.
    """
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _build_config(args) -> ScenarioConfig:
    if args.preset is not None:
        cfg = preset(args.preset)
    else:
        path = Path(args.config)
        try:
            data = json.loads(path.read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        cfg = ScenarioConfig.from_dict(data)
    tree = cfg.to_dict()
    for item in args.override or []:
        key, value = _parse_override(item)
        _set_dotted(tree, key, value)
    if getattr(args, "mode", None):
        tree["mode"] = args.mode
    if args.seed is not None:
        tree["seed"] = args.seed
    cfg = ScenarioConfig.from_dict(tree)
    if cfg.steps < 1:
        raise ConfigError(f"duration {cfg.duration:g} s is under one tick (dt {cfg.dt:g} s); "
                          "a bundle needs two records")
    return cfg


def _out_dir(args) -> Path:
    return Path(args.out or os.environ.get("VET_SIM_OUT") or "runs")


PLOT_KINDS = ("trajectory_xy", "distance_vs_time", "velocity_vs_time", "tether_state_vs_time")


def _render_plots(log: TrajectoryLog, threshold: float, out: Path, kinds=PLOT_KINDS) -> dict:
    renderers = {
        "trajectory_xy": lambda: plotting.plot_trajectory(log),
        "distance_vs_time": lambda: plotting.plot_distance(log, threshold),
        "velocity_vs_time": lambda: plotting.plot_commands(log),
        "tether_state_vs_time": lambda: plotting.plot_tether(log),
    }
    return {out / "plots" / f"{kind}.svg": renderers[kind]() for kind in kinds}


def _render_bundle(log: TrajectoryLog, threshold: float, out: Path) -> dict:
    """Everything a bundle holds, keyed by target path, rendered before any file I/O
    but trajectory.csv, whose chunks _commit formats as it stages the file."""
    summary = metrics.summarize(log, threshold)
    summary_doc = {
        "scenario": log.config.name,
        "mode": log.config.mode,
        "seed": log.config.seed,
        "distance_threshold": threshold,
        **summary.to_dict(),
    }
    files = {
        out / "config_echo.json": json.dumps(log.config.to_dict(), indent=2, sort_keys=True) + "\n",
        out / "trajectory.csv": log.csv_chunks(),
        out / "summary.json": json.dumps(summary_doc, indent=2, sort_keys=True) + "\n",
    }
    files.update(_render_plots(log, threshold, out))
    return files


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    log = run(cfg)
    base = _out_dir(args)
    files = _render_bundle(log, args.threshold, base)
    _commit(files)
    summary = json.loads(files[base / "summary.json"])
    print(f"run complete: {cfg.name} ({cfg.mode}), {len(log)} records")
    print(f"  max separation after transient: {summary['max_projected_distance']:.3f} m")
    print(f"  mission success: {summary['mission_success']}")
    print(f"  bundle: {base}")
    return 0


# compare's modes in order, each with its label in the overlay legend and on stdout
_COMPARE_LABELS = {"vet": "tethered", "baseline": "one-way"}


def _cmd_compare(args) -> int:
    base = _out_dir(args)
    cfg = _build_config(args)
    logs, files = {}, {}
    for mode in _COMPARE_LABELS:
        logs[mode] = run(dataclasses.replace(cfg, mode=mode))
        files.update(_render_bundle(logs[mode], args.threshold, base / mode))
    sums = {mode: json.loads(files[base / mode / "summary.json"]) for mode in _COMPARE_LABELS}
    files[base / "distance_overlay.svg"] = plotting.plot_distance_overlay(
        *logs.values(), *_COMPARE_LABELS.values(), args.threshold
    )
    delta = {
        "scenario": cfg.name,
        "distance_threshold": args.threshold,
        **sums,
        **{f"{mode}_lost_los": sums[mode]["time_of_los_loss"] is not None for mode in sums},
    }
    files[base / "compare.json"] = json.dumps(delta, indent=2, sort_keys=True) + "\n"
    _commit(files)
    print(f"compare complete: {cfg.name}")
    for mode, label in _COMPARE_LABELS.items():
        print(f"  {label + ':':<9} success={sums[mode]['mission_success']}, "
              f"max separation {sums[mode]['max_projected_distance']:.3f} m")
    print(f"  bundle: {base}")
    return 0


def _cmd_plot(args) -> int:
    run_dir = Path(args.run)
    try:
        cfg_data = json.loads((run_dir / "config_echo.json").read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read bundle: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"bundle config is not valid JSON: {exc}") from exc
    path = run_dir / "trajectory.csv"
    try:  # log_from_csv streams the file: a byte that does not decode fails mid-read
        with path.open() as lines:
            log = log_from_csv(lines, ScenarioConfig.from_dict(cfg_data))
    except OSError as exc:
        raise ConfigError(f"cannot read bundle: {exc}") from exc
    except UnicodeDecodeError as exc:
        try:  # name the byte's position in the file, not in the stream's last block
            path.read_text()
        except UnicodeDecodeError as whole:
            exc = whole
        raise ConfigError(f"bundle trajectory cannot be decoded: {exc}") from exc
    out = Path(args.out) if args.out else run_dir
    kinds = PLOT_KINDS if args.kind == "all" else (args.kind,)
    _commit(_render_plots(log, args.threshold, out, kinds))
    print(f"plots written to {out / 'plots'}")
    return 0


def _add_common(parser: argparse.ArgumentParser, with_mode: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", choices=PRESET_NAMES, help="built-in scenario")
    group.add_argument("--config", help="path to a scenario config JSON file")
    if with_mode:
        parser.add_argument(
            "--mode", choices=("vet", "baseline"),
            help="override the controller mode",
        )
    parser.add_argument("--seed", type=int, help="override the random seed")
    parser.add_argument(
        "--set", dest="override", action="append", metavar="KEY=VALUE",
        help="override one config entry (dotted path, JSON value); repeatable",
    )
    parser.add_argument(
        "--out", help="output directory (default $VET_SIM_OUT or ./runs)"
    )
    parser.add_argument(
        "--threshold", type=_positive_float, default=_DEFAULT_THRESHOLD,
        help="separation threshold in metres used by the summary metrics",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vet-sim",
        description="two-robot visual tether simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one scenario")
    _add_common(p_run, with_mode=True)
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run both controllers and diff")
    _add_common(p_cmp, with_mode=False)
    p_cmp.set_defaults(func=_cmd_compare)

    p_plot = sub.add_parser("plot", help="regenerate plots for a saved bundle")
    p_plot.add_argument("--run", required=True, help="bundle directory")
    p_plot.add_argument(
        "--kind", choices=PLOT_KINDS + ("all",), default="all",
        help="which plot to regenerate (default: all of them)",
    )
    p_plot.add_argument("--out", help="write plots somewhere else")
    p_plot.add_argument(
        "--threshold", type=_positive_float, default=_DEFAULT_THRESHOLD,
        help="threshold line drawn on the distance plot",
    )
    p_plot.set_defaults(func=_cmd_plot)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, UnknownPreset) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SimFailure as exc:
        print(f"simulation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
