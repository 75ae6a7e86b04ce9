"""Command line interface.

Three subcommands:

  run      simulate one scenario and write a result bundle
  compare  run the same scenario with both controllers and diff the outcome
  plot     regenerate the plots for a previously saved bundle

A result bundle is a directory holding config_echo.json, trajectory.csv,
summary.json and plots/*.svg. All outputs are written atomically and only
after the simulation has finished, so a failed run leaves no partial bundle.
Exit codes: 0 success, 2 configuration problem, 3 simulation failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

from . import metrics, plotting
from .config import ConfigError, ScenarioConfig
from .log import TrajectoryLog, log_from_csv
from .scenario import PRESET_NAMES, SimFailure, UnknownPreset, preset, run

_DEFAULT_THRESHOLD = 0.3


def _umask() -> int:
    # The umask can only be read by setting it; put it straight back.
    mask = os.umask(0)
    os.umask(mask)
    return mask


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=str(path.parent), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            handle.write(text)
        # mkstemp creates the file 0600; give it the mode open() would have
        os.chmod(tmp, 0o666 & ~_umask())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


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
    if args.out:
        return Path(args.out)
    env = os.environ.get("VET_SIM_OUT")
    if env:
        return Path(env)
    return Path("runs")


PLOT_KINDS = ("trajectory_xy", "distance_vs_time", "velocity_vs_time", "tether_state_vs_time")


def _render_plots(log: TrajectoryLog, threshold: float, kinds=PLOT_KINDS) -> dict:
    renderers = {
        "trajectory_xy": lambda: plotting.plot_trajectory(log),
        "distance_vs_time": lambda: plotting.plot_distance(log, threshold),
        "velocity_vs_time": lambda: plotting.plot_commands(log),
        "tether_state_vs_time": lambda: plotting.plot_tether(log),
    }
    return {
        os.path.join("plots", f"{kind}.svg"): renderers[kind]() for kind in kinds
    }


def _render_bundle(log: TrajectoryLog, threshold: float) -> dict:
    """Everything a bundle holds, rendered in memory before any file I/O."""
    summary = metrics.summarize(log, threshold)
    summary_doc = {
        "scenario": log.config.name,
        "mode": log.config.mode,
        "seed": log.config.seed,
        "distance_threshold": threshold,
        **summary.to_dict(),
    }
    files = {
        "config_echo.json": json.dumps(log.config.to_dict(), indent=2, sort_keys=True) + "\n",
        "trajectory.csv": log.to_csv_text(),
        "summary.json": json.dumps(summary_doc, indent=2, sort_keys=True) + "\n",
    }
    files.update(_render_plots(log, threshold))
    return files


def _write_bundle(base: Path, files: dict) -> None:
    for rel, text in files.items():
        _write_atomic(base / rel, text)


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    log = run(cfg)
    files = _render_bundle(log, args.threshold)
    base = _out_dir(args)
    _write_bundle(base, files)
    summary = json.loads(files["summary.json"])
    print(f"run complete: {cfg.name} ({cfg.mode}), {len(log)} records")
    print(f"  max separation after transient: {summary['max_projected_distance']:.3f} m")
    print(f"  mission success: {summary['mission_success']}")
    print(f"  bundle: {base}")
    return 0


def _cmd_compare(args) -> int:
    base = _out_dir(args)
    cfg = _build_config(args)
    results = {}
    for mode in ("vet", "baseline"):
        log = run(dataclasses.replace(cfg, mode=mode))
        results[mode] = (log, _render_bundle(log, args.threshold))
    for mode, (_, files) in results.items():
        _write_bundle(base / mode, files)
    log_vet = results["vet"][0]
    log_base = results["baseline"][0]
    overlay = plotting.plot_distance_overlay(
        log_vet, log_base, "tethered", "one-way", args.threshold
    )
    _write_atomic(base / "distance_overlay.svg", overlay)
    sum_vet = json.loads(results["vet"][1]["summary.json"])
    sum_base = json.loads(results["baseline"][1]["summary.json"])
    delta = {
        "scenario": log_vet.config.name,
        "distance_threshold": args.threshold,
        "vet": sum_vet,
        "baseline": sum_base,
        "baseline_lost_los": sum_base["time_of_los_loss"] is not None,
        "vet_lost_los": sum_vet["time_of_los_loss"] is not None,
    }
    _write_atomic(base / "compare.json", json.dumps(delta, indent=2, sort_keys=True) + "\n")
    print(f"compare complete: {log_vet.config.name}")
    print(
        "  tethered: success={0}, max separation {1:.3f} m".format(
            sum_vet["mission_success"], sum_vet["max_projected_distance"]
        )
    )
    print(
        "  one-way:  success={0}, max separation {1:.3f} m".format(
            sum_base["mission_success"], sum_base["max_projected_distance"]
        )
    )
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
    _write_bundle(out, _render_plots(log, args.threshold, kinds))
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
