"""vetsim benchmark: time `vet-sim` workloads end to end, or trace them per layer.

    python3 perfbench/run.py --workload compare_dropout --seed 1 --seconds 45 --trace 0

Runs the workload's CLI command in-process through ``vetsim.cli.main`` again
and again until ``--seconds`` have passed, checks every run's outputs against
``reference.json`` and prints one line per metric. The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` one more run goes under the per-layer tracer and the metrics are
the per-layer ones. End-to-end timings are scaled to a reference machine speed
with the calibration kernel in ``calibrate.py``, timed between the commands.
``perfbench/README.md`` explains every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calibrate
import workloads
from tracer import LAYERS, Tracer
from workloads import ROOT, SRC, WORK

SETUP_SAMPLES = 7

# A fresh interpreter imports the CLI and builds and validates the workload's
# config the way the CLI does: preset -> to_dict -> overrides -> from_dict.
_SETUP_PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import vetsim.cli
from vetsim.scenario import ScenarioConfig, preset
tree = preset(sys.argv[2]).to_dict()
for key, value in json.loads(sys.argv[3]).items():
    *path, leaf = key.split(".")
    node = tree
    for part in path:
        node = node[part]
    node[leaf] = value
ScenarioConfig.from_dict(tree)
"""


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values, q: float) -> float:
    """Nearest-rank percentile; 0.0 when nothing was sampled."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


@dataclass
class CliCall:
    """Outcome of one in-process `vet-sim` command."""

    wall_s: float
    runs: list  # (seconds, ticks) for each scenario.run call, when untraced
    error: str  # empty when the command exited 0


def call_cli(cli, argv, tracer=None, kernel=None) -> CliCall:
    """Run ``cli.main(argv)`` with its output captured. Untraced, a single
    timer wraps ``cli.run`` for us_per_tick; traced, the tracer does. Given a
    ``kernel`` list, a calibration sample is appended to it after each
    ``cli.run`` call, and its time is left out of ``wall_s``."""
    runs = []
    paused = 0.0
    original = cli.run

    def timed_run(*args, **kwargs):
        nonlocal paused
        start = perf_counter()
        log = original(*args, **kwargs)
        end = perf_counter()
        runs.append((end - start, len(log)))
        if kernel is not None:
            kernel.append(calibrate.sample())
            paused += perf_counter() - end
        return log

    if tracer is None:
        cli.run = timed_run
    patch = tracer if tracer is not None else contextlib.nullcontext()
    stderr = io.StringIO()
    code, error = None, ""
    start = perf_counter()
    try:
        with patch, contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        code = exc.code
    except Exception:
        error = traceback.format_exc()
    finally:
        wall_s = perf_counter() - start - paused
        cli.run = original
    if code != 0 and not error:
        error = f"exit code {code}: {stderr.getvalue().strip()}"
    return CliCall(wall_s, runs, error)


def setup_seconds(workload, seed: int, kernel: list) -> tuple:
    """Median wall time of fresh interpreters that import and build the config.
    Appends a calibration sample to ``kernel`` before each probe."""
    samples, problems = [], []
    overrides = json.dumps(workload.config_overrides(seed))
    for _ in range(SETUP_SAMPLES):
        kernel.append(calibrate.sample())
        start = perf_counter()
        try:
            done = subprocess.run(
                [sys.executable, "-c", _SETUP_PROBE, str(SRC), workload.preset, overrides],
                cwd=ROOT, capture_output=True, text=True, timeout=60,
            )
        except subprocess.TimeoutExpired:
            problems.append("set-up probe took over 60 s")
            break
        samples.append(perf_counter() - start)
        if done.returncode != 0:
            problems.append(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    return _median(samples), samples, problems


def metadata(args, seed: int) -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {
        "workload": args.workload, "seed": args.seed, "cli_seed": seed,
        "seconds": args.seconds, "trace": args.trace,
        "git_sha": sha, "src_sha256": digest.hexdigest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": cpu,
    }


def layer_metrics(tracer: Tracer, untraced_wall_s: float) -> dict:
    wall = tracer.wall_s

    def share(seconds: float) -> float:
        return seconds / wall if wall else 0.0

    counts = tracer.counts
    samples = tracer.samples
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (tracer.calls[layer], "count")
        out[f"{layer}.self_s"] = (tracer.self_s[layer], "s")
        out[f"{layer}.share"] = (share(tracer.self_s[layer]), "frac")
    for name, key in (("perception.project", "project"), ("control.vet_law", "vet_law"),
                      ("vehicle.step", "step")):
        out[f"{name}_us_p50"] = (1e6 * _percentile(samples[key], 0.50), "us")
        out[f"{name}_us_p99"] = (1e6 * _percentile(samples[key], 0.99), "us")
    projections = counts["projections"]
    out["perception.projections"] = (projections, "count")
    out["perception.detected"] = (counts["detected"], "count")
    out["perception.detect_ratio"] = (
        counts["detected"] / projections if projections else 0.0, "frac")
    out["scenario.loop_self_s"] = (tracer.loop_self_s, "s")
    out["scenario.loop_share"] = (share(tracer.loop_self_s), "frac")
    out["scenario.ticks"] = (counts["ticks"], "count")
    out["scenario.events"] = (counts["events"], "count")
    out["scenario.csv_write_s"] = (tracer.probe_s["csv_write"], "s")
    out["scenario.csv_bytes"] = (counts["csv_bytes"], "bytes")
    out["scenario.csv_read_s"] = (tracer.probe_s["csv_read"], "s")
    out["metrics.summarize_s"] = (tracer.probe_s["summarize"], "s")
    out["plotting.svg_s"] = (tracer.probe_s["svg"], "s")
    out["plotting.svg_bytes"] = (counts["svg_bytes"], "bytes")
    out["cli.files_written"] = (counts["files_written"], "count")
    out["cli.bytes_written"] = (counts["bytes_written"], "bytes")
    out["trace.wall_s"] = (tracer.wall_s, "s")
    out["trace.overhead_s"] = (tracer.wall_s - untraced_wall_s, "s")
    out["trace.wrapped"] = (len(tracer.wrapped), "count")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vetsim" / "cli.py").is_file():
        print(f"perfbench: no vetsim sources under {SRC}", file=sys.stderr)
        return 2
    # One thread: the BLAS pool would only add scheduling noise to 6x6 solves.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import vetsim.cli as cli

    workload = workloads.WORKLOADS[args.workload]()
    seed = workloads.cli_seed(args.seed)
    want = workload.reference(workloads.load_reference(), seed)
    meta = metadata(args, seed)
    print("meta " + json.dumps(meta, sort_keys=True))

    attempted = failed = 0

    def count(problems) -> None:
        nonlocal attempted, failed
        attempted += 1
        if problems:
            failed += 1
            for problem in problems:
                print(f"FAILED: {problem}", file=sys.stderr)

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    walls, per_tick, sizes, facts = [], [], [], {}
    # Calibration samples: one before each set-up probe, and one before each
    # timed command and after each simulation in it.
    setup_kernel, kernel = [], []
    try:
        if not args.trace:
            setup_s, setup_samples, problems = setup_seconds(workload, seed, setup_kernel)
            count(problems)
        problems = workload.prepare(seed, work, want)
        if problems is not None:
            count(problems)

        def one_run(tracer=None, kernel=None) -> CliCall:
            out = work / f"out{attempted}"
            call = call_cli(cli, workload.argv(seed, out), tracer, kernel)
            problems = [call.error] if call.error else []
            if not problems:
                found, run_facts, size = workload.check(out, want)
                problems += found
                facts.update(run_facts)
                sizes.append(size)
            count(problems)
            shutil.rmtree(out, ignore_errors=True)
            return call

        start = perf_counter()
        while not walls or perf_counter() - start < args.seconds:
            kernel.append(calibrate.sample())
            call = one_run(kernel=kernel)
            walls.append(call.wall_s)
            if workload.simulates:
                run_s = sum(s for s, _ in call.runs)
                ticks = sum(n for _, n in call.runs)
            else:  # no simulation: time per logged tick read back and plotted
                run_s, ticks = call.wall_s, want["ticks"]
            if ticks:
                per_tick.append(1e6 * run_s / ticks)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        if args.trace:
            tracer = Tracer()
            one_run(tracer)
            print("trace wrapped: " + ", ".join(tracer.wrapped))
            print("trace missing: " + (", ".join(tracer.missing) or "none"))
            metrics = layer_metrics(tracer, _median(walls))
            self_sum = sum(tracer.self_s.values())
            print(f"trace self-time sum {self_sum:.6f} s of traced wall "
                  f"{tracer.wall_s:.6f} s")
        else:
            # Timings as they would read on a machine where the calibration
            # kernel takes calibrate.REFERENCE_S (see calibrate.py); set-up is
            # scaled by the samples taken around it, the commands by theirs.
            scale = calibrate.REFERENCE_S / _median(kernel)
            setup_scale = calibrate.REFERENCE_S / _median(setup_kernel)
            print(f"calibration kernel {_median(kernel):.6f} s median of {len(kernel)}, "
                  f"set-up {_median(setup_kernel):.6f} s median of {len(setup_kernel)}, "
                  f"reference {calibrate.REFERENCE_S} s")
            print(f"unscaled wall_s {_median(walls):.6g} s, us_per_tick "
                  f"{_median(per_tick):.6g} us, setup_s {setup_s:.6g} s")
            metrics = {
                "wall_s": (scale * _median(walls), "s"),
                "us_per_tick": (scale * _median(per_tick), "us"),
                "setup_s": (setup_scale * setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
                "bundle_bytes": (statistics.median_low(sizes) if sizes else 0, "bytes"),
            }
            print("setup_s samples " + " ".join(f"{s:.4f}" for s in setup_samples))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()

    print(f"runs {len(walls)}: wall_s " + " ".join(f"{w:.4f}" for w in walls))
    for key, value in sorted(facts.items()):
        print(f"check {key} {value}")
    print(f"failed_frac {failed / attempted:.4f} ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
