"""Per-layer self-time tracer that works from outside the package.

The tracer patches module-level names (and methods of module-level classes)
with wrappers that keep a ``perf_counter`` stack. Each wrapped call adds its
duration minus the time covered by wrapped children to its layer's self
time, so the self times of all layers add up to the duration of the
outermost wrapped call. Names that no longer exist are skipped and listed,
so a refactor that inlines or removes a function shows up in the report
instead of crashing the benchmark. ``Tracer`` is a context manager: every
patched name is restored on exit.
"""

from __future__ import annotations

import importlib
import os
from time import perf_counter

LAYERS = ("perception", "frames", "control", "vehicle", "scenario",
          "metrics", "plotting", "cli")

# The frame helpers the per-tick code calls, and the namespaces that call them.
# wrap_angle is left out: it is too small to time and stays in its caller.
_FRAMES = {
    "vetsim.perception": ("compose", "transform_from_pose"),
    "vetsim.vehicle": ("rotation_body_to_world", "euler_rate_transform",
                       "surface_jacobian"),
    "vetsim.scenario": ("rotation_body_to_world", "euler_rate_transform",
                        "surface_jacobian"),
}

# (module, dotted attribute, layer, probe). A probe names a per-call duration
# sample list and/or a counter hook; see Tracer._observe.
TARGETS = (
    ("vetsim.cli", "main", "cli", "root"),
    ("vetsim.cli", "_write_atomic", "cli", "write"),
    ("vetsim.cli", "run", "scenario", "run"),
    ("vetsim.cli", "log_from_csv", "scenario", "csv_read"),
    ("vetsim.scenario", "TrajectoryLog.to_csv_text", "scenario", "csv_write"),
    ("vetsim.metrics", "summarize", "metrics", "summarize"),
    ("vetsim.plotting", "plot_trajectory", "plotting", "svg"),
    ("vetsim.plotting", "plot_distance", "plotting", "svg"),
    ("vetsim.plotting", "plot_commands", "plotting", "svg"),
    ("vetsim.plotting", "plot_tether", "plotting", "svg"),
    ("vetsim.plotting", "plot_distance_overlay", "plotting", "svg"),
    ("vetsim.scenario", "project_tag", "perception", "project"),
    ("vetsim.scenario", "apply_dropout", "perception", "dropout"),
    ("vetsim.scenario", "tag_geometry", "perception", None),
    ("vetsim.scenario", "classify_region", "perception", None),
    ("vetsim.scenario", "subtask_control_underwater", "control", None),
    ("vetsim.scenario", "subtask_control_surface", "control", None),
    ("vetsim.scenario", "vet_law", "control", "vet_law"),
    ("vetsim.scenario", "baseline_ibvs", "control", None),
    ("vetsim.scenario", "camera_to_body", "control", None),
    ("vetsim.scenario", "combined_control", "control", None),
    ("vetsim.control", "saturate", "vehicle", None),
    ("vetsim.vehicle", "saturate", "vehicle", None),
    ("vetsim.vehicle", "VehicleModel.allocate", "vehicle", None),
    ("vetsim.vehicle", "VehicleModel.step", "vehicle", "step"),
) + tuple(
    (module, name, "frames", None)
    for module, names in _FRAMES.items() for name in names
)

_SAMPLED = ("project", "vet_law", "step")
_COUNTED = ("project", "dropout", "run", "csv_read", "csv_write", "svg", "write")


def _resolve(module_name: str, dotted: str):
    """Return (owner, attribute name, current value), or None if absent."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, name = dotted.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if isinstance(owner, type):
        value = owner.__dict__.get(name)  # only patch what the class defines
    else:
        value = getattr(owner, name, None)
    if not callable(value):
        return None
    return owner, name, value


class Tracer:
    """Self time per layer plus the counters the benchmark reports."""

    def __init__(self):
        self.wrapped: list[str] = []
        self.missing: list[str] = []
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.samples = {key: [] for key in _SAMPLED}
        self.counts = {
            "projections": 0, "detected": 0, "ticks": 0, "events": 0,
            "csv_bytes": 0, "svg_bytes": 0, "files_written": 0,
            "bytes_written": 0,
        }
        self.probe_s = {"csv_write": 0.0, "csv_read": 0.0, "summarize": 0.0,
                        "svg": 0.0}
        self.loop_self_s = 0.0
        self.wall_s = 0.0
        self._stack: list[float] = []
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        for module_name, dotted, layer, probe in TARGETS:
            label = f"{module_name}.{dotted}"
            found = _resolve(module_name, dotted)
            if found is None:
                self.missing.append(label)
                continue
            owner, name, original = found
            self._saved.append((owner, name, original))
            setattr(owner, name, self._wrap(original, layer, probe))
            self.wrapped.append(f"{label} -> {layer}")
        return self

    def __exit__(self, *exc) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def _wrap(self, fn, layer: str, probe):
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        sample = self.samples.get(probe)
        inclusive = self.probe_s if probe in self.probe_s else None
        observe = self._observe if probe in _COUNTED else None

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                own = elapsed - stack.pop()
                self_s[layer] += own
                calls[layer] += 1
                if stack:
                    stack[-1] += elapsed
                if sample is not None:
                    sample.append(elapsed)
                if inclusive is not None:
                    inclusive[probe] += elapsed
                elif probe == "run":
                    self.loop_self_s += own
                elif probe == "root":
                    self.wall_s += elapsed
            if observe is not None:
                observe(probe, args, result)
            return result

        return traced

    def _observe(self, probe: str, args, result) -> None:
        """Counters read from arguments and results; absent fields count 0."""
        counts = self.counts
        if probe == "project":
            counts["projections"] += 1
            counts["detected"] += bool(getattr(result, "detected", False))
        elif probe == "dropout":
            before = bool(getattr(args[0], "detected", False)) if args else False
            after = bool(getattr(result, "detected", False))
            counts["detected"] -= before and not after
        elif probe in ("run", "csv_read"):
            counts["ticks"] += len(result)
            counts["events"] += len(getattr(result, "events", ()))
        elif probe == "csv_write":
            counts["csv_bytes"] += len(result)
        elif probe == "svg":
            counts["svg_bytes"] += len(result)
        elif probe == "write" and args:
            counts["files_written"] += 1
            counts["bytes_written"] += os.path.getsize(args[0])
