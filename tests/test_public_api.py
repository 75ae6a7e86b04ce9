"""No dead public API: every public top-level function or class in src/vetsim,
and every public method or property of one of its classes, is referenced by
some other src code, or is listed here with its reason."""

import ast
import json
from collections import Counter
from dataclasses import is_dataclass
from pathlib import Path
from types import UnionType
from typing import get_args, get_origin

from vetsim.config import ScenarioConfig, _field_types

SRC = Path(__file__).resolve().parents[1] / "src" / "vetsim"

# Public names that no src code references, and why each stays.
UNREFERENCED_ALLOWED = {
    "check_connectivity": "acceptance criterion 5 (connectivity residual): it certifies "
                          "a pair of mounts, which is a design check, not a simulation step",
    "pose_from_observation": "acceptance criterion 5 (pose round trip): it recovers the "
                             "observed robot's pose from a tag, which no controller uses",
    "wrap_angle": "acceptance criterion 5 (angle wrap): the one definition of the (-pi, pi] "
                  "convention, which the tick writes out inline in perception, control and "
                  "vehicle and the tests hold those copies to",
    "TrajectoryLog.events": "the log's events as (t, event) pairs: the planned events.jsonl "
                            "of the bundle reads them, perfbench counts them per run, and "
                            "the event tests compare them",
}


def names_in(node) -> list:
    """Every Name and Attribute name in node, with repeats."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]


def unreferenced_public_names(src: Path) -> list:
    """Public top-level functions and classes of the modules in src that no
    other top-level statement of those modules names; then, as Class.name,
    public methods and properties of their top-level classes that no src code
    names outside their own body."""
    statements = [node for path in sorted(src.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    names = {id(node): set(names_in(node)) for node in statements}
    everywhere = Counter(name for node in statements for name in names_in(node))
    top_level = [
        node.name for node in statements
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not any(node.name in names[id(other)] for other in statements if other is not node)
    ]
    methods = [
        f"{cls.name}.{node.name}" for cls in statements if isinstance(cls, ast.ClassDef)
        for node in cls.body if isinstance(node, ast.FunctionDef)
        and not node.name.startswith("_") and everywhere[node.name] == names_in(node).count(node.name)
    ]
    return sorted(top_level + methods)


def test_every_unreferenced_public_name_is_allowed_with_a_reason():
    assert unreferenced_public_names(SRC) == sorted(UNREFERENCED_ALLOWED)


# The src lines that Tier-1 never executes, by function and source text, with
# the reason each stays. tools/reach.py checks the list against a traced run of
# the suite, which takes minutes; this checks only that each line still exists.
UNREACHED = json.loads((Path(__file__).with_name("unreached_lines.json")).read_text())


def function_lines(function: str) -> list:
    """The stripped source lines of a src function named as tools/reach.py names
    it: module, then qualified name (the module alone is its whole file)."""
    module, *path = function.split(".")
    source = (SRC / f"{module}.py").read_text()
    node = ast.parse(source)
    for name in path:
        node = next(n for n in node.body if getattr(n, "name", None) == name)
    text = ast.get_source_segment(source, node) if path else source
    return [line.strip() for line in text.splitlines()]


def test_every_listed_unreached_line_is_in_its_function_with_a_reason():
    for entry in UNREACHED:
        assert set(entry) == {"function", "text", "reason"}, entry
        assert entry["text"] in function_lines(entry["function"]), entry
        assert entry["reason"].strip(), entry


# Private names one module imports from another, (importer, module, name), and
# why each crosses the boundary; any other private name stays in its module.
PRIVATE_IMPORTS_ALLOWED = {
    ("scenario", "log", "_ROW_WIDTH"): "run() fills a flat buffer of row-table rows",
    ("scenario", "log", "_first_non_finite"): "run() refuses a row table with a NaN state, "
                                              "which the reader refuses too",
    ("scenario", "log", "_log_arrays"): "a SimFailure names the failed tick's poses off its row",
    ("scenario", "log", "_window_masks"): "the wrenches are summed on the ticks the events "
                                          "mark perturbed: one perturbation mask",
    ("scenario", "log", "_log_from_table"): "the one constructor of a log, which the reader "
                                            "shares",
    ("metrics", "log", "_runs"): "the summary finds runs of a per-tick flag the way the "
                                 "events do",
    ("scenario", "perception", "_UNSEEN_TAG"): "a blanked camera is given the undetected "
                                               "tag without a projection",
}


def private_imports(src: Path) -> set:
    """(importer, module, name) of each private name a module of src imports
    from a sibling, at any depth of its code."""
    found = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.level
                                                     or node.module.split(".")[0] == "vetsim"):
                module = (node.module or "").removeprefix("vetsim").lstrip(".")
                found |= {(path.stem, module, a.name) for a in node.names
                          if a.name.startswith("_")}
    return found


def test_every_private_import_is_allowed_with_a_reason():
    assert private_imports(SRC) == set(PRIVATE_IMPORTS_ALLOWED)


# The package's import order: each module imports only the modules before it.
LAYERS = ("frames", "perception", "control", "vehicle", "config", "log", "scenario",
          "metrics", "plotting", "cli")


def package_imports(path: Path) -> set:
    """The vetsim modules the file at path imports, relatively or by name."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module if node.level == 0 else f"vetsim.{node.module or ''}"
            if module in ("vetsim", "vetsim."):  # from . import x, from vetsim import x
                found |= {f"vetsim.{a.name}" for a in node.names}
            elif module.startswith("vetsim."):
                found.add(module)
        elif isinstance(node, ast.Import):
            found |= {a.name for a in node.names if a.name.startswith("vetsim.")}
    return {name.removeprefix("vetsim.").split(".")[0] for name in found}


def test_modules_import_only_earlier_layers_and_the_bundle_code_not_the_loop():
    assert {path.stem for path in SRC.glob("*.py")} == {"__init__", *LAYERS}
    for k, module in enumerate(LAYERS):
        imported = package_imports(SRC / f"{module}.py")
        assert imported <= set(LAYERS[:k]), f"{module} imports {sorted(imported)}"
        if module in ("metrics", "plotting"):
            assert "scenario" not in imported, f"{module} imports the simulation loop"


def config_dataclasses(hint) -> set:
    """The dataclasses a config value of type hint may hold, hint included."""
    if isinstance(hint, UnionType) or get_origin(hint) is tuple:
        return set().union(*map(config_dataclasses, get_args(hint)))
    if is_dataclass(hint):
        return {hint}.union(*map(config_dataclasses, _field_types(hint).values()))
    return set()


def test_every_config_type_is_frozen():
    reached = config_dataclasses(ScenarioConfig)
    assert len(reached) == 11  # ScenarioConfig and the ten types it holds
    assert sorted(cls.__name__ for cls in reached if not cls.__dataclass_params__.frozen) == []


# Defaulted parameters that no src call both passes and leaves out, and why
# each stays, as (module, function, parameter).
ONE_VALUE_DEFAULTS_ALLOWED = {
    ("cli", "main", "argv"): "the console entry point reads sys.argv; the tests and "
                             "perfbench pass argv",
}


def one_value_defaults(src: Path) -> set:
    """(module, function, parameter) of each defaulted parameter of a src
    function that src calls, which every src call naming the function passes
    or every one leaves out. A call names a function by its Name or Attribute;
    a method's parameters are counted after self (or cls); a call that
    unpacks *args or **kwargs passes them all."""
    defs, calls = [], {}
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text())
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                a = node.args
                names = [arg.arg for arg in a.posonlyargs + a.args]
                if id(node) in methods and "staticmethod" not in map(ast.unparse,
                                                                     node.decorator_list):
                    names = names[1:]
                defaulted = names[len(names) - len(a.defaults):] + [
                    arg.arg for arg, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
                defs.append((path.stem, node.name, names, defaulted))
            elif isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                calls.setdefault(name, []).append(node)
    found = set()
    for module, name, names, defaulted in defs:
        for param in defaulted:
            at = names.index(param) if param in names else float("inf")  # keyword-only
            passed = {len(c.args) > at or any(isinstance(arg, ast.Starred) for arg in c.args)
                      or any(k.arg in (param, None) for k in c.keywords)
                      for c in calls.get(name, [])}
            if len(passed) == 1:  # some call, and every one alike
                found.add((module, name, param))
    return found


def test_every_default_is_both_used_and_overridden():
    assert one_value_defaults(SRC) == set(ONE_VALUE_DEFAULTS_ALLOWED)
