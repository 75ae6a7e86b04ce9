"""List the lines of src/vetsim that the Tier-1 suite never executes.

    python3 tools/reach.py [pytest arguments]

Runs the Tier-1 command (pytest on tests/) in this process with a pytest
plugin that records, under a stdlib sys.settrace line tracer, the line events
of every frame whose code lives in src/vetsim. Tracing starts before
collection, so module and class bodies, which run at import, count too. It
compares them with every line the code objects compiled from src/vetsim hold
(co_lines), each code object's def line left out, and prints each line that
never ran as "module.function: source text".

tests/unreached_lines.json lists the lines allowed not to run, each by its
function and source text with the reason it stays. The exit status is
non-zero if the suite fails, if a line that never ran is not listed, or if a
listed line now runs. The two test_the_tick_keeps_its_call_budget cases are
deselected: they count calls under sys.setprofile, which the tracer inflates.
The run takes about four times as long as the suite alone.
"""

from __future__ import annotations

import json
import os
import sys
import time
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vetsim"
ALLOWED = ROOT / "tests" / "unreached_lines.json"
UNTRACEABLE = "test_the_tick_keeps_its_call_budget"


def code_lines(path: Path) -> dict:
    """{(first line, name) of each code object compiled from path: (function,
    its line numbers but its def line)}, function named module.qualified name.
    A module's own code starts on a line 0, which is left out too."""
    found = {}

    def walk(code, name):
        lines = {line for *_, line in code.co_lines() if line and line != code.co_firstlineno}
        found[code.co_firstlineno, code.co_name] = (name, lines)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                walk(const, f"{name}.{const.co_name}")

    walk(compile(path.read_text(), str(path), "exec"), path.stem)
    return found


class Reach:
    """The plugin: traces src/vetsim lines from configure to unconfigure and
    deselects the call-budget tests."""

    def __init__(self):
        self.hits = {}  # (file, first line, name) of a code object: its lines that ran
        self.in_src = {}  # a code object's file: whether it is in src/vetsim
        self.tests = 0

    def _call(self, frame, event, arg):
        code = frame.f_code
        if code.co_filename not in self.in_src:
            self.in_src[code.co_filename] = Path(code.co_filename).resolve().parent == SRC
        if not self.in_src[code.co_filename]:
            return None
        seen = self.hits.setdefault((code.co_filename, code.co_firstlineno, code.co_name), set())

        def line(frame, event, arg):
            if event == "line":
                seen.add(frame.f_lineno)
            return line

        return line

    def pytest_configure(self, config):
        sys.settrace(self._call)

    def pytest_unconfigure(self, config):
        sys.settrace(None)

    def pytest_collection_modifyitems(self, config, items):
        untraceable = [item for item in items if item.originalname == UNTRACEABLE]
        if untraceable:
            config.hook.pytest_deselected(items=untraceable)
            items[:] = [item for item in items if item.originalname != UNTRACEABLE]
        self.tests = len(items)

    def unreached(self) -> list:
        """(function, source text) of each src/vetsim line that never ran, in
        file and line order."""
        ran = {}
        for (file, first, name), lines in self.hits.items():
            ran.setdefault(Path(file).resolve(), {})[first, name] = lines
        missed = []
        for path in sorted(SRC.glob("*.py")):
            text = path.read_text().splitlines()
            missed += [(function, text[k - 1].strip()) for k, function in sorted(
                (k, function) for key, (function, lines) in code_lines(path).items()
                for k in lines - ran.get(path, {}).get(key, set()))]
        return missed


def main(args: list) -> int:
    os.chdir(ROOT)
    reach = Reach()
    start = time.perf_counter()
    status = pytest.main(["-q", "-p", "no:cacheprovider", *args], plugins=[reach])
    print(f"reach: {reach.tests} tests in {time.perf_counter() - start:.1f} s")
    if status != pytest.ExitCode.OK:
        print(f"reach: the suite exited {int(status)}; no lines checked")
        return int(status)
    allowed = {(entry["function"], entry["text"]) for entry in json.loads(ALLOWED.read_text())}
    missed = reach.unreached()
    for function, text in missed:
        print(f"{function}: {text}" + ("" if (function, text) in allowed else "  [not listed]"))
    for function, text in sorted(allowed - set(missed)):
        print(f"{function}: {text}  [listed, but it runs]")
    print(f"reach: {len(missed)} lines never ran")
    return int(set(missed) != allowed)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
