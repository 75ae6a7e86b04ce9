"""Record the reference outputs that the benchmark checks every run against.

Runs each simulating workload once per seed in ``workloads.SEEDS`` through
``vetsim.cli.main`` and writes ``reference.json`` next to this file. The
replay workload re-plots a survey bundle, so it uses the survey entries.
Re-record only when a change is meant to alter the program's outputs.

    python3 perfbench/record_reference.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads
from workloads import SRC, WORK


def main() -> int:
    sys.path.insert(0, str(SRC))
    from vetsim.cli import main as cli_main

    reference = {"seeds": list(workloads.SEEDS)}
    for cls in (workloads.Survey, workloads.CompareDropout):
        workload = cls()
        entries = reference[workload.reference_key] = {}
        for seed in workloads.SEEDS:
            WORK.mkdir(exist_ok=True)
            work = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK))
            try:
                out = work / "out"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli_main(workload.argv(seed, out))
                if code != 0:
                    print(f"{workload.name} seed {seed}: exit {code}", file=sys.stderr)
                    return 1
                entries[str(seed)] = workload.record(out)
            finally:
                shutil.rmtree(work, ignore_errors=True)
                with contextlib.suppress(OSError):
                    WORK.rmdir()
            print(f"{workload.name} seed {seed} recorded", flush=True)
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
