"""Repo benchmark: the mesh monitoring loop, end to end and layer by layer.

Run from the repository root::

    python3 perfbench/run.py --workload mesh_400 --seed 1 --seconds 30 --trace 0

``--trace 0`` runs one untimed warm-up, then repeats the workload's fixed
work while one more repetition fits in ``--seconds`` (at least once) and
reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1`` runs
the fixed work once untraced and once with every layer's entry points
wrapped in timing spans, and reports the per-layer metrics.  Either way the last line of standard output is
one JSON object; the lines before it record the run conditions, the
sample count behind each metric and the output digest.

The program under test is imported from ``src/`` of the current
directory, never from anywhere else; without it the benchmark exits
with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
from pathlib import Path
from typing import List

ROOT = Path.cwd()
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: Each run's SQLite files go to a directory of its own under here; the
#: run removes its directory at exit, and this one once it is empty.
WORK_PARENT = ROOT / ".perfbench_work"


def _refuse(reason: str) -> None:
    print(f"perfbench: {reason}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Put ``./src`` and the benchmark package first on the import path."""
    if not (SRC / "repro" / "__init__.py").is_file():
        _refuse(f"no program to measure: {SRC / 'repro'} is missing")
    sys.path[:0] = [str(SRC), str(BENCH_DIR.parent)]
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        _refuse(f"imported repro from {repro.__file__}, not from {SRC}")


def _make_workdir() -> str:
    """A scratch directory of this run's own under ``WORK_PARENT``."""
    while True:
        WORK_PARENT.mkdir(exist_ok=True)
        try:
            return tempfile.mkdtemp(dir=WORK_PARENT)
        except FileNotFoundError:  # another run removed the empty parent
            continue


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    from perfbench import workloads
    from perfbench.harness import end_to_end, traced

    workdir = _make_workdir()
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
              f"trace={args.trace} nproc={os.cpu_count()} "
              f"python={platform.python_version()} platform={platform.platform()}")
        report = traced(workload) if args.trace else end_to_end(workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK_PARENT.rmdir()
        except OSError:  # another run still has its directory there
            pass
    for note in report.notes:
        print(f"# {note}")
    print(json.dumps(report.document()))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
