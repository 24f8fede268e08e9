"""Run a workload untraced (end-to-end metrics) or traced (per-layer metrics)."""

from __future__ import annotations

import gc
import json
import resource
import statistics
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List

from perfbench.layers import Tracer, self_time_total

_SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
#: End-to-end metric -> unit, as ``BENCHMARK.json`` declares them.
END_TO_END: Dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
#: Per-layer metric -> unit, as ``BENCHMARK.json`` declares them.
PER_LAYER: Dict[str, str] = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}

#: After the timed repetitions a run keeps setting up and tearing down
#: until it has MAX_SETUPS set-ups in all or has spent SETUP_BUDGET_S
#: doing so, and never has fewer than MIN_SETUPS.  A cheap set-up (under
#: a millisecond) is then a median of MAX_SETUPS samples.
MAX_SETUPS = 200
SETUP_BUDGET_S = 1.0
MIN_SETUPS = 11


def _quantile(values: List[float], q: int) -> float:
    """The q-th percentile (inclusive method; one sample is its own)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Report:
    """One run's result: the contract's JSON fields plus notes for people."""

    correct: bool
    attempted: int
    failed: int
    values: Dict[str, float]
    units: Dict[str, str]
    notes: List[str]

    def document(self) -> Dict[str, Any]:
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.values[name], "unit": unit}
                for name, unit in self.units.items()
            },
        }


def _check_notes(problems: List[str], digests: List[str]) -> List[str]:
    notes = [f"digest = {digest}" for digest in digests]
    return notes + [f"CHECK FAILED: {problem}" for problem in problems]


def _repetition(workload):
    """One set-up, run and check of ``workload``, untraced: (set-up s, result)."""
    # Collect the last repetition's garbage untimed, so no set-up or run
    # pays for its predecessor's.
    gc.collect()
    start = time.perf_counter()
    state = workload.setup()
    setup = time.perf_counter() - start
    try:
        return setup, workload.check(state, workload.run(state, tracer=None))
    finally:
        workload.teardown(state)


def _per_operation_median(runs: List[List[float]]) -> List[float]:
    """Each operation's median latency over the repetitions that ran it.

    Every repetition replays the same operations in the same order, so
    the i-th sample of each is the same operation.  A stall of the host
    lands on one repetition's copy of an operation and is voted out,
    while an operation that is slow every time keeps its place in the
    tail.
    """
    return [statistics.median(times) for times in zip(*runs)]


def end_to_end(workload, seconds: float) -> Report:
    """One untimed warm-up, then the fixed work, untraced, while another
    repetition fits in ``seconds`` (at least once)."""
    # Imports, code paths and allocator warm up on a repetition that is
    # checked but not timed (a toy-sized one where a full one is long).
    _, warm = _repetition(workload.warm_up())
    setups: List[float] = []
    reps = []
    started = time.perf_counter()
    last = 0.0
    # Start another repetition only if one as long as the last still
    # fits, so a run never overshoots ``seconds`` by a whole repetition.
    while not reps or time.perf_counter() + last <= started + seconds:
        start = time.perf_counter()
        setup, rep = _repetition(workload)
        setups.append(setup)
        reps.append(rep)
        last = time.perf_counter() - start
    gc.collect()
    # The budget is wall time spent here: the first set-up of a process
    # (lazy imports, cold caches) can alone exceed SETUP_BUDGET_S.
    extra_started = time.perf_counter()
    while len(setups) < MIN_SETUPS or (
        len(setups) < MAX_SETUPS and time.perf_counter() - extra_started < SETUP_BUDGET_S
    ):
        gc.collect()
        start = time.perf_counter()
        state = workload.setup()
        setups.append(time.perf_counter() - start)
        workload.teardown(state)

    problems = warm.problems + [problem for rep in reps for problem in rep.problems]
    for kind in ("ingest_s", "refresh_s"):
        counts = sorted({len(getattr(rep, kind)) for rep in reps})
        if len(counts) > 1:
            problems.append(f"repetitions of one seed timed {counts} operations in {kind}")
    ingest = _per_operation_median([rep.ingest_s for rep in reps])
    refresh = _per_operation_median([rep.refresh_s for rep in reps])
    digests = sorted({rep.digest for rep in reps})
    if len(digests) > 1:
        problems.append(f"repetitions of one seed disagree: {len(digests)} digests")
    errors = {rep.view_pdr_error for rep in reps}
    if len(errors) > 1:
        problems.append(f"repetitions of one seed disagree on view_pdr_error: {errors}")
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "ingest_records_per_s": statistics.median(
            rep.ingest_records / sum(rep.ingest_s) for rep in reps
        ),
        "ingest_p50_ms": 1e3 * _quantile(ingest, 50),
        "refresh_p50_ms": 1e3 * _quantile(refresh, 50),
        "view_pdr_error": reps[0].view_pdr_error,
        "peak_rss_mb": _peak_rss_mb(),
    }
    per_op = f"operations, each a median of {len(reps)} repetition(s)"
    samples = {
        "setup_s": f"{len(setups)} set-ups",
        "wall_s": f"{len(reps)} repetition(s)",
        "ingest_records_per_s": f"{len(reps)} repetition(s)",
        "ingest_p50_ms": f"{len(ingest)} {per_op}",
        "refresh_p50_ms": f"{len(refresh)} {per_op}",
        "view_pdr_error": f"{len(reps)} repetition(s)",
        "peak_rss_mb": "the whole process",
    }
    notes = [
        f"{name} = {values[name]:.6g} {unit} from {samples[name]}"
        for name, unit in END_TO_END.items()
    ]
    # The tails are printed for people but not bounded: with one
    # repetition (mesh_400) nothing votes out the host's slow streaks,
    # and the share of operations they hit moves these percentiles by
    # more than any bound could hold.
    notes += [
        f"ingest_p99_ms = {1e3 * _quantile(ingest, 99):.6g} ms from {len(ingest)} {per_op} (not bounded)",
        f"refresh_p90_ms = {1e3 * _quantile(refresh, 90):.6g} ms from {len(refresh)} {per_op} (not bounded)",
    ]
    attempted = sum(rep.attempted for rep in reps)
    failed = sum(rep.failed for rep in reps)
    notes.append(f"error_rate = {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    notes += _check_notes(problems, digests)
    return Report(not problems, attempted, failed, values, END_TO_END, notes)


def traced(workload) -> Report:
    """The fixed work once untraced, then once with every layer wrapped."""
    state = workload.setup()
    try:
        plain = workload.check(state, workload.run(state, tracer=None))
    finally:
        workload.teardown(state)
    del state
    gc.collect()
    # Patch before set-up: the scenario binds some entry points (timer
    # callbacks, engine events) while it is built.
    tracer = Tracer()
    tracer.install()
    try:
        state = workload.setup()
        tracer.reset()
        wall = workload.run(state, tracer=tracer)
    finally:
        tracer.uninstall()
    try:
        rep = workload.check(state, wall)
    finally:
        workload.teardown(state)
    values = tracer.metrics(rep.wall_s, rep.counters)
    values["trace.overhead"] = rep.wall_s / plain.wall_s
    problems = plain.problems + rep.problems
    if rep.digest != plain.digest:
        problems.append("the traced run's outputs differ from the untraced run's")
    notes = [
        f"traced wall {rep.wall_s:.3f} s = self times {self_time_total(values):.3f} s "
        f"+ unattributed {values['trace.unattributed_s']:.3f} s; untraced {plain.wall_s:.3f} s"
    ]
    notes += [f"{name} = {values[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    notes += _check_notes(problems, [rep.digest])
    return Report(not problems, rep.attempted, rep.failed, values, PER_LAYER, notes)
