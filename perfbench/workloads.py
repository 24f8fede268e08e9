"""The three benchmark workloads.

Each workload is single-process, single-threaded and a closed loop: the
next operation starts when the previous one returns.  A workload builds
its inputs from the seed before anything is timed, runs the workload
its ``warm_up`` returns once untimed, then repeats ``setup`` (timed as
set-up) and ``run`` (timed as the fixed work) and checks the program's
outputs after every repetition.

* ``mesh_400`` -- the paper's whole loop: ``Scenario.run()`` at 400 nodes
  through PHY, MAC, DV mesh, agent, JSON uplink and ``MonitorServer``.
* ``ingest_replay`` -- a seeded 400-node telemetry stream replayed into
  ``MonitorServer.ingest_json`` over a file-backed SQLite store: the
  server's write path alone.
* ``dashboard_live`` -- a 25-node network's dashboard refreshed every 15
  simulated seconds while telemetry keeps arriving: the read path.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.monitor import metrics
from repro.monitor.dashboard import Dashboard
from repro.monitor.fleet import fleet_overview
from repro.monitor.ingest import DEFAULT_NETWORK_ID
from repro.monitor.server import MonitorServer
from repro.monitor.sqlitestore import SqliteMetricsStore, sqlite_store_factory
from repro.scenario.config import MonitorMode, ScenarioConfig, WorkloadSpec
from repro.scenario.runner import Scenario

from perfbench.layers import Tracer
from perfbench.stream import REPORT_INTERVAL_S, TelemetryStream, generate

#: Batches between two fleet-page reads on the write-heavy workloads.
FLEET_POLL_EVERY = 10

#: Scenario seed of the one run ``mesh_400`` simulates.  A scenario seed
#: draws the whole world: link shadowing, and so routing and congestion
#: near the gateway, and every node's traffic phases.  Across ten seeds
#: the loop's wall time ranged from 17 to 26 s, its view error from
#: 0.008 to 0.027 and its peak memory from 262 to 344 MB; re-drawing only
#: the traffic on one deployment still spread them by 11 to 28 %.  No
#: bound could hold that, so the benchmark seed does not reach this
#: workload: every run simulates the same scenario, and every run is a
#: repeat whose digest must match.
SCENARIO_SEED = 7

#: Mesh-stack counters, zero on the workloads that run no mesh.
NOT_MESH = {
    "phy.reach_hits": 0.0,
    "phy.reach_rebuilds": 0.0,
    "agent.records_captured": 0.0,
    "uplink.batches": 0.0,
}


@dataclass
class RepResult:
    """What one repetition of a workload produced."""

    wall_s: float
    ingest_s: List[float]
    ingest_records: int
    refresh_s: List[float]
    view_pdr_error: float
    attempted: int
    failed: int
    problems: List[str]
    digest: str
    #: Per-layer counters read from the program after the run.
    counters: Dict[str, float]


class IngestProbe:
    """Times each ``ingest_json`` call on its way to the server.

    It is also the ``ingest_target`` handed to ``Scenario``, so the
    mesh workload's uplinks reach the server through it.  Every
    ``poll_every`` batches it runs ``refresh`` (a dashboard read) and
    times that too.
    """

    def __init__(self, poll_every: int = 0) -> None:
        self.server: Optional[MonitorServer] = None
        self.refresh: Optional[Callable[[], Any]] = None
        self.poll_every = poll_every
        self.ingest_s: List[float] = []
        self.refresh_s: List[float] = []
        self.accepted = 0
        self.rejected = 0

    def ingest_json(self, raw: bytes):
        start = time.perf_counter()
        result = self.server.ingest_json(raw)
        self.ingest_s.append(time.perf_counter() - start)
        if result.ok:
            self.accepted += result.accepted_packets + result.accepted_status
        else:
            self.rejected += 1
        if self.poll_every and len(self.ingest_s) % self.poll_every == 0:
            self.timed_refresh()
        return result

    def timed_refresh(self) -> Any:
        start = time.perf_counter()
        document = self.refresh()
        self.refresh_s.append(time.perf_counter() - start)
        return document


def _fleet_page(server: MonitorServer, clock: Callable[[], float]) -> Callable[[], Any]:
    return lambda: fleet_overview(server, clock(), report_interval_s=REPORT_INTERVAL_S)


def _traced(tracer: Optional[Tracer], refresh: Callable) -> Callable:
    return refresh if tracer is None else tracer.wrap_refresh(refresh)


def _digest_records(hasher: "hashlib._Hash", store: Any) -> None:
    for record in store.packet_records():
        hasher.update(repr(record).encode())
    for node in store.nodes():
        for record in store.status_records(node):
            hasher.update(repr(record).encode())


def _stored_records(store: Any) -> int:
    return store.packet_record_count() + store.status_record_count()


def _pdr_error(store: Any, truth: Dict[Tuple[int, int], float], **window: float) -> float:
    observed = metrics.pdr_matrix(store, **window)
    errors = [
        abs(observed[pair].pdr - true)
        for pair, true in truth.items()
        if pair in observed and observed[pair].sent > 0
    ]
    if not errors:
        raise ValueError("no (src, dst) pair is visible on the dashboard")
    return sum(errors) / len(errors)


def _server_counters(server: MonitorServer) -> Dict[str, float]:
    stats = server.stats
    seen = stats.records_accepted + stats.duplicates
    flushes = 0
    for shard in server.registry:
        flush_stats = getattr(shard.store, "flush_stats", None)
        if flush_stats is not None:
            flushes += flush_stats.flushes
    return {
        "server.batches": float(stats.batches_ok),
        "server.records_accepted": float(stats.records_accepted),
        "server.duplicates": float(stats.duplicates),
        "server.dedup_ratio": stats.duplicates / seen if seen else 0.0,
        "server.alert_sweeps": float(server.alert_sweeps),
        "store.flushes": float(flushes),
    }


# -- mesh_400 ----------------------------------------------------------------


class Mesh:
    """The full loop: ``run_scenario`` on a DV grid mesh with OOB uplinks."""

    name = "mesh_400"

    def __init__(self, seed: int, toy: bool = False) -> None:
        del seed  # see SCENARIO_SEED
        self.config = ScenarioConfig(
            seed=SCENARIO_SEED,
            n_nodes=25 if toy else 400,
            protocol="dv",
            monitor_mode=MonitorMode.OUT_OF_BAND,
            uplink_loss=0.0,
            report_interval_s=REPORT_INTERVAL_S,
            warmup_s=120.0 if toy else 600.0,
            duration_s=240.0 if toy else 1200.0,
            cooldown_s=60.0,
            workload=WorkloadSpec(kind="periodic", pattern="convergecast"),
        )

    def warm_up(self) -> "Mesh":
        """A toy-sized loop, run untimed first: a full one takes half a minute."""
        return Mesh(SCENARIO_SEED, toy=True)

    def setup(self) -> Dict[str, Any]:
        probe = IngestProbe(poll_every=FLEET_POLL_EVERY)
        scenario = Scenario(self.config, ingest_target=probe)
        probe.server = scenario.server
        probe.refresh = _fleet_page(scenario.server, lambda: scenario.sim.now)
        return {"scenario": scenario, "probe": probe}

    def run(self, state: Dict[str, Any], tracer: Optional[Tracer]) -> float:
        probe = state["probe"]
        probe.refresh = _traced(tracer, probe.refresh)
        start = time.perf_counter()
        state["result"] = state["scenario"].run()
        return time.perf_counter() - start

    def check(self, state: Dict[str, Any], wall: float) -> RepResult:
        scenario, probe, result = state["scenario"], state["probe"], state["result"]
        clients = result.clients.values()
        sent = sum(client.stats.batches_sent for client in clients)
        failed = sum(client.stats.batches_failed for client in clients)
        shipped = sum(client.stats.records_shipped for client in clients)
        store = result.store
        stored = _stored_records(store)
        problems = []
        if stored != shipped:
            problems.append(f"server stored {stored} records, clients had {shipped} acked")
        if result.server.stats.records_accepted != stored:
            problems.append(
                f"server accepted {result.server.stats.records_accepted} records "
                f"but its store holds {stored}"
            )
        if probe.rejected:
            problems.append(f"server refused {probe.rejected} batches")
        config = self.config
        error = _pdr_error(
            store,
            result.truth.pair_pdr(),
            since=config.warmup_s,
            until=config.warmup_s + config.duration_s,
        )
        hasher = hashlib.sha256()
        hasher.update(f"emitted={result.trace.total_emitted}".encode())
        for event in result.trace.events():
            hasher.update(
                repr((event.time, event.kind, event.node, sorted(event.data.items()))).encode()
            )
        _digest_records(hasher, store)
        counters = _server_counters(result.server)
        stats = scenario.channel.reachability.stats()
        submitted = sum(uplink.stats.batches_submitted for uplink in result.uplinks.values())
        counters.update({
            "phy.reach_hits": float(stats.get("hits", 0)),
            "phy.reach_rebuilds": float(stats.get("rebuilds", 0)),
            "agent.records_captured": float(
                sum(client.stats.records_captured for client in clients)
            ),
            "uplink.batches": float(submitted),
        })
        return RepResult(
            wall_s=wall,
            ingest_s=probe.ingest_s,
            ingest_records=probe.accepted,
            refresh_s=probe.refresh_s,
            view_pdr_error=error,
            attempted=sent,
            failed=failed + probe.rejected,
            problems=problems,
            digest=hasher.hexdigest(),
            counters=counters,
        )

    def teardown(self, state: Dict[str, Any]) -> None:
        state["scenario"].close()


# -- ingest_replay -------------------------------------------------------------


class IngestReplay:
    """A 400-node telemetry stream replayed into the server's write path."""

    name = "ingest_replay"
    #: Simulated seconds of telemetry replayed per repetition: six report
    #: intervals and six alert sweeps, short enough for about ten
    #: repetitions in a run.
    DURATION_S = 360.0

    def __init__(self, seed: int, workdir: str, toy: bool = False) -> None:
        self.workdir = workdir
        self.stream: TelemetryStream = generate(
            seed, n_nodes=16 if toy else 400, duration_s=600.0 if toy else self.DURATION_S
        )
        self._template = os.path.join(workdir, "template.sqlite")
        SqliteMetricsStore(self._template).close()
        self._next_dir = self._provision()

    def _provision(self) -> str:
        """A directory holding a created, empty store for the next set-up.

        Creating a SQLite file waits on the disk, whose latency varied
        tenfold between runs on a shared host; set-up opens the store, as
        a restarted server does, and the creation is done beforehand.
        """
        directory = tempfile.mkdtemp(dir=self.workdir)
        shutil.copyfile(self._template, os.path.join(directory, f"{DEFAULT_NETWORK_ID}.sqlite"))
        return directory

    def warm_up(self) -> "IngestReplay":
        return self

    def setup(self) -> Dict[str, Any]:
        directory = self._next_dir
        clock = [0.0]
        server = MonitorServer(
            store_factory=sqlite_store_factory(directory), clock=lambda: clock[0]
        )
        server.registry.default  # opens the network's SQLite file
        probe = IngestProbe(poll_every=FLEET_POLL_EVERY)
        probe.server = server
        probe.refresh = _fleet_page(server, lambda: clock[0])
        return {"dir": directory, "clock": clock, "server": server, "probe": probe}

    def run(self, state: Dict[str, Any], tracer: Optional[Tracer]) -> float:
        clock, probe = state["clock"], state["probe"]
        probe.refresh = _traced(tracer, probe.refresh)
        ingest = probe.ingest_json
        start = time.perf_counter()
        for batch in self.stream.batches:
            clock[0] = batch.at
            ingest(batch.raw)
        return time.perf_counter() - start

    def check(self, state: Dict[str, Any], wall: float) -> RepResult:
        server, probe = state["server"], state["probe"]
        stream = self.stream
        server.flush()
        store = server.store
        problems = []
        if server.stats.records_accepted != stream.distinct_records:
            problems.append(
                f"accepted {server.stats.records_accepted} records, "
                f"generated {stream.distinct_records} distinct"
            )
        if server.stats.duplicates != stream.retried_records:
            problems.append(
                f"{server.stats.duplicates} duplicates, "
                f"{stream.retried_records} records were in retried batches"
            )
        if _stored_records(store) != stream.distinct_records:
            problems.append(f"store holds {_stored_records(store)} records")
        hasher = hashlib.sha256()
        _digest_records(hasher, store)
        return RepResult(
            wall_s=wall,
            ingest_s=probe.ingest_s,
            ingest_records=probe.accepted,
            refresh_s=probe.refresh_s,
            view_pdr_error=_pdr_error(store, stream.true_pdr),
            attempted=len(probe.ingest_s),
            failed=probe.rejected,
            problems=problems,
            digest=hasher.hexdigest(),
            counters={**NOT_MESH, **_server_counters(server)},
        )

    def teardown(self, state: Dict[str, Any]) -> None:
        state["server"].close()
        shutil.rmtree(state["dir"], ignore_errors=True)
        self._next_dir = self._provision()


# -- dashboard_live ------------------------------------------------------------


class DashboardLive:
    """Dashboard refreshes while a 25-node network keeps reporting."""

    name = "dashboard_live"
    #: Simulated seconds of telemetry ingested between two refreshes.
    STEP_S = 15.0
    #: History preloaded before the first refresh: one PDR window.
    PRELOAD_S = 1800.0

    def __init__(self, seed: int, toy: bool = False) -> None:
        # 120 refreshes put 12 samples beyond p90.
        self.steps = 12 if toy else 120
        self.stream = generate(
            seed,
            n_nodes=9 if toy else 25,
            duration_s=self.PRELOAD_S + self.steps * self.STEP_S,
            peers=6,
        )
        self.preload = sum(1 for batch in self.stream.batches if batch.at <= self.PRELOAD_S)

    def warm_up(self) -> "DashboardLive":
        return self

    def setup(self) -> Dict[str, Any]:
        clock = [0.0]
        server = MonitorServer(clock=lambda: clock[0])
        for batch in self.stream.batches[: self.preload]:
            clock[0] = batch.at
            server.ingest_json(batch.raw)
        dashboard = Dashboard(
            server.store, monitor_server=server, report_interval_s=REPORT_INTERVAL_S
        )
        return {"clock": clock, "server": server, "dashboard": dashboard}

    def run(self, state: Dict[str, Any], tracer: Optional[Tracer]) -> float:
        clock, server, dashboard = state["clock"], state["server"], state["dashboard"]
        batches = self.stream.batches
        probe = IngestProbe()
        probe.server = server
        ingest = probe.ingest_json

        def full_refresh() -> Dict[str, Any]:
            now = clock[0]
            document = dashboard.to_json_dict(now)
            fleet_overview(server, now, report_interval_s=REPORT_INTERVAL_S)
            return document

        probe.refresh = _traced(tracer, full_refresh)
        seen = {batch.node for batch in batches[: self.preload]}
        index = self.preload
        now = self.PRELOAD_S
        problems: List[str] = []
        failed = 0
        document: Dict[str, Any] = {}
        start = time.perf_counter()
        for _step in range(self.steps):
            now += self.STEP_S
            while index < len(batches) and batches[index].at <= now:
                clock[0] = batches[index].at
                ingest(batches[index].raw)
                seen.add(batches[index].node)
                index += 1
            clock[0] = now
            try:
                document = probe.timed_refresh()
            except Exception:  # a refresh that raises is a failed operation
                traceback.print_exc(file=sys.stderr)
                failed += 1
                continue
            listed = {row["node"] for row in document["nodes"]}
            if listed != seen:
                problems.append(
                    f"refresh at t={now:.0f} lists {len(listed)} nodes, {len(seen)} reported"
                )
        wall = time.perf_counter() - start
        state.update(probe=probe, problems=problems, failed=failed, document=document)
        return wall

    def check(self, state: Dict[str, Any], wall: float) -> RepResult:
        server, probe, problems = state["server"], state["probe"], state["problems"]
        if probe.rejected:
            problems.append(f"server refused {probe.rejected} batches")
        stable = {key: value for key, value in state["document"].items() if key != "server"}
        digest = hashlib.sha256(
            json.dumps(stable, sort_keys=True, default=str).encode()
        ).hexdigest()
        truth = self.stream.true_pdr
        return RepResult(
            wall_s=wall,
            ingest_s=probe.ingest_s,
            ingest_records=probe.accepted,
            refresh_s=probe.refresh_s,
            view_pdr_error=_pdr_error(server.store, truth),
            attempted=self.steps,
            failed=state["failed"],
            problems=problems,
            digest=digest,
            counters={**NOT_MESH, **_server_counters(server)},
        )

    def teardown(self, state: Dict[str, Any]) -> None:
        state["server"].close()


WORKLOADS = ("mesh_400", "ingest_replay", "dashboard_live")


def make(name: str, seed: int, workdir: str, toy: bool = False):
    """The workload called ``name``, with its inputs built from ``seed``."""
    if name == "mesh_400":
        return Mesh(seed, toy=toy)
    if name == "ingest_replay":
        return IngestReplay(seed, workdir, toy=toy)
    if name == "dashboard_live":
        return DashboardLive(seed, toy=toy)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
