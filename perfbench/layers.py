"""Layer-attributed tracing from outside the program.

A traced run patches the public entry point of each layer with a timing
wrapper, runs the workload once, and restores every patch.  Spans nest:
a span's *self time* is its duration minus the durations of the spans
opened inside it, so the self times of all spans plus the time outside
any span add up to the traced wall time.

Span names follow the layer names the roadmap uses (``phy.*``, ``mac.*``,
``mesh.route``, ``agent.flush``, ``uplink.encode``,
``server.decode|dedup|store|tile|alert|stream``), so spans emitted by the
program itself can later replace these wrappers without renaming a
metric.

Engine events are attributed to the module that owns their callback by
wrapping ``Simulator.call_at``; ``call_every`` re-arms through
``call_at`` with its internal ``fire`` closure, which is unwrapped to the
periodic callback it fires.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.mesh.mac import CsmaMac
from repro.mesh.routing import RouteTable
from repro.monitor import fleet, health, metrics
from repro.monitor.alerts import AlertEngine
from repro.monitor.client import MonitorClient
from repro.monitor.codec import JsonCodec
from repro.monitor.fleet import TileAggregate
from repro.monitor.records import RecordBatch
from repro.monitor.rollup import IncrementalRollup
from repro.monitor.server import MonitorServer
from repro.monitor.sqlitestore import SqliteMetricsStore
from repro.monitor.storage import MetricsStore
from repro.monitor.stream.hub import StreamHub
from repro.phy.channel import Channel
from repro.phy.collision import CollisionModel
from repro.phy.regional import DutyCycleTracker
from repro.sim.engine import Simulator

#: Span name -> the per-layer self-time metric it is reported under.
SELF_TIME_METRICS: Dict[str, str] = {
    "sim.run": "sim.self_s",
    "sim.event": "sim.self_s",
    "phy.event": "phy.self_s",
    "phy.transmit": "phy.self_s",
    "phy.collision": "phy.collision_s",
    "mac.event": "mac.self_s",
    "mac.send": "mac.self_s",
    "mac.duty_cycle": "mac.duty_cycle_s",
    "mesh.event": "mesh.self_s",
    "mesh.receive": "mesh.self_s",
    "mesh.route": "mesh.route_s",
    "workload.event": "workload.self_s",
    "agent.event": "agent.flush_s",
    "agent.flush": "agent.flush_s",
    "uplink.event": "uplink.self_s",
    "uplink.encode": "uplink.encode_s",
    "server.event": "server.dedup_s",
    "server.ingest": "server.dedup_s",
    "server.decode": "server.decode_s",
    "server.store": "server.store_s",
    "server.tile": "server.tile_s",
    "server.rollup": "server.rollup_s",
    "server.stream": "server.stream_s",
    "server.alert": "server.alert_s",
    "store.flush": "store.flush_s",
    "store.read": "store.read_s",
    "read.refresh": "read.refresh_s",
    "read.health": "read.health_s",
    "read.pdr_matrix": "read.pdr_matrix_s",
}

#: Module prefix -> layer of an engine event whose callback lives there
#: (first match wins, so the more specific prefixes come first).
EVENT_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.mesh.mac", "mac"),
    ("repro.phy.", "phy"),
    ("repro.mesh.", "mesh"),
    ("repro.workloads.", "workload"),
    ("repro.monitor.client", "agent"),
    ("repro.monitor.uplink", "uplink"),
    ("repro.monitor.", "server"),
)


class Tracer:
    """Nested spans with self time, plus call and item counts."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.items: Counter = Counter()
        # One [child_seconds] cell per open span, innermost last.
        self._stack: List[List[float]] = []
        self._patches: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        """Forget what was recorded so far (the set-up's spans)."""
        self.self_s.clear()
        self.calls.clear()
        self.items.clear()

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` timed as one span named ``name`` per call."""
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            cell = [0.0]
            stack.append(cell)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                self_s[name] += duration - cell[0]
                calls[name] += 1
                if stack:
                    stack[-1][0] += duration

        return traced

    def wrap_iter(self, name: str, fn: Callable[..., Iterator]) -> Callable[..., Iterator]:
        """A generator function whose every resumption is a span.

        The consumer's own work between items stays in the consumer's
        span; only the time spent producing items counts here.
        """
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        items = self.items
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Iterator:
            calls[name] += 1
            iterator = iter(fn(*args, **kwargs))
            while True:
                cell = [0.0]
                stack.append(cell)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    duration = clock() - start
                    stack.pop()
                    self_s[name] += duration - cell[0]
                    if stack:
                        stack[-1][0] += duration
                items[name] += 1
                yield item

        return traced

    def wrap_refresh(self, fn: Callable[[], Any]) -> Callable[[], Any]:
        """A dashboard refresh as a ``read.refresh`` span that also counts
        the store records scanned inside it."""
        traced = self.wrap("read.refresh", fn)
        items = self.items

        def refresh() -> Any:
            before = items["store.read"]
            try:
                return traced()
            finally:
                items["read.refresh.records"] += items["store.read"] - before

        return refresh

    # -- patching ------------------------------------------------------------

    def _set(self, owner: Any, attribute: str, value: Any) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def patch_method(self, cls: type, attribute: str, name: str, iterator: bool = False) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, classmethod):
            self._set(cls, attribute, classmethod(self.wrap(name, original.__func__)))
            return
        wrapper = self.wrap_iter if iterator else self.wrap
        self._set(cls, attribute, wrapper(name, original))

    def patch_function(self, module: Any, attribute: str, name: str) -> None:
        """Wrap a module function and every ``from ... import`` copy of it."""
        original = getattr(module, attribute)
        traced = self.wrap(name, original)
        for loaded_name, loaded in list(sys.modules.items()):
            if not loaded_name.startswith("repro") or loaded is None:
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._set(loaded, key, traced)

    def patch_engine(self) -> None:
        """Attribute every engine event to the layer owning its callback."""
        original = Simulator.__dict__["call_at"]
        wrap = self.wrap
        span_for: Dict[Any, str] = {}

        def event_span(callback: Callable) -> str:
            target = callback
            code = getattr(target, "__code__", None)
            if code is not None and code.co_name == "fire" and target.__module__ == "repro.sim.engine":
                cells = dict(zip(code.co_freevars, target.__closure__ or ()))
                if "callback" in cells:
                    target = cells["callback"].cell_contents
            target = getattr(target, "__func__", target)
            key = getattr(target, "__code__", target)
            name = span_for.get(key)
            if name is None:
                module = getattr(target, "__module__", "") or ""
                layer = next(
                    (layer for prefix, layer in EVENT_LAYERS if module.startswith(prefix)),
                    "sim",
                )
                name = span_for[key] = f"{layer}.event"
            return name

        def call_at(sim: Simulator, time_s: float, callback: Callable, priority: int = 0):
            return original(sim, time_s, wrap(event_span(callback), callback), priority)

        self._set(Simulator, "call_at", call_at)

    def patch_receivers(self) -> None:
        """Count a node's frame handling as mesh time.

        Receptions are delivered from inside the PHY's frame-completion
        event, through the callback each node registers with
        ``Channel.attach``; that callback is wrapped as it is registered.
        """
        original = Channel.__dict__["attach"]
        wrap = self.wrap

        def attach(channel: Channel, address: int, on_receive: Callable, is_listening: Callable):
            return original(channel, address, wrap("mesh.receive", on_receive), is_listening)

        self._set(Channel, "attach", attach)

    def install(self) -> None:
        """Patch every layer's public entry points (see the reading guide)."""
        self.patch_engine()
        self.patch_receivers()
        self.patch_method(Simulator, "run", "sim.run")
        self.patch_method(Channel, "transmit", "phy.transmit")
        self.patch_method(CollisionModel, "survives", "phy.collision")
        self.patch_method(CsmaMac, "send", "mac.send")
        self.patch_method(DutyCycleTracker, "can_transmit", "mac.duty_cycle")
        self.patch_method(RouteTable, "apply_vector", "mesh.route")
        self.patch_method(MonitorClient, "flush", "agent.flush")
        self.patch_method(JsonCodec, "encode", "uplink.encode")
        self.patch_method(MonitorServer, "ingest_json", "server.ingest")
        self.patch_method(RecordBatch, "from_json_bytes", "server.decode")
        for store_cls in (MetricsStore, SqliteMetricsStore):
            for attribute in ("add_packet_records", "add_status_records", "note_batch"):
                self.patch_method(store_cls, attribute, "server.store")
            for attribute in ("packet_records", "status_records"):
                self.patch_method(store_cls, attribute, "store.read", iterator=True)
        for attribute in ("maybe_flush", "flush"):
            self.patch_method(SqliteMetricsStore, attribute, "store.flush")
        for attribute in (
            "observe_batch", "observe_packet", "observe_status", "node_delta", "health", "pdr",
        ):
            self.patch_method(TileAggregate, attribute, "server.tile")
        self.patch_function(fleet, "materialized_tile", "server.tile")
        for attribute in ("add", "drain_updates"):
            self.patch_method(IncrementalRollup, attribute, "server.rollup")
        self.patch_method(StreamHub, "publish", "server.stream")
        for attribute in ("observe", "evaluate_changes"):
            self.patch_method(AlertEngine, attribute, "server.alert")
        self.patch_function(health, "node_health", "read.health")
        self.patch_function(metrics, "pdr_matrix", "read.pdr_matrix")

    def uninstall(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- results -------------------------------------------------------------

    def metrics(self, wall_s: float, counters: Dict[str, float]) -> Dict[str, float]:
        """Per-layer metrics of a traced run of ``wall_s``.

        ``counters`` are the program's own counters read after the run;
        ``uplink.batches`` among them is the base of
        ``uplink.encodes_per_batch``.
        """
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} span(s) still open")
        out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        for name, seconds in self.self_s.items():
            out[SELF_TIME_METRICS[name]] += seconds
        out["trace.wall_s"] = wall_s
        out["trace.unattributed_s"] = wall_s - sum(self.self_s.values())
        calls = self.calls
        out["sim.events"] = float(sum(
            count for name, count in calls.items() if name.endswith(".event")
        ))
        for metric, span in (
            ("phy.frames", "phy.transmit"),
            ("phy.collision_calls", "phy.collision"),
            ("mac.sends", "mac.send"),
            ("mac.duty_cycle_calls", "mac.duty_cycle"),
            ("mesh.route_calls", "mesh.route"),
            ("agent.flushes", "agent.flush"),
            ("uplink.encodes", "uplink.encode"),
            ("server.tile_calls", "server.tile"),
            ("server.stream_events", "server.stream"),
            ("read.pdr_matrix_calls", "read.pdr_matrix"),
        ):
            out[metric] = float(calls[span])
        out["store.records_scanned"] = float(self.items["store.read"])
        refreshes = calls["read.refresh"]
        out["read.records_scanned_per_refresh"] = (
            self.items["read.refresh.records"] / refreshes if refreshes else 0.0
        )
        counters = dict(counters)
        batches = counters.pop("uplink.batches", 0.0)
        out["uplink.encodes_per_batch"] = out["uplink.encodes"] / batches if batches else 0.0
        out.update(counters)
        return out


def self_time_total(layer_metrics: Dict[str, float]) -> float:
    """Sum of every self-time metric (for the additivity self-check)."""
    return sum(layer_metrics[metric] for metric in set(SELF_TIME_METRICS.values()))
