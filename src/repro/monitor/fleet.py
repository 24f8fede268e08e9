"""Fleet-level aggregation across every network a server monitors.

One monitoring server ingests telemetry from many independent mesh
networks (the smart-campus deployment shape); the fleet overview is the
operator's first screen: one tile per network — node count, health,
PDR, ingest counters, last activity — plus fleet totals and the top-N
unhealthiest networks that deserve attention first.

Incremental tiles
-----------------

Until the push pipeline landed, every overview request re-scanned every
network's store (``O(networks × records)`` — 19 ms at 8 networks and
unusable at 512).  Now each :class:`~repro.monitor.registry.NetworkShard`
owns a :class:`TileAggregate` the ingest path feeds record-by-record:
per-node liveness/battery/duty snapshots and per-pair delivery counters
mirroring :func:`repro.monitor.metrics.pdr_matrix`'s matching rules with
bounded memory.  :func:`materialized_tile` renders a tile from those
aggregates: the formula runs only for nodes whose inputs changed since
the previous read or whose last batch is older than one report
interval, and every other node costs one comparison (see
:meth:`TileAggregate.health`).  :func:`fleet_overview` assembles
tiles into the overview document and caches it on the server keyed by
ingest progress, so steady-state reads are O(1) snapshot hits no matter
how many networks are resident.

Two documented deviations from the scan-based tiles: the tile's
:meth:`TileAggregate.pdr` and :meth:`TileAggregate.health` delivery
counters are cumulative since shard creation rather than windowed, and
a cached overview reflects the state as of the last ingest delta *or*
the last elapsed ``report_interval_s`` time bucket, whichever is newer
— so liveness-driven health keeps decaying while a fleet is silent
instead of freezing at its last healthy snapshot.

Windowed delivery
-----------------

The shard's alert sweep needs delivery over a trailing window, not
since creation.  :class:`DeliveryLedger` keeps exactly the records
``pdr_matrix`` could count — unicast DATA first-attempt OUTs at the
origin and INs at the destination, as (timestamp, packet id) — so a
windowed query equals ``pdr_matrix`` over the same ``[since, until]``,
and the sweep reads no store.  Sweeps run on the server clock, which
only moves forward, so after each sweep the ledger forgets what lies
before that sweep's widest window start: its memory is one window of
this traffic, not history.  Two consequences, both outside the server's
own sweep cadence: a direct ``MonitorServer.sweep_alerts(now)`` whose
window reaches back past that horizon counts only what the ledger still
holds (fewer sent/delivered than the store would), and records the
in-memory store's per-node retention bound discarded inside a window
are still counted by the ledger while ``pdr_matrix`` no longer sees
them.

The aggregates are mutated by the ingest path under the server lock;
HTTP handler threads therefore read them through
:meth:`~repro.monitor.server.MonitorServer.materialize_tile` /
:meth:`~repro.monitor.server.MonitorServer.materialize_tiles`, which
take the same lock (:func:`materialized_tile` itself is lock-free and
is only called directly where the lock is already held).
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.mesh.addressing import BROADCAST
from repro.mesh.packet import PacketType
from repro.monitor import health as health_mod
from repro.monitor.alerts import AlertInputs, NodeDelta, PairTable
from repro.monitor.records import Direction, PacketRecord, StatusRecord
from repro.monitor.storage import TelemetryStore

if TYPE_CHECKING:
    from repro.monitor.registry import NetworkShard
    from repro.monitor.server import MonitorServer

#: Bound on per-pair pending packet-id match state (ids kept while the
#: other endpoint's observation has not arrived yet).
DEFAULT_PENDING_IDS = 4096

_DATA_PTYPE = int(PacketType.DATA)

#: One ledger entry: (record timestamp, packet id).
_Entry = Tuple[float, int]


def _remember(ring: "OrderedDict[int, None]", key: int, bound: int) -> None:
    """Insert ``key`` into a bounded insertion-ordered set."""
    ring[key] = None
    if len(ring) > bound:
        ring.popitem(last=False)


class _NodeTelemetry:
    """One node's latest-state snapshot, fed at ingest time."""

    __slots__ = (
        "last_seen",
        "battery_v",
        "duty_utilisation",
        "queue_depth",
        "status_seq",
        "sent",
        "matched",
        "fresh_score",
    )

    def __init__(self) -> None:
        self.last_seen: Optional[float] = None
        self.battery_v: Optional[float] = None
        self.duty_utilisation: Optional[float] = None
        self.queue_depth: Optional[int] = None
        #: ``seq`` of the status record the snapshot above comes from.
        self.status_seq: Optional[int] = None
        #: Unicast DATA packets this node originated / saw delivered.
        self.sent = 0
        self.matched = 0
        #: :meth:`score` at liveness 1.0; None until computed and again
        #: whenever ``sent``, ``matched``, the duty or the battery change.
        self.fresh_score: Optional[float] = None

    def score(self, liveness: Optional[float]) -> float:
        """This node's :func:`~repro.monitor.health.combined_score`."""
        return health_mod.combined_score(
            liveness,
            health_mod.delivery_component(self.sent, self.matched),
            health_mod.spectrum_component(self.duty_utilisation),
            health_mod.battery_component(self.battery_v),
        )


class _PairDelivery:
    """Bounded incremental :func:`~repro.monitor.metrics.pdr_matrix` id
    matching for one (src, dst) pair.

    An id is sent once its origin reports a first-attempt OUT and
    matched once it has been seen at *both* endpoints, whichever side
    reported first.  Pending ids waiting for the other side live in
    bounded insertion-ordered sets, so per-pair memory does not grow
    with traffic; an id evicted before its match simply never matches
    (the same packet is then conservatively counted as undelivered).
    """

    __slots__ = ("_out_unmatched", "_out_matched", "_in_pending", "_bound")

    def __init__(self, bound: int) -> None:
        self._bound = bound
        self._out_unmatched: "OrderedDict[int, None]" = OrderedDict()
        self._out_matched: "OrderedDict[int, None]" = OrderedDict()
        self._in_pending: "OrderedDict[int, None]" = OrderedDict()

    def observe_out(self, packet_id: int) -> Optional[bool]:
        """Origin reported the send: None for a repeated report of an id
        already counted (``pdr_matrix`` counts each id once), else
        whether this completed a match."""
        if packet_id in self._out_unmatched or packet_id in self._out_matched:
            return None
        if packet_id in self._in_pending:
            del self._in_pending[packet_id]
            _remember(self._out_matched, packet_id, self._bound)
            return True
        _remember(self._out_unmatched, packet_id, self._bound)
        return False

    def observe_in(self, packet_id: int) -> bool:
        """Destination reported delivery; True when this completed a match."""
        if packet_id in self._out_matched or packet_id in self._in_pending:
            return False  # duplicate delivery report
        if packet_id in self._out_unmatched:
            del self._out_unmatched[packet_id]
            _remember(self._out_matched, packet_id, self._bound)
            return True
        _remember(self._in_pending, packet_id, self._bound)
        return False


class DeliveryLedger:
    """Windowed, exact :func:`~repro.monitor.metrics.pdr_matrix` counts.

    Per (src, dst) pair it keeps the ``(timestamp, packet_id)`` of each
    origin OUT and each destination IN that passed ``pdr_matrix``'s
    filters, so :meth:`table` counts distinct ids over an inclusive
    ``[since, until]`` exactly as ``pdr_matrix`` does over the same
    records; a record stamped later than ``until`` stays out of the
    window until a later query reaches it.

    Memory is bounded by the window, not by history:
    :meth:`forget_before` drops every entry older than the horizon, and
    an entry that arrives already older than it is not kept.  A query
    whose ``since`` lies before the horizon therefore undercounts by
    the dropped entries.
    """

    __slots__ = ("_pairs", "_horizon", "_entries")

    def __init__(self) -> None:
        #: pair -> (origin OUT entries, destination IN entries).
        self._pairs: Dict[Tuple[int, int], Tuple[List[_Entry], List[_Entry]]] = {}
        self._horizon = -math.inf
        self._entries = 0

    def __len__(self) -> int:
        """Entries held (the memory the ledger costs)."""
        return self._entries

    def add(self, pair: Tuple[int, int], timestamp: float, packet_id: int, sent: bool) -> None:
        """Keep one origin OUT (``sent``) or destination IN of ``pair``."""
        if timestamp < self._horizon:
            return  # no later window reaches it
        entries = self._pairs.get(pair)
        if entries is None:
            entries = self._pairs[pair] = ([], [])
        entries[0 if sent else 1].append((timestamp, packet_id))
        self._entries += 1

    def table(self, since: float, until: float) -> PairTable:
        """``{(src, dst): (sent, delivered)}`` over ``[since, until]``."""
        table: PairTable = {}
        for pair, (outs, ins) in self._pairs.items():
            sent = {packet_id for ts, packet_id in outs if since <= ts <= until}
            delivered = {packet_id for ts, packet_id in ins if since <= ts <= until}
            if sent or delivered:
                table[pair] = (len(sent), len(delivered & sent))
        return table

    def forget_before(self, horizon: float) -> None:
        """Drop every entry stamped before ``horizon`` (never moves back)."""
        if horizon <= self._horizon:
            return
        self._horizon = horizon
        kept = 0
        for pair, (outs, ins) in list(self._pairs.items()):
            outs[:] = [entry for entry in outs if entry[0] >= horizon]
            ins[:] = [entry for entry in ins if entry[0] >= horizon]
            if not outs and not ins:
                del self._pairs[pair]
            kept += len(outs) + len(ins)
        self._entries = kept


class TileAggregate(AlertInputs):
    """Everything a fleet tile needs, maintained incrementally at ingest.

    The ingest path calls :meth:`observe_batch` / :meth:`observe_packet`
    / :meth:`observe_status` for each accepted record (under the server
    lock — all methods are pure in-memory bookkeeping).  Reads then cost
    no store access: :meth:`pdr` is O(1), and :meth:`health` runs the
    formula only for the nodes whose inputs changed since the previous
    read or that went silent for more than one report interval.

    It is also what the shard's alert engine sweeps
    (:class:`~repro.monitor.alerts.AlertInputs`): :meth:`node_deltas`
    from the node snapshots, :meth:`pair_deliveries` from the windowed
    :attr:`deliveries` ledger.
    """

    def __init__(self, pending_ids: int = DEFAULT_PENDING_IDS) -> None:
        self._pending_ids = pending_ids
        self._nodes: Dict[int, _NodeTelemetry] = {}
        self._pairs: Dict[Tuple[int, int], _PairDelivery] = {}
        #: Unique unicast DATA ids sent / matched, summed over all pairs.
        self._sent = 0
        self._matched = 0
        #: The windowed delivery ledger the low-PDR sweep reads.
        self.deliveries = DeliveryLedger()

    # -- feeding ---------------------------------------------------------------

    def _node(self, node: int) -> _NodeTelemetry:
        telemetry = self._nodes.get(node)
        if telemetry is None:
            telemetry = _NodeTelemetry()
            self._nodes[node] = telemetry
        return telemetry

    def _pair(self, key: Tuple[int, int]) -> _PairDelivery:
        pair = self._pairs.get(key)
        if pair is None:
            pair = _PairDelivery(self._pending_ids)
            self._pairs[key] = pair
        return pair

    def observe_batch(self, node: int, now: float) -> None:
        """A batch from ``node`` was accepted at server time ``now``.

        The cached score stays valid: ``last_seen`` only decides whether
        :meth:`health` may use it.
        """
        self._node(node).last_seen = now

    def observe_packet(self, record: PacketRecord) -> None:
        """One accepted packet record (mirrors ``pdr_matrix`` filters)."""
        self._node(record.node)  # the observer is a known node
        if record.ptype != _DATA_PTYPE or record.dst == BROADCAST:
            return
        pair = (record.src, record.dst)
        if record.direction is Direction.OUT:
            if record.node != record.src or record.attempt != 1:
                return
            self.deliveries.add(pair, record.timestamp, record.packet_id, sent=True)
            matched = self._pair(pair).observe_out(record.packet_id)
            if matched is None:
                return  # a repeated origin report of an id already counted
            source = self._nodes[record.src]
            source.sent += 1
            self._sent += 1
        else:
            if record.node != record.dst:
                return
            self.deliveries.add(pair, record.timestamp, record.packet_id, sent=False)
            matched = self._pair(pair).observe_in(record.packet_id)
            if not matched:
                return
            # A match needs the origin's OUT, so the source is known.
            source = self._nodes[record.src]
        if matched:
            source.matched += 1
            self._matched += 1
        source.fresh_score = None

    def observe_status(self, record: StatusRecord) -> None:
        """One accepted status record: refresh the node's snapshot.

        The snapshot is the highest ``seq`` seen, like the store's
        ``latest_status``: a record that arrives after a newer one is
        ignored.
        """
        telemetry = self._node(record.node)
        if telemetry.status_seq is not None and record.seq < telemetry.status_seq:
            return
        telemetry.status_seq = record.seq
        telemetry.battery_v = record.battery_v
        telemetry.duty_utilisation = record.duty_utilisation
        telemetry.queue_depth = record.queue_depth
        telemetry.fresh_score = None

    def seed_from_store(self, store: TelemetryStore) -> None:
        """Replay an already populated store into the aggregates.

        Called once when a shard adopts an external store (the
        historical single-network API) so tiles start from the store's
        state; a freshly created store replays nothing.
        """
        for record in store.packet_records():
            self.observe_packet(record)
        for node in store.nodes():
            self._node(node)
            status = store.latest_status(node)
            if status is not None:
                self.observe_status(status)
            last = store.last_seen(node)
            if last is not None:
                self.observe_batch(node, last)

    # -- reading ---------------------------------------------------------------

    def node_delta(self, node: int) -> NodeDelta:
        """The node's current snapshot for O(delta) alert evaluation.

        Pure in-memory read (no store access) so the ingest path can
        call it under the server lock.  An unknown node yields an empty
        delta — every field None, so no rule can judge it yet.
        """
        telemetry = self._nodes.get(node)
        if telemetry is None:
            return NodeDelta(node=node)
        return NodeDelta(
            node=node,
            last_seen=telemetry.last_seen,
            battery_v=telemetry.battery_v,
            duty_utilisation=telemetry.duty_utilisation,
            queue_depth=telemetry.queue_depth,
        )

    def node_deltas(self) -> List[NodeDelta]:
        """Every known node's :meth:`node_delta`, sorted by node (the
        order and the node set of ``store.nodes()``)."""
        return [self.node_delta(node) for node in sorted(self._nodes)]

    def pair_deliveries(self, since: float, until: float) -> PairTable:
        """The ledger's windowed ``pdr_matrix`` counts (see
        :class:`DeliveryLedger` for what a query before its horizon
        returns)."""
        return self.deliveries.table(since, until)

    def forget_before(self, horizon: float) -> None:
        self.deliveries.forget_before(horizon)

    @property
    def node_count(self) -> int:
        return len(self._nodes)

    def pdr(self) -> float:
        """Aggregate delivery ratio across all unicast pairs (NaN if idle)."""
        return self._matched / self._sent if self._sent else math.nan

    def health(self, now: float, report_interval_s: float = 60.0) -> float:
        """Network health score by the :mod:`repro.monitor.health` formula.

        Liveness comes from the last accepted batch, delivery from the
        incremental match counters, spectrum and battery from the latest
        status snapshot.  A network with no data at all scores NaN.

        A node heard from at most one (positive) interval ago has
        liveness exactly 1.0 in float, so its score is its cached
        ``fresh_score``, recomputed only after another input changed.
        The cache does not depend on ``report_interval_s``, so callers
        reading at different intervals share it.  Every other node goes
        through the full formula.
        """
        cacheable = report_interval_s > 0
        scores: List[float] = []
        for telemetry in self._nodes.values():
            last_seen = telemetry.last_seen
            if cacheable and last_seen is not None and now - last_seen <= report_interval_s:
                score = telemetry.fresh_score
                if score is None:
                    score = telemetry.fresh_score = telemetry.score(1.0)
            else:
                score = telemetry.score(
                    health_mod.liveness_component(last_seen, now, report_interval_s)
                )
            scores.append(score)
        return health_mod.mean_score(scores)


def materialized_tile(
    shard: "NetworkShard",
    now: float,
    report_interval_s: float = 60.0,
) -> Dict[str, Any]:
    """One network's fleet tile from its incremental aggregates."""
    tile = shard.tile
    health = tile.health(now, report_interval_s=report_interval_s)
    pdr = tile.pdr()
    return {
        "network": shard.network_id,
        "nodes": tile.node_count,
        "health": None if math.isnan(health) else round(health, 1),
        "pdr": None if math.isnan(pdr) else round(pdr, 4),
        "batches_ingested": shard.batches_ingested,
        "records_ingested": shard.records_ingested,
        "dedup_hits": shard.dedup_hits,
        "queued_batches": shard.queued_batches,
        "last_batch_at": shard.last_batch_at,
    }


def network_tile(
    server: "MonitorServer",
    network_id: str,
    now: float,
    report_interval_s: float = 60.0,
) -> Optional[Dict[str, Any]]:
    """One network's fleet tile, or None for an unknown network."""
    shard = server.shard_for(network_id)
    if shard is None:
        return None
    # Through the server so the tile aggregates are read under the same
    # lock the ingest path mutates them with.
    return server.materialize_tile(shard, now, report_interval_s=report_interval_s)


def fleet_overview(
    server: "MonitorServer",
    now: float,
    report_interval_s: float = 60.0,
    top_n_unhealthy: int = 5,
) -> Dict[str, Any]:
    """The ``GET /api/v1/fleet`` document — a snapshot read, not a scan.

    Keys:
        now: server time the overview was computed at.
        networks: one tile per resident network, sorted by id.
        totals: fleet-wide sums (networks, nodes, batches, records).
        top_unhealthy: up to ``top_n_unhealthy`` tiles with the lowest
            defined health score, worst first — the triage list.

    The assembled document is cached on the server keyed by ingest
    progress (batches ingested, evictions, resident networks) plus the
    rendering parameters *and* a coarse time bucket
    (``now // report_interval_s``): steady-state reads between deltas
    return the cached snapshot in O(1), but a cached document never
    outlives one report interval — a fleet that goes entirely silent
    keeps re-scoring, so liveness-driven health and the triage list
    decay instead of freezing.  Treat the returned document as
    immutable.
    """
    key = server.fleet_version() + (
        report_interval_s,
        top_n_unhealthy,
        math.floor(now / report_interval_s),
    )
    cached = server.fleet_cache_get(key)
    if cached is not None:
        return cached
    tiles = server.materialize_tiles(now, report_interval_s=report_interval_s)
    totals = {
        "networks": len(tiles),
        "nodes": sum(int(tile["nodes"]) for tile in tiles),
        "batches_ingested": sum(int(tile["batches_ingested"]) for tile in tiles),
        "records_ingested": sum(int(tile["records_ingested"]) for tile in tiles),
        "network_evictions": server.registry.evictions,
    }
    scored = [tile for tile in tiles if tile["health"] is not None]
    scored.sort(key=lambda tile: float(tile["health"]))
    document = {
        "now": now,
        "networks": tiles,
        "totals": totals,
        "top_unhealthy": scored[:top_n_unhealthy],
    }
    server.fleet_cache_put(key, document)
    return document
