"""Metric aggregations over the metrics store.

These functions compute everything the dashboard shows, from raw packet
and status records:

* per-link quality (RSSI/SNR statistics per directed radio link),
* packet delivery ratio per (src, dst) pair, correlated by the
  origin-assigned packet id observed at both ends,
* traffic matrix (frames/bytes originated per pair),
* per-node airtime and duty-cycle utilisation,
* end-to-end delivery latency,
* per-packet route reconstruction (which nodes transmitted the packet),
* traffic composition by packet type,
* the network graph as reported by the nodes' own neighbor tables.

Every function takes one store, and on a multi-tenant server each
network has its own store (its shard), so all aggregations here are
naturally network-scoped — nothing ever mixes tenants; fleet-level
rollups live in :mod:`repro.monitor.fleet`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.mesh.addressing import BROADCAST
from repro.mesh.packet import PacketType
from repro.monitor.records import Direction
from repro.monitor.storage import TelemetryStore


@dataclass
class LinkQuality:
    """RSSI/SNR statistics for one directed link (tx -> rx)."""

    tx: int
    rx: int
    frames: int = 0
    rssi_sum: float = 0.0
    rssi_min: float = math.inf
    rssi_max: float = -math.inf
    snr_sum: float = 0.0

    def add(self, rssi: float, snr: float) -> None:
        self.frames += 1
        self.rssi_sum += rssi
        self.snr_sum += snr
        self.rssi_min = min(self.rssi_min, rssi)
        self.rssi_max = max(self.rssi_max, rssi)

    @property
    def rssi_mean(self) -> float:
        return self.rssi_sum / self.frames if self.frames else math.nan

    @property
    def snr_mean(self) -> float:
        return self.snr_sum / self.frames if self.frames else math.nan


def link_quality(
    store: TelemetryStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[Tuple[int, int], LinkQuality]:
    """Per-directed-link quality from IN records (prev_hop -> observer)."""
    links: Dict[Tuple[int, int], LinkQuality] = {}
    for record in store.packet_records(direction=Direction.IN, since=since, until=until):
        if record.rssi_dbm is None or record.snr_db is None:
            continue
        key = (record.prev_hop, record.node)
        link = links.get(key)
        if link is None:
            link = LinkQuality(tx=record.prev_hop, rx=record.node)
            links[key] = link
        link.add(record.rssi_dbm, record.snr_db)
    return links


@dataclass
class PairDelivery:
    """Observed delivery between one (src, dst) pair."""

    src: int
    dst: int
    sent_packet_ids: Set[int] = field(default_factory=set)
    delivered_packet_ids: Set[int] = field(default_factory=set)

    @property
    def sent(self) -> int:
        return len(self.sent_packet_ids)

    @property
    def delivered(self) -> int:
        return len(self.delivered_packet_ids & self.sent_packet_ids)

    @property
    def pdr(self) -> float:
        return self.delivered / self.sent if self.sent else math.nan


def pdr_matrix(
    store: TelemetryStore,
    ptype: int = int(PacketType.DATA),
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[Tuple[int, int], PairDelivery]:
    """Packet delivery ratio per (src, dst), observed from both endpoints.

    A packet counts as *sent* when its origin reports an OUT record for it
    (first attempt) and as *delivered* when the destination reports an IN
    record with a matching (src, packet_id).  Only unicast pairs appear.
    """
    pairs: Dict[Tuple[int, int], PairDelivery] = {}

    def pair(src: int, dst: int) -> PairDelivery:
        key = (src, dst)
        entry = pairs.get(key)
        if entry is None:
            entry = PairDelivery(src=src, dst=dst)
            pairs[key] = entry
        return entry

    for record in store.packet_records(direction=Direction.OUT, ptype=ptype, since=since, until=until):
        if record.dst == BROADCAST:
            continue
        if record.node == record.src and record.attempt == 1:
            pair(record.src, record.dst).sent_packet_ids.add(record.packet_id)
    for record in store.packet_records(direction=Direction.IN, ptype=ptype, since=since, until=until):
        if record.dst == BROADCAST or record.node != record.dst:
            continue
        pair(record.src, record.dst).delivered_packet_ids.add(record.packet_id)
    return pairs


def network_pdr(
    store: TelemetryStore,
    ptype: int = int(PacketType.DATA),
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> float:
    """Aggregate PDR across all unicast pairs (NaN when nothing was sent)."""
    pairs = pdr_matrix(store, ptype=ptype, since=since, until=until)
    sent = sum(p.sent for p in pairs.values())
    delivered = sum(p.delivered for p in pairs.values())
    return delivered / sent if sent else math.nan


@dataclass(frozen=True)
class TrafficCell:
    """Originated traffic for one (src, dst) pair."""

    src: int
    dst: int
    frames: int
    bytes: int


def traffic_matrix(
    store: TelemetryStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[Tuple[int, int], TrafficCell]:
    """Frames/bytes originated per (src, dst), from first-attempt OUT records."""
    frames: Dict[Tuple[int, int], int] = {}
    sizes: Dict[Tuple[int, int], int] = {}
    for record in store.packet_records(direction=Direction.OUT, since=since, until=until):
        if record.node != record.src or record.attempt != 1:
            continue
        key = (record.src, record.dst)
        frames[key] = frames.get(key, 0) + 1
        sizes[key] = sizes.get(key, 0) + record.size_bytes
    return {
        key: TrafficCell(src=key[0], dst=key[1], frames=frames[key], bytes=sizes[key])
        for key in frames
    }


def airtime_by_node(
    store: TelemetryStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[int, float]:
    """Total transmit airtime (s) per node from OUT records."""
    airtime: Dict[int, float] = {}
    for record in store.packet_records(direction=Direction.OUT, since=since, until=until):
        airtime[record.node] = airtime.get(record.node, 0.0) + (record.airtime_s or 0.0)
    return airtime


def duty_cycle_by_node(
    store: TelemetryStore,
    window_s: float,
    until: Optional[float] = None,
) -> Dict[int, float]:
    """Airtime fraction per node over the trailing ``window_s`` seconds."""
    if until is None:
        bounds = store.time_bounds()
        until = bounds[1] if bounds else 0.0
    since = until - window_s
    return {
        node: airtime / window_s
        for node, airtime in airtime_by_node(store, since=since, until=until).items()
    }


@dataclass
class LatencyStats:
    """End-to-end latency samples for one (src, dst) pair."""

    src: int
    dst: int
    samples: List[float] = field(default_factory=list)

    @property
    def mean(self) -> float:
        return sum(self.samples) / len(self.samples) if self.samples else math.nan

    def percentile(self, q: float) -> float:
        """q-th percentile (0..100) by nearest-rank."""
        if not self.samples:
            return math.nan
        ordered = sorted(self.samples)
        rank = max(int(math.ceil(q / 100.0 * len(ordered))) - 1, 0)
        return ordered[rank]


def delivery_latency(
    store: TelemetryStore,
    ptype: int = int(PacketType.DATA),
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[Tuple[int, int], LatencyStats]:
    """Origin-to-destination latency per pair, correlated by packet id."""
    origin_ts: Dict[Tuple[int, int], float] = {}
    for record in store.packet_records(direction=Direction.OUT, ptype=ptype, since=since, until=until):
        if record.node != record.src or record.attempt != 1:
            continue
        key = (record.src, record.packet_id)
        if key not in origin_ts or record.timestamp < origin_ts[key]:
            origin_ts[key] = record.timestamp
    stats: Dict[Tuple[int, int], LatencyStats] = {}
    seen: Set[Tuple[int, int]] = set()
    for record in store.packet_records(direction=Direction.IN, ptype=ptype, since=since, until=until):
        if record.dst == BROADCAST or record.node != record.dst:
            continue
        key = (record.src, record.packet_id)
        if key in seen or key not in origin_ts:
            continue
        seen.add(key)
        pair_key = (record.src, record.dst)
        entry = stats.get(pair_key)
        if entry is None:
            entry = LatencyStats(src=record.src, dst=record.dst)
            stats[pair_key] = entry
        entry.samples.append(record.timestamp - origin_ts[key])
    return stats


def route_taken(store: TelemetryStore, src: int, packet_id: int) -> List[Tuple[int, float]]:
    """Nodes that transmitted packet (src, packet_id), ordered by time.

    Reconstructs the forwarding path of one packet from OUT records —
    the per-packet drill-down view of the dashboard.
    """
    hops = [
        (record.node, record.timestamp)
        for record in store.packet_records(direction=Direction.OUT, src=src)
        if record.packet_id == packet_id and record.attempt == 1
    ]
    return sorted(hops, key=lambda item: item[1])


@dataclass(frozen=True)
class TypeBreakdownRow:
    """Traffic composition entry for one packet type."""

    ptype: int
    name: str
    frames_out: int
    bytes_out: int
    airtime_s: float


def type_breakdown(
    store: TelemetryStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> List[TypeBreakdownRow]:
    """Transmitted frames/bytes/airtime per packet type (protocol overhead
    vs user payload — the composition panel)."""
    frames: Dict[int, int] = {}
    sizes: Dict[int, int] = {}
    airtime: Dict[int, float] = {}
    for record in store.packet_records(direction=Direction.OUT, since=since, until=until):
        frames[record.ptype] = frames.get(record.ptype, 0) + 1
        sizes[record.ptype] = sizes.get(record.ptype, 0) + record.size_bytes
        airtime[record.ptype] = airtime.get(record.ptype, 0.0) + (record.airtime_s or 0.0)
    rows = []
    for ptype in sorted(frames):
        try:
            name = PacketType(ptype).name
        except ValueError:
            name = f"UNKNOWN({ptype})"
        rows.append(
            TypeBreakdownRow(
                ptype=ptype,
                name=name,
                frames_out=frames[ptype],
                bytes_out=sizes[ptype],
                airtime_s=airtime[ptype],
            )
        )
    return rows


@dataclass(frozen=True)
class GraphEdge:
    """One directed edge of the reported neighbor graph."""

    tx: int
    rx: int
    rssi_dbm: float
    snr_db: float
    frames_heard: int


def neighbor_graph(store: TelemetryStore) -> List[GraphEdge]:
    """Network graph as the nodes themselves report it.

    Each node's *latest* status record carries its neighbor table; the
    edge (neighbor -> node) means "node hears neighbor".
    """
    edges: List[GraphEdge] = []
    for node in store.nodes():
        status = store.latest_status(node)
        if status is None:
            continue
        for neighbor in status.neighbors:
            edges.append(
                GraphEdge(
                    tx=neighbor.address,
                    rx=node,
                    rssi_dbm=neighbor.rssi_dbm,
                    snr_db=neighbor.snr_db,
                    frames_heard=neighbor.frames_heard,
                )
            )
    return edges


def retransmission_rate(
    store: TelemetryStore,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> Dict[int, float]:
    """Fraction of each node's DATA transmissions that were retries."""
    first: Dict[int, int] = {}
    retries: Dict[int, int] = {}
    for record in store.packet_records(direction=Direction.OUT, ptype=int(PacketType.DATA), since=since, until=until):
        if record.attempt == 1:
            first[record.node] = first.get(record.node, 0) + 1
        else:
            retries[record.node] = retries.get(record.node, 0) + 1
    result = {}
    for node in set(first) | set(retries):
        total = first.get(node, 0) + retries.get(node, 0)
        result[node] = retries.get(node, 0) / total if total else math.nan
    return result
