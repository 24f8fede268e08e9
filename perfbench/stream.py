"""Seeded telemetry streams shaped like a LoRa mesh network's agent uplinks.

The ``ingest_replay`` and ``dashboard_live`` workloads feed the monitoring
server without running the radio simulator, so the PHY costs nothing and
the server's write and read paths do all the work.  The stream is
synthetic: a model of what :class:`repro.monitor.client.MonitorClient`
ships from every node of a grid mesh, with its frame mix set from a
measured ``mesh_400`` run:

* one batch per node per report interval, at a per-node phase;
* HELLO beacons and ROUTE broadcasts, recorded as IN by the grid
  neighbours that hear them (the link-quality panel's input);
* DATA messages to peers one to three hops away, relayed hop by hop
  with per-hop ACKs and retries and overheard by the sender's
  neighbours, so the OUT record at the source and the IN record at the
  destination land in *different* nodes' batches and the server's PDR
  pair counters and the low-PDR alert match them up;
* a status record per batch with a neighbour list, a draining battery
  and cumulative radio counters;
* a share of batches re-sent after a client timeout with the same record
  sequence numbers, so deduplication does real work.

Every draw comes from ``random.Random(seed)``: one seed, one stream.  The
generator also returns the ground truth the checks and the fidelity metric
need: the per-pair delivery probability it drew from, the number of
distinct records and the number of records in retried batches.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.mesh.addressing import BROADCAST
from repro.mesh.packet import PacketType
from repro.monitor.records import (
    Direction,
    NeighborObservation,
    PacketRecord,
    RecordBatch,
    StatusRecord,
)

#: Agent report interval (seconds); the scenario default.
REPORT_INTERVAL_S = 60.0
#: Client timeout before a batch whose ack was lost is re-sent (seconds);
#: the uplink default.
RETRY_AFTER_S = 10.0
#: Share of batches whose ack is lost, so the client re-sends them.
RETRY_SHARE = 0.05
#: Mean one-way uplink latency (seconds); the uplink default.
UPLINK_LATENCY_S = 0.08
#: Time a frame spends per hop, airtime plus MAC backoff (seconds).
HOP_DELAY_S = 0.35

# The frame mix below is set from the uplinks of one ``mesh_400`` run
# (12,786 batches); perfbench/README.md compares the two streams.

#: (size in bytes, airtime in seconds) the agents record per frame type.
FRAMES = {
    PacketType.HELLO: (24, 0.0617),
    PacketType.ROUTE: (254, 0.3996),
    PacketType.DATA: (44, 0.0924),
    PacketType.ACK: (20, 0.0566),
}
#: Report intervals between a node's HELLO beacons (the mesh's 120 s),
#: its ROUTE broadcasts (periodic plus triggered, about one per 180 s)
#: and the DATA messages it originates.
HELLO_EVERY = 2
ROUTE_EVERY = 3
DATA_EVERY = 10
#: Chance that a grid neighbour of the sender hears a frame and records
#: it; the receiver a unicast frame is meant for is decided separately.
HEAR_P = {
    PacketType.HELLO: 0.57,
    PacketType.ROUTE: 0.23,
    PacketType.DATA: 0.95,
    PacketType.ACK: 0.8,
}
#: A DATA hop is tried again with this chance, up to MAX_ATTEMPTS tries.
RETRY_P = 0.6
MAX_ATTEMPTS = 6
#: Chance that the next hop got a failed attempt (its ack was lost).
LOST_ACK_P = 0.25


@dataclass(frozen=True)
class ScheduledBatch:
    """One encoded batch and the server time it arrives at."""

    at: float
    node: int
    raw: bytes
    records: int
    retry: bool


@dataclass
class TelemetryStream:
    """A generated stream plus the ground truth behind it."""

    batches: List[ScheduledBatch]
    #: (src, dst) -> the delivery probability the generator drew from.
    true_pdr: Dict[Tuple[int, int], float]
    #: Records in first transmissions (what the store must end up with).
    distinct_records: int
    #: Records in re-sent batches (what dedup must reject).
    retried_records: int


def _grid(n_nodes: int) -> Dict[int, Tuple[int, int]]:
    side = math.ceil(math.sqrt(n_nodes))
    return {node: divmod(node - 1, side) for node in range(1, n_nodes + 1)}


def _neighbours(
    node: int, position: Dict[int, Tuple[int, int]], at: Dict[Tuple[int, int], int]
) -> List[int]:
    row, col = position[node]
    found = []
    for d_row in (-1, 0, 1):
        for d_col in (-1, 0, 1):
            other = at.get((row + d_row, col + d_col))
            if other is not None and other != node:
                found.append(other)
    return found


def _path(src: int, dst: int, position, at) -> List[int]:
    """Grid route src -> dst, diagonal steps first (the DV shortest path)."""
    row, col = position[src]
    end_row, end_col = position[dst]
    hops = [src]
    while (row, col) != (end_row, end_col):
        row += (end_row > row) - (end_row < row)
        col += (end_col > col) - (end_col < col)
        hops.append(at[(row, col)])
    return hops


def generate(seed: int, n_nodes: int, duration_s: float, peers: int = 1) -> TelemetryStream:
    """Generate ``duration_s`` of telemetry for an ``n_nodes`` grid mesh.

    Each node sends one DATA message every DATA_EVERY report intervals,
    cycling over up to ``peers`` destinations; more destinations give the
    fidelity metric more (src, dst) pairs to average over without adding
    records.
    """
    rng = random.Random(seed)
    position = _grid(n_nodes)
    at = {cell: node for node, cell in position.items()}
    neighbours = {node: _neighbours(node, position, at) for node in position}
    # Static traits, stratified so that the amount of work hardly
    # depends on the seed: each node's ``peers`` destinations are distinct
    # and split evenly over one, two and three hops; the true pair PDRs
    # are spread evenly over [0.55, 0.99]; exactly one node in four
    # drains its battery below the low-battery threshold.
    destinations: Dict[int, List[int]] = {}
    for node in position:
        row, col = position[node]
        by_hops: Dict[int, List[int]] = {1: [], 2: [], 3: []}
        for other, (o_row, o_col) in position.items():
            hops = max(abs(o_row - row), abs(o_col - col))
            if other != node and hops <= 3:
                by_hops[hops].append(other)
        reachable = [hops for hops in (1, 2, 3) if by_hops[hops]]
        wanted = Counter(reachable[(node + index) % len(reachable)] for index in range(peers))
        destinations[node] = [
            dst
            for hops in reachable
            for dst in rng.sample(by_hops[hops], min(wanted[hops], len(by_hops[hops])))
        ]
    pairs = sorted({(node, dst) for node in position for dst in destinations[node]})
    levels = [0.55 + 0.44 * (k + rng.random()) / len(pairs) for k in range(len(pairs))]
    rng.shuffle(levels)
    true_pdr: Dict[Tuple[int, int], float] = dict(zip(pairs, levels))
    link_rssi = {
        (tx, rx): rng.uniform(-118.0, -85.0) for tx in position for rx in neighbours[tx]
    }
    fast = set(rng.sample(sorted(position), len(position) // 4))
    drain_v_per_h = {node: 0.6 if node in fast else 0.02 for node in position}
    phase = {node: rng.uniform(0.0, REPORT_INTERVAL_S) for node in position}

    # Observations per node: (timestamp, kind, fields) before seq numbering.
    observed: Dict[int, List[tuple]] = {node: [] for node in position}
    packet_ids = {node: 0 for node in position}
    counters = {
        node: {"tx": 0, "airtime": 0.0, "retx": 0, "orig": 0, "deliv": 0, "fwd": 0}
        for node in position
    }
    heard: Dict[int, Dict[int, int]] = {node: {} for node in position}

    def next_id(node: int) -> int:
        packet_ids[node] = (packet_ids[node] + 1) & 0xFFFF
        return packet_ids[node]

    def send(t: float, tx: int, fields: tuple, attempt: int, receiver: int, got: bool) -> None:
        """``tx`` sends a frame; its agent records OUT, and each neighbour
        that hears it records IN.  ``receiver`` hears it iff ``got``."""
        ptype = fields[4]
        observed[tx].append((t, "out", fields + (attempt,)))
        counters[tx]["tx"] += 1
        counters[tx]["airtime"] += FRAMES[ptype][1]
        for rx in neighbours[tx]:
            if (got if rx == receiver else rng.random() < HEAR_P[ptype]):
                rssi = link_rssi[(tx, rx)] + rng.gauss(0.0, 2.0)
                observed[rx].append((t + 0.05, "in", fields + (rssi, rssi + 120.0 - 9.0)))
                if ptype == PacketType.HELLO:
                    heard[rx][tx] = heard[rx].get(tx, 0) + 1

    intervals = int(duration_s // REPORT_INTERVAL_S)
    for k in range(intervals):
        base = k * REPORT_INTERVAL_S
        for node in position:
            for ptype, every in ((PacketType.HELLO, HELLO_EVERY), (PacketType.ROUTE, ROUTE_EVERY)):
                if (k + node) % every == 0:
                    t = base + rng.uniform(0.0, REPORT_INTERVAL_S)
                    fields = (node, BROADCAST, BROADCAST, node, int(ptype), next_id(node))
                    send(t, node, fields, 1, BROADCAST, False)
            if (k + node) % DATA_EVERY:
                continue
            # One DATA message to the next destination, relayed along the
            # grid path with per-hop acks and retries; a lost message dies
            # at a uniformly chosen hop after its last attempt there.
            dsts = destinations[node]
            dst = dsts[(k // DATA_EVERY) % len(dsts)]
            hops = _path(node, dst, position, at)
            delivered = rng.random() < true_pdr[(node, dst)]
            last = len(hops) - 1 if delivered else rng.randrange(len(hops) - 1)
            t = base + rng.uniform(0.0, REPORT_INTERVAL_S)
            pid = next_id(node)
            counters[node]["orig"] += 1
            for index in range(last + 1):
                here = hops[index]
                if index == len(hops) - 1:
                    counters[here]["deliv"] += 1
                    break
                ahead = hops[index + 1]
                dies = index == last
                attempts = 1
                while attempts < MAX_ATTEMPTS and (dies or rng.random() < RETRY_P):
                    attempts += 1
                for attempt in range(1, attempts + 1):
                    # The next hop gets the final attempt of a hop the
                    # message survives, and some failed ones whose ack
                    # was lost.
                    got = not dies and (attempt == attempts or rng.random() < LOST_ACK_P)
                    send(t, here, (node, dst, ahead, here, int(PacketType.DATA), pid),
                         attempt, ahead, got)
                    if got:
                        send(t + 0.1, ahead, (ahead, here, here, ahead, int(PacketType.ACK), pid),
                             1, here, attempt == attempts)
                    t += HOP_DELAY_S
                counters[here]["retx"] += attempts - 1
                if index > 0:
                    counters[here]["fwd"] += 1

    # Number each node's observations in time order, then cut them into
    # one batch per report interval at the node's phase; exactly
    # RETRY_SHARE of the batches are re-sent.
    total = len(position) * intervals
    resent = set(rng.sample(range(total), round(RETRY_SHARE * total)))
    pending: List[Tuple[float, int, int, RecordBatch, bool]] = []
    distinct = retried = 0
    for node in position:
        records = sorted(observed[node], key=lambda item: item[0])
        packet_records = []
        for seq, (t, kind, fields) in enumerate(records):
            src, dst, next_hop, prev_hop, ptype, pid = fields[:6]
            size, airtime = FRAMES[ptype]
            common = dict(
                node=node, seq=seq, timestamp=t, src=src, dst=dst, next_hop=next_hop,
                prev_hop=prev_hop, ptype=ptype, packet_id=pid, size_bytes=size,
            )
            if kind == "out":
                packet_records.append(PacketRecord(
                    direction=Direction.OUT, airtime_s=airtime, attempt=fields[6], **common
                ))
            else:
                packet_records.append(PacketRecord(
                    direction=Direction.IN, rssi_dbm=fields[6], snr_db=fields[7], **common
                ))
        cursor = 0
        batch_seq = 0
        for k in range(intervals):
            flush_at = phase[node] + (k + 1) * REPORT_INTERVAL_S
            start = cursor
            while cursor < len(packet_records) and packet_records[cursor].timestamp <= flush_at:
                cursor += 1
            fraction = (k + 1) / intervals
            counts = counters[node]
            status = StatusRecord(
                node=node, seq=k, timestamp=flush_at, uptime_s=flush_at,
                queue_depth=rng.randrange(0, 4), route_count=min(n_nodes - 1, 8 + k),
                neighbor_count=len(heard[node]),
                battery_v=4.1 - drain_v_per_h[node] * flush_at / 3600.0,
                tx_frames=int(counts["tx"] * fraction),
                tx_airtime_s=counts["airtime"] * fraction,
                retransmissions=int(counts["retx"] * fraction), drops=0,
                duty_utilisation=min(1.0, counts["airtime"] / duration_s / 0.01),
                originated=int(counts["orig"] * fraction),
                delivered=int(counts["deliv"] * fraction),
                forwarded=int(counts["fwd"] * fraction),
                neighbors=tuple(
                    NeighborObservation(
                        address=other, rssi_dbm=link_rssi[(other, node)],
                        snr_db=link_rssi[(other, node)] + 111.0,
                        frames_heard=int(count * fraction),
                    )
                    for other, count in sorted(heard[node].items())
                ),
            )
            batch = RecordBatch(
                node=node, batch_seq=batch_seq, sent_at=flush_at,
                packet_records=tuple(packet_records[start:cursor]),
                status_records=(status,),
            )
            batch_seq += 1
            arrive = flush_at + rng.uniform(0.5, 1.5) * UPLINK_LATENCY_S
            pending.append((arrive, node, batch.batch_seq, batch, False))
            distinct += batch.record_count
            if (node - 1) * intervals + k in resent:
                # The ack was lost: the client re-sends the same records
                # under the next batch sequence number after its timeout.
                again = RecordBatch(
                    node=node, batch_seq=batch_seq, sent_at=flush_at + RETRY_AFTER_S,
                    packet_records=batch.packet_records,
                    status_records=batch.status_records,
                )
                batch_seq += 1
                pending.append((arrive + RETRY_AFTER_S, node, again.batch_seq, again, True))
                retried += again.record_count
    pending.sort(key=lambda item: (item[0], item[1], item[2]))
    batches = [
        ScheduledBatch(at=at_s, node=node, raw=batch.to_json_bytes(),
                       records=batch.record_count, retry=retry)
        for at_s, node, _seq, batch, retry in pending
    ]
    return TelemetryStream(
        batches=batches,
        true_pdr=true_pdr,
        distinct_records=distinct,
        retried_records=retried,
    )
