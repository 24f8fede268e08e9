"""Property: the incremental fleet tile equals the full health formula.

:meth:`TileAggregate.health` reuses each node's cached score while the
node is fresh and recomputes it only after the node's inputs changed.
Over any ingest stream — duplicate-seq retries, repeated origin
reports, status updates, silences across one and five report intervals
— and reads at two alternating intervals, the result must be the very
float the uncached O(N) expression gives over the same per-node state,
and match the store-scanning score up to summation order.  Status
records that arrive out of order leave the tile on the highest ``seq``,
on both store backends.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MetricsStore, MonitorServer, RecordBatch, SqliteMetricsStore
from repro.mesh.addressing import BROADCAST
from repro.monitor import health, metrics
from repro.monitor.fleet import TileAggregate
from repro.monitor.records import Direction, PacketRecord, StatusRecord

#: Reads alternate between these report intervals.
INTERVALS = (60.0, 300.0)
#: Ingest time never passes this, and a read lags it by at most 1501 s,
#: so every record stays inside the store scan's 1800 s PDR window.
INGEST_HORIZON_S = 290.0
#: Read lags checked after the stream: just inside and past each interval.
LAGS = (0.0, 60.0, 60.5, 300.0, 300.5, 1501.0)


def reference_health(tile, now, report_interval_s):
    """The uncached O(N) tile formula: every node, every component."""
    return health.mean_score(
        health.combined_score(
            health.liveness_component(telemetry.last_seen, now, report_interval_s),
            health.delivery_component(telemetry.sent, telemetry.matched),
            health.spectrum_component(telemetry.duty_utilisation),
            health.battery_component(telemetry.battery_v),
        )
        for telemetry in tile._nodes.values()
    )


def same(left, right):
    return left == right or (math.isnan(left) and math.isnan(right))


def close(left, right):
    if math.isnan(left) or math.isnan(right):
        return math.isnan(left) and math.isnan(right)
    return math.isclose(left, right, rel_tol=1e-12)


nodes = st.integers(min_value=1, max_value=12)
packets = st.tuples(
    st.sampled_from([Direction.OUT, Direction.IN]),
    nodes,  # the peer: destination of an OUT, source of an IN
    st.integers(min_value=0, max_value=5),  # packet id: small, so ids repeat
    st.sampled_from([1, 1, 1, 2]),  # attempt
    st.sampled_from(["data", "data", "data", "relay", "broadcast", "hello"]),
)
statuses = st.none() | st.tuples(
    st.floats(min_value=2.8, max_value=4.4), st.floats(min_value=0.0, max_value=1.2)
)
batch_steps = st.tuples(
    st.just("batch"),
    nodes,
    st.sampled_from([0.0, 1.0, 30.0, 59.0, 60.0, 61.0, 120.0]),  # clock advance
    st.lists(packets, max_size=6),
    statuses,
)
retry_steps = st.tuples(st.just("retry"), st.integers(min_value=0, max_value=1000))
read_steps = st.tuples(
    st.just("read"),
    st.sampled_from(
        [0.0, 1.0, 60.0, 60.5, 61.0, 240.0, 300.0, 300.5, 301.0, 1200.0, 1500.0, 1501.0]
    ),
)
steps = st.lists(st.one_of(batch_steps, retry_steps, read_steps), max_size=40)


def packet_record(node, seq, now, entry):
    direction, peer, packet_id, attempt, kind = entry
    ptype = 1 if kind == "hello" else 3
    if direction is Direction.OUT:
        src, dst = node, (BROADCAST if kind == "broadcast" else peer)
    elif kind == "relay":  # a relay hears a packet addressed to someone else
        src, dst = peer, node % 12 + 1
    else:
        src, dst = peer, (BROADCAST if kind == "broadcast" else node)
    return PacketRecord(
        node=node, seq=seq, timestamp=now, direction=direction, src=src, dst=dst,
        next_hop=dst, prev_hop=src, ptype=ptype, packet_id=packet_id,
        size_bytes=40, attempt=attempt,
    )


def status_record(node, seq, now, values):
    battery_v, duty = values
    return StatusRecord(
        node=node, seq=seq, timestamp=now, uptime_s=now, queue_depth=0,
        route_count=1, neighbor_count=1, battery_v=battery_v, tx_frames=1,
        tx_airtime_s=0.1, retransmissions=0, drops=0, duty_utilisation=duty,
        originated=0, delivered=0, forwarded=0,
    )


def check_tile(tile, store, now, report_interval_s):
    value = tile.health(now, report_interval_s)
    assert same(value, reference_health(tile, now, report_interval_s))
    assert close(value, health.network_health_score(store, now, report_interval_s))
    assert same(tile.pdr(), metrics.network_pdr(store))


class TestIncrementalTileEqualsFormula:
    @given(steps)
    @settings(max_examples=150, deadline=None)
    def test_reads_equal_full_formula(self, plan):
        clock = {"now": 0.0}
        server = MonitorServer(clock=lambda: clock["now"])
        seqs = {}
        sent = []
        reads = 0
        try:
            for step in plan:
                if step[0] == "batch":
                    _, node, advance, entries, status = step
                    clock["now"] = min(clock["now"] + advance, INGEST_HORIZON_S)
                    now = clock["now"]
                    first = seqs.get(node, 0)
                    seqs[node] = first + len(entries) + 1
                    batch = RecordBatch(
                        node=node, batch_seq=first, sent_at=now,
                        packet_records=tuple(
                            packet_record(node, first + index, now, entry)
                            for index, entry in enumerate(entries)
                        ),
                        status_records=(
                            () if status is None
                            else (status_record(node, first, now, status),)
                        ),
                    )
                    assert server.ingest(batch).ok
                    sent.append(batch)
                elif step[0] == "retry":
                    if sent:
                        # Same record seqs again: the server drops every
                        # record but still notes the batch's arrival.
                        assert server.ingest(sent[step[1] % len(sent)]).ok
                elif sent:  # the shard appears with the first batch
                    tile = server.shard_for("default").tile
                    interval = INTERVALS[reads % 2]
                    reads += 1
                    check_tile(tile, server.store, clock["now"] + step[1], interval)
            if not sent:
                return
            tile = server.shard_for("default").tile
            for lag in LAGS:
                for interval in INTERVALS:
                    check_tile(tile, server.store, clock["now"] + lag, interval)

            # A shard adopting an already populated store replays it.
            seeded = TileAggregate()
            seeded.seed_from_store(server.store)
            assert seeded.node_count == tile.node_count
            for lag in LAGS:
                for interval in INTERVALS:
                    check_tile(seeded, server.store, clock["now"] + lag, interval)
                    assert close(
                        seeded.health(clock["now"] + lag, interval),
                        tile.health(clock["now"] + lag, interval),
                    )
        finally:
            server.close()


#: One status report per step: (node, battery, duty, queue depth).
status_reports = st.lists(
    st.tuples(
        nodes,
        st.floats(min_value=2.8, max_value=4.4),
        st.floats(min_value=0.0, max_value=1.2),
        st.integers(min_value=0, max_value=20),
    ),
    min_size=1,
    max_size=16,
)


class TestShuffledStatusArrival:
    """In-band batches overtake each other on the way to the gateway, so
    a node's status records can arrive in any order; the tile must keep
    the highest ``seq``, as the store's ``latest_status`` does."""

    @pytest.mark.parametrize("backend", [MetricsStore, SqliteMetricsStore])
    @given(reports=status_reports, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_tile_snapshot_is_latest_status(self, backend, reports, data):
        batches = []
        seqs = {}
        for node, battery_v, duty, queue_depth in reports:
            seq = seqs.get(node, 0)
            seqs[node] = seq + 1
            record = status_record(node, seq, 60.0 * seq, (battery_v, duty))
            record = dataclasses.replace(record, queue_depth=queue_depth)
            batches.append(RecordBatch(
                node=node, batch_seq=seq, sent_at=60.0 * seq, status_records=(record,),
            ))
        arrivals = data.draw(st.permutations(batches))
        clock = {"now": 0.0}
        with MonitorServer(store=backend(), clock=lambda: clock["now"]) as server:
            for batch in arrivals:
                clock["now"] += 1.0
                assert server.ingest(batch).ok
            tile = server.shard_for("default").tile
            for node in seqs:
                latest = server.store.latest_status(node)
                assert latest.seq == seqs[node] - 1
                delta = tile.node_delta(node)
                assert (delta.battery_v, delta.duty_utilisation, delta.queue_depth) == (
                    latest.battery_v, latest.duty_utilisation, latest.queue_depth,
                )
            for lag in LAGS:
                for interval in INTERVALS:
                    check_tile(tile, server.store, clock["now"] + lag, interval)
