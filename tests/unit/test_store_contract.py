"""The :class:`~repro.api.TelemetryStore` read contract, on both backends.

One telemetry stream — retried batches (duplicate record seqs) and
batches that arrive out of order, as in-band batches do at a gateway —
goes through a :class:`~repro.api.MonitorServer` into each backend.
Every read method the protocol declares must then give the answer an
oracle computes from the stream itself, so the two backends give
identical answers.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MetricsStore, MonitorServer, RecordBatch, SqliteMetricsStore
from repro.monitor.records import Direction, PacketRecord, StatusRecord

BACKENDS = {"memory": MetricsStore, "sqlite": SqliteMetricsStore}

#: Server-clock step between two arrivals.
ARRIVAL_STEP_S = 5.0


def packet(node, seq, direction=Direction.IN, peer=9):
    src, dst = (node, peer) if direction is Direction.OUT else (peer, node)
    return PacketRecord(
        node=node, seq=seq, timestamp=10.0 * seq, direction=direction,
        src=src, dst=dst, next_hop=dst, prev_hop=src, ptype=3, packet_id=seq,
        size_bytes=40,
        rssi_dbm=-100.0 - seq if direction is Direction.IN else None,
        snr_db=2.5 if direction is Direction.IN else None,
        airtime_s=0.05 if direction is Direction.OUT else None,
    )


def status(node, seq, queue_depth):
    return StatusRecord(
        node=node, seq=seq, timestamp=60.0 * seq, uptime_s=60.0 * seq,
        queue_depth=queue_depth, route_count=2, neighbor_count=1,
        battery_v=3.5 + 0.125 * queue_depth, tx_frames=seq, tx_airtime_s=0.5,
        retransmissions=0, drops=0, duty_utilisation=0.01 * queue_depth,
        originated=seq, delivered=0, forwarded=0,
    )


def ingest(store, arrivals):
    """Feed ``arrivals`` (batches, in arrival order) into ``store``."""
    clock = {"now": 0.0}
    server = MonitorServer(store=store, clock=lambda: clock["now"])
    for batch in arrivals:
        clock["now"] += ARRIVAL_STEP_S
        assert server.ingest(batch).ok
    return server


def expected(arrivals):
    """What every backend must answer, computed from the stream alone."""
    packets, statuses = {}, {}
    last_seen, drops = {}, {}
    for index, batch in enumerate(arrivals, start=1):
        for record in batch.packet_records:
            packets.setdefault((record.node, record.seq), record)
        for record in batch.status_records:
            statuses.setdefault((record.node, record.seq), record)
        last_seen[batch.node] = index * ARRIVAL_STEP_S
        drops[batch.node] = drops.get(batch.node, 0) + batch.dropped_records
    return (
        [packets[key] for key in sorted(packets)],
        [statuses[key] for key in sorted(statuses)],
        last_seen,
        drops,
    )


def answers(store, nodes):
    """Every read the protocol declares, over ``nodes`` and a few filters."""
    result = {
        "nodes": store.nodes(),
        "packets": list(store.packet_records()),
        "packets_out": list(store.packet_records(direction=Direction.OUT)),
        "packets_from_9": list(store.packet_records(src=9)),
        "packets_window": list(store.packet_records(since=20.0, until=60.0)),
        "packet_count": store.packet_record_count(),
        "status_count": store.status_record_count(),
        "time_bounds": store.time_bounds(),
        "evictions": store.evictions,
    }
    for node in nodes:
        result[node] = (
            list(store.packet_records(node=node)),
            list(store.status_records(node)),
            list(store.status_records(node, since=60.0, until=180.0)),
            store.latest_status(node),
            store.status_series(node, ["queue_depth", "battery_v"]),
            store.last_seen(node),
            store.reported_drops(node),
            store.packet_record_count(node),
            store.status_record_count(node),
        )
    return result


def oracle_answers(arrivals, nodes):
    packets, statuses, last_seen, drops = expected(arrivals)
    times = [record.timestamp for record in packets]
    result = {
        "nodes": sorted(last_seen),
        "packets": packets,
        "packets_out": [r for r in packets if r.direction is Direction.OUT],
        "packets_from_9": [r for r in packets if r.src == 9],
        "packets_window": [r for r in packets if 20.0 <= r.timestamp <= 60.0],
        "packet_count": len(packets),
        "status_count": len(statuses),
        "time_bounds": (min(times), max(times)) if times else None,
        "evictions": 0,
    }
    for node in nodes:
        own = [r for r in statuses if r.node == node]
        result[node] = (
            [r for r in packets if r.node == node],
            own,
            [r for r in own if 60.0 <= r.timestamp <= 180.0],
            own[-1] if own else None,
            [
                {"ts": r.timestamp, "queue_depth": float(r.queue_depth),
                 "battery_v": r.battery_v}
                for r in own
            ],
            last_seen.get(node),
            drops.get(node, 0),
            len([r for r in packets if r.node == node]),
            len(own),
        )
    return result


@pytest.fixture(params=sorted(BACKENDS))
def backend(request):
    return BACKENDS[request.param]


class TestLateStatus:
    """Status seq 6 reaches the server before seq 5 from the same node."""

    def arrivals(self):
        return [
            RecordBatch(node=1, batch_seq=1, sent_at=120.0, status_records=(status(1, 6, 9),)),
            RecordBatch(node=1, batch_seq=0, sent_at=60.0, status_records=(status(1, 5, 1),)),
        ]

    def test_latest_status_is_highest_seq(self, backend):
        with backend() as store:
            ingest(store, self.arrivals())
            assert store.latest_status(1).seq == 6
            assert [r.seq for r in store.status_records(1)] == [5, 6]
            assert [p["ts"] for p in store.status_series(1, ["queue_depth"])] == [300.0, 360.0]

    def test_tile_keeps_the_newer_status(self, backend):
        with backend() as store:
            server = ingest(store, self.arrivals())
            delta = server.shard_for("default").tile.node_delta(1)
            assert delta.queue_depth == 9 == store.latest_status(1).queue_depth
            assert delta.battery_v == store.latest_status(1).battery_v

    def test_full_bucket_keeps_the_highest_seqs(self):
        store = MetricsStore(max_status_records_per_node=2)
        for seq in (4, 6, 5, 3):
            store.add_status_record(status(1, seq, seq))
        assert [r.seq for r in store.status_records(1)] == [5, 6]
        store = MetricsStore(max_packet_records_per_node=2)
        for seq in (4, 6, 5, 3):
            store.add_packet_record(packet(1, seq))
        assert [r.seq for r in store.packet_records()] == [5, 6]
        assert store.evictions == 2


#: One node's batches: (packet directions, status queue depth or None).
node_batches = st.lists(
    st.tuples(
        st.lists(st.sampled_from([Direction.IN, Direction.OUT]), max_size=3),
        st.none() | st.integers(min_value=0, max_value=12),
        st.integers(min_value=0, max_value=2),  # dropped records
    ),
    min_size=1,
    max_size=4,
)


def build_batches(per_node):
    batches = []
    for node, plan in per_node.items():
        packet_seq = status_seq = 0
        for batch_seq, (directions, queue_depth, dropped) in enumerate(plan):
            packets = []
            for direction in directions:
                packets.append(packet(node, packet_seq, direction))
                packet_seq += 1
            statuses = ()
            if queue_depth is not None:
                statuses = (status(node, status_seq, queue_depth),)
                status_seq += 1
            batches.append(RecordBatch(
                node=node, batch_seq=batch_seq, sent_at=0.0,
                packet_records=tuple(packets), status_records=statuses,
                dropped_records=dropped,
            ))
    return batches


@st.composite
def streams(draw):
    per_node = draw(st.dictionaries(st.integers(1, 3), node_batches, min_size=1, max_size=3))
    batches = build_batches(per_node)
    arrivals = draw(st.permutations(batches))
    retries = draw(st.lists(st.sampled_from(batches), max_size=4))
    for retry in retries:
        position = draw(st.integers(0, len(arrivals)))
        arrivals = arrivals[:position] + [retry] + arrivals[position:]
    return sorted(per_node), arrivals


class TestContract:
    @pytest.mark.parametrize("name", sorted(BACKENDS))
    @given(stream=streams())
    @settings(max_examples=60, deadline=None)
    def test_every_read_matches_the_stream(self, name, stream):
        nodes, arrivals = stream
        with BACKENDS[name]() as store:
            ingest(store, arrivals)
            assert answers(store, nodes + [42]) == oracle_answers(arrivals, nodes + [42])
