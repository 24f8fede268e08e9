"""The windowed delivery ledger against ``pdr_matrix`` and its memory bound.

A shard's low-PDR sweep reads :meth:`TileAggregate.pair_deliveries`
instead of scanning the store.  Its counts must equal the batch
``metrics.pdr_matrix`` pair by pair for the same inclusive window —
including records stamped exactly on either edge, and for a shard that
adopted an already filled store — and, swept every interval, it must
hold no more than one window plus one sweep interval of traffic.
"""

import pytest

from repro.api import MetricsStore, MonitorServer, RecordBatch, SqliteMetricsStore
from repro.mesh.addressing import BROADCAST
from repro.monitor import metrics
from repro.monitor.alerts import LowPdrRule
from repro.monitor.fleet import DeliveryLedger, TileAggregate
from repro.monitor.records import Direction, PacketRecord

WINDOW_S = LowPdrRule().window_s


def record(node, seq, ts, direction, src, dst, packet_id, attempt=1):
    return PacketRecord(
        node=node, seq=seq, timestamp=ts, direction=direction, src=src, dst=dst,
        next_hop=dst, prev_hop=src, ptype=3, packet_id=packet_id, size_bytes=40,
        attempt=attempt,
    )


def edge_stream():
    """Records of three pairs stamped on a 100 s grid, with the noise
    ``pdr_matrix`` filters out and a repeated origin report."""
    per_node = {}

    def add(node, *args, **kwargs):
        records = per_node.setdefault(node, [])
        records.append(record(node, len(records), *args, **kwargs))

    packet_id = 0
    for step in range(12):
        ts = 100.0 * step
        for src, dst in ((1, 2), (2, 3), (3, 1)):
            packet_id += 1
            add(src, ts, Direction.OUT, src, dst, packet_id)
            if (packet_id + step) % 3:
                add(dst, ts + 100.0, Direction.IN, src, dst, packet_id)
        if step:  # the origin reports the previous step's send again
            add(1, ts, Direction.OUT, 1, 2, packet_id - 5)
        add(2, ts, Direction.OUT, 1, 2, packet_id, attempt=2)  # relay, not origin
        add(3, ts, Direction.OUT, 3, BROADCAST, packet_id)
    return per_node


def windowed(pairs):
    return {key: (pair.sent, pair.delivered) for key, pair in pairs.items()}


#: Windows whose edges land on record timestamps or just miss them.
WINDOWS = [
    (0.0, 1200.0), (100.0, 600.0), (300.0, 400.0), (300.5, 400.0), (300.0, 399.5),
    (301.0, 399.0), (300.0, 300.0), (250.0, 950.0), (1100.0, 1100.0),
]


@pytest.mark.parametrize("backend", [MetricsStore, SqliteMetricsStore])
class TestLedgerEqualsPdrMatrix:
    def test_window_edges(self, backend):
        with MonitorServer(store=backend()) as server:
            for node, records in edge_stream().items():
                assert server.ingest(RecordBatch(
                    node=node, batch_seq=0, sent_at=0.0, packet_records=tuple(records),
                )).ok
            tile = server.shard_for("default").tile
            for since, until in WINDOWS:
                expected = windowed(metrics.pdr_matrix(server.store, since=since, until=until))
                assert tile.pair_deliveries(since, until) == expected
            # Records stamped exactly on either edge count.
            inclusive = tile.pair_deliveries(300.0, 400.0)
            assert inclusive != tile.pair_deliveries(300.5, 400.0)
            assert inclusive != tile.pair_deliveries(300.0, 399.5)
            assert tile.pair_deliveries(301.0, 399.0) == {}

    def test_adopted_store_is_seeded(self, backend):
        store = backend()
        for records in edge_stream().values():
            store.add_packet_records(records)
        with MonitorServer(store=store) as server:
            tile = server.shard_for("default").tile
            for since, until in WINDOWS:
                expected = windowed(metrics.pdr_matrix(store, since=since, until=until))
                assert tile.pair_deliveries(since, until) == expected
            # A fresh aggregate replaying the same store agrees too.
            seeded = TileAggregate()
            seeded.seed_from_store(store)
            assert seeded.pair_deliveries(0.0, 1200.0) == tile.pair_deliveries(0.0, 1200.0)


class TestHorizon:
    def test_forget_before_drops_only_older_entries(self):
        ledger = DeliveryLedger()
        for ts, packet_id in ((10.0, 1), (20.0, 2), (30.0, 3)):
            ledger.add((1, 2), ts, packet_id, sent=True)
            ledger.add((1, 2), ts, packet_id, sent=False)
        ledger.forget_before(20.0)
        assert len(ledger) == 4
        assert ledger.table(20.0, 30.0) == {(1, 2): (2, 2)}
        # A query reaching back past the horizon sees only what is held.
        assert ledger.table(0.0, 30.0) == {(1, 2): (2, 2)}
        ledger.forget_before(15.0)  # the horizon never moves back
        ledger.add((1, 2), 15.0, 4, sent=True)  # older than the horizon
        assert len(ledger) == 4
        ledger.forget_before(31.0)
        assert len(ledger) == 0 and ledger.table(0.0, 100.0) == {}

    def test_future_records_wait_for_the_clock(self):
        ledger = DeliveryLedger()
        ledger.add((1, 2), 500.0, 1, sent=True)
        assert ledger.table(0.0, 499.0) == {}
        assert ledger.table(0.0, 500.0) == {(1, 2): (1, 0)}


class TestMemoryBound:
    def test_swept_ledger_holds_one_window_plus_one_interval(self):
        interval = 60.0
        clock = {"now": 0.0}
        server = MonitorServer(clock=lambda: clock["now"], alert_sweep_interval_s=interval)
        stamped = []  # timestamp of every ledger entry the stream makes
        seqs = {1: 0, 2: 0}
        try:
            for step in range(1, 1201):  # 10 s apart: 12,000 s, 6.7 windows
                now = clock["now"] = 10.0 * step
                for node, direction in ((1, Direction.OUT), (2, Direction.IN)):
                    seqs[node] += 1
                    assert server.ingest(RecordBatch(
                        node=node, batch_seq=seqs[node], sent_at=now,
                        packet_records=(
                            record(node, seqs[node], now, direction, 1, 2, step),
                        ),
                    )).ok
                    stamped.append(now)
                held = len(server.shard_for("default").tile.deliveries)
                if server.alert_sweeps:
                    bound = sum(1 for ts in stamped if ts >= now - WINDOW_S - interval)
                    assert held <= bound
            assert server.alert_sweeps == 199
            assert held < 2 * (WINDOW_S + interval) / 10.0 + 2
        finally:
            server.close()
