"""Unit tests for health scoring."""

import math
import random

import pytest

from repro.api import MonitorServer, RecordBatch
from repro.monitor import health
from repro.monitor.records import Direction, PacketRecord, StatusRecord
from repro.monitor.storage import MetricsStore


def status(node=1, seq=0, ts=0.0, battery=3.7, duty=0.01):
    return StatusRecord(
        node=node, seq=seq, timestamp=ts, uptime_s=ts, queue_depth=0,
        route_count=1, neighbor_count=1, battery_v=battery, tx_frames=1,
        tx_airtime_s=0.1, retransmissions=0, drops=0, duty_utilisation=duty,
        originated=0, delivered=0, forwarded=0,
    )


@pytest.fixture
def store():
    return MetricsStore()


def stream_into(server, clock, n_nodes=16, duration_s=900.0, interval_s=60.0, seed=3):
    """Feed ``server`` the batches ``n_nodes`` agents ship over ``duration_s``.

    Every interval each node originates two unicast DATA packets (about
    80 % reach their destination, which reports them in its next batch)
    and one status record.  Node 1 falls silent halfway through so
    liveness varies across nodes.
    """
    rng = random.Random(seed)
    seqs = {node: 0 for node in range(1, n_nodes + 1)}
    inbox = {node: [] for node in range(1, n_nodes + 1)}
    packet_id = 0
    ticks = int(duration_s // interval_s)
    for tick in range(ticks):
        now = (tick + 1) * interval_s
        for node in range(1, n_nodes + 1):
            if node == 1 and tick >= ticks // 2:
                continue
            deliveries, inbox[node] = inbox[node], []
            packet_records = []
            for _ in range(2):
                packet_id += 1
                dst = rng.choice([peer for peer in seqs if peer != node])
                sent_at = now - rng.uniform(1.0, interval_s - 1.0)
                seqs[node] += 1
                packet_records.append(PacketRecord(
                    node=node, seq=seqs[node], timestamp=sent_at,
                    direction=Direction.OUT, src=node, dst=dst, next_hop=dst,
                    prev_hop=node, ptype=3, packet_id=packet_id, size_bytes=40,
                    airtime_s=0.05,
                ))
                if rng.random() < 0.8:
                    inbox[dst].append((node, packet_id, sent_at + 0.5))
            for src, pid, at in deliveries:
                seqs[node] += 1
                packet_records.append(PacketRecord(
                    node=node, seq=seqs[node], timestamp=at,
                    direction=Direction.IN, src=src, dst=node, next_hop=node,
                    prev_hop=src, ptype=3, packet_id=pid, size_bytes=40,
                    rssi_dbm=-100.0, snr_db=5.0,
                ))
            clock["now"] = now
            result = server.ingest(RecordBatch(
                node=node, batch_seq=tick, sent_at=now,
                packet_records=tuple(packet_records),
                status_records=(status(
                    node=node, seq=tick, ts=now,
                    battery=rng.uniform(3.2, 4.2), duty=rng.uniform(0.0, 0.3),
                ),),
            ))
            assert result.ok
    return ticks * interval_s


@pytest.fixture
def streamed():
    clock = {"now": 0.0}
    server = MonitorServer(clock=lambda: clock["now"])
    now = stream_into(server, clock)
    yield server, now
    server.close()


class TestNodeHealth:
    def test_fresh_healthy_node_scores_high(self, store):
        store.note_batch(1, received_at=100.0, dropped_records=0)
        store.add_status_record(status(node=1, ts=100.0, battery=4.1, duty=0.01))
        score = health.node_health(store, 1, now=110.0, report_interval_s=60.0)
        assert score.score > 85
        assert score.liveness == pytest.approx(1.0)

    def test_silent_node_liveness_decays(self, store):
        store.note_batch(1, received_at=0.0, dropped_records=0)
        early = health.node_health(store, 1, now=60.0, report_interval_s=60.0)
        late = health.node_health(store, 1, now=600.0, report_interval_s=60.0)
        assert early.liveness == pytest.approx(1.0)
        assert late.liveness == 0.0
        assert late.score < early.score

    def test_delivery_component_from_pdr(self, store):
        store.note_batch(1, received_at=0.0, dropped_records=0)
        for pid in range(4):
            store.add_packet_record(PacketRecord(
                node=1, seq=pid, timestamp=0.0, direction=Direction.OUT,
                src=1, dst=9, next_hop=5, prev_hop=1, ptype=3, packet_id=pid,
                size_bytes=40, airtime_s=0.05,
            ))
        for pid in range(2):
            store.add_packet_record(PacketRecord(
                node=9, seq=pid, timestamp=1.0, direction=Direction.IN,
                src=1, dst=9, next_hop=9, prev_hop=5, ptype=3, packet_id=pid,
                size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
            ))
        score = health.node_health(store, 1, now=10.0)
        assert score.delivery == pytest.approx(0.5)

    def test_missing_components_redistribute_weight(self, store):
        # Only liveness data exists; score should equal liveness * 100.
        store.note_batch(1, received_at=0.0, dropped_records=0)
        score = health.node_health(store, 1, now=30.0, report_interval_s=60.0)
        assert score.delivery is None and score.battery is None
        assert score.score == pytest.approx(100.0)

    def test_unknown_node_is_nan(self, store):
        score = health.node_health(store, 42, now=0.0)
        assert math.isnan(score.score)

    def test_duty_pressure_lowers_score(self, store):
        store.note_batch(1, received_at=0.0, dropped_records=0)
        store.add_status_record(status(node=1, duty=0.0))
        relaxed = health.node_health(store, 1, now=1.0).score

        store2 = MetricsStore()
        store2.note_batch(1, received_at=0.0, dropped_records=0)
        store2.add_status_record(status(node=1, duty=1.0))
        pressured = health.node_health(store2, 1, now=1.0).score
        assert pressured < relaxed

    def test_battery_clamped(self, store):
        store.note_batch(1, received_at=0.0, dropped_records=0)
        store.add_status_record(status(node=1, battery=5.0))
        assert health.node_health(store, 1, now=1.0).battery == 1.0


class TestNetworkHealth:
    def test_covers_all_nodes(self, store):
        for node in (1, 2, 3):
            store.note_batch(node, received_at=0.0, dropped_records=0)
        scores = health.network_health(store, now=10.0)
        assert set(scores) == {1, 2, 3}

    def test_network_score_is_mean(self, store):
        store.note_batch(1, received_at=0.0, dropped_records=0)
        store.note_batch(2, received_at=0.0, dropped_records=0)
        value = health.network_health_score(store, now=30.0, report_interval_s=60.0)
        assert value == pytest.approx(100.0)

    def test_empty_network_is_nan(self, store):
        assert math.isnan(health.network_health_score(store, now=0.0))


class TestOneFormula:
    def test_tile_health_equals_store_scan(self, streamed):
        # The stream is shorter than the PDR window, so the cumulative
        # tile counters and the windowed scan see the same deliveries.
        server, now = streamed
        shard = server.shard_for("default")
        expected = health.network_health_score(server.store, now)
        assert not math.isnan(expected)
        assert shard.tile.health(now) == expected

    def test_repeated_origin_report_counts_once(self):
        # A packet id that repeats at the origin (after the 16-bit wrap,
        # or an agent that restarted its numbering) is one sent packet
        # for pdr_matrix, so the tile must not count it twice either.
        def data(node, seq, direction):
            return PacketRecord(
                node=node, seq=seq, timestamp=1.0, direction=direction, src=1,
                dst=2, next_hop=2, prev_hop=1, ptype=3, packet_id=5, size_bytes=40,
            )

        server = MonitorServer(clock=lambda: 2.0)
        out = (data(1, 0, Direction.OUT), data(1, 1, Direction.OUT))
        assert server.ingest(RecordBatch(node=1, batch_seq=0, sent_at=1.0, packet_records=out)).ok
        delivered = (data(2, 0, Direction.IN),)
        assert server.ingest(RecordBatch(node=2, batch_seq=0, sent_at=1.0, packet_records=delivered)).ok
        tile = server.shard_for("default").tile
        assert health.network_health_score(server.store, 10.0) == 100.0
        assert tile.health(10.0) == 100.0
        assert tile.pdr() == 1.0
        server.close()

    def test_network_health_equals_per_node_health(self, streamed):
        server, now = streamed
        scores = health.network_health(server.store, now)
        assert len(scores) == 16
        assert scores == {
            node: health.node_health(server.store, node, now) for node in scores
        }

    def test_network_health_scans_pdr_once(self, streamed, monkeypatch):
        from repro.monitor import metrics

        calls = []
        original = metrics.pdr_matrix

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(metrics, "pdr_matrix", counting)
        server, now = streamed
        health.network_health(server.store, now)
        assert len(calls) == 1
