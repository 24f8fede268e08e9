"""Unit tests for the uplink transports."""

import pytest

from repro.errors import ConfigurationError
from repro.monitor.records import RecordBatch
from repro.monitor.server import MonitorServer
from repro.monitor.uplink import GatewayBridge, InBandUplink, OutOfBandUplink
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def make_batch(node=1, batch_seq=0):
    return RecordBatch(node=node, batch_seq=batch_seq, sent_at=0.0)


class TestOutOfBand:
    def test_lossless_uplink_delivers_and_acks(self):
        sim = Simulator()
        server = MonitorServer(clock=lambda: sim.now)
        uplink = OutOfBandUplink(sim, server, RngRegistry(1).stream("u"), loss_probability=0.0)
        outcomes = []
        uplink.send(make_batch(), outcomes.append)
        sim.run(until=5.0)
        assert outcomes == [True]
        assert server.stats.batches_ok == 1
        assert uplink.stats.batches_delivered == 1

    def test_latency_is_applied(self):
        sim = Simulator()
        server = MonitorServer()
        uplink = OutOfBandUplink(
            sim, server, RngRegistry(1).stream("u"),
            latency_mean_s=1.0, latency_jitter_s=0.0,
        )
        times = []
        uplink.send(make_batch(), lambda ok: times.append(sim.now))
        sim.run(until=10.0)
        assert times[0] == pytest.approx(2.0, abs=0.01)  # request + response

    def test_total_loss_fails_after_timeout(self):
        sim = Simulator()
        server = MonitorServer()
        uplink = OutOfBandUplink(
            sim, server, RngRegistry(1).stream("u"),
            loss_probability=1.0, timeout_s=5.0,
        )
        outcomes = []
        uplink.send(make_batch(), outcomes.append)
        sim.run(until=20.0)
        assert outcomes == [False]
        assert sim.now >= 5.0
        assert server.stats.batches_ok == 0
        assert uplink.stats.batches_lost == 1

    def test_partial_loss_statistics(self):
        sim = Simulator()
        server = MonitorServer()
        uplink = OutOfBandUplink(
            sim, server, RngRegistry(1).stream("u"), loss_probability=0.5, timeout_s=0.5,
        )
        outcomes = []
        for index in range(200):
            sim.call_at(index * 1.0, lambda i=index: uplink.send(make_batch(batch_seq=i), outcomes.append))
        sim.run(until=300.0)
        successes = sum(outcomes)
        # Request AND response must survive: (1-0.5)^2 = 25% expected.
        assert 25 < successes < 80

    def test_bytes_counted(self):
        sim = Simulator()
        server = MonitorServer()
        uplink = OutOfBandUplink(sim, server, RngRegistry(1).stream("u"))
        batch = make_batch()
        assert uplink.send(batch, lambda ok: None) == len(batch.to_json_bytes())
        assert uplink.stats.bytes_sent == len(batch.to_json_bytes())

    def test_invalid_loss_rejected(self):
        sim = Simulator()
        with pytest.raises(ConfigurationError):
            OutOfBandUplink(sim, MonitorServer(), RngRegistry(1).stream("u"), loss_probability=1.5)


class TestInBand:
    def test_rides_mesh_to_gateway(self, small_mesh):
        world = small_mesh
        server = MonitorServer(clock=lambda: world.sim.now)
        bridge = GatewayBridge(world.nodes[1], server)
        uplink = InBandUplink(world.nodes[9], gateway_address=1)
        from repro.monitor.records import Direction, PacketRecord
        record = PacketRecord(
            node=9, seq=0, timestamp=world.sim.now, direction=Direction.IN,
            src=2, dst=9, next_hop=9, prev_hop=2, ptype=3, packet_id=1,
            size_bytes=40, rssi_dbm=-100.0, snr_db=5.0,
        )
        batch = RecordBatch(
            node=9, batch_seq=0, sent_at=world.sim.now, packet_records=(record,)
        )
        outcomes = []
        uplink.send(batch, outcomes.append)
        world.sim.run(until=world.sim.now + 120.0)
        assert outcomes == [True]
        assert bridge.batches_bridged == 1
        assert server.store.packet_record_count(node=9) == 1

    def test_no_route_reports_failure(self, world):
        world.build(n_nodes=2, area_m=50.0)  # no warmup: no routes
        uplink = InBandUplink(world.nodes[2], gateway_address=1)
        outcomes = []
        uplink.send(make_batch(node=2), outcomes.append)
        assert outcomes == [False]
        assert uplink.stats.batches_lost == 1

    def test_gateway_cannot_be_self(self, small_mesh):
        with pytest.raises(ConfigurationError):
            InBandUplink(small_mesh.nodes[1], gateway_address=1)

    def test_wire_size_is_binary(self, small_mesh):
        uplink = InBandUplink(small_mesh.nodes[9], gateway_address=1)
        batch = make_batch(node=9)
        assert uplink.send(batch, lambda ok: None) == len(batch.to_binary())

    def test_bridge_ignores_data_messages(self, small_mesh):
        world = small_mesh
        server = MonitorServer()
        bridge = GatewayBridge(world.nodes[1], server)
        world.nodes[9].send_message(1, b"ordinary data")
        world.sim.run(until=world.sim.now + 60.0)
        assert bridge.batches_bridged == 0

    def test_bridge_counts_corrupt_batches(self, small_mesh):
        world = small_mesh
        server = MonitorServer()
        bridge = GatewayBridge(world.nodes[1], server)
        from repro.mesh.packet import PacketType
        world.nodes[9].send_message(1, b"garbage bytes", ptype=PacketType.TELEMETRY)
        world.sim.run(until=world.sim.now + 60.0)
        assert bridge.batches_rejected == 1
