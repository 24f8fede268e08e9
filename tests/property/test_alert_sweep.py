"""Property: a shard's alert sweep equals a store-backed sweep.

A server shard's engine judges its sweeps from the shard's in-memory
aggregates (node snapshots and the windowed delivery ledger) and reads
no store.  Over any ingest stream — duplicate-seq retries, permuted
batch arrival, repeated origin reports, records stamped before the PDR
window or after the server clock, node silences and battery, duty and
queue threshold crossings — and sweeps at non-decreasing times, the
shard engine must end every sweep in the state of an
``AlertEngine(server.store)`` fed the same O(delta) observations and
evaluated at the same times: the same active alerts with the same
``raised_at``, the same raised and cleared alerts, and the same
``alert-raised``/``alert-cleared`` events on the network's topic.  Both
store backends are checked.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import MetricsStore, MonitorServer, RecordBatch, SqliteMetricsStore
from repro.mesh.addressing import BROADCAST
from repro.monitor.alerts import AlertEngine, LowPdrRule
from repro.monitor.records import Direction, PacketRecord, StatusRecord
from repro.monitor.stream.events import network_topic

NODES = (1, 2, 3, 4)
#: The default low-PDR window; record offsets and clock steps are
#: multiples of 30 s, so records land exactly on window edges.
WINDOW_S = LowPdrRule().window_s

#: A burst of unicast DATA packets: (packets, src, dst offset, delivered,
#: origin reports, timestamp offset from the server clock, noise kind).
packets = st.tuples(
    st.sampled_from([1, 1, 3, 6]),  # bursts carry pairs past min_sent
    st.sampled_from(NODES),
    st.integers(min_value=1, max_value=3),
    st.booleans(),
    st.sampled_from([1, 1, 1, 2]),  # 2: the origin reports the send twice
    st.sampled_from([0.0, 0.0, -30.0, -60.0, 30.0, 300.0, -WINDOW_S, -WINDOW_S - 30.0, -2400.0]),
    st.sampled_from(["none", "none", "none", "relay", "retry", "broadcast"]),
)
#: (node, battery volts, duty utilisation, queue depth), around each threshold.
statuses = st.tuples(
    st.sampled_from(NODES),
    st.sampled_from([3.3, 3.5, 3.9]),
    st.sampled_from([0.5, 0.8, 0.95]),
    st.sampled_from([3, 10, 12]),
)
traffic_steps = st.tuples(
    st.just("traffic"),
    st.sampled_from([0.0, 30.0, 60.0, 90.0, 240.0, 900.0]),  # clock advance
    st.lists(packets, max_size=8),
    st.lists(statuses, max_size=3),
    st.sets(st.sampled_from(NODES), max_size=2),  # silent this step
)
retry_steps = st.tuples(st.just("retry"), st.integers(min_value=0, max_value=1000))
sweep_steps = st.tuples(
    st.just("sweep"), st.sampled_from([0.0, 30.0, 60.0, 300.0, 1800.0])
)
plans = st.lists(st.one_of(traffic_steps, retry_steps, sweep_steps), max_size=30)


class Agent:
    """One node's record numbering (seqs survive across batches)."""

    def __init__(self, node):
        self.node = node
        self.seq = 0
        self.batch_seq = 0

    def next_seq(self):
        self.seq += 1
        return self.seq


def packet(agent, ts, direction, src, dst, packet_id, attempt=1):
    return PacketRecord(
        node=agent.node, seq=agent.next_seq(), timestamp=ts, direction=direction,
        src=src, dst=dst, next_hop=dst, prev_hop=src, ptype=3,
        packet_id=packet_id, size_bytes=40, attempt=attempt,
    )


def status(agent, ts, battery_v, duty, queue_depth):
    return StatusRecord(
        node=agent.node, seq=agent.next_seq(), timestamp=ts, uptime_s=ts,
        queue_depth=queue_depth, route_count=1, neighbor_count=1,
        battery_v=battery_v, tx_frames=1, tx_airtime_s=0.1, retransmissions=0,
        drops=0, duty_utilisation=duty, originated=0, delivered=0, forwarded=0,
    )


def traffic_batches(agents, now, entries, reports, silent, next_id):
    """One step's records, grouped into one batch per reporting node."""
    records = {node: [] for node in NODES}
    for burst, src, dst_offset, delivered, reports_sent, offset, noise in entries:
        dst = (src - 1 + dst_offset) % len(NODES) + 1
        ts = now + offset
        for _ in range(burst):
            packet_id = next_id()
            if noise == "broadcast":
                records[src].append(
                    packet(agents[src], ts, Direction.OUT, src, BROADCAST, packet_id)
                )
                continue
            for report in range(reports_sent):
                records[src].append(
                    packet(agents[src], ts + 30.0 * report, Direction.OUT, src, dst, packet_id)
                )
            if noise == "retry":
                records[src].append(
                    packet(agents[src], ts, Direction.OUT, src, dst, packet_id, attempt=2)
                )
            if noise == "relay":
                relay = dst % len(NODES) + 1
                if relay != src:
                    records[relay].append(
                        packet(agents[relay], ts, Direction.IN, src, dst, packet_id)
                    )
                    records[relay].append(
                        packet(agents[relay], ts, Direction.OUT, src, dst, packet_id)
                    )
            if delivered:
                records[dst].append(packet(agents[dst], ts, Direction.IN, src, dst, packet_id))
    status_records = {node: [] for node in NODES}
    for node, battery_v, duty, queue_depth in reports:
        status_records[node].append(status(agents[node], now, battery_v, duty, queue_depth))
    batches = []
    for node in NODES:
        if node in silent or not (records[node] or status_records[node]):
            continue
        agent = agents[node]
        agent.batch_seq += 1
        batches.append(RecordBatch(
            node=node, batch_seq=agent.batch_seq, sent_at=now,
            packet_records=tuple(records[node]),
            status_records=tuple(status_records[node]),
        ))
    return batches


def alert_key(alert):
    return (alert.rule, alert.node, alert.message, alert.raised_at)


def event_of(kind, alert, now):
    data = alert.to_json_dict()
    data["network"] = "default"
    if kind == "alert-cleared":
        data["cleared_at"] = now
    return (kind, data)


def drain_alert_events(subscription):
    events = []
    while True:
        event = subscription.get_nowait()
        if event is None:
            return events
        if event.type in ("alert-raised", "alert-cleared"):
            events.append((event.type, event.data))


class TestShardSweepEqualsStoreSweep:
    @pytest.mark.parametrize("backend", [MetricsStore, SqliteMetricsStore])
    @given(plan=plans, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_sweeps_agree(self, backend, plan, data):
        clock = {"now": 0.0}
        store = backend()
        server = MonitorServer(store=store, clock=lambda: clock["now"])
        reference = AlertEngine(store)
        shard = server.shard_for("default")
        subscription = server.stream.subscribe([network_topic("default")], queue_size=100_000)
        agents = {node: Agent(node) for node in NODES}
        counter = iter(range(1, 1_000_000))
        sent = []
        expected_events = []

        def reference_sweep(now):
            raised, cleared = reference.evaluate_changes(now)
            expected_events.extend(event_of("alert-raised", alert, now) for alert in raised)
            expected_events.extend(event_of("alert-cleared", alert, now) for alert in cleared)
            return raised

        def ingest(batch):
            sweeps = server.alert_sweeps
            assert server.ingest(batch).ok
            now = clock["now"]
            raised, cleared = reference.observe(now, (shard.tile.node_delta(batch.node),))
            expected_events.extend(event_of("alert-raised", alert, now) for alert in raised)
            expected_events.extend(event_of("alert-cleared", alert, now) for alert in cleared)
            if server.alert_sweeps != sweeps:  # the drain's paced sweep ran
                reference_sweep(now)

        def check():
            assert [alert_key(a) for a in shard.alerts.active()] == [
                alert_key(a) for a in reference.active()
            ]
            assert drain_alert_events(subscription) == expected_events
            expected_events.clear()

        try:
            for step in plan:
                if step[0] == "traffic":
                    _, advance, entries, reports, silent = step
                    clock["now"] += advance
                    batches = traffic_batches(
                        agents, clock["now"], entries, reports, silent, lambda: next(counter)
                    )
                    for batch in data.draw(st.permutations(batches)):
                        ingest(batch)
                        sent.append(batch)
                elif step[0] == "retry":
                    if sent:
                        ingest(sent[step[1] % len(sent)])
                else:
                    clock["now"] += step[1]
                    now = clock["now"]
                    raised = server.sweep_alerts(now)
                    assert [alert_key(a) for a in raised] == [
                        alert_key(a) for a in reference_sweep(now)
                    ]
                check()
        finally:
            server.close()
            store.close()
