"""Server-side metrics stores and the seam they share.

:class:`TelemetryStore` is the one interface every consumer of telemetry
is written against: the server's ingest path writes through it, and the
metric aggregations, the dashboard, the alerts and the HTTP API read
through it.  Two backends implement it:

* :class:`MetricsStore` (here) — in memory, indexed per observer node,
  with bounded retention;
* :class:`~repro.monitor.sqlitestore.SqliteMetricsStore` — durable,
  buffered writes, for servers that must survive restarts.

A multi-tenant server holds one store per network (see
:mod:`repro.monitor.registry`); a store never contains records from more
than one network.  Stores are deliberately schema-first rather than a
generic TSDB: the record types are fixed, so queries expose exactly the
filters the dashboard needs (observer, direction, packet type, time
window, src/dst).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Iterable, Iterator, List, Optional, Protocol, Tuple, TypeVar

from repro.errors import StorageError
from repro.monitor.records import Direction, PacketRecord, StatusRecord


@dataclass
class FlushStats:
    """Counters for a buffered write path ("monitor the monitor")."""

    flushes: int = 0
    records_flushed: int = 0
    last_latency_s: float = 0.0
    max_latency_s: float = 0.0
    total_latency_s: float = 0.0

    def note(self, records: int, latency_s: float) -> None:
        self.flushes += 1
        self.records_flushed += records
        self.last_latency_s = latency_s
        self.max_latency_s = max(self.max_latency_s, latency_s)
        self.total_latency_s += latency_s


_StoreT = TypeVar("_StoreT", bound="TelemetryStore")


class TelemetryStore(Protocol):
    """What a telemetry store does, for every backend.

    Both backends subclass this explicitly, and
    ``tests/unit/test_store_contract.py`` feeds one stream (with retries
    and out-of-order arrival) through each and requires the same answer
    from every read method below.  The read contract:

    * ``status_records`` come back in ``seq`` order, and
      ``latest_status`` is the record with the highest ``seq`` — not the
      last to arrive: in-band batches can reach the gateway out of order.
    * ``packet_records`` come back ordered by node, then ``seq``.
    * ``time_bounds`` is the earliest and latest packet-record timestamp.

    Retention is outside the contract: only :class:`MetricsStore` has a
    bound (``evictions``).

    Writes may be buffered: a read always sees every write made before
    it, and ``flush`` makes buffered writes durable.  ``flush_stats`` is
    None for a store that never buffers.
    """

    flush_stats: Optional[FlushStats]

    # -- writes ---------------------------------------------------------------

    def add_packet_record(self, record: PacketRecord) -> None: ...

    def add_status_record(self, record: StatusRecord) -> None: ...

    def add_packet_records(self, records: Iterable[PacketRecord]) -> None: ...

    def add_status_records(self, records: Iterable[StatusRecord]) -> None: ...

    def note_batch(self, node: int, received_at: float, dropped_records: int) -> None:
        """Record batch-level metadata (client-side loss, liveness)."""

    # -- lifecycle ------------------------------------------------------------

    def maybe_flush(self) -> bool:
        """Flush when a size/age threshold is due; True when one ran.

        The server calls this once per ingested batch.  A store that
        never buffers has nothing to flush.
        """
        return False

    def flush(self) -> bool:
        """Write out everything buffered; True when anything was pending."""
        ...

    def close(self) -> None:
        """Flush and release resources (idempotent)."""
        ...

    def __enter__(self: _StoreT) -> _StoreT:
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.close()

    # -- reads ----------------------------------------------------------------

    def nodes(self) -> List[int]:
        """All node addresses that ever reported anything, sorted."""
        ...

    def packet_records(
        self,
        node: Optional[int] = None,
        direction: Optional[Direction] = None,
        ptype: Optional[int] = None,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Iterator[PacketRecord]:
        """Iterate packet records matching all given filters."""
        ...

    def status_records(
        self,
        node: int,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Iterator[StatusRecord]:
        """Iterate one node's status records in ``seq`` order."""
        ...

    def latest_status(self, node: int) -> Optional[StatusRecord]:
        """The node's status record with the highest ``seq``."""
        ...

    def status_series(
        self,
        node: int,
        fields: List[str],
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[Dict[str, float]]:
        """Extract a time series of status fields for plotting.

        Raises:
            StorageError: when a requested field does not exist.
        """
        series = []
        for record in self.status_records(node, since=since, until=until):
            point: Dict[str, float] = {"ts": record.timestamp}
            for name in fields:
                if not hasattr(record, name):
                    raise StorageError(f"unknown status field {name!r}")
                point[name] = float(getattr(record, name))
            series.append(point)
        return series

    def last_seen(self, node: int) -> Optional[float]:
        """Server receive time of the node's most recent batch."""
        ...

    def reported_drops(self, node: int) -> int:
        """Client-reported buffer-overflow drops for ``node``."""
        ...

    def packet_record_count(self, node: Optional[int] = None) -> int: ...

    def status_record_count(self, node: Optional[int] = None) -> int: ...

    @property
    def evictions(self) -> int:
        """Packet records discarded due to a retention bound."""
        ...

    def time_bounds(self) -> Optional[Tuple[float, float]]:
        """(earliest, latest) packet-record timestamp, or None when empty."""
        ...


_Record = TypeVar("_Record", PacketRecord, StatusRecord)


def _insert_late(bucket: "Deque[_Record]", record: _Record) -> bool:
    """Insert ``record``, whose ``seq`` is below the last one in
    ``bucket``, at its ``seq`` position.

    Records arrive late when in-band batches overtake each other on the
    way to the gateway.  A full bucket drops its lowest ``seq`` instead
    (the late record itself when it is older than everything kept).
    Returns True when a record was dropped.
    """
    index = len(bucket) - 1
    while index > 0 and bucket[index - 1].seq > record.seq:
        index -= 1
    full = len(bucket) == bucket.maxlen
    if full:
        if index == 0:
            return True
        bucket.popleft()
        index -= 1
    bucket.insert(index, record)
    return full


class MetricsStore(TelemetryStore):
    """In-memory time-series store for telemetry records.

    Each node's records sit in a ``seq``-ordered bounded deque, so the
    batch adds are plain loops, writes are immediately visible and
    flush/close have nothing to do.
    """

    flush_stats: Optional[FlushStats] = None

    def __init__(self, max_packet_records_per_node: int = 200_000, max_status_records_per_node: int = 20_000) -> None:
        if max_packet_records_per_node < 1 or max_status_records_per_node < 1:
            raise StorageError("retention bounds must be >= 1")
        self._packet_by_node: Dict[int, Deque[PacketRecord]] = {}
        self._status_by_node: Dict[int, Deque[StatusRecord]] = {}
        self._max_packets = max_packet_records_per_node
        self._max_status = max_status_records_per_node
        self._packet_evictions = 0
        self._dropped_reported: Dict[int, int] = {}
        self._last_batch_at: Dict[int, float] = {}

    # -- writes ---------------------------------------------------------------

    def add_packet_record(self, record: PacketRecord) -> None:
        bucket = self._packet_by_node.get(record.node)
        if bucket is None:
            bucket = deque(maxlen=self._max_packets)
            self._packet_by_node[record.node] = bucket
        if bucket and record.seq < bucket[-1].seq:
            dropped = _insert_late(bucket, record)
        else:
            dropped = len(bucket) == self._max_packets
            bucket.append(record)
        if dropped:
            self._packet_evictions += 1

    def add_status_record(self, record: StatusRecord) -> None:
        bucket = self._status_by_node.get(record.node)
        if bucket is None:
            bucket = deque(maxlen=self._max_status)
            self._status_by_node[record.node] = bucket
        if bucket and record.seq < bucket[-1].seq:
            _insert_late(bucket, record)
        else:
            bucket.append(record)

    def add_packet_records(self, records: Iterable[PacketRecord]) -> None:
        for record in records:
            self.add_packet_record(record)

    def add_status_records(self, records: Iterable[StatusRecord]) -> None:
        for record in records:
            self.add_status_record(record)

    def flush(self) -> bool:
        """Nothing is buffered; returns False."""
        return False

    def close(self) -> None:
        """Nothing to release."""

    def note_batch(self, node: int, received_at: float, dropped_records: int) -> None:
        self._last_batch_at[node] = received_at
        if dropped_records:
            self._dropped_reported[node] = (
                self._dropped_reported.get(node, 0) + dropped_records
            )

    # -- reads ----------------------------------------------------------------

    def nodes(self) -> List[int]:
        return sorted(
            set(self._packet_by_node) | set(self._status_by_node) | set(self._last_batch_at)
        )

    def packet_records(
        self,
        node: Optional[int] = None,
        direction: Optional[Direction] = None,
        ptype: Optional[int] = None,
        src: Optional[int] = None,
        dst: Optional[int] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Iterator[PacketRecord]:
        if node is not None:
            buckets = [self._packet_by_node.get(node, deque())]
        else:
            buckets = [self._packet_by_node[key] for key in sorted(self._packet_by_node)]
        for bucket in buckets:
            for record in bucket:
                if direction is not None and record.direction != direction:
                    continue
                if ptype is not None and record.ptype != ptype:
                    continue
                if src is not None and record.src != src:
                    continue
                if dst is not None and record.dst != dst:
                    continue
                if since is not None and record.timestamp < since:
                    continue
                if until is not None and record.timestamp > until:
                    continue
                yield record

    def status_records(
        self,
        node: int,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> Iterator[StatusRecord]:
        for record in self._status_by_node.get(node, ()):
            if since is not None and record.timestamp < since:
                continue
            if until is not None and record.timestamp > until:
                continue
            yield record

    def latest_status(self, node: int) -> Optional[StatusRecord]:
        bucket = self._status_by_node.get(node)
        if not bucket:
            return None
        return bucket[-1]

    def last_seen(self, node: int) -> Optional[float]:
        return self._last_batch_at.get(node)

    def reported_drops(self, node: int) -> int:
        return self._dropped_reported.get(node, 0)

    def packet_record_count(self, node: Optional[int] = None) -> int:
        if node is not None:
            return len(self._packet_by_node.get(node, ()))
        return sum(len(bucket) for bucket in self._packet_by_node.values())

    def status_record_count(self, node: Optional[int] = None) -> int:
        if node is not None:
            return len(self._status_by_node.get(node, ()))
        return sum(len(bucket) for bucket in self._status_by_node.values())

    @property
    def evictions(self) -> int:
        return self._packet_evictions

    def time_bounds(self) -> Optional[Tuple[float, float]]:
        # Buckets are seq-ordered and an agent stamps records in seq
        # order, so each bucket's ends are its earliest and latest.
        earliest: Optional[float] = None
        latest: Optional[float] = None
        for bucket in self._packet_by_node.values():
            if not bucket:
                continue
            if earliest is None or bucket[0].timestamp < earliest:
                earliest = bucket[0].timestamp
            if latest is None or bucket[-1].timestamp > latest:
                latest = bucket[-1].timestamp
        if earliest is None or latest is None:
            return None
        return (earliest, latest)
