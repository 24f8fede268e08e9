"""Time-series rollups (downsampling) for long-running servers.

Raw per-packet records grow without bound; dashboards plotting a week of
history want fixed-interval aggregates instead.  A :class:`RollupSeries`
buckets samples into intervals and keeps count/sum/min/max per bucket;
:func:`rollup_packet_rate` and :func:`rollup_status_field` build the two
rollups the dashboard's history panels need.  Rollups read one store, so
on a multi-tenant server they are per-network by construction (the
``/api/v1/networks/<id>/history`` route passes that network's shard).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Set

from repro.errors import ConfigurationError
from repro.monitor.records import Direction
from repro.monitor.storage import TelemetryStore


@dataclass
class Bucket:
    """Aggregates for one rollup interval."""

    start: float
    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf

    def add(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)

    @property
    def mean(self) -> float:
        if not self.count:
            return math.nan
        # Float accumulation in `total` can put total/count an ulp outside
        # [minimum, maximum]; clamp so the invariant min <= mean <= max
        # holds exactly for consumers (dashboard bars, the history API).
        return min(max(self.total / self.count, self.minimum), self.maximum)


class RollupSeries:
    """Fixed-interval bucketing of (timestamp, value) samples."""

    def __init__(self, interval_s: float, origin: float = 0.0) -> None:
        if interval_s <= 0:
            raise ConfigurationError(f"interval_s must be > 0, got {interval_s}")
        self.interval_s = interval_s
        self.origin = origin
        self._buckets: Dict[int, Bucket] = {}

    def add(self, timestamp: float, value: float) -> None:
        index = int((timestamp - self.origin) // self.interval_s)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = Bucket(start=self.origin + index * self.interval_s)
            self._buckets[index] = bucket
        bucket.add(value)

    def buckets(self) -> List[Bucket]:
        """Buckets in time order (gaps are simply absent)."""
        return [self._buckets[index] for index in sorted(self._buckets)]

    def __len__(self) -> int:
        return len(self._buckets)


def bucket_document(bucket: Bucket, interval_s: float) -> Dict[str, Any]:
    """One bucket as the JSON object the history route and the stream share."""
    return {
        "start": bucket.start,
        "interval_s": interval_s,
        "count": bucket.count,
        "mean": bucket.mean,
        "min": bucket.minimum,
        "max": bucket.maximum,
    }


class IncrementalRollup(RollupSeries):
    """A :class:`RollupSeries` fed sample-by-sample at ingest time.

    Same bucket math as the batch rollup — the math *is* the parent's,
    so a store replayed record-by-record lands in bucket-identical
    state (a property test pins this, including out-of-order and
    duplicate timestamps).  On top of it, the incremental rollup tracks
    which buckets changed since the last :meth:`drain_updates` call;
    those are exactly the ``rollup-update`` delta events the push
    pipeline publishes, so the stream carries O(changed buckets) per
    batch instead of the whole series.
    """

    def __init__(self, interval_s: float, origin: float = 0.0) -> None:
        super().__init__(interval_s, origin=origin)
        self._dirty: Set[int] = set()

    def add(self, timestamp: float, value: float) -> None:
        super().add(timestamp, value)
        self._dirty.add(int((timestamp - self.origin) // self.interval_s))

    @property
    def pending_updates(self) -> int:
        """Buckets changed since the last drain."""
        return len(self._dirty)

    def drain_updates(self) -> List[Bucket]:
        """The buckets touched since the last drain, in time order."""
        if not self._dirty:
            return []
        dirty, self._dirty = self._dirty, set()
        return [self._buckets[index] for index in sorted(dirty)]


def rollup_packet_rate(
    store: TelemetryStore,
    interval_s: float = 300.0,
    node: Optional[int] = None,
    direction: Optional[Direction] = None,
) -> RollupSeries:
    """Frames observed per interval (count per bucket = frames; the mean
    field carries frame sizes for a bytes view)."""
    series = RollupSeries(interval_s=interval_s)
    for record in store.packet_records(node=node, direction=direction):
        series.add(record.timestamp, float(record.size_bytes))
    return series


def rollup_status_field(
    store: TelemetryStore,
    node: int,
    field: str,
    interval_s: float = 300.0,
) -> RollupSeries:
    """Rollup of one status field (queue depth, duty, battery, ...)."""
    series = RollupSeries(interval_s=interval_s)
    for point in store.status_series(node, [field]):
        series.add(point["ts"], point[field])
    return series
