"""Per-node and network health scoring.

A single 0..100 score per node summarises four weighted components:

* **liveness** (40 %): how recently the node's last batch arrived,
  relative to the expected report interval;
* **delivery** (30 %): the node's PDR as a traffic source;
* **spectrum headroom** (15 %): distance from the duty-cycle cap;
* **battery** (15 %): voltage between the cutoff (3.0 V) and full (4.2 V).

Components without data score neutral (their weight redistributes), so a
node that never sent traffic is not punished for unknown PDR.

This module is the only place the component maps and their weighting
live: the store-scanning scores below and the incremental fleet tiles
(:meth:`repro.monitor.fleet.TileAggregate.health`) both feed their
inputs through :func:`combined_score` and :func:`mean_score`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, Optional, Tuple

from repro.monitor import metrics
from repro.monitor.storage import TelemetryStore

BATTERY_EMPTY_V = 3.0
BATTERY_FULL_V = 4.2

#: Window of delivery history the store-scanning scores look back over.
PDR_WINDOW_S = 1800.0


@dataclass(frozen=True)
class HealthScore:
    """One node's health decomposition."""

    node: int
    score: float
    liveness: Optional[float]
    delivery: Optional[float]
    spectrum: Optional[float]
    battery: Optional[float]


def _clamp01(value: float) -> float:
    return max(0.0, min(1.0, value))


def liveness_component(
    last_seen: Optional[float], now: float, report_interval_s: float
) -> Optional[float]:
    """1.0 up to one interval of silence, linearly to 0.0 at five."""
    if last_seen is None:
        return None
    silence = now - last_seen
    return _clamp01(1.0 - (silence - report_interval_s) / (4.0 * report_interval_s))


def delivery_component(sent: int, delivered: int) -> Optional[float]:
    """The source's delivery ratio; None before it sent anything."""
    return delivered / sent if sent > 0 else None


def spectrum_component(duty_utilisation: Optional[float]) -> Optional[float]:
    """Headroom below the duty-cycle cap."""
    if duty_utilisation is None:
        return None
    return _clamp01(1.0 - duty_utilisation)


def battery_component(battery_v: Optional[float]) -> Optional[float]:
    """Charge between the cutoff and full voltage."""
    if battery_v is None:
        return None
    return _clamp01((battery_v - BATTERY_EMPTY_V) / (BATTERY_FULL_V - BATTERY_EMPTY_V))


def combined_score(
    liveness: Optional[float],
    delivery: Optional[float],
    spectrum: Optional[float],
    battery: Optional[float],
) -> float:
    """Weighted 0..100 score of the defined components; NaN if none is.

    The weights are liveness 40 %, delivery 30 %, spectrum and battery
    15 % each; an undefined component's weight redistributes.
    """
    total_weight = 0.0
    weighted = 0.0
    for weight, value in (
        (0.40, liveness), (0.30, delivery), (0.15, spectrum), (0.15, battery)
    ):
        if value is not None:
            total_weight += weight
            weighted += weight * value
    if total_weight == 0:
        return math.nan
    return 100.0 * weighted / total_weight


def mean_score(scores: Iterable[float]) -> float:
    """Network-level score: the mean of the defined node scores."""
    defined = [score for score in scores if not math.isnan(score)]
    return sum(defined) / len(defined) if defined else math.nan


def _source_totals(
    store: TelemetryStore, now: float, pdr_window_s: float
) -> Dict[int, Tuple[int, int]]:
    """(sent, delivered) per traffic source over one windowed PDR scan."""
    totals: Dict[int, Tuple[int, int]] = {}
    pairs = metrics.pdr_matrix(store, since=now - pdr_window_s, until=now)
    for (src, _dst), pair in pairs.items():
        sent, delivered = totals.get(src, (0, 0))
        totals[src] = (sent + pair.sent, delivered + pair.delivered)
    return totals


def _score(
    store: TelemetryStore,
    node: int,
    now: float,
    report_interval_s: float,
    traffic: Tuple[int, int],
) -> HealthScore:
    liveness = liveness_component(store.last_seen(node), now, report_interval_s)
    delivery = delivery_component(*traffic)
    status = store.latest_status(node)
    spectrum = spectrum_component(status.duty_utilisation if status else None)
    battery = battery_component(status.battery_v if status else None)
    return HealthScore(
        node=node,
        score=combined_score(liveness, delivery, spectrum, battery),
        liveness=liveness,
        delivery=delivery,
        spectrum=spectrum,
        battery=battery,
    )


def node_health(
    store: TelemetryStore,
    node: int,
    now: float,
    report_interval_s: float = 60.0,
    pdr_window_s: float = PDR_WINDOW_S,
) -> HealthScore:
    """Compute the health score for one node."""
    traffic = _source_totals(store, now, pdr_window_s).get(node, (0, 0))
    return _score(store, node, now, report_interval_s, traffic)


def network_health(
    store: TelemetryStore,
    now: float,
    report_interval_s: float = 60.0,
) -> Dict[int, HealthScore]:
    """Health scores for every known node, from one windowed PDR scan."""
    totals = _source_totals(store, now, PDR_WINDOW_S)
    return {
        node: _score(store, node, now, report_interval_s, totals.get(node, (0, 0)))
        for node in store.nodes()
    }


def network_health_score(
    store: TelemetryStore,
    now: float,
    report_interval_s: float = 60.0,
) -> float:
    """Single network-level score: the mean of defined node scores."""
    return mean_score(
        health.score for health in network_health(store, now, report_interval_s).values()
    )
