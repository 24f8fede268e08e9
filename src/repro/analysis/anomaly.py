"""Statistical anomaly detection on telemetry time series.

A rolling z-score detector over status-record series: a point is anomalous
when it deviates from the trailing window's mean by more than ``threshold``
standard deviations.  Used by the fault-diagnosis example to spot sudden
queue growth, RSSI collapse or counter stalls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Anomaly:
    """One detected outlier point."""

    index: int
    timestamp: float
    value: float
    expected: float
    z_score: float


def detect_anomalies(
    points: Sequence[Dict[str, float]],
    field: str,
    window: int = 10,
    threshold: float = 3.0,
    min_std: float = 1e-9,
) -> List[Anomaly]:
    """Rolling z-score anomaly detection.

    Args:
        points: series as produced by ``TelemetryStore.status_series`` —
            dicts with a ``ts`` key and the named field.
        field: which field to analyse.
        window: trailing window length (points before the candidate).
        threshold: |z| above which a point is anomalous.
        min_std: floor on the window's standard deviation; a perfectly
            flat window uses this floor, so any change on a constant
            series is flagged.

    Raises:
        ConfigurationError: on a too-small window or bad threshold.
    """
    if window < 2:
        raise ConfigurationError(f"window must be >= 2, got {window}")
    if threshold <= 0:
        raise ConfigurationError(f"threshold must be > 0, got {threshold}")
    anomalies: List[Anomaly] = []
    values = [float(point[field]) for point in points]
    for index in range(window, len(values)):
        trailing = values[index - window:index]
        mean = sum(trailing) / window
        variance = sum((value - mean) ** 2 for value in trailing) / window
        std = max(math.sqrt(variance), min_std)
        z = (values[index] - mean) / std
        if abs(z) > threshold:
            anomalies.append(
                Anomaly(
                    index=index,
                    timestamp=float(points[index]["ts"]),
                    value=values[index],
                    expected=mean,
                    z_score=z,
                )
            )
    return anomalies
