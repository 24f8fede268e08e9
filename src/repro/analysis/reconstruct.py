"""Topology reconstruction from telemetry.

The server never sees the deployment map; it infers the radio graph from
two independent evidence streams:

* the neighbor tables nodes ship inside status records, and
* the per-frame IN records (observer heard prev_hop).

A link confirmed by both streams is high-confidence; either stream alone
still yields a link with its source recorded, so experiment F3 can study
how quickly each stream converges to the true graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.monitor import metrics
from repro.monitor.storage import TelemetryStore


@dataclass(frozen=True)
class ReconstructedLink:
    """One inferred directed radio link."""

    tx: int
    rx: int
    rssi_dbm: float
    evidence: str  # "status", "packets" or "both"
    frames: int


def reconstruct_topology(
    store: TelemetryStore,
    since: Optional[float] = None,
    min_frames: int = 1,
) -> Dict[Tuple[int, int], ReconstructedLink]:
    """Infer the directed link set from all telemetry in the store.

    Args:
        store: server-side record store.
        since: ignore packet evidence older than this (status evidence uses
            the latest snapshot regardless).
        min_frames: packet-evidence links heard fewer times are discarded
            (filters one-off lucky receptions at the sensitivity edge).
    """
    links: Dict[Tuple[int, int], ReconstructedLink] = {}

    for edge in metrics.neighbor_graph(store):
        links[(edge.tx, edge.rx)] = ReconstructedLink(
            tx=edge.tx,
            rx=edge.rx,
            rssi_dbm=edge.rssi_dbm,
            evidence="status",
            frames=edge.frames_heard,
        )

    for (tx, rx), quality in metrics.link_quality(store, since=since).items():
        if quality.frames < min_frames:
            continue
        existing = links.get((tx, rx))
        if existing is None:
            links[(tx, rx)] = ReconstructedLink(
                tx=tx,
                rx=rx,
                rssi_dbm=quality.rssi_mean,
                evidence="packets",
                frames=quality.frames,
            )
        else:
            links[(tx, rx)] = ReconstructedLink(
                tx=tx,
                rx=rx,
                rssi_dbm=quality.rssi_mean,
                evidence="both",
                frames=max(existing.frames, quality.frames),
            )
    return links


def reconstructed_adjacency(
    store: TelemetryStore,
    since: Optional[float] = None,
    min_frames: int = 1,
) -> Dict[int, List[int]]:
    """Adjacency list view of :func:`reconstruct_topology` (rx hears tx)."""
    adjacency: Dict[int, List[int]] = {}
    for (tx, rx) in reconstruct_topology(store, since=since, min_frames=min_frames):
        adjacency.setdefault(rx, []).append(tx)
    for neighbors in adjacency.values():
        neighbors.sort()
    return adjacency
