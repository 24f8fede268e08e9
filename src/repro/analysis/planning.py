"""Radio-planning advice derived from telemetry (ADR-style).

LoRaWAN networks run Adaptive Data Rate: the server looks at each node's
SNR headroom and tells it to drop to a faster spreading factor (or raise
power).  The same reasoning applies to a monitored mesh — this module
turns the server's per-link SNR statistics into per-node SF and power
recommendations an administrator can apply.

The criterion mirrors semtech's ADR: for the *weakest link the node needs*
(its worst usable neighbor), compute the margin above the demodulation
floor at the current SF; every ~2.5 dB of margin allows one SF step down
(each step halves airtime).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.monitor import metrics
from repro.monitor.storage import TelemetryStore
from repro.phy.link import SNR_FLOOR_DB

#: Required SNR margin kept in reserve (fading headroom), dB.
ADR_MARGIN_DB = 10.0

#: SNR gained per SF step down (approximate, from the floor table).
SNR_PER_SF_STEP_DB = 2.5


@dataclass(frozen=True)
class SfRecommendation:
    """Spreading-factor advice for one node."""

    node: int
    current_sf: int
    recommended_sf: int
    weakest_needed_snr_db: float
    margin_db: float

    @property
    def airtime_factor(self) -> float:
        """Approximate airtime multiplier if the advice is applied
        (each SF step roughly doubles/halves time-on-air)."""
        return 2.0 ** (self.recommended_sf - self.current_sf)


def recommend_sf(
    weakest_snr_db: float,
    current_sf: int,
    margin_db: float = ADR_MARGIN_DB,
) -> int:
    """SF that keeps ``margin_db`` of headroom on the weakest needed link.

    Returns a value in 7..12; never recommends a *slower* SF than needed
    to close the link (if even SF12 cannot, returns 12).
    """
    for sf in range(7, 13):
        if weakest_snr_db >= SNR_FLOOR_DB[sf] + margin_db:
            return sf
    return 12


def sf_recommendations(
    store: TelemetryStore,
    current_sf: int,
    min_frames: int = 10,
    margin_db: float = ADR_MARGIN_DB,
) -> List[SfRecommendation]:
    """Per-node SF advice from observed inbound link SNRs.

    For each node, the constraint is the weakest link *into* it among
    links with enough evidence — if neighbors can still be demodulated
    after stepping down, the node's own transmissions (symmetric links)
    will also survive.
    """
    links = metrics.link_quality(store)
    weakest_in: Dict[int, float] = {}
    for (tx, rx), quality in links.items():
        if quality.frames < min_frames:
            continue
        snr = quality.snr_mean
        if rx not in weakest_in or snr < weakest_in[rx]:
            weakest_in[rx] = snr
    recommendations = []
    for node in sorted(weakest_in):
        weakest = weakest_in[node]
        recommended = recommend_sf(weakest, current_sf, margin_db=margin_db)
        recommendations.append(
            SfRecommendation(
                node=node,
                current_sf=current_sf,
                recommended_sf=recommended,
                weakest_needed_snr_db=weakest,
                margin_db=weakest - SNR_FLOOR_DB[current_sf],
            )
        )
    return recommendations


@dataclass(frozen=True)
class GatewayPlacement:
    """Score for hosting the gateway at a given node."""

    node: int
    mean_hops_to_all: float


def best_gateway_candidates(
    store: TelemetryStore,
    top: int = 3,
) -> List[GatewayPlacement]:
    """Rank nodes by mean shortest-path hop count to everyone else on the
    reconstructed topology — where the gateway *should* live.

    Uses breadth-first search over the telemetry-derived link graph.
    Unreachable pairs contribute a large penalty (the node count).
    """
    adjacency: Dict[int, List[int]] = {}
    for edge in metrics.neighbor_graph(store):
        adjacency.setdefault(edge.rx, []).append(edge.tx)
        adjacency.setdefault(edge.tx, []).append(edge.rx)
    for (tx, rx) in metrics.link_quality(store):
        adjacency.setdefault(rx, []).append(tx)
        adjacency.setdefault(tx, []).append(rx)
    nodes = sorted(adjacency)
    if not nodes:
        return []
    penalty = float(len(nodes))

    def mean_hops(source: int) -> float:
        distances = {source: 0}
        frontier = [source]
        while frontier:
            next_frontier = []
            for current in frontier:
                for neighbor in adjacency.get(current, ()):
                    if neighbor not in distances:
                        distances[neighbor] = distances[current] + 1
                        next_frontier.append(neighbor)
            frontier = next_frontier
        total = 0.0
        for node in nodes:
            if node == source:
                continue
            total += distances.get(node, penalty)
        return total / (len(nodes) - 1) if len(nodes) > 1 else 0.0

    ranked = sorted(
        (GatewayPlacement(node=node, mean_hops_to_all=mean_hops(node)) for node in nodes),
        key=lambda placement: (placement.mean_hops_to_all, placement.node),
    )
    return ranked[:top]
