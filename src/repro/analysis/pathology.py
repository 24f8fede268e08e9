"""Network pathology detection from telemetry alone.

These analyses answer the questions an administrator asks the paper's
dashboard when the network misbehaves — using nothing but the records the
server holds (no access to the simulator's ground truth):

* :func:`congested_relays` — nodes whose retransmission rate and airtime
  share mark them as the bottleneck;
* :func:`hidden_terminal_pairs` — transmitter pairs that share a receiver
  but have no radio link to each other, the classic CSMA failure mode;
* :func:`asymmetric_links` — links heard much better in one direction
  (bad antennas, marginal placements) that break per-hop ACKs;
* :func:`starving_sources` — sources whose PDR is far below the network
  median.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.monitor import metrics
from repro.monitor.storage import TelemetryStore


@dataclass(frozen=True)
class CongestedRelay:
    """A node flagged as a congestion bottleneck."""

    node: int
    retransmission_rate: float
    airtime_share: float


def congested_relays(
    store: TelemetryStore,
    retx_threshold: float = 0.25,
    airtime_share_threshold: float = 0.10,
) -> List[CongestedRelay]:
    """Nodes with both a high retransmission rate and an outsized share of
    the network's transmit airtime."""
    retx = metrics.retransmission_rate(store)
    airtime = metrics.airtime_by_node(store)
    total_airtime = sum(airtime.values())
    flagged = []
    for node in sorted(airtime):
        share = airtime[node] / total_airtime if total_airtime else 0.0
        rate = retx.get(node, 0.0)
        if math.isnan(rate):
            continue
        if rate >= retx_threshold and share >= airtime_share_threshold:
            flagged.append(
                CongestedRelay(node=node, retransmission_rate=rate, airtime_share=share)
            )
    return flagged


@dataclass(frozen=True)
class HiddenTerminalPair:
    """Two transmitters that contend at a receiver but cannot hear each
    other — CSMA cannot arbitrate them."""

    tx_a: int
    tx_b: int
    shared_receiver: int
    frames_a: int
    frames_b: int


def hidden_terminal_pairs(
    store: TelemetryStore,
    min_frames: int = 10,
) -> List[HiddenTerminalPair]:
    """Find potential hidden-terminal pairs from the link evidence.

    A pair (a, b) is flagged when some receiver r hears both (with at
    least ``min_frames`` frames from each) but there is no link evidence
    in either direction between a and b themselves.
    """
    links = metrics.link_quality(store)
    heard_by: Dict[int, Dict[int, int]] = {}
    link_exists: Set[Tuple[int, int]] = set()
    for (tx, rx), quality in links.items():
        link_exists.add((tx, rx))
        heard_by.setdefault(rx, {})[tx] = quality.frames

    pairs: Dict[Tuple[int, int], HiddenTerminalPair] = {}
    for receiver, transmitters in heard_by.items():
        strong = {tx: n for tx, n in transmitters.items() if n >= min_frames}
        ordered = sorted(strong)
        for index, tx_a in enumerate(ordered):
            for tx_b in ordered[index + 1:]:
                if (tx_a, tx_b) in link_exists or (tx_b, tx_a) in link_exists:
                    continue
                key = (tx_a, tx_b)
                if key not in pairs:
                    pairs[key] = HiddenTerminalPair(
                        tx_a=tx_a,
                        tx_b=tx_b,
                        shared_receiver=receiver,
                        frames_a=strong[tx_a],
                        frames_b=strong[tx_b],
                    )
    return [pairs[key] for key in sorted(pairs)]


@dataclass(frozen=True)
class AsymmetricLink:
    """A link whose two directions differ sharply in quality."""

    node_a: int
    node_b: int
    rssi_a_to_b: Optional[float]
    rssi_b_to_a: Optional[float]

    @property
    def delta_db(self) -> float:
        if self.rssi_a_to_b is None or self.rssi_b_to_a is None:
            return math.inf
        return abs(self.rssi_a_to_b - self.rssi_b_to_a)


def asymmetric_links(
    store: TelemetryStore,
    delta_threshold_db: float = 6.0,
    min_frames: int = 5,
) -> List[AsymmetricLink]:
    """Links heard in only one direction, or with a large RSSI asymmetry.

    One-way links break per-hop ACKs (data gets through, the ACK does
    not), showing up as retransmission storms; flagging them from
    telemetry lets the administrator fix the physical cause.
    """
    links = metrics.link_quality(store)
    flagged = []
    seen: Set[Tuple[int, int]] = set()
    for (tx, rx), quality in links.items():
        if quality.frames < min_frames:
            continue
        key = (min(tx, rx), max(tx, rx))
        if key in seen:
            continue
        seen.add(key)
        reverse = links.get((rx, tx))
        forward_rssi = quality.rssi_mean
        reverse_rssi = (
            reverse.rssi_mean if reverse is not None and reverse.frames >= min_frames else None
        )
        link = AsymmetricLink(
            node_a=tx, node_b=rx,
            rssi_a_to_b=forward_rssi, rssi_b_to_a=reverse_rssi,
        )
        if reverse_rssi is None or link.delta_db >= delta_threshold_db:
            flagged.append(link)
    return flagged


@dataclass(frozen=True)
class StarvingSource:
    """A traffic source delivering far below the network's typical PDR."""

    node: int
    pdr: float
    median_pdr: float
    sent: int


def starving_sources(
    store: TelemetryStore,
    gap_threshold: float = 0.3,
    min_sent: int = 5,
) -> List[StarvingSource]:
    """Sources whose PDR trails the network median by ``gap_threshold``."""
    pairs = metrics.pdr_matrix(store)
    per_source: Dict[int, Tuple[int, int]] = {}
    for (src, _dst), pair in pairs.items():
        sent, delivered = per_source.get(src, (0, 0))
        per_source[src] = (sent + pair.sent, delivered + pair.delivered)
    pdrs = {
        src: delivered / sent
        for src, (sent, delivered) in per_source.items()
        if sent >= min_sent
    }
    if not pdrs:
        return []
    ordered = sorted(pdrs.values())
    median = ordered[len(ordered) // 2]
    return [
        StarvingSource(node=src, pdr=pdr, median_pdr=median, sent=per_source[src][0])
        for src, pdr in sorted(pdrs.items())
        if median - pdr >= gap_threshold
    ]
