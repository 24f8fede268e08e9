"""Observed-vs-ground-truth comparison.

The simulator knows exactly what happened (the trace log and the link
model); the monitoring server only knows what reached it.  These functions
quantify the gap — the dashboard-fidelity experiments F2/F3 are built on
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from repro.analysis.reconstruct import reconstruct_topology
from repro.monitor import metrics
from repro.monitor.storage import TelemetryStore
from repro.phy.link import LinkModel
from repro.phy.params import LoRaParams
from repro.sim.topology import Topology


def true_link_set(
    topology: Topology,
    link_model: LinkModel,
    params: LoRaParams,
) -> Set[Tuple[int, int]]:
    """Directed links that are receivable under the *static* link budget
    (mean path loss + per-link shadowing, no fast fading)."""
    links: Set[Tuple[int, int]] = set()
    for tx in topology.nodes():
        for rx in topology.nodes():
            if tx == rx:
                continue
            rssi = link_model.received_power_dbm(
                params.tx_power_dbm, topology.distance(tx, rx), tx, rx, with_fading=False
            )
            if link_model.is_receivable(rssi, params):
                links.add((tx, rx))
    return links


@dataclass(frozen=True)
class TopologyAccuracy:
    """Precision/recall of the reconstructed link set."""

    true_links: int
    reconstructed_links: int
    correct: int

    @property
    def precision(self) -> float:
        return self.correct / self.reconstructed_links if self.reconstructed_links else math.nan

    @property
    def recall(self) -> float:
        return self.correct / self.true_links if self.true_links else math.nan

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        if math.isnan(p) or math.isnan(r) or (p + r) == 0:
            return math.nan
        return 2 * p * r / (p + r)


def topology_accuracy(
    store: TelemetryStore,
    topology: Topology,
    link_model: LinkModel,
    params: LoRaParams,
    min_frames: int = 1,
) -> TopologyAccuracy:
    """How well the server's inferred graph matches the physical one."""
    truth = true_link_set(topology, link_model, params)
    inferred = set(reconstruct_topology(store, min_frames=min_frames))
    return TopologyAccuracy(
        true_links=len(truth),
        reconstructed_links=len(inferred),
        correct=len(truth & inferred),
    )


def link_rssi_error(
    store: TelemetryStore,
    topology: Topology,
    link_model: LinkModel,
    params: LoRaParams,
) -> Dict[Tuple[int, int], float]:
    """Per-link |observed mean RSSI - model RSSI| in dB.

    Only links with packet evidence are compared.
    """
    errors: Dict[Tuple[int, int], float] = {}
    for (tx, rx), quality in metrics.link_quality(store).items():
        if tx not in topology.positions or rx not in topology.positions:
            continue
        model_rssi = link_model.received_power_dbm(
            params.tx_power_dbm, topology.distance(tx, rx), tx, rx, with_fading=False
        )
        errors[(tx, rx)] = abs(quality.rssi_mean - model_rssi)
    return errors


@dataclass(frozen=True)
class PdrComparison:
    """Observed vs ground-truth delivery for the whole network."""

    true_sent: int
    true_delivered: int
    observed_sent: int
    observed_delivered: int

    @property
    def true_pdr(self) -> float:
        return self.true_delivered / self.true_sent if self.true_sent else math.nan

    @property
    def observed_pdr(self) -> float:
        return self.observed_delivered / self.observed_sent if self.observed_sent else math.nan

    @property
    def absolute_error(self) -> float:
        if math.isnan(self.true_pdr) or math.isnan(self.observed_pdr):
            return math.nan
        return abs(self.true_pdr - self.observed_pdr)


def pdr_estimation_error(
    store: TelemetryStore,
    true_sent: int,
    true_delivered: int,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> PdrComparison:
    """Compare the dashboard's PDR against simulator ground truth.

    ``true_sent``/``true_delivered`` come from the trace log (fragment or
    message level — callers must be consistent with the observed metric,
    which is fragment/packet level).
    """
    pairs = metrics.pdr_matrix(store, since=since, until=until)
    observed_sent = sum(pair.sent for pair in pairs.values())
    observed_delivered = sum(pair.delivered for pair in pairs.values())
    return PdrComparison(
        true_sent=true_sent,
        true_delivered=true_delivered,
        observed_sent=observed_sent,
        observed_delivered=observed_delivered,
    )
