"""Push-sum average aggregation — the paper's "regular aggregation" baseline.

Kempe, Dobra and Gehrke's gossip protocol [13] for computing means: every
node keeps a value-mass pair ``(s, w)``, halves both on each send, keeps
one half and ships the other, and adds whatever arrives.  The running
estimate ``s / w`` converges at every node to the average of the inputs.

The paper's Figures 3 and 4 compare their robust (outlier-removing)
average against this baseline, so it implements the same
:class:`~repro.protocols.base.GossipProtocol` contract and runs under the
identical engines, seeds and crash schedules.

Push-sum is in fact the ``k = 1`` centroid instantiation of the generic
algorithm (one collection whose summary is the weighted mean) — a
connection the integration tests verify numerically.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence

import networkx as nx
import numpy as np

from repro.network.failures import FailureModel
from repro.network.kernel import SimulationKernel
from repro.network.schedulers import make_scheduler
from repro.network.simulator import NeighborSelector
from repro.obs.timeseries import TimeSeriesRecorder
from repro.protocols.base import GossipProtocol

__all__ = ["PushSumProtocol", "build_push_sum_network"]


class PushSumProtocol(GossipProtocol):
    """One node of the push-sum averaging protocol.

    The state is ``(s, w)`` with ``s`` a vector (the weighted sum of
    inputs this node has heard of) and ``w`` the corresponding mass.
    """

    def __init__(self, value: np.ndarray) -> None:
        self.s = np.atleast_1d(np.asarray(value, dtype=float)).copy()
        self.w = 1.0

    def make_payload(self) -> Optional[tuple[np.ndarray, float]]:
        """Halve the state; the sent half is the payload."""
        sent = (self.s / 2.0, self.w / 2.0)
        self.s = self.s / 2.0
        self.w = self.w / 2.0
        return sent

    def receive_batch(self, payloads: Sequence[tuple[np.ndarray, float]]) -> None:
        for s, w in payloads:
            self.s = self.s + s
            self.w = self.w + w

    @property
    def estimate(self) -> np.ndarray:
        """The node's current estimate of the global average."""
        if self.w <= 0:
            raise RuntimeError("push-sum node has lost all mass")
        return self.s / self.w


def build_push_sum_network(
    values: Sequence[Any] | np.ndarray,
    graph: nx.Graph,
    seed: int = 0,
    variant: str = "push",
    selector: Optional[NeighborSelector] = None,
    failure_model: Optional[FailureModel] = None,
    engine: str = "rounds",
    mean_interval: float = 1.0,
    delay_range: tuple[float, float] = (0.05, 2.0),
    telemetry: Optional[TimeSeriesRecorder] = None,
) -> tuple[SimulationKernel, list[PushSumProtocol]]:
    """Construct an engine running push-sum over ``values``.

    ``engine`` selects the schedule (``"rounds"`` or ``"async"``) exactly
    as in :func:`repro.protocols.classification.build_classification_network`;
    ``telemetry`` attaches a per-round recorder (push-sum has no summary
    fingerprints, so the convergence gauges are NaN but the transport
    windows are live).
    """
    n = len(values)
    if graph.number_of_nodes() != n:
        raise ValueError(
            f"topology has {graph.number_of_nodes()} nodes but {n} values were given"
        )
    protocols_list = [PushSumProtocol(values[i]) for i in range(n)]
    protocols = {i: protocols_list[i] for i in range(n)}
    built = SimulationKernel(
        graph,
        protocols,
        make_scheduler(engine, variant, mean_interval, delay_range),
        seed=seed,
        selector=selector,
        failure_model=failure_model,
        telemetry=telemetry,
    )
    return built, protocols_list
