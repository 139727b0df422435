"""The distributed classification protocol: Algorithm 1 on the network.

Wires a :class:`~repro.core.node.ClassifierNode` into the engines'
:class:`~repro.protocols.base.GossipProtocol` contract and provides the
one-call constructor (:func:`build_classification_network`) the examples,
experiments and tests all use: given values, a scheme, a topology and a
handful of knobs, it returns a ready-to-run engine.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Sequence

import networkx as nx
import numpy as np

from repro.core.fingerprint import MergeCache, merge_cache_default
from repro.core.node import ClassifierNode
from repro.core.packed import PackedPayload
from repro.core.receive import ReceiveBatch
from repro.core.scheme import SummaryScheme
from repro.core.weights import Quantization
from repro.network.failures import FailureModel
from repro.network.kernel import SimulationKernel
from repro.network.links import LinkSchedule
from repro.network.schedulers import make_scheduler
from repro.network.simulator import NeighborSelector
from repro.obs.events import EventSink
from repro.obs.profiling import span
from repro.obs.timeseries import TimeSeriesRecorder
from repro.protocols.base import GossipProtocol

__all__ = ["ClassificationProtocol", "build_classification_network"]


class ClassificationProtocol(GossipProtocol):
    """One node's view of the distributed classification algorithm."""

    def __init__(self, node: ClassifierNode) -> None:
        self.node = node

    def make_payload(self) -> Optional[PackedPayload]:
        """Split the local classification; the sent halves are the payload.

        Returns ``None`` when quantisation leaves nothing sendable (every
        local collection holds a single quantum).  The payload is a
        zero-copy :class:`~repro.core.packed.PackedPayload`.
        """
        with span("protocol.split"):
            payload = self.node.make_message()
        return payload if payload else None

    def receive_batch(self, payloads: Sequence[PackedPayload]) -> None:
        """Pool all delivered payloads and merge once (Section 5.3)."""
        with span("protocol.merge"):
            self.node.receive_packed(payloads)

    def defer_receive(
        self, payloads: Sequence[PackedPayload], batch: ReceiveBatch
    ) -> Callable[[], None]:
        """The node decides now and queues a full solve on the kernel's batch."""
        return self.node.defer_receive(payloads, batch)

    # Convenience pass-throughs used pervasively by analysis code.
    @property
    def classification(self):
        return self.node.classification

    @property
    def node_id(self) -> int:
        return self.node.node_id


def build_classification_network(
    values: Sequence[Any] | np.ndarray,
    scheme: SummaryScheme,
    k: int,
    graph: nx.Graph,
    seed: int = 0,
    quantization: Optional[Quantization] = None,
    track_aux: bool = False,
    validate: bool = False,
    variant: str = "push",
    selector: Optional[NeighborSelector] = None,
    failure_model: Optional[FailureModel] = None,
    link_schedule: Optional[LinkSchedule] = None,
    event_sink: Optional[EventSink] = None,
    engine: str = "rounds",
    mean_interval: float = 1.0,
    delay_range: tuple[float, float] = (0.05, 2.0),
    merge_cache: Optional[bool] = None,
    stop_on_quiescence: bool = False,
    quiescence_patience: int = 3,
    telemetry: Optional[TimeSeriesRecorder] = None,
) -> tuple[SimulationKernel, list[ClassifierNode]]:
    """Construct an engine running Algorithm 1 over ``values``.

    ``values[i]`` becomes node ``i``'s input; the graph must therefore
    have exactly ``len(values)`` nodes.  Returns the engine and the
    underlying :class:`~repro.core.node.ClassifierNode` list (index =
    node id) for direct state inspection.

    ``engine`` selects the schedule — ``"rounds"`` (the default, the
    paper's Section 5.3 methodology) or ``"async"`` (the Section 6
    Poisson model; ``mean_interval`` / ``delay_range`` then apply).
    Every other knob means the same thing on either schedule.

    ``merge_cache`` enables the run-scoped receive memoisation cache
    shared by all nodes (``None`` defers to
    :func:`repro.core.fingerprint.merge_cache_default`, i.e. the
    ``REPRO_MERGE_CACHE`` environment toggle — on by default).  Cached
    receipts are byte-identical to uncached ones; see
    ``docs/performance.md``.  ``stop_on_quiescence`` /
    ``quiescence_patience`` configure the kernel's structural early
    exit (off by default, opt-in for sweeps).

    ``event_sink`` (or the ambient :func:`repro.obs.context.tracing`
    sink) is wired to both the engine (transport events) and every node
    (split/merge events), giving one coherent trace per run.
    ``telemetry`` (or the ambient :func:`repro.obs.timeseries.telemetry`
    scope) attaches a per-round convergence recorder to the engine.
    """
    n = len(values)
    if graph.number_of_nodes() != n:
        raise ValueError(
            f"topology has {graph.number_of_nodes()} nodes but {n} values were given"
        )
    quantization = quantization or Quantization()
    quantization.check_population(n)
    if merge_cache is None:
        merge_cache = merge_cache_default()
    cache = (
        MergeCache() if merge_cache and scheme.supports_fingerprints else None
    )
    nodes = [
        ClassifierNode(
            node_id=i,
            value=values[i],
            scheme=scheme,
            k=k,
            quantization=quantization,
            track_aux=track_aux,
            n_inputs=n if track_aux else None,
            validate=validate,
            event_sink=event_sink,
            merge_cache=cache,
        )
        for i in range(n)
    ]
    protocols = {i: ClassificationProtocol(nodes[i]) for i in range(n)}
    built = SimulationKernel(
        graph,
        protocols,
        make_scheduler(engine, variant, mean_interval, delay_range),
        seed=seed,
        selector=selector,
        failure_model=failure_model,
        link_schedule=link_schedule,
        event_sink=event_sink,
        merge_cache=cache,
        stop_on_quiescence=stop_on_quiescence,
        quiescence_patience=quiescence_patience,
        telemetry=telemetry,
    )
    return built, nodes
