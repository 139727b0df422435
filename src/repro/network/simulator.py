"""Shared network plumbing: node registry, liveness, neighbour selection.

The simulation kernel (:mod:`repro.network.kernel`) builds on this base,
under the round schedule that reproduces the paper's measurement
methodology and under the event-driven schedule of the convergence
theorem alike (:mod:`repro.network.schedulers`): a validated topology,
one protocol object per node, a liveness set, a seeded RNG and metrics.
"""

from __future__ import annotations

import abc
from bisect import bisect_left
from typing import Mapping, Sequence

import networkx as nx
import numpy as np

from repro.network.metrics import NetworkMetrics
from repro.network.topology import neighbors_map, validate_topology
from repro.obs.context import current_sink
from repro.obs.events import Event, EventSink
from repro.protocols.base import GossipProtocol

__all__ = ["NeighborSelector", "RandomSelector", "RoundRobinSelector", "Network"]


class NeighborSelector(abc.ABC):
    """Strategy for Algorithm 1 line 4: "Choose j in neighbors_i".

    The convergence proof requires *fairness*: in an infinite run every
    neighbour must be chosen infinitely often.  Round-robin guarantees it
    deterministically; uniform random choice guarantees it with
    probability 1 and is the classic gossip discipline the paper's
    simulations use.
    """

    @abc.abstractmethod
    def choose(self, node: int, neighbors: Sequence[int], rng: np.random.Generator) -> int:
        """Pick the destination for this node's next message."""

    def choose_batch(
        self, count: int, degree: int, rng: np.random.Generator
    ) -> np.ndarray | None:
        """Neighbour-index draws for ``count`` nodes of uniform ``degree``.

        The arena engine asks the selector for all of a round's pairing
        draws at once.  A selector may only implement this when the
        batched draw consumes the generator stream exactly as ``count``
        scalar :meth:`choose` calls would (so arena runs stay
        byte-parity-identical to the per-node kernel); returning ``None``
        — the default — makes the engine fall back to scalar calls.
        """
        return None


class RandomSelector(NeighborSelector):
    """Uniform random neighbour — gossip-style, fair with probability 1."""

    def choose(self, node: int, neighbors: Sequence[int], rng: np.random.Generator) -> int:
        return int(neighbors[rng.integers(len(neighbors))])

    def choose_batch(
        self, count: int, degree: int, rng: np.random.Generator
    ) -> np.ndarray:
        # One sized draw with a constant bound consumes the PCG64 stream
        # exactly like `count` scalar integers() calls (each bounded draw
        # uses one 64-bit word per accepted sample, and the vectorised
        # path applies the same Lemire rejection per element), so this is
        # stream-equivalent to the loop the kernel runs.
        return rng.integers(degree, size=count)


class RoundRobinSelector(NeighborSelector):
    """Cycle through each node's neighbour list — deterministically fair."""

    def __init__(self) -> None:
        self._pointers: dict[int, int] = {}

    def choose(self, node: int, neighbors: Sequence[int], rng: np.random.Generator) -> int:
        pointer = self._pointers.get(node, 0)
        self._pointers[node] = (pointer + 1) % len(neighbors)
        return int(neighbors[pointer % len(neighbors)])


class Network:
    """Topology + protocols + liveness: the state the kernel drives.

    The topology is validated and kept only as :attr:`neighbors`, each
    node's sorted neighbour tuple; the graph itself is not referenced
    after construction, so it is freed when its caller drops it.

    Parameters
    ----------
    graph:
        A connected undirected topology over nodes ``0..n-1``; the kernel
        treats each edge as a pair of reliable directed channels.
    protocols:
        One :class:`~repro.protocols.base.GossipProtocol` per node id.
    seed:
        Seeds the engine RNG (neighbour choice, delays, crash draws).
    selector:
        Neighbour-selection strategy; defaults to uniform random gossip.
    event_sink:
        Destination for structured :class:`~repro.obs.events.Event`
        records (sends, deliveries, drops, crashes, round closes).
        Defaults to the ambient tracing sink
        (:func:`repro.obs.context.current_sink`), which is ``None``
        unless a ``tracing(...)`` block is active — so by default no
        events are materialised and emission sites cost one ``None``
        check.
    """

    def __init__(
        self,
        graph: nx.Graph,
        protocols: Mapping[int, GossipProtocol],
        seed: int = 0,
        selector: NeighborSelector | None = None,
        event_sink: EventSink | None = None,
    ) -> None:
        validate_topology(graph)
        expected = set(range(graph.number_of_nodes()))
        if set(protocols.keys()) != expected:
            raise ValueError("protocols must cover exactly the topology's nodes")
        self.protocols = dict(protocols)
        self.neighbors = neighbors_map(graph)
        self.rng = np.random.default_rng(seed)
        self.selector = selector if selector is not None else RandomSelector()
        self.live: set[int] = set(expected)
        self.metrics = NetworkMetrics()
        self.event_sink = event_sink if event_sink is not None else current_sink()

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def _stamp(self) -> dict[str, int | float]:
        """Engine-specific event stamp; overridden per engine."""
        return {}

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def neighbor_index(self, source: int, destination: int) -> int | None:
        """The destination's position in the source's sorted neighbour
        tuple (a bisect), or ``None`` when the topology does not link
        the two nodes."""
        neighbors = self.neighbors.get(source, ())
        index = bisect_left(neighbors, destination)
        if index < len(neighbors) and neighbors[index] == destination:
            return index
        return None

    # ------------------------------------------------------------------
    # Liveness
    # ------------------------------------------------------------------
    def crash(self, node: int) -> None:
        """Fail-stop the node: it never sends or receives again."""
        if node in self.live:
            self.live.discard(node)
            self.metrics.crashes += 1
            if self.event_sink is not None:
                self.event_sink.emit(Event(kind="crash", node=node, **self._stamp()))

    def is_live(self, node: int) -> bool:
        return node in self.live

    @property
    def live_nodes(self) -> list[int]:
        """Sorted ids of surviving nodes."""
        return sorted(self.live)

    def live_protocols(self) -> list[GossipProtocol]:
        """Protocol objects of surviving nodes, in node-id order."""
        return [self.protocols[node] for node in self.live_nodes]

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    @staticmethod
    def payload_size(payload: object) -> int:
        """Item count of a payload, for metrics (1 when unsized)."""
        try:
            return len(payload)  # type: ignore[arg-type]
        except TypeError:
            return 1
