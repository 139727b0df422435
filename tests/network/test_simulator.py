"""The kernel's network state (construction, topology, liveness) and the selectors."""

import numpy as np
import pytest

from repro.network.kernel import SimulationKernel
from repro.network.schedulers import SynchronousRoundScheduler
from repro.network.simulator import RandomSelector, RoundRobinSelector
from repro.network.topology import complete, ring
from repro.protocols.base import GossipProtocol


class EchoProtocol(GossipProtocol):
    """Minimal protocol: sends a counter, records what it hears."""

    def __init__(self):
        self.sent = 0
        self.heard = []

    def make_payload(self):
        self.sent += 1
        return ("ping", self.sent)

    def receive_batch(self, payloads):
        self.heard.append(list(payloads))


def make_network(n=4, graph=None, **kwargs):
    graph = graph if graph is not None else complete(n)
    protocols = {i: EchoProtocol() for i in range(graph.number_of_nodes())}
    return SimulationKernel(graph, protocols, SynchronousRoundScheduler(), **kwargs)


class TestConstruction:
    def test_protocols_must_cover_nodes(self):
        with pytest.raises(ValueError):
            SimulationKernel(complete(3), {0: EchoProtocol()}, SynchronousRoundScheduler())

    def test_live_nodes_initially_all(self):
        network = make_network(5)
        assert network.live_nodes == [0, 1, 2, 3, 4]


class TestTopology:
    def test_has_edge_follows_the_graph(self):
        """``neighbor_index`` answers the edge check: the destination's
        position among the source's sorted neighbours, ``None`` off the graph."""
        graph = ring(6)
        network = make_network(graph=graph)
        for source in range(6):
            neighbors = sorted(graph.neighbors(source))
            for destination in range(-1, 8):
                expected = (
                    neighbors.index(destination)
                    if graph.has_edge(source, destination)
                    else None
                )
                assert network.neighbor_index(source, destination) == expected
        assert network.neighbor_index(9, 0) is None


class TestLiveness:
    def test_crash_removes_node(self):
        network = make_network(4)
        network.crash(2)
        assert not network.is_live(2)
        assert network.live_nodes == [0, 1, 3]
        assert network.metrics.crashes == 1

    def test_double_crash_counted_once(self):
        network = make_network(4)
        network.crash(2)
        network.crash(2)
        assert network.metrics.crashes == 1

    def test_live_protocols_ordered(self):
        network = make_network(3)
        network.crash(0)
        live = network.live_protocols()
        assert live == [network.protocols[1], network.protocols[2]]


class TestSelectors:
    def test_round_robin_cycles_deterministically(self, rng):
        selector = RoundRobinSelector()
        neighbors = [3, 5, 9]
        picks = [selector.choose(0, neighbors, rng) for _ in range(6)]
        assert picks == [3, 5, 9, 3, 5, 9]

    def test_round_robin_tracks_per_node_pointers(self, rng):
        selector = RoundRobinSelector()
        assert selector.choose(0, [1, 2], rng) == 1
        assert selector.choose(7, [1, 2], rng) == 1  # independent pointer
        assert selector.choose(0, [1, 2], rng) == 2

    def test_random_selector_stays_in_neighbors(self, rng):
        selector = RandomSelector()
        neighbors = [2, 4, 6]
        for _ in range(50):
            assert selector.choose(0, neighbors, rng) in neighbors

    def test_random_selector_is_fair(self):
        """Every neighbour is chosen infinitely often (here: at all)."""
        selector = RandomSelector()
        generator = np.random.default_rng(0)
        neighbors = list(range(5))
        picks = {selector.choose(0, neighbors, generator) for _ in range(200)}
        assert picks == set(neighbors)


class TestPayloadSize:
    def test_sized_payload(self):
        assert SimulationKernel.payload_size([1, 2, 3]) == 3

    def test_unsized_payload(self):
        assert SimulationKernel.payload_size(42) == 1
