"""Link schedules and partition outages."""

import pytest

from repro.network.links import AlwaysUp, WindowedOutage, cut_edges
from repro.network.kernel import SimulationKernel
from repro.network.schedulers import SynchronousRoundScheduler
from repro.network.topology import complete, line
from repro.protocols.base import GossipProtocol


class CountingProtocol(GossipProtocol):
    def __init__(self):
        self.received = 0

    def make_payload(self):
        return "x"

    def receive_batch(self, payloads):
        self.received += len(payloads)


class TestCutEdges:
    def test_complete_graph_bipartition(self):
        graph = complete(4)
        edges = cut_edges(graph, [0, 1])
        assert edges == {(0, 2), (0, 3), (1, 2), (1, 3)}

    def test_line_cut_is_single_edge(self):
        graph = line(4)
        assert cut_edges(graph, [0, 1]) == {(1, 2)}


class TestSchedules:
    def test_always_up(self):
        schedule = AlwaysUp()
        assert schedule.is_up(0, 1, 2)
        assert schedule.is_up(999, 5, 4)

    def test_windowed_outage_window(self):
        schedule = WindowedOutage([(1, 2)], start=5, end=10)
        assert schedule.is_up(4, 1, 2)      # before the window
        assert not schedule.is_up(5, 1, 2)  # window start
        assert not schedule.is_up(9, 2, 1)  # direction-insensitive
        assert schedule.is_up(10, 1, 2)     # window end (half-open)

    def test_other_edges_unaffected(self):
        schedule = WindowedOutage([(1, 2)], start=0, end=100)
        assert schedule.is_up(50, 0, 3)

    def test_rejects_inverted_window(self):
        with pytest.raises(ValueError):
            WindowedOutage([(0, 1)], start=5, end=4)


class TestEngineIntegration:
    def test_down_link_blocks_traffic(self):
        """On a 2-node line with its only edge down, nothing flows."""
        graph = line(2)
        protocols = {0: CountingProtocol(), 1: CountingProtocol()}
        engine = SimulationKernel(
            graph,
            protocols,
            SynchronousRoundScheduler(),
            seed=0,
            link_schedule=WindowedOutage([(0, 1)], start=0, end=5),
        )
        engine.run(5)
        assert protocols[0].received == 0
        assert protocols[1].received == 0
        assert engine.metrics.messages_sent == 0

    def test_traffic_resumes_after_healing(self):
        graph = line(2)
        protocols = {0: CountingProtocol(), 1: CountingProtocol()}
        engine = SimulationKernel(
            graph,
            protocols,
            SynchronousRoundScheduler(),
            seed=0,
            link_schedule=WindowedOutage([(0, 1)], start=0, end=5),
        )
        engine.run(10)
        assert engine.metrics.messages_sent == 10  # rounds 5-9, both nodes
