"""The kernel under the synchronous round scheduler (the paper's simulation methodology)."""

import pytest

from repro.network.failures import ScheduledCrashes
from repro.network.kernel import SimulationKernel
from repro.network.schedulers import SynchronousRoundScheduler
from repro.network.simulator import RoundRobinSelector
from repro.network.topology import complete, line, ring
from repro.protocols.base import GossipProtocol


class RecordingProtocol(GossipProtocol):
    """Sends its id; records batches as they are delivered."""

    def __init__(self, node_id, payload=None):
        self.node_id = node_id
        self.payload = payload if payload is not None else node_id
        self.batches = []
        self.sends = 0

    def make_payload(self):
        self.sends += 1
        return self.payload

    def receive_batch(self, payloads):
        self.batches.append(list(payloads))


class SilentProtocol(GossipProtocol):
    """A node with nothing sendable (exercises payload=None)."""

    def make_payload(self):
        return None

    def receive_batch(self, payloads):
        raise AssertionError("nothing should ever arrive")


def build(n=4, graph=None, protocol_factory=RecordingProtocol, variant="push", **kwargs):
    graph = graph if graph is not None else complete(n)
    protocols = {i: protocol_factory(i) for i in range(graph.number_of_nodes())}
    engine = SimulationKernel(graph, protocols, SynchronousRoundScheduler(variant), **kwargs)
    return engine, protocols


class TestPushRound:
    def test_every_live_node_sends_once(self):
        engine, protocols = build(5, seed=1)
        engine.run(1)
        assert all(p.sends == 1 for p in protocols.values())
        assert engine.metrics.messages_sent == 5

    def test_batching_single_receive_call_per_round(self):
        """Multiple messages to one node arrive as ONE batch (Section 5.3)."""
        engine, protocols = build(6, seed=3)
        engine.run(1)
        total_messages = sum(len(batch) for p in protocols.values() for batch in p.batches)
        total_calls = sum(len(p.batches) for p in protocols.values())
        assert total_messages == 6
        assert total_calls <= 6  # batched: never more calls than messages

    def test_none_payload_skips_transmission(self):
        graph = complete(3)
        protocols = {i: SilentProtocol() for i in range(3)}
        engine = SimulationKernel(graph, protocols, SynchronousRoundScheduler(), seed=0)
        engine.run(1)
        assert engine.metrics.messages_sent == 0

    def test_messages_to_crashed_nodes_dropped(self):
        engine, protocols = build(3, graph=line(3), seed=0)
        engine.crash(1)
        engine.run(1)
        # Nodes 0 and 2 can only talk to node 1 on a line; both drop.
        assert engine.metrics.messages_dropped == 2
        assert protocols[1].batches == []


class TestVariants:
    def test_invalid_variant_rejected(self):
        with pytest.raises(ValueError):
            build(3, variant="flood")

    def test_pull_makes_peer_respond(self):
        engine, protocols = build(4, seed=2, variant="pull")
        engine.run(1)
        # In pull, the chosen peers transmit; total messages equals the
        # number of successful pull requests.
        assert engine.metrics.messages_sent == 4
        heard = sum(len(batch) for p in protocols.values() for batch in p.batches)
        assert heard == 4

    def test_pushpull_doubles_traffic(self):
        engine, _ = build(4, seed=2, variant="pushpull")
        engine.run(1)
        assert engine.metrics.messages_sent == 8

    def test_pull_from_crashed_peer_yields_nothing(self):
        graph = line(3)
        protocols = {i: RecordingProtocol(i) for i in range(3)}
        engine = SimulationKernel(graph, protocols, SynchronousRoundScheduler("pull"), seed=0)
        engine.crash(1)
        engine.run(1)
        assert protocols[0].batches == []
        assert protocols[2].batches == []


class TestFailuresAndDriving:
    def test_scheduled_crash_applied_after_round(self):
        engine, _ = build(4, seed=0, failure_model=ScheduledCrashes({0: [3]}))
        engine.run(1)
        assert not engine.is_live(3)
        assert engine.metrics.crashes == 1

    def test_run_returns_rounds_executed(self):
        engine, _ = build(4, seed=0)
        assert engine.run(7) == 7
        assert engine.metrics.rounds == 7
        assert engine.scheduler.round_index == 7

    def test_stop_condition_ends_early(self):
        engine, _ = build(4, seed=0)
        executed = engine.run(100, stop_condition=lambda e: e.scheduler.round_index >= 3)
        assert executed == 3

    def test_per_round_callback_invoked(self):
        engine, _ = build(4, seed=0)
        observed = []
        engine.run(5, per_round=lambda e: observed.append(e.scheduler.round_index))
        assert observed == [1, 2, 3, 4, 5]

    def test_round_robin_selector_on_ring(self):
        protocols = {i: RecordingProtocol(i) for i in range(4)}
        engine = SimulationKernel(
            ring(4), protocols, SynchronousRoundScheduler(), seed=0, selector=RoundRobinSelector()
        )
        engine.run(4)
        # Deterministic: each node alternates between its two neighbours.
        assert engine.metrics.messages_sent == 16
