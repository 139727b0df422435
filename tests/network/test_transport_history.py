"""The in-memory transport holds only channels that carry messages.

A channel joins the transport's registry when a message is sent on it
and leaves once its last message is delivered, so the registry (and
every scan of the in-flight pool) is bounded by the messages in flight,
not by how many edges a run has used.  These tests check counts, never
timings: the registry after every step, the edge census behind
``peer_count``, weight conservation across nodes and channels, and FIFO
delivery times against a reference that remembers every edge forever.
"""

from __future__ import annotations

import gc
import types
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.node import ClassifierNode
from repro.data import make_dataset
from repro.network.channel import Channel, InFlightMessage
from repro.network.events import EventQueue
from repro.network.kernel import SimulationKernel
from repro.network.schedulers import PoissonScheduler, SynchronousRoundScheduler
from repro.network.topology import complete
from repro.obs.events import EventSink, RingBufferSink
from repro.protocols.base import GossipProtocol
from repro.protocols.classification import (
    ClassificationProtocol,
    build_classification_network,
)
from repro.schemes.centroid import CentroidScheme
from repro.schemes.gm import GaussianMixtureScheme


class _EdgeLedger(EventSink):
    """Messages in flight per directed edge, counted from the kernel's
    ``send`` / ``deliver`` / ``drop`` events."""

    def __init__(self) -> None:
        self.in_flight: Counter = Counter()

    def emit(self, event) -> None:
        if event.kind == "send":
            self.in_flight[event.node, event.peer] += 1
        elif event.kind in ("deliver", "drop"):
            self.in_flight[event.node, event.peer] -= 1

    def queued(self) -> dict:
        return {edge: count for edge, count in self.in_flight.items() if count}


class TestRoundSchedule:
    def test_registry_is_empty_after_every_round(self):
        """For the push, pull and pushpull variants, with one node crashed.
        Also, in the middle of every round (its sends done, its flush not
        begun) the nodes and the round's payloads hold all the weight not
        yet dropped at the crashed node, and the flush delivers or drops
        destination by destination, ascending, in send order."""
        for variant in ("push", "pull", "pushpull"):
            self._check_rounds(variant)

    @staticmethod
    def _check_rounds(variant: str) -> None:
        n = 40
        crashed = 7
        values = make_dataset("centers", n, 3)
        sink = RingBufferSink(capacity=1 << 20)
        # Exact centers quiesce within the run, so the probe's in-flight
        # scan runs too; the patience keeps the run going all 30 rounds.
        kernel, nodes = build_classification_network(
            values,
            GaussianMixtureScheme(seed=0),
            k=3,
            graph=complete(n),
            seed=11,
            variant=variant,
            event_sink=sink,
            stop_on_quiescence=True,
            quiescence_patience=100,
        )
        kernel.crash(crashed)
        transport = kernel.transport
        flush = transport.flush_deliveries
        # The events before this round's sends, and the weight not yet
        # dropped at the crashed node.
        before_sends, weight = len(sink), n * nodes[0].quantization.unit
        drops = []

        def checked_flush():
            nonlocal before_sends, weight
            held = sum(node.total_quanta for node in nodes)
            in_flight = sum(
                collection.quanta
                for payload in kernel.in_flight_payloads()
                for collection in payload
            )
            assert held + in_flight == weight
            start = len(sink)
            flush()
            events = sink.events
            sends = [(e.node, e.peer) for e in events[before_sends:start] if e.kind == "send"]
            received = [e for e in events[start:] if e.kind in ("deliver", "drop")]
            assert [e.peer for e in received] == sorted(e.peer for e in received)
            for destination in {peer for _, peer in sends}:
                assert [e.node for e in received if e.peer == destination] == [
                    source for source, peer in sends if peer == destination
                ]
                kind = "drop" if destination == crashed else "deliver"
                assert {e.kind for e in received if e.peer == destination} == {kind}
            assert len(received) == len(sends)
            drops.append(sum(e.kind == "drop" for e in received))
            left = sum(node.total_quanta for node in nodes)
            assert (left < weight) == (drops[-1] > 0)
            before_sends, weight = len(sink), left

        transport.flush_deliveries = checked_flush
        peer_counts = []

        def check(engine):
            assert transport.channels == {}
            assert engine.in_flight_payloads() == []
            sent_edges = {(event.node, event.peer) for event in sink.of_kind("send")}
            assert transport.stats.peer_count == len(sent_edges)
            peer_counts.append(transport.stats.peer_count)

        assert kernel.run(30, per_round=check) == 30
        assert len(peer_counts) == len(drops) == 30
        assert peer_counts == sorted(peer_counts)
        assert peer_counts[-1] > peer_counts[0] > 0
        assert kernel.metrics.quiescent_rounds > 0
        assert kernel.metrics.peer_count == peer_counts[-1]
        # A pull reaches no crashed peer; a push can.
        assert (sum(drops) > 0) == (variant != "pull")


def _reachable(root) -> list:
    """Every object reachable from ``root``, classes, modules and
    functions excluded."""
    seen: dict = {}
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, (type, types.ModuleType, types.FunctionType)):
            continue
        seen[id(obj)] = obj
        stack.extend(gc.get_referents(obj))
    return list(seen.values())


class TestEdgeRecord:
    def test_no_per_edge_object_is_reachable(self):
        """The record of used edges behind ``peer_count`` grows with the
        nodes, not with the edges: after 20 rounds at 64 nodes more than a
        thousand directed edges were used, and fewer than 3n objects are
        reachable from the transport's own state."""
        n = 64
        values = np.random.default_rng(7).standard_normal((n, 2))
        sink = RingBufferSink(capacity=1 << 16)
        kernel, _ = build_classification_network(
            values, CentroidScheme(), k=2, graph=complete(n), seed=7, event_sink=sink
        )
        assert kernel.run(20) == 20
        transport = kernel.transport
        used = {(event.node, event.peer) for event in sink.of_kind("send")}
        assert transport.stats.peer_count == len(used) > 1000
        state = {name: value for name, value in vars(transport).items() if name != "kernel"}
        reachable = _reachable(state)
        assert not any(isinstance(obj, tuple) for obj in reachable)
        assert len(reachable) < 3 * n


class TestRoundBuffer:
    def test_a_round_builds_no_envelope(self, monkeypatch):
        """A round send waits in the transport's round buffer: 5 rounds at
        64 nodes construct no channel and no in-flight message and push
        nothing onto the event queue, while a Poisson run does all three."""
        counts: Counter = Counter()

        def counted(name, method):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Channel, "__init__", counted("channel", Channel.__init__))
        monkeypatch.setattr(
            InFlightMessage, "__init__", counted("message", InFlightMessage.__init__)
        )
        monkeypatch.setattr(EventQueue, "push", counted("push", EventQueue.push))
        n = 64
        values = np.random.default_rng(7).standard_normal((n, 2))
        kernel, _ = build_classification_network(
            values, CentroidScheme(), k=2, graph=complete(n), seed=7
        )
        assert kernel.run(5) == 5
        assert kernel.metrics.messages_delivered == 5 * n
        assert [counts[name] for name in ("channel", "message", "push")] == [0, 0, 0]
        poisson, _ = build_classification_network(
            values, CentroidScheme(), k=2, graph=complete(n), seed=7, engine="async"
        )
        assert poisson.run(5) == 5
        assert poisson.metrics.messages_sent > 0
        assert min(counts[name] for name in ("channel", "message", "push")) > 0


class TestPoissonSchedule:
    @pytest.mark.parametrize("fifo", [True, False])
    def test_registry_matches_queued_deliveries(self, fifo):
        n = 6
        values = np.random.default_rng(5).standard_normal((n, 2))
        nodes = [ClassifierNode(i, values[i], CentroidScheme(), k=2) for i in range(n)]
        ledger = _EdgeLedger()
        kernel = SimulationKernel(
            complete(n),
            {i: ClassificationProtocol(nodes[i]) for i in range(n)},
            PoissonScheduler(delay_range=(0.05, 3.0)),
            seed=4,
            fifo=fifo,
            event_sink=ledger,
        )
        transport = kernel.transport
        total = n * nodes[0].quantization.unit
        most_in_flight = 0
        for _ in range(600):
            assert kernel.run_steps(1) == 1
            registry = {edge: len(channel) for edge, channel in transport.channels.items()}
            assert registry == ledger.queued()
            in_flight = sum(
                collection.quanta
                for payload in kernel.in_flight_payloads()
                for collection in payload
            )
            assert sum(node.total_quanta for node in nodes) + in_flight == total
            for channel in transport.channels.values():
                most_in_flight = max(most_in_flight, len(channel))
        # The delays are long enough that some edge carried several
        # messages at once: the case where FIFO clamping can act.
        assert most_in_flight > 1
        assert 0 < transport.stats.peer_count <= n * (n - 1)


class _Inbox(GossipProtocol):
    """Records delivered payloads; never sends on its own."""

    def __init__(self) -> None:
        self.received: list = []

    def make_payload(self):
        return None

    def receive_batch(self, payloads) -> None:
        self.received.extend(payloads)


# One step: advance the clock by ``gap``, deliver what is due, then send
# on ``edge`` with ``delay``.  Three nodes keep edges busy; gaps and
# delays are multiples of 1/4 so clamped delivery times tie with queued
# ones and coalescing runs.
N_INBOXES = 3
steps = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=8).map(lambda quarters: quarters / 4),
        st.tuples(
            st.integers(0, N_INBOXES - 1), st.integers(0, N_INBOXES - 1)
        ).filter(lambda edge: edge[0] != edge[1]),
        st.integers(min_value=0, max_value=16).map(lambda quarters: quarters / 4),
    ),
    max_size=60,
)


@settings(max_examples=150, deadline=None)
@given(steps)
# A delivery leaves a later message on its channel, and a new send must
# still queue behind that one (due at 2.0, not at 1.25).
@example([(0.0, (0, 1), 1.0), (0.0, (0, 1), 2.0), (1.0, (0, 1), 0.25)])
def test_fifo_delivery_times_match_a_registry_that_keeps_every_edge(schedule):
    n = N_INBOXES
    inboxes = {i: _Inbox() for i in range(n)}
    kernel = SimulationKernel(complete(n), inboxes, SynchronousRoundScheduler(), fifo=True)
    transport = kernel.transport
    latest: dict[tuple[int, int], float] = {}
    sent = []
    now = 0.0

    def deliver_due(until: float) -> None:
        while kernel.queue and kernel.queue.peek_time() <= until:
            when, entry = kernel.queue.pop()
            transport.dispatch_delivery(entry.channel, entry.message, coalesce_at=when)

    for index, (gap, (source, destination), delay) in enumerate(schedule):
        now += gap
        deliver_due(now)
        message = transport.send(source, destination, (source, index), now, now + delay)
        expected = max(latest.get((source, destination), 0.0), now + delay)
        latest[(source, destination)] = expected
        assert message.deliver_time == expected
        sent.append((destination, (source, index)))
    deliver_due(float("inf"))

    assert transport.channels == {}
    assert transport.stats.peer_count == len(latest)
    assert transport.stats.frames_received == len(schedule)
    for node, inbox in inboxes.items():
        assert sorted(inbox.received) == sorted(p for d, p in sent if d == node)
        for source in range(n):
            # FIFO: each edge's messages arrive in the order they were sent.
            order = [index for origin, index in inbox.received if origin == source]
            assert order == sorted(order)
