"""A synchronous round's receives are decided one by one and solved together.

``SimulationKernel.complete_deliveries`` lets every receiver of a round
decide its receive, decides the queued no-op candidates and solves the
queued full solves in one batch, then records and applies the receives
in destination order.  The state, the merge cache's counters and the
event stream must be a one-at-a-time loop's, and the work must really
be batched: one partition call and one merge call per round, the no-ops
of a large local block in one sweep, while the event-driven schedule
keeps posing one problem per call.  A round that raises before its
receives are applied adopts nothing and keeps its payloads in flight.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracle import state_bytes

import repro.core.receive as receive
from repro.data import make_dataset
from repro.network.kernel import _Fire
from repro.network.schedulers import PoissonScheduler
from repro.network.topology import complete
from repro.obs.events import RingBufferSink
from repro.protocols.classification import ClassificationProtocol, build_classification_network
from repro.schemes.gm import GaussianMixtureScheme


def _four_nodes():
    """Nodes 0 and 1 hold one value, nodes 2 and 3 another; k = 1."""
    sink = RingBufferSink()
    values = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
    kernel, nodes = build_classification_network(
        values,
        GaussianMixtureScheme(seed=0),
        1,
        graph=complete(4),
        event_sink=sink,
        merge_cache=True,
        validate=True,
    )
    return kernel, nodes, sink


def _events(sink):
    return [(event.kind, event.node, event.peer, event.items, event.extra) for event in sink]


def test_two_receivers_posing_one_problem_end_as_one_after_the_other():
    """Receivers 0 and 1 pose the same problem in one round.

    Each holds the same local row and is sent the same row, two rows
    against k = 1: neither the fast path nor a no-op answers, so each
    receiver solves, in one batch, and ends exactly as when they
    receive one after the other.
    """
    outcomes = []
    for together in (True, False):
        kernel, nodes, sink = _four_nodes()
        deliveries = [
            (0, [2], [nodes[2].make_message()]),
            (1, [3], [nodes[3].make_message()]),
        ]
        if together:
            kernel.complete_deliveries(deliveries)
        else:
            for delivery in deliveries:
                kernel.complete_deliveries([delivery])
        cache = kernel.merge_cache
        outcomes.append(
            (
                [state_bytes(node) for node in nodes],
                [node.stats.as_dict() for node in nodes],
                cache.counters(),
                _events(sink),
            )
        )
    assert outcomes[0] == outcomes[1]
    states, stats, counters, events = outcomes[0]
    assert states[0] == states[1]
    assert [entry["cache_misses"] for entry in stats] == [1, 1, 0, 0]
    assert counters == {"cache_misses": 2, "cache_noop_hits": 0}
    assert [kind for kind, *_ in events if kind != "split"] == [
        "deliver", "merge", "deliver", "merge"
    ]


class _Calls:
    """Counts calls of a few scheme methods, passing them through."""

    def __init__(self, monkeypatch, names):
        self.counts = dict.fromkeys(names, 0)
        for name in names:
            original = getattr(GaussianMixtureScheme, name)

            def counted(scheme, *args, _name=name, _original=original, **kwargs):
                self.counts[_name] += 1
                return _original(scheme, *args, **kwargs)

            monkeypatch.setattr(GaussianMixtureScheme, name, counted)


def _noisy_network(engine):
    values = np.random.default_rng(5).normal(size=(24, 2)) * 3.0
    return build_classification_network(
        values,
        GaussianMixtureScheme(seed=0),
        2,
        graph=complete(24),
        seed=3,
        engine=engine,
        merge_cache=False,
    )


def test_round_solves_in_one_call_and_poisson_solves_one_per_call(monkeypatch):
    calls = _Calls(
        monkeypatch, ("partition_packed", "partition_packed_batch", "merge_groups_columns")
    )
    kernel, nodes = _noisy_network("rounds")
    kernel.run(3)
    solves = sum(node.stats.partition_calls for node in nodes)
    assert solves >= 2 * 3
    # A round with one full solve would call the scalar partition_packed,
    # so three batch calls and no scalar call mean every round posed at
    # least two, and solved them in one partition and one merge call.
    assert calls.counts == {
        "partition_packed": 0,
        "partition_packed_batch": 3,
        "merge_groups_columns": 3,
    }

    calls.counts = dict.fromkeys(calls.counts, 0)
    kernel, nodes = _noisy_network("async")
    kernel.run(3)
    solves = sum(node.stats.partition_calls for node in nodes)
    assert solves >= 2
    assert calls.counts["partition_packed"] == solves
    assert calls.counts["partition_packed_batch"] == 0


def test_round_whose_decision_raises_adopts_nothing_and_its_retry_solves():
    """Receiver 0 queues a solve; receiver 1's decision then raises.
    Receiver 0 adopts nothing, and its retry solves."""
    kernel, nodes, _ = _four_nodes()
    payloads = [nodes[2].make_message(), nodes[3].make_message()]
    before = state_bytes(nodes[0])

    def refuse(payloads, batch):
        raise RuntimeError("refused")

    nodes[1].defer_receive = refuse
    with pytest.raises(RuntimeError, match="refused"):
        kernel.complete_deliveries([(0, [2], [payloads[0]]), (1, [3], [payloads[1]])])
    assert state_bytes(nodes[0]) == before
    assert nodes[0].stats.partition_calls == 0
    kernel.complete_deliveries([(0, [2], [payloads[0]])])
    assert nodes[0].stats.partition_calls == 1
    assert nodes[0].stats.cache_misses == 2
    assert sum(c.quanta for c in nodes[0].classification) == nodes[0].quantization.unit * 3 // 2


def test_round_whose_batch_raises_keeps_its_weight(monkeypatch):
    """A 64-node GM round whose batched partition raises adopts nothing
    and hands its payloads back, so no weight is lost; its retry solves."""
    values = np.random.default_rng(5).normal(size=(64, 2))
    kernel, nodes = build_classification_network(
        values, GaussianMixtureScheme(seed=0), 3, graph=complete(64), seed=2, merge_cache=True
    )
    kernel.run(2)
    unit = nodes[0].quantization.unit

    def weight():
        at_nodes = sum(node.total_quanta for node in nodes)
        return at_nodes + sum(int(payload.quanta.sum()) for payload in kernel.in_flight_payloads())

    def refuse(*args, **kwargs):
        raise RuntimeError("refused")

    monkeypatch.setattr(GaussianMixtureScheme, "partition_packed_batch", refuse)
    with pytest.raises(RuntimeError, match="refused"):
        kernel.run(1)
    assert kernel.scheduler.round_index == 2
    assert kernel.in_flight_payloads() != []
    assert weight() == 64 * unit
    monkeypatch.undo()
    kernel.run(1)
    assert kernel.scheduler.round_index == 3
    assert kernel.in_flight_payloads() == []
    assert weight() == 64 * unit


def test_poisson_event_whose_receive_raises_keeps_its_weight(monkeypatch):
    """A 64-node GM Poisson kernel whose receive raises adopts nothing: its
    envelopes go back on their channels and their entries back on the
    event queue, so no weight is lost, and once the raise is undone the
    restored envelopes are delivered."""
    values = np.random.default_rng(5).normal(size=(64, 2))
    kernel, nodes = build_classification_network(
        values, GaussianMixtureScheme(seed=0), 3, graph=complete(64), seed=2,
        engine="async", merge_cache=True,
    )
    kernel.run(2)
    unit = nodes[0].quantization.unit
    transport = kernel.transport
    dispatched = []
    dispatch = type(transport).dispatch_delivery

    def spy(self, channel, message, coalesce_at=None):
        dispatched.append((channel, message, self.stats.frames_received))
        return dispatch(self, channel, message, coalesce_at)

    def weight():
        at_nodes = sum(node.total_quanta for node in nodes)
        return at_nodes + sum(int(payload.quanta.sum()) for payload in kernel.in_flight_payloads())

    def refuse(*args, **kwargs):
        raise RuntimeError("refused")

    monkeypatch.setattr(type(transport), "dispatch_delivery", spy)
    monkeypatch.setattr(GaussianMixtureScheme, "partition_packed", refuse)
    with pytest.raises(RuntimeError, match="refused"):
        kernel.run(1)
    channel, message, frames = dispatched[-1]
    assert transport.channels[(channel.source, channel.destination)] is channel
    assert message in channel.in_flight
    assert transport.stats.frames_received == frames
    assert weight() == 64 * unit
    monkeypatch.undo()
    kernel.run(1)
    assert message not in channel.in_flight
    assert weight() == 64 * unit


def test_poisson_event_whose_receive_raises_is_counted_once(monkeypatch):
    """``metrics.events`` counts an event once it has completed: on the
    64-node GM Poisson kernel of the test above, a delivery whose receive
    raises goes back on the event queue uncounted, so after the retry the
    count is every fire plus every envelope delivered."""
    fires = []
    fire = PoissonScheduler._fire

    def spy(self, kernel, node):
        fires.append(node)
        return fire(self, kernel, node)

    def refuse(*args, **kwargs):
        raise RuntimeError("refused")

    monkeypatch.setattr(PoissonScheduler, "_fire", spy)
    values = np.random.default_rng(5).normal(size=(64, 2))
    kernel, _ = build_classification_network(
        values, GaussianMixtureScheme(seed=0), 3, graph=complete(64), seed=2,
        engine="async", merge_cache=True,
    )
    kernel.run(2)
    with monkeypatch.context() as refused:
        refused.setattr(GaussianMixtureScheme, "partition_packed", refuse)
        with pytest.raises(RuntimeError, match="refused"):
            kernel.run(1)
    kernel.run(1)
    assert kernel.transport.stats.frames_received > 0
    assert kernel.metrics.events == len(fires) + kernel.transport.stats.frames_received


def test_poisson_fire_whose_send_raises_fires_again(monkeypatch):
    """A 16-node GM Poisson kernel whose send raises in the third epoch
    puts the fire back uncounted: every live node still has a timer
    queued, and in the ten epochs after the retry every node fires."""
    fired = []
    fire = PoissonScheduler._fire

    def spy(self, kernel, node):
        fire(self, kernel, node)
        fired.append(node)

    def refuse(*args, **kwargs):
        raise RuntimeError("refused")

    monkeypatch.setattr(PoissonScheduler, "_fire", spy)
    values = np.random.default_rng(5).normal(size=(16, 2))
    kernel, _ = build_classification_network(
        values, GaussianMixtureScheme(seed=0), 3, graph=complete(16), seed=2,
        engine="async", merge_cache=True,
    )
    kernel.run(2)
    with monkeypatch.context() as refused:
        refused.setattr(ClassificationProtocol, "make_payload", refuse)
        with pytest.raises(RuntimeError, match="refused"):
            kernel.run(1)
    timers = [item.node for _, _, item in kernel.queue._heap if isinstance(item, _Fire)]
    assert sorted(timers) == list(kernel.live_nodes)
    assert kernel.metrics.events == len(fired) + kernel.transport.stats.frames_received
    fired.clear()
    kernel.run(10)
    assert set(fired) == set(range(16))


def test_round_sweeps_a_large_blocks_noops(monkeypatch):
    """200 exact-center nodes past quiescence: the core sweep answers
    receives in bulk, and the run keeps the bytes and events of the run
    without the merge cache."""
    answered = []

    def spy(*args):
        swept = sweep(*args)
        answered.append(sum(len(accepted) for accepted, *_ in swept))
        return swept

    sweep = receive.sweep_noops
    monkeypatch.setattr(receive, "sweep_noops", spy)
    runs = {}
    for merge_cache in (True, False):
        sink = RingBufferSink(capacity=1 << 21)
        kernel, nodes = build_classification_network(
            make_dataset("centers", 200, 4),
            GaussianMixtureScheme(seed=0),
            3,
            graph=complete(200),
            seed=6,
            merge_cache=merge_cache,
            event_sink=sink,
        )
        kernel.run(40)
        events = [event.to_json_dict() for event in sink.events if event.kind != "cache"]
        runs[merge_cache] = ([state_bytes(node) for node in nodes], events)
    assert runs[True] == runs[False]
    assert sum(answered) > 1000
