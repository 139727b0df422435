"""A synchronous round's receives are decided one by one and solved together.

``SimulationKernel.complete_deliveries`` lets every receiver of a round
decide its receive, solves the queued full solves in one batch, then
records and applies the receives in destination order.  The state, the
merge cache's counters and the event stream must be a one-at-a-time
loop's, and the solves must really be batched: one partition call and
one merge call per round, while the event-driven schedule keeps posing
one problem per call.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracle import state_bytes

from repro.network.topology import TOPOLOGY_BUILDERS
from repro.obs.events import RingBufferSink
from repro.protocols.classification import build_classification_network
from repro.schemes.gm import GaussianMixtureScheme


def _four_nodes():
    """Nodes 0 and 1 hold one value, nodes 2 and 3 another; k = 1."""
    sink = RingBufferSink()
    values = np.array([[0.0, 0.0], [0.0, 0.0], [5.0, 5.0], [5.0, 5.0]])
    kernel, nodes = build_classification_network(
        values,
        GaussianMixtureScheme(seed=0),
        1,
        graph=TOPOLOGY_BUILDERS["complete"](4),
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
        graph=TOPOLOGY_BUILDERS["complete"](24),
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
