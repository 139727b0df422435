"""Random split/deliver schedules: the node and the Algorithm 1 oracle agree.

Hypothesis drives two or three :class:`~repro.core.node.ClassifierNode`
instances and as many oracle nodes (``tests/oracle.py``) through the same
random schedule of splits and batched deliveries, over every shipped
scheme, ``k`` in {1, 2, 3}, all-identical and distinct inputs, aux
tracking on and off, and two units: four quanta, so one-quantum
collections (and conformance rule 2) occur within a few splits, and 1,024
quanta, so weights stay clear of the floor long enough for the nodes'
shared merge cache (as a network's) to certify no-ops.  After every step
the classifications match byte for byte (summary, quanta, aux) and the
quanta on nodes and in flight add up to ``n`` units.

A second property delivers through the kernel's round entry
(``SimulationKernel.complete_deliveries``): one step hands several
receivers' batches to it at once, so their full solves are solved
together, while the oracles receive one at a time.  States, stats and the
``split``/``merge`` event streams must agree.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracle import OracleNode, state_bytes

from repro.core.fingerprint import MergeCache
from repro.core.node import ClassifierNode
from repro.core.weights import Quantization
from repro.network.kernel import SimulationKernel
from repro.network.schedulers import SynchronousRoundScheduler
from repro.obs.events import RingBufferSink
from repro.protocols.classification import ClassificationProtocol
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

SCHEMES = {
    "centroid": CentroidScheme,
    "gm": lambda: GaussianMixtureScheme(seed=0),
    "diagonal": lambda: DiagonalGaussianScheme(seed=0),
    "histogram": lambda: HistogramScheme(-10.0, 10.0, bins=8),
}

# A step is (send, node, target): send splits ``node`` and addresses the
# payload to ``target``; otherwise every payload pending for ``target`` is
# delivered as one batch.  Indices are taken modulo the node count.
steps = st.lists(
    st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 2)),
    min_size=8,
    max_size=50,
)


def _values(name: str, n: int, identical: bool, seed: int) -> list:
    rng = np.random.default_rng(seed)
    draw = (lambda: float(rng.normal(0.0, 3.0))) if name == "histogram" else (
        lambda: rng.normal(0.0, 3.0, size=2)
    )
    first = draw()
    return [first] * n if identical else [first] + [draw() for _ in range(n - 1)]


def _quanta(state_rows) -> int:
    return sum(row[0] for row in state_rows)


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(SCHEMES)),
    k=st.integers(1, 3),
    n=st.integers(2, 3),
    identical=st.booleans(),
    track_aux=st.booleans(),
    unit=st.sampled_from([4, 1 << 10]),
    seed=st.integers(0, 3),
    schedule=steps,
)
def test_nodes_match_oracle_on_random_schedules(
    name, k, n, identical, track_aux, unit, seed, schedule
):
    values = _values(name, n, identical, seed)
    quantization = Quantization(unit)
    common = dict(k=k, quantization=quantization, track_aux=track_aux, n_inputs=n)
    scheme, oracle_scheme, cache = SCHEMES[name](), SCHEMES[name](), MergeCache()
    nodes = [
        ClassifierNode(i, values[i], scheme, validate=True, merge_cache=cache, **common)
        for i in range(n)
    ]
    oracles = [OracleNode(i, values[i], oracle_scheme, **common) for i in range(n)]
    pending: list[tuple[int, object, list]] = []
    for send, source, target in schedule:
        source, target = source % n, target % n
        if send:
            payload, sent = nodes[source].make_message(), oracles[source].make_message()
            assert bool(payload) == bool(sent)
            if payload:
                pending.append((target, payload, sent))
        else:
            batch = [entry for entry in pending if entry[0] == target]
            pending = [entry for entry in pending if entry[0] != target]
            nodes[target].receive_packed([payload for _, payload, _ in batch])
            oracles[target].receive_packed([sent for _, _, sent in batch])
        states = [state_bytes(node) for node in nodes]
        assert states == [state_bytes(oracle) for oracle in oracles]
        in_flight = sum(int(payload.quanta.sum()) for _, payload, _ in pending)
        assert sum(_quanta(state) for state in states) + in_flight == n * unit


# A round step is (send, node, target, receivers): send splits ``node`` and
# addresses the payload to ``target``; otherwise every node whose bit is
# set in ``receivers`` (``target`` when none is) receives everything
# pending for it, all in one kernel round.
round_steps = st.lists(
    st.tuples(st.booleans(), st.integers(0, 2), st.integers(0, 2), st.integers(0, 7)),
    min_size=8,
    max_size=50,
)

#: The stats both node kinds keep alike; a node's fast path is the
#: oracle's partition call.
_SHARED_STATS = ("splits", "merges", "messages_made", "batches_received", "collections_received")


def _stats(node) -> tuple:
    stats = node.stats
    return tuple(getattr(stats, name) for name in _SHARED_STATS) + (
        stats.partition_calls + stats.fastpath_hits,
    )


def _split_and_merge(sink) -> list[tuple]:
    return [
        (event.kind, event.node, event.items) for event in sink if event.kind in ("split", "merge")
    ]


@settings(max_examples=120, deadline=None)
@given(
    name=st.sampled_from(sorted(SCHEMES)),
    k=st.integers(1, 3),
    n=st.integers(2, 3),
    identical=st.booleans(),
    track_aux=st.booleans(),
    unit=st.sampled_from([4, 1 << 10]),
    seed=st.integers(0, 3),
    schedule=round_steps,
)
def test_round_deliveries_match_oracle_on_random_schedules(
    name, k, n, identical, track_aux, unit, seed, schedule
):
    values = _values(name, n, identical, seed)
    quantization = Quantization(unit)
    common = dict(k=k, quantization=quantization, track_aux=track_aux, n_inputs=n)
    scheme, oracle_scheme, cache = SCHEMES[name](), SCHEMES[name](), MergeCache()
    node_events, oracle_events = RingBufferSink(), RingBufferSink()
    nodes = [
        ClassifierNode(
            i, values[i], scheme, validate=True, merge_cache=cache, event_sink=node_events, **common
        )
        for i in range(n)
    ]
    oracles = [
        OracleNode(i, values[i], oracle_scheme, event_sink=oracle_events, **common)
        for i in range(n)
    ]
    kernel = SimulationKernel(
        nx.complete_graph(n),
        {i: ClassificationProtocol(node) for i, node in enumerate(nodes)},
        SynchronousRoundScheduler(),
        merge_cache=cache,
    )
    pending: list[tuple[int, int, object, list]] = []
    for send, source, target, receivers in schedule:
        source, target = source % n, target % n
        if send:
            payload, sent = nodes[source].make_message(), oracles[source].make_message()
            assert bool(payload) == bool(sent)
            if payload:
                pending.append((target, source, payload, sent))
        else:
            chosen = [i for i in range(n) if receivers >> i & 1] or [target]
            deliveries = []
            for receiver in chosen:
                batch = [entry for entry in pending if entry[0] == receiver]
                deliveries.append(
                    (receiver, [entry[1] for entry in batch], [entry[2] for entry in batch])
                )
                oracles[receiver].receive_packed([entry[3] for entry in batch])
            pending = [entry for entry in pending if entry[0] not in chosen]
            kernel.complete_deliveries(deliveries)
        states = [state_bytes(node) for node in nodes]
        assert states == [state_bytes(oracle) for oracle in oracles]
        assert [_stats(node) for node in nodes] == [_stats(oracle) for oracle in oracles]
        in_flight = sum(int(entry[2].quanta.sum()) for entry in pending)
        assert sum(_quanta(state) for state in states) + in_flight == n * unit
    assert _split_and_merge(node_events) == _split_and_merge(oracle_events)
