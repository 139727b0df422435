"""End-to-end parity of the node's one receive pipeline with Algorithm 1.

A :class:`~repro.core.node.ClassifierNode` receives through packed rows,
the identity fast path, the merge cache's certified no-op,
``partition_packed`` and the batched merge kernels
(``tests/native/test_kernels.py``).  Its contract is byte parity with Algorithm 1
as written: for every scheme and both schedulers, with aux tracking on
and off, a network run must produce bit for bit the classifications
(summaries, quanta, aux vectors) and the ``split``/``merge`` event stream
of the same run on the test-side oracle (``tests/oracle.py``), which has
no cache and no fast path.  Per-node counters agree too, once the fast
path's skipped partitions are added back.  These runs are small (the
tier-1 suite runs them); the benchmarks and ``tests/mega`` cover the same
contract at scale.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracle import oracle_nodes, state_bytes

from repro.network.failures import BernoulliCrashes
from repro.network.topology import complete, ring
from repro.obs.events import RingBufferSink
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

N = 16
ROUNDS = 12
SCHEME_NAMES = ["centroid", "gm", "diagonal", "histogram"]
ENGINES = ["rounds", "async"]
TRACE_KINDS = ("split", "merge")
SHARED_COUNTERS = ("splits", "merges", "messages_made", "batches_received", "collections_received")


def _values(name: str) -> np.ndarray:
    rng = np.random.default_rng(7)
    clustered = rng.normal(size=(N, 2)) + np.repeat(
        [[0.0, 0.0], [6.0, 6.0]], N // 2, axis=0
    )
    return clustered[:, 0] if name == "histogram" else clustered


def _scheme(name: str):
    if name == "centroid":
        return CentroidScheme()
    if name == "gm":
        return GaussianMixtureScheme(seed=3)
    if name == "diagonal":
        return DiagonalGaussianScheme(seed=3)
    return HistogramScheme(-12.0, 12.0, bins=16)


def _run(values, scheme, graph, rounds, **kwargs):
    sink = RingBufferSink(capacity=100000)
    kernel, nodes = build_classification_network(
        values, scheme, graph=graph, seed=11, event_sink=sink, **kwargs
    )
    kernel.run(rounds)
    live = sorted(kernel.live_nodes)
    states = [state_bytes(nodes[node]) for node in live]
    trace = [
        (event.kind, event.node, event.items)
        for event in sink.events
        if event.kind in TRACE_KINDS
    ]
    return states, trace, [nodes[node].stats for node in live]


def _assert_matches_oracle(values, make_scheme, graph, rounds, **kwargs):
    """Run the node network and the oracle network; returns the node stats."""
    node_run = _run(values, make_scheme(), graph, rounds, **kwargs)
    with oracle_nodes():
        oracle_run = _run(values, make_scheme(), graph, rounds, **kwargs)
    assert node_run[0] == oracle_run[0], "classification states diverged"
    assert node_run[1] == oracle_run[1], "split/merge event streams diverged"
    assert any(kind == "merge" for kind, _, _ in node_run[1]), "no merge ran"
    for node_stats, oracle_stats in zip(node_run[2], oracle_run[2]):
        for counter in SHARED_COUNTERS:
            assert getattr(node_stats, counter) == getattr(oracle_stats, counter), counter
        # The fast path is a partition the node proved it could skip.
        assert (
            node_stats.partition_calls + node_stats.fastpath_hits
            == oracle_stats.partition_calls
        )
    return node_run[2]


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_native_and_fallback_runs_are_byte_identical(name, engine):
    """The node pipeline against the oracle, aux tracking off and on."""
    for track_aux in (False, True):
        _assert_matches_oracle(
            _values(name), lambda: _scheme(name), ring(N), ROUNDS,
            k=3, engine=engine, track_aux=track_aux,
        )


@pytest.mark.parametrize("engine", ENGINES)
def test_crash_run_matches_oracle(engine):
    """Figure 4's setting: GM, k=2, complete graph, outliers and crashes."""
    rng = np.random.default_rng(4)
    values = rng.normal(size=(N, 2))
    values[: N // 4] += 10.0
    stats = _assert_matches_oracle(
        values, lambda: GaussianMixtureScheme(seed=4), complete(N), ROUNDS,
        k=2, engine=engine, failure_model=BernoulliCrashes(0.05, min_survivors=4),
    )
    assert len(stats) < N, "no node crashed"


@pytest.mark.parametrize("name", ["gm", "centroid"])
def test_agreeing_run_matches_oracle(name):
    """A 60-node ring on three exact centers reaches agreement, so every
    layer of the pipeline fires: fast path, certified no-op, full solve."""
    centers = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])
    values = centers[np.random.default_rng(11).integers(0, 3, size=60)]
    stats = _assert_matches_oracle(
        values, lambda: _scheme(name), ring(60), 30, k=3, engine="rounds"
    )
    for layer in ("fastpath_hits", "cache_noop_hits", "cache_misses"):
        assert sum(getattr(node_stats, layer) for node_stats in stats) > 0, layer
