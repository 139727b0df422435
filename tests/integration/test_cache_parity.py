"""Byte-identity of cached runs: final states and full event traces.

The merge cache's contract is that a cache hit — a certified no-op —
produces exactly what the uncached pipeline would have produced.  These tests pin the contract at the level CI's
determinism gate relies on: per-node (quanta, summary) states across
every fingerprinting scheme and both schedulers, and complete event
traces once the cache's own ``cache`` events and the wall-clock
``span`` events are filtered out.
"""

import numpy as np
import pytest

from repro.network.topology import complete
from repro.network.trace import RunTracer
from repro.obs.events import RingBufferSink
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

N = 18
ROUNDS = 20


def _values(scheme_name: str, n: int = N) -> np.ndarray:
    rng = np.random.default_rng(3)
    if scheme_name == "histogram":
        return rng.uniform(0.0, 10.0, size=n)
    half = n // 2
    return np.vstack(
        [
            rng.normal([0.0, 0.0], 0.6, size=(half, 2)),
            rng.normal([8.0, 8.0], 0.6, size=(n - half, 2)),
        ]
    )


def _scheme(scheme_name: str):
    if scheme_name == "gm":
        return GaussianMixtureScheme(seed=0)
    if scheme_name == "diagonal":
        return DiagonalGaussianScheme(seed=0)
    if scheme_name == "centroid":
        return CentroidScheme()
    return HistogramScheme(low=0.0, high=10.0, bins=24)


def _run(scheme_name: str, engine: str, merge_cache: bool, sink=None):
    scheme = _scheme(scheme_name)
    kernel, nodes = build_classification_network(
        _values(scheme_name),
        scheme,
        k=2,
        graph=complete(N),
        seed=9,
        engine=engine,
        merge_cache=merge_cache,
        event_sink=sink,
    )
    kernel.run(ROUNDS)
    return kernel, nodes, scheme


def _state(nodes, scheme):
    # A digest is a content hash of the packed summary bytes, so digest
    # equality in collection order *is* byte equality of the state.
    return [
        [(c.quanta, scheme.summary_digest(c.summary)) for c in node.classification]
        for node in nodes
    ]


class TestStateParity:
    @pytest.mark.parametrize("engine", ["rounds", "async"])
    @pytest.mark.parametrize("scheme_name", ["gm", "diagonal", "centroid", "histogram"])
    def test_cache_on_equals_cache_off(self, scheme_name, engine):
        _, on_nodes, scheme = _run(scheme_name, engine, merge_cache=True)
        _, off_nodes, _ = _run(scheme_name, engine, merge_cache=False)
        assert _state(on_nodes, scheme) == _state(off_nodes, scheme)


class TestTraceParity:
    """The determinism gate: identical traces modulo cache/span events."""

    @pytest.mark.parametrize("engine", ["rounds", "async"])
    def test_traced_run_identical_modulo_cache_events(self, engine):
        traces = {}
        for merge_cache in (True, False):
            sink = RingBufferSink(capacity=1 << 20)
            kernel, nodes, _ = _run("gm", engine, merge_cache, sink=sink)
            traces[merge_cache] = [
                event.to_json_dict()
                for event in sink.events
                if event.kind not in ("cache", "span")
            ]
        assert traces[True] == traces[False]
        assert len(traces[True]) > 0

    def test_probe_series_identical(self):
        # Convergence probes compute floats from node state; byte-equal
        # states must give bit-equal probe values.
        series = {}
        for merge_cache in (True, False):
            scheme = _scheme("gm")
            kernel, nodes = build_classification_network(
                _values("gm"),
                scheme,
                k=2,
                graph=complete(N),
                seed=9,
                merge_cache=merge_cache,
            )
            tracer = RunTracer(
                {
                    "max_quanta": lambda e: max(
                        nodes[i].total_quanta for i in e.live_nodes
                    )
                }
            )
            kernel.run(ROUNDS, per_round=tracer)
            series[merge_cache] = [
                record.probes["max_quanta"] for record in tracer.records
            ]
        assert series[True] == series[False]
