"""Kernel-level quiescence detection and the merge cache under failures.

Discrete-valued inputs (every node's value sits exactly on one of three
centers) make the converged state byte-stable: once all nodes hold the
same three summaries, splits and merges reproduce them exactly, so the
kernel's structural quiescence probe can fire.  Continuous inputs never
freeze bytes (weighted means keep drifting in the last ulps), which is
why quiescence is opt-in.
"""

import pytest

from repro.data import make_dataset
from repro.network.failures import ScheduledCrashes
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.schemes.gm import GaussianMixtureScheme


def _build(n: int, engine: str, **kwargs):
    return build_classification_network(
        make_dataset("centers", n, 7),
        GaussianMixtureScheme(seed=0),
        k=3,
        graph=complete(n),
        seed=5,
        engine=engine,
        **kwargs,
    )


def _summary_structure(nodes, live):
    """Per-live-node sorted summary-digest multiset (quanta ignored)."""
    return {i: tuple(sorted(nodes[i].summary_digests())) for i in sorted(live)}


def _full_state(nodes, live):
    """Per-live-node exact (quanta, summary bytes) sequence, in order."""
    return {
        i: [
            (c.quanta, c.summary.mean.tobytes(), c.summary.cov.tobytes())
            for c in nodes[i].classification
        ]
        for i in sorted(live)
    }


class TestQuiescenceDetection:
    @pytest.mark.parametrize("engine", ["rounds", "async"])
    def test_early_exit_matches_full_run_structure(self, engine):
        n = 24
        rounds = 120
        full, full_nodes = _build(n, engine)
        ran_full = full.run(rounds)
        assert ran_full == rounds
        assert not full.quiescent  # detection is opt-in

        early, early_nodes = _build(n, engine, stop_on_quiescence=True)
        ran_early = early.run(rounds)
        assert early.quiescent
        assert early.quiescent_at == ran_early
        assert ran_early < rounds  # rounds actually saved
        assert early.metrics.quiescent_rounds >= early.quiescence_patience

        # Post-quiescence only quanta move: the summary-digest structure of
        # the early-stopped run matches the full-length run exactly.
        assert _summary_structure(early_nodes, early.live_nodes) == _summary_structure(
            full_nodes, full.live_nodes
        )

    def test_patience_validated(self):
        with pytest.raises(ValueError, match="patience"):
            _build(8, "rounds", stop_on_quiescence=True, quiescence_patience=0)

    def test_quiescence_with_crashed_node(self):
        # A node that dies early takes its weight along; the survivors
        # still converge and the probe only consults live nodes.
        n = 16
        engine, nodes = _build(
            n,
            "rounds",
            stop_on_quiescence=True,
            failure_model=ScheduledCrashes({1: [3]}),
        )
        ran = engine.run(150)
        assert engine.quiescent
        assert ran < 150
        assert 3 not in engine.live_nodes
        structure = _summary_structure(nodes, engine.live_nodes)
        reference = next(iter(structure.values()))
        assert all(s == reference for s in structure.values())


class TestInFlightPayloads:
    def test_async_pool_conserves_total_weight(self):
        # Mid-run, weight lives at nodes *and* in channels; with the cache
        # on the two together must still account for every quantum.
        n = 10
        engine, nodes = _build(n, "async", merge_cache=True)
        engine.scheduler.run_until(engine, 3.0)
        unit = nodes[0].quantization.unit
        at_nodes = sum(node.total_quanta for node in nodes)
        in_flight = sum(
            collection.quanta
            for payload in engine.in_flight_payloads()
            for collection in payload
        )
        assert at_nodes + in_flight == n * unit
        assert in_flight > 0  # the probe exercised a non-empty channel pool

    def test_round_engine_channels_drain_between_rounds(self):
        engine, _ = _build(8, "rounds", merge_cache=True)
        engine.run(5)
        assert engine.in_flight_payloads() == []


class TestFailuresWithCache:
    @pytest.mark.parametrize("engine", ["rounds", "async"])
    def test_crash_run_parity_cache_on_off(self, engine):
        # Messages addressed to a crashed node are dropped before any
        # receive runs, so they must neither seed nor consult the cache;
        # the surviving nodes' states must be byte-identical either way.
        n = 16
        rounds = 30
        crashes = {2: [3], 5: [7]}
        on, on_nodes = _build(
            n, engine, merge_cache=True, failure_model=ScheduledCrashes(crashes)
        )
        on.run(rounds)
        off, off_nodes = _build(
            n, engine, merge_cache=False, failure_model=ScheduledCrashes(crashes)
        )
        off.run(rounds)

        assert set(on.live_nodes) == set(off.live_nodes)
        assert on.metrics.messages_dropped == off.metrics.messages_dropped
        assert on.metrics.messages_dropped > 0  # the crashes really dropped mail
        assert _full_state(on_nodes, on.live_nodes) == _full_state(
            off_nodes, off.live_nodes
        )
        # The cache saw real traffic on the cached run and none otherwise.
        assert on.metrics.cache_misses + on.metrics.cache_noop_hits > 0
        assert off.metrics.cache_misses == 0
        assert off.metrics.cache_noop_hits == 0
