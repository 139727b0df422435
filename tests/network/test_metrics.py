"""Instrumentation counters."""

import numpy as np
import pytest

from repro.network.metrics import NetworkMetrics
from repro.network.failures import ScheduledCrashes
from repro.network.kernel import SimulationKernel
from repro.network.schedulers import PoissonScheduler
from repro.network.topology import complete
from repro.protocols.push_sum import PushSumProtocol, build_push_sum_network


class TestCounters:
    def test_record_send_accumulates_payload_items(self):
        metrics = NetworkMetrics()
        metrics.record_send(payload_items=3)
        metrics.record_send(payload_items=2)
        assert metrics.messages_sent == 2
        assert metrics.payload_items_sent == 5

    def test_delivery_and_drop(self):
        metrics = NetworkMetrics()
        metrics.record_delivery()
        metrics.record_drop()
        metrics.record_drop()
        assert metrics.messages_delivered == 1
        assert metrics.messages_dropped == 2

    def test_close_round_traces_messages(self):
        metrics = NetworkMetrics()
        metrics.close_round(4)
        metrics.close_round(6)
        assert metrics.rounds == 2
        assert metrics.per_round_messages == [4, 6]

    def test_as_dict_keys(self):
        snapshot = NetworkMetrics().as_dict()
        assert {"rounds", "messages_sent", "messages_dropped", "crashes"} <= set(snapshot)

    def test_as_dict_carries_cache_counters(self):
        snapshot = NetworkMetrics().as_dict()
        assert {"cache_misses", "cache_noop_hits", "quiescent_rounds"} <= set(snapshot)
        assert all(
            snapshot[key] == 0 for key in ("cache_misses", "cache_noop_hits", "quiescent_rounds")
        )

    def test_sync_cache_mirrors_cache_counters(self):
        from repro.core.fingerprint import MergeCache

        cache = MergeCache()
        cache.record_noop()
        cache.record_noop()
        metrics = NetworkMetrics()
        metrics.sync_cache(cache)
        assert metrics.cache_noop_hits == 2
        assert metrics.as_dict()["cache_noop_hits"] == 2


class TestAsDictDerivedStats:
    """as_dict used to omit per_round_messages entirely; it now carries the
    series plus the derived mean/max so result files capture message
    complexity without custom code."""

    def test_per_round_series_included_as_copy(self):
        metrics = NetworkMetrics()
        metrics.close_round(4)
        metrics.close_round(6)
        snapshot = metrics.as_dict()
        assert snapshot["per_round_messages"] == [4, 6]
        snapshot["per_round_messages"].append(99)
        assert metrics.per_round_messages == [4, 6]

    def test_mean_and_max(self):
        metrics = NetworkMetrics()
        metrics.close_round(4)
        metrics.close_round(6)
        metrics.close_round(8)
        snapshot = metrics.as_dict()
        assert snapshot["mean_messages_per_round"] == pytest.approx(6.0)
        assert snapshot["max_messages_per_round"] == 8

    def test_zero_rounds_yield_zero_stats(self):
        snapshot = NetworkMetrics().as_dict()
        assert snapshot["per_round_messages"] == []
        assert snapshot["mean_messages_per_round"] == 0.0
        assert snapshot["max_messages_per_round"] == 0


class TestEngineWiring:
    """Drop and crash counters must be fed by both engines."""

    def test_round_engine_counts_drops_to_crashed_nodes(self):
        values = np.arange(2, dtype=float)[:, None]
        engine, _ = build_push_sum_network(values, complete(2), seed=0)
        engine.crash(1)
        assert engine.metrics.crashes == 1
        engine.run(3)
        # Node 0's only neighbour is dead: every send is a drop.
        assert engine.metrics.messages_sent == 3
        assert engine.metrics.messages_dropped == 3
        assert engine.metrics.messages_delivered == 0

    def test_round_engine_counts_scheduled_crashes(self):
        values = np.arange(6, dtype=float)[:, None]
        engine, _ = build_push_sum_network(
            values, complete(6), seed=0, failure_model=ScheduledCrashes({0: [2], 1: [3]})
        )
        engine.run(3)
        assert engine.metrics.crashes == 2
        assert set(engine.live_nodes) == {0, 1, 4, 5}

    def test_async_engine_counts_drops_to_crashed_nodes(self):
        values = np.arange(2, dtype=float)[:, None]
        protocols = {i: PushSumProtocol(values[i]) for i in range(2)}
        engine = SimulationKernel(complete(2), protocols, PoissonScheduler(), seed=0)
        engine.crash(1)
        engine.run_steps(100)
        assert engine.metrics.crashes == 1
        assert engine.metrics.messages_dropped > 0
        assert engine.metrics.messages_delivered == 0

    def test_counts_are_conserved(self):
        values = np.arange(8, dtype=float)[:, None]
        engine, _ = build_push_sum_network(
            values, complete(8), seed=1, failure_model=ScheduledCrashes({1: [0, 1]})
        )
        engine.run(5)
        metrics = engine.metrics
        assert metrics.messages_sent == (
            metrics.messages_delivered + metrics.messages_dropped
        )
        assert sum(metrics.per_round_messages) == metrics.messages_sent
