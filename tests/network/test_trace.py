"""RunTracer: per-round structured observation."""

import numpy as np
import pytest

from repro.network.kernel import SimulationKernel
from repro.network.schedulers import PoissonScheduler
from repro.network.topology import complete
from repro.network.trace import RunTracer
from repro.obs import RingBufferSink
from repro.protocols.push_sum import PushSumProtocol, build_push_sum_network


def build_traced(n=10, seed=0):
    values = np.arange(n, dtype=float)[:, None]
    engine, protocols = build_push_sum_network(values, complete(n), seed=seed)
    truth = float(values.mean())
    tracer = RunTracer(
        {
            "max_error": lambda e: max(
                abs(protocols[i].estimate[0] - truth) for i in e.live_nodes
            ),
        }
    )
    return engine, tracer


class TestTracing:
    def test_one_record_per_round(self):
        engine, tracer = build_traced()
        engine.run(7, per_round=tracer)
        assert len(tracer.records) == 7
        assert tracer.rounds() == [1, 2, 3, 4, 5, 6, 7]

    def test_series_values_decrease(self):
        engine, tracer = build_traced()
        engine.run(25, per_round=tracer)
        series = tracer.series("max_error")
        assert series[-1] < series[0]
        assert tracer.final("max_error") == series[-1]

    def test_rounds_until_threshold(self):
        engine, tracer = build_traced()
        engine.run(40, per_round=tracer)
        hit = tracer.rounds_until("max_error", 0.01)
        assert hit is not None
        assert tracer.series("max_error")[hit - 1] <= 0.01

    def test_rounds_until_unreachable(self):
        engine, tracer = build_traced()
        engine.run(3, per_round=tracer)
        assert tracer.rounds_until("max_error", -1.0) is None

    def test_live_nodes_recorded(self):
        engine, tracer = build_traced()
        engine.run(2, per_round=tracer)
        engine.crash(0)
        engine.run(2, per_round=tracer)
        assert tracer.live_node_series() == [10, 10, 9, 9]

    def test_as_columns(self):
        engine, tracer = build_traced()
        engine.run(3, per_round=tracer)
        columns = tracer.as_columns()
        assert set(columns) == {"max_error"}
        assert len(columns["max_error"]) == 3


def build_async_traced(n=8, seed=0, event_sink=None):
    values = np.arange(n, dtype=float)[:, None]
    protocols = {i: PushSumProtocol(values[i]) for i in range(n)}
    engine = SimulationKernel(
        complete(n), protocols, PoissonScheduler(), seed=seed, event_sink=event_sink
    )
    truth = float(values.mean())
    tracer = RunTracer(
        {
            "max_error": lambda e: max(
                abs(protocols[i].estimate[0] - truth) for i in e.live_nodes
            ),
        }
    )
    return engine, tracer


class TestAsyncTracing:
    """Regression: the tracer used to crash on the Poisson schedule, which
    has no round counter — step by step it must fall back to the
    processed-event count and otherwise behave identically."""

    def test_tracer_attaches_via_per_event(self):
        engine, tracer = build_async_traced()
        executed = engine.run_steps(120, observer=tracer)
        assert len(tracer.records) == executed == 120

    def test_round_index_falls_back_to_event_count(self):
        engine, tracer = build_async_traced()
        engine.run_steps(30, observer=tracer)
        assert tracer.rounds() == list(range(1, 31))

    def test_series_converges(self):
        engine, tracer = build_async_traced()
        engine.run_steps(600, observer=tracer)
        series = tracer.series("max_error")
        assert series[-1] < series[0]

    def test_live_nodes_reflect_crashes(self):
        engine, tracer = build_async_traced()
        engine.run_steps(5, observer=tracer)
        engine.crash(0)
        engine.run_steps(5, observer=tracer)
        assert tracer.live_node_series() == [8] * 5 + [7] * 5

    def test_probe_events_emitted_to_engine_sink(self):
        sink = RingBufferSink()
        engine, tracer = build_async_traced(event_sink=sink)
        engine.run_steps(10, observer=tracer)
        probes = sink.of_kind("probe")
        assert len(probes) == 10
        assert all("max_error" in event.extra for event in probes)
        assert all(event.t is not None for event in probes)


class TestProbeEvents:
    def test_round_engine_probes_routed_to_sink(self):
        sink = RingBufferSink()
        engine, tracer = build_traced()
        engine.event_sink = sink
        engine.run(4, per_round=tracer)
        probes = sink.of_kind("probe")
        assert [event.round for event in probes] == [1, 2, 3, 4]
        assert [event.extra["max_error"] for event in probes] == tracer.series("max_error")

    def test_no_sink_means_no_probe_events(self):
        engine, tracer = build_traced()
        assert engine.event_sink is None
        engine.run(3, per_round=tracer)  # must not raise
        assert len(tracer.records) == 3


class TestValidation:
    def test_requires_probes(self):
        with pytest.raises(ValueError):
            RunTracer({})

    def test_unknown_series_rejected(self):
        tracer = RunTracer({"x": lambda e: 0.0})
        with pytest.raises(KeyError):
            tracer.series("y")

    def test_final_before_any_round_rejected(self):
        tracer = RunTracer({"x": lambda e: 0.0})
        with pytest.raises(ValueError):
            tracer.final("x")
