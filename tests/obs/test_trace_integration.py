"""End-to-end tracing: both schedules, the classification protocol, and EM.

The acceptance check of the observability layer: a Figure-4-style crash
run under a JSONL sink must produce an event log from which the report
machinery reconstructs rounds, per-round message counts and the crash
timeline *exactly* as the engine's own ``NetworkMetrics`` recorded them.
"""

from collections import Counter

import numpy as np
import pytest

from repro.data.generators import outlier_scenario
from repro.ml.em import fit_gmm_em
from repro.network.failures import BernoulliCrashes
from repro.network.kernel import SimulationKernel
from repro.network.schedulers import PoissonScheduler
from repro.network.topology import complete
from repro.obs import JsonlSink, RingBufferSink, tracing
from repro.obs.report import load_events, render_report
from repro.protocols.classification import build_classification_network
from repro.protocols.push_sum import PushSumProtocol
from repro.schemes.gm import GaussianMixtureScheme


@pytest.fixture(scope="module")
def fig4_style_trace(tmp_path_factory):
    """A robust-GM crash run (the Figure 4 configuration, shrunk) traced to JSONL."""
    path = tmp_path_factory.mktemp("obs") / "fig4.jsonl"
    scenario = outlier_scenario(10.0, n_good=18, n_outliers=2, seed=4)
    # Ambient tracing, exactly what `--trace` does: the engine, the nodes
    # and the profiling spans all pick the sink up without plumbing.
    with tracing(JsonlSink(str(path))):
        engine, nodes = build_classification_network(
            scenario.values,
            GaussianMixtureScheme(seed=4),
            k=2,
            graph=complete(scenario.n),
            seed=4,
            failure_model=BernoulliCrashes(0.05),
        )
        engine.run(12)
    return path, engine


class TestRoundScheduleTraceConsistency:
    def test_transport_counts_match_network_metrics_exactly(self, fig4_style_trace):
        path, engine = fig4_style_trace
        census = Counter(event["kind"] for event in load_events(str(path)))
        metrics = engine.metrics
        assert census["send"] == metrics.messages_sent
        assert census["deliver"] == metrics.messages_delivered
        assert census["drop"] == metrics.messages_dropped
        assert census["crash"] == metrics.crashes
        assert census["round_close"] == metrics.rounds == 12

    def test_per_round_messages_match_exactly(self, fig4_style_trace):
        path, engine = fig4_style_trace
        closes = [e for e in load_events(str(path)) if e["kind"] == "round_close"]
        assert [e["round"] for e in closes] == list(range(12))
        assert [e["extra"]["messages"] for e in closes] == (
            engine.metrics.per_round_messages
        )

    def test_payload_items_match_exactly(self, fig4_style_trace):
        path, engine = fig4_style_trace
        sends = [e for e in load_events(str(path)) if e["kind"] == "send"]
        assert sum(e["items"] for e in sends) == engine.metrics.payload_items_sent

    def test_crash_timeline_is_within_run_and_counts_survivors(self, fig4_style_trace):
        path, engine = fig4_style_trace
        events = load_events(str(path))
        crashes = [e for e in events if e["kind"] == "crash"]
        assert all(0 <= e["round"] < 12 for e in crashes)
        final_close = [e for e in events if e["kind"] == "round_close"][-1]
        assert final_close["extra"]["live"] == len(engine.live_nodes)
        assert len(crashes) == 20 - len(engine.live_nodes)

    def test_split_and_merge_events_recorded(self, fig4_style_trace):
        path, engine = fig4_style_trace
        events = load_events(str(path))
        census = Counter(event["kind"] for event in events)
        assert census["split"] > 0 and census["merge"] > 0
        # Node-level totals must agree with the nodes' own stats counters.
        merges_by_event = census["merge"]
        assert merges_by_event == sum(
            1 for e in events if e["kind"] == "merge" and e["node"] is not None
        )

    def test_report_renders_all_major_sections(self, fig4_style_trace):
        path, engine = fig4_style_trace
        text = render_report(load_events(str(path)))
        for section in ("Event census", "Message complexity", "Crash timeline",
                        "Per-node timelines", "Profiled spans"):
            assert section in text


class TestPoissonScheduleTraceConsistency:
    def build(self, sink, n=8, seed=2):
        values = np.arange(n, dtype=float)[:, None]
        protocols = {i: PushSumProtocol(values[i]) for i in range(n)}
        return SimulationKernel(
            complete(n), protocols, PoissonScheduler(), seed=seed, event_sink=sink
        )

    def test_transport_counts_match_metrics(self):
        sink = RingBufferSink()
        engine = self.build(sink)
        engine.run_steps(300)
        census = Counter(event.kind for event in sink.events)
        assert census["send"] == engine.metrics.messages_sent
        assert census["deliver"] == engine.metrics.messages_delivered
        assert census["drop"] == engine.metrics.messages_dropped

    def test_events_carry_time_stamps(self):
        sink = RingBufferSink()
        engine = self.build(sink)
        engine.run_steps(100)
        times = [event.t for event in sink.events if event.kind == "send"]
        assert times and all(t is not None for t in times)
        assert times == sorted(times)

    def test_crash_produces_drop_events(self):
        sink = RingBufferSink()
        engine = self.build(sink)
        engine.crash(0)
        engine.run_steps(300)
        assert sink.of_kind("crash")[0].node == 0
        assert engine.metrics.messages_dropped > 0
        assert len(sink.of_kind("drop")) == engine.metrics.messages_dropped


class TestAmbientTracing:
    def test_engines_pick_up_ambient_sink(self):
        values = np.arange(6, dtype=float)[:, None]
        sink = RingBufferSink()
        with tracing(sink):
            protocols = {i: PushSumProtocol(values[i]) for i in range(6)}
            engine = SimulationKernel(complete(6), protocols, PoissonScheduler(), seed=0)
            assert engine.event_sink is sink
        engine.run_steps(50)
        assert len(sink.of_kind("send")) == engine.metrics.messages_sent

    def test_em_fit_emits_em_steps_under_tracing(self, rng):
        points = np.vstack(
            [rng.normal(c, 0.5, size=(40, 2)) for c in ([0, 0], [6, 6])]
        )
        sink = RingBufferSink()
        with tracing(sink):
            result = fit_gmm_em(points, 2, rng, max_iterations=25)
        steps = sink.of_kind("em_step")
        assert len(steps) == len(result.log_likelihood_trace) - 1
        likelihoods = [event.extra["log_likelihood"] for event in steps]
        assert likelihoods == sorted(likelihoods)  # EM's monotone likelihood
        spans = [event.extra["name"] for event in sink.of_kind("span")]
        assert "em.fit" in spans

    def test_no_ambient_sink_means_no_events(self, rng):
        points = rng.normal(size=(30, 2))
        result = fit_gmm_em(points, 2, rng, max_iterations=10)
        assert result.iterations >= 1  # ran fine with tracing fully off
