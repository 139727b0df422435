"""Telemetry must be a pure observer: byte-identical runs on or off.

The determinism contract of the v2 observability layer: attaching a
:class:`TimeSeriesRecorder` (or the ambient :func:`telemetry` scope)
never consumes kernel randomness and never mutates protocol state, so
the simulation trajectory — node summaries, quanta, transport counters,
event stream — is exactly the same with telemetry on or off, on both
schedulers.
"""

import json

import pytest

from repro.data import make_dataset
from repro.network.topology import complete
from repro.obs import (
    JsonlSink,
    RingBufferSink,
    TelemetryConfig,
    TimeSeriesRecorder,
    telemetry,
)
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


def _full_state(nodes, live):
    return {
        i: [
            (c.quanta, c.summary.mean.tobytes(), c.summary.cov.tobytes())
            for c in nodes[i].classification
        ]
        for i in sorted(live)
    }


class TestStateParity:
    @pytest.mark.parametrize("engine", ["rounds", "async"])
    def test_final_state_identical_telemetry_on_or_off(self, engine):
        plain, plain_nodes = _build(16, engine)
        recorder = TimeSeriesRecorder()
        observed, observed_nodes = _build(16, engine, telemetry=recorder)
        rounds = 20
        assert plain.run(rounds) == observed.run(rounds)
        assert len(recorder) == rounds  # telemetry actually ran
        assert _full_state(plain_nodes, plain.live_nodes) == (
            _full_state(observed_nodes, observed.live_nodes)
        )
        assert plain.metrics.messages_sent == observed.metrics.messages_sent
        assert plain.metrics.payload_items_sent == (
            observed.metrics.payload_items_sent
        )
        # The kernels' RNGs advanced identically: the next draw matches.
        assert plain.rng.random() == observed.rng.random()

    @pytest.mark.parametrize("engine", ["rounds", "async"])
    def test_ambient_scope_parity(self, engine):
        plain, plain_nodes = _build(12, engine)
        with telemetry(TelemetryConfig(stride=3)) as hub:
            observed, observed_nodes = _build(12, engine)
        plain.run(10)
        observed.run(10)
        assert hub.rows()  # the scope recorded something
        assert _full_state(plain_nodes, plain.live_nodes) == (
            _full_state(observed_nodes, observed.live_nodes)
        )


class TestTraceParity:
    @pytest.mark.parametrize("engine", ["rounds", "async"])
    def test_traces_differ_only_by_telemetry_events(self, engine, tmp_path):
        """With telemetry on, the JSONL trace is the telemetry-off trace
        plus interleaved ``telemetry`` lines — nothing else moves."""
        paths = {}
        for label, recorder in (
            ("off", None),
            ("on", TimeSeriesRecorder()),
        ):
            path = tmp_path / f"{label}.jsonl"
            with JsonlSink(str(path)) as sink:
                kernel, _ = _build(
                    12, engine, telemetry=recorder, event_sink=sink
                )
                kernel.run(8)
            paths[label] = path

        def filtered(path):
            return [
                line
                for line in path.read_text().splitlines()
                if json.loads(line)["kind"] != "telemetry"
            ]

        assert filtered(paths["on"]) == filtered(paths["off"])
        telemetry_lines = [
            line
            for line in paths["on"].read_text().splitlines()
            if json.loads(line)["kind"] == "telemetry"
        ]
        assert len(telemetry_lines) == 8


class TestQuiescenceFinalSnapshot:
    def test_early_exit_emits_metrics_snapshot_and_flushes(self, tmp_path):
        path = tmp_path / "quiesce.jsonl"
        sink = JsonlSink(str(path))
        kernel, _ = _build(
            16, "rounds", stop_on_quiescence=True, event_sink=sink
        )
        executed = kernel.run(120)
        assert executed < 120  # it did exit early
        # Flushed, not just buffered: the trace is complete on disk while
        # the sink is still open.
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        sink.close()
        final = lines[-1]
        assert final["kind"] == "metrics"
        assert final["extra"]["rounds"] == kernel.metrics.rounds
        assert final["extra"]["messages_sent"] == kernel.metrics.messages_sent
        # Determinism gates compare cache-on/off traces: no cache counters.
        assert not any(key.startswith("cache") for key in final["extra"])

    def test_full_run_has_no_metrics_snapshot(self):
        sink = RingBufferSink()
        kernel, _ = _build(10, "rounds", event_sink=sink)
        kernel.run(5)
        assert sink.of_kind("metrics") == []


class TestRoundAlignment:
    @pytest.mark.parametrize("engine", ["rounds", "async"])
    def test_round_close_and_telemetry_share_the_round_counter(self, engine):
        """Satellite: both schedulers emit the unified 0-based
        round-equivalent counter, and telemetry samples align with it."""
        sink = RingBufferSink()
        recorder = TimeSeriesRecorder(TelemetryConfig(stride=2))
        kernel, _ = _build(10, engine, telemetry=recorder, event_sink=sink)
        kernel.run(7)
        closes = sink.of_kind("round_close")
        assert [e.round for e in closes] == list(range(7))
        assert [e.extra["epoch"] for e in closes] == list(range(7))
        assert [s["round"] for s in recorder.samples] == [0, 2, 4, 6]
        samples = sink.of_kind("telemetry")
        assert [e.round for e in samples] == [0, 2, 4, 6]
