"""The telemetry report CLI (python -m repro.obs.report)."""

import json

import numpy as np
import pytest

from repro.network.failures import ScheduledCrashes
from repro.network.topology import complete
from repro.network.trace import RunTracer
from repro.obs import JsonlSink
from repro.obs.report import load_events, main, render_report
from repro.protocols.push_sum import build_push_sum_network


@pytest.fixture
def crash_trace(tmp_path):
    """A small push-sum run with scheduled crashes, traced to JSONL."""
    path = tmp_path / "trace.jsonl"
    n = 12
    values = np.arange(n, dtype=float)[:, None]
    truth = float(values.mean())
    with JsonlSink(str(path)) as sink:
        engine, protocols = build_push_sum_network(
            values,
            complete(n),
            seed=3,
            failure_model=ScheduledCrashes({2: [0], 4: [7]}),
        )
        engine.event_sink = sink
        tracer = RunTracer(
            {
                "max_error": lambda e: max(
                    abs(protocols[i].estimate[0] - truth) for i in e.live_nodes
                )
            }
        )
        engine.run(10, per_round=tracer)
    return path, engine


class TestLoadEvents:
    def test_parses_all_lines(self, crash_trace):
        path, engine = crash_trace
        events = load_events(str(path))
        assert len(events) == len(path.read_text().splitlines())
        assert all("kind" in event for event in events)

    def test_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "gaps.jsonl"
        path.write_text('{"kind": "send"}\n\n{"kind": "crash", "node": 1}\n')
        assert [event["kind"] for event in load_events(str(path))] == ["send", "crash"]

    def test_invalid_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"kind": "send"}\nnot json\n')
        with pytest.raises(ValueError, match=r":2:"):
            load_events(str(path))

    def test_record_without_kind_rejected(self, tmp_path):
        path = tmp_path / "nokind.jsonl"
        path.write_text('{"node": 3}\n')
        with pytest.raises(ValueError, match="kind"):
            load_events(str(path))


class TestRenderReport:
    def test_empty_trace_renders(self):
        text = render_report([])
        assert "no events recorded" in text

    def test_census_counts_every_kind(self, crash_trace):
        path, engine = crash_trace
        text = render_report(load_events(str(path)))
        assert "Event census" in text
        assert "round_close" in text

    def test_message_complexity_matches_engine_metrics(self, crash_trace):
        path, engine = crash_trace
        events = load_events(str(path))
        sends = sum(1 for event in events if event["kind"] == "send")
        drops = sum(1 for event in events if event["kind"] == "drop")
        closes = [event for event in events if event["kind"] == "round_close"]
        assert sends == engine.metrics.messages_sent
        assert drops == engine.metrics.messages_dropped
        assert [event["extra"]["messages"] for event in closes] == (
            engine.metrics.per_round_messages
        )
        text = render_report(events)
        assert "Message complexity" in text
        assert "Per-round message counts" in text

    def test_crash_timeline_present(self, crash_trace):
        path, engine = crash_trace
        text = render_report(load_events(str(path)))
        assert "Crash timeline (2 crashes)" in text
        assert "round 2" in text and "round 4" in text

    def test_convergence_curve_from_probe_events(self, crash_trace):
        path, engine = crash_trace
        text = render_report(load_events(str(path)))
        assert "Convergence curves" in text
        assert "max_error" in text

    def test_cache_section_from_cache_events(self):
        events = [
            {"kind": "cache", "node": 2, "extra": {"path": "noop"}},
            {"kind": "cache", "node": 5, "extra": {"path": "noop"}},
            {"kind": "cache", "round": 12, "extra": {"path": "quiescent", "streak": 3}},
            {"kind": "merge", "node": 1},
        ]
        text = render_report(events)
        assert "Merge cache" in text
        assert "memoised_receives" not in text
        assert "certified_noop_receives" in text
        assert "quiescence_detected_at" in text
        assert "round 12" in text

    def test_cache_section_says_no_data_without_cache_events(self):
        text = render_report([{"kind": "send"}])
        cache_section = text.split("Merge cache", 1)[1]
        assert "(no data)" in cache_section.split("\n\n", 1)[0]

    def test_span_section_lists_slowest(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        records = [
            {"kind": "span", "extra": {"name": "em.fit", "duration": 0.5}},
            {"kind": "span", "extra": {"name": "em.fit", "duration": 0.1}},
            {"kind": "span", "extra": {"name": "engine.round", "duration": 0.2}},
        ]
        path.write_text("".join(json.dumps(record) + "\n" for record in records))
        text = render_report(load_events(str(path)), top=2)
        assert "Profiled spans" in text
        assert "Top 2 slowest spans" in text
        # em.fit totals 0.6s and must rank above engine.round's 0.2s.
        assert text.index("em.fit") < text.index("engine.round")


class TestDegenerateTraces:
    """Satellite coverage: empty, cache-less and crashed-early traces must
    render the full report skeleton with "(no data)" sections, never a
    KeyError."""

    SECTION_TITLES = [
        "Event census",
        "Message complexity",
        "Convergence time series",
        "Convergence curves",
        "EM iterations",
        "Partition fast path",
        "Merge cache",
        "Crash timeline",
        "Per-node timelines",
        "Profiled spans",
        "Final metrics snapshot",
    ]

    def test_empty_trace_renders_every_section(self):
        text = render_report([])
        for title in self.SECTION_TITLES:
            assert title in text
        assert text.count("(no data)") >= 9

    def test_cache_disabled_trace_has_no_data_cache_section(self, crash_trace):
        path, _ = crash_trace  # push-sum run: no cache events at all
        text = render_report(load_events(str(path)))
        cache_section = text.split("Merge cache", 1)[1].split("\n\n", 1)[0]
        assert "(no data)" in cache_section

    def test_crashed_early_trace_renders(self):
        # A run that died after a handful of transport events: no
        # round_close, no probes, no spans, records missing optional keys.
        events = [
            {"kind": "send", "node": 0, "peer": 1, "round": 0},
            {"kind": "deliver", "node": 0, "peer": 1, "round": 0},
            {"kind": "crash", "node": 1},
            {"kind": "send"},
        ]
        text = render_report(events)
        assert "Crash timeline (1 crashes)" in text
        for title in self.SECTION_TITLES:
            assert title in text

    def test_minimal_records_never_keyerror(self):
        events = [{"kind": kind} for kind in (
            "send", "deliver", "drop", "merge", "split", "crash",
            "round_close", "em_step", "probe", "span", "fastpath",
            "cache", "telemetry", "metrics",
        )]
        text = render_report(events)
        assert "Event census" in text


class TestTelemetrySection:
    def test_telemetry_series_rendered(self):
        events = [
            {
                "kind": "telemetry",
                "round": r,
                "extra": {
                    "round": r,
                    "live": 10,
                    "distinct_fingerprints": 10 - r,
                    "quiescent_fraction": 0.1 * (r + 1),
                    "total_quanta": 1024,
                    "messages_window": 10,
                    "bytes_window": 520,
                },
            }
            for r in range(3)
        ]
        text = render_report(events)
        assert "Convergence time series" in text
        assert "distinct_fingerprints" in text
        assert "total_quanta" in text


class TestCollapsedStacks:
    def test_collapsed_file_written(self, tmp_path):
        from repro.obs.report import write_collapsed

        events = [
            {"kind": "span", "extra": {"name": "b", "duration": 0.2, "self": 0.2, "stack": "a;b"}},
            {"kind": "span", "extra": {"name": "a", "duration": 0.5, "self": 0.3, "stack": "a"}},
            {"kind": "span", "extra": {"name": "a", "duration": 0.1}},  # v1 record
        ]
        out = tmp_path / "profile.folded"
        assert write_collapsed(events, str(out)) == 2
        lines = out.read_text().splitlines()
        assert "a;b 200000" in lines
        # 0.3 exclusive + 0.1 legacy (self defaults to duration).
        assert "a 400000" in lines

    def test_main_collapsed_flag(self, crash_trace, tmp_path, capsys):
        path, _ = crash_trace
        out = tmp_path / "profile.folded"
        assert main([str(path), "--collapsed", str(out)]) == 0
        assert out.exists()
        assert "collapsed stacks" in capsys.readouterr().out


class TestMain:
    def test_reports_to_stdout(self, crash_trace, capsys):
        path, _ = crash_trace
        assert main([str(path)]) == 0
        out = capsys.readouterr().out
        assert "Event census" in out
        assert "Message complexity" in out

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert main([str(tmp_path / "absent.jsonl")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        assert main([str(path)]) == 2
        assert "error:" in capsys.readouterr().err
