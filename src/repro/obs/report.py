"""Telemetry report CLI: replay a JSONL event trace into readable tables.

Usage::

    python -m repro.obs.report trace.jsonl
    python -m repro.obs.report trace.jsonl --top 20 --nodes 15
    python -m repro.obs.report trace.jsonl --collapsed profile.folded

Reads a trace written by :class:`~repro.obs.events.JsonlSink` (e.g. via
``python -m repro.experiments.run fig4 --trace trace.jsonl``) and renders,
with :mod:`repro.analysis.reporting`:

- an event census (count per kind);
- the message-complexity summary — totals, per-round message series,
  mean/max messages per round — reconstructed purely from ``send`` /
  ``deliver`` / ``drop`` / ``round_close`` events, so it can be checked
  against the engine's own :class:`~repro.network.metrics.NetworkMetrics`;
- the convergence time series from ``telemetry`` events (distinct
  fingerprints, agreement fraction, weight census, per-round cost);
- convergence curves from ``probe`` events (one column per probe name)
  and EM likelihood traces from ``em_step`` events;
- the partition fast-path summary (``fastpath`` events: how often nodes
  adopted the pooled set without running the scheme's partition);
- the merge-cache summary (``cache`` events: memoised receives,
  certified no-op receives, and the kernel's quiescence early exit);
- the crash timeline;
- per-node activity timelines (sends, receipts, drops, splits, merges,
  crash stamp);
- the profiled-span phase breakdown (inclusive/exclusive time per span
  name) plus the top-k slowest individual spans;
- the final ``metrics`` snapshot, when the run ended early on quiescence.

Every section always renders; one with no matching events says
``(no data)``, so degenerate traces — empty, cache disabled, crashed
early — produce a complete report rather than missing sections.
``--collapsed`` additionally writes the span events as a collapsed-stack
file (``path;to;span <microseconds>``) for flamegraph tools.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import Counter, defaultdict
from typing import Any, Iterable, Optional

from repro.analysis.reporting import banner, format_series, format_table

__all__ = [
    "load_events",
    "render_report",
    "collapse_span_events",
    "write_collapsed",
    "main",
]

_NO_DATA = "(no data)"


def load_events(path: str) -> list[dict[str, Any]]:
    """Parse one JSONL trace file into a list of event dicts.

    Blank lines are ignored; malformed lines and records without a
    ``kind`` raise :class:`ValueError` naming the offending line.
    """
    events: list[dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as error:
                raise ValueError(f"{path}:{line_number}: invalid JSON ({error})") from None
            if not isinstance(record, dict) or "kind" not in record:
                raise ValueError(f"{path}:{line_number}: event record lacks a 'kind'")
            events.append(record)
    return events


def _stamp(event: dict[str, Any]) -> str:
    """Human-readable stamp: round for the round engine, time for async."""
    if event.get("round") is not None:
        return f"round {event['round']}"
    if event.get("t") is not None:
        return f"t={event['t']:.3f}"
    return "-"


def _of_kind(events: list[dict[str, Any]], kind: str) -> list[dict[str, Any]]:
    return [event for event in events if event.get("kind") == kind]


def _empty(title: str) -> str:
    return f"{banner(title)}\n{_NO_DATA}"


def _summary_section(events: list[dict[str, Any]]) -> str:
    census = Counter(str(event.get("kind")) for event in events)
    if not census:
        return f"{banner('Event census')}\n(no events recorded)"
    rows = [[kind, count] for kind, count in sorted(census.items())]
    rows.append(["total", len(events)])
    return f"{banner('Event census')}\n{format_table(['kind', 'count'], rows)}"


def _message_section(events: list[dict[str, Any]]) -> str:
    census = Counter(str(event.get("kind")) for event in events)
    closes = _of_kind(events, "round_close")
    if not (census["send"] or closes):
        return _empty("Message complexity")
    lines = [banner("Message complexity")]
    totals = [
        ["messages_sent", census["send"]],
        ["messages_delivered", census["deliver"]],
        ["messages_dropped", census["drop"]],
        ["payload_items_sent", sum(e.get("items", 0) or 0 for e in _of_kind(events, "send"))],
        ["rounds", len(closes)],
    ]
    per_round = [int((e.get("extra") or {}).get("messages", 0)) for e in closes]
    if per_round:
        totals.append(["mean_messages_per_round", sum(per_round) / len(per_round)])
        totals.append(["max_messages_per_round", max(per_round)])
    lines.append(format_table(["metric", "value"], totals))
    if per_round:
        live = [(e.get("extra") or {}).get("live", "-") for e in closes]
        lines.append("")
        lines.append(
            format_series(
                "Per-round message counts",
                "round",
                [e.get("round", index) for index, e in enumerate(closes)],
                {"messages": per_round, "live_nodes": live},
            )
        )
    return "\n".join(lines)


#: The telemetry gauges worth a column in the plain-text series (the
#: full sample rows remain available in the trace / exporters).
_TELEMETRY_COLUMNS = (
    "live",
    "distinct_fingerprints",
    "quiescent_fraction",
    "total_quanta",
    "messages_window",
    "bytes_window",
    "em_iterations_window",
    "frames_window",
    "transport_bytes_window",
    "peer_count",
)


def _telemetry_section(events: list[dict[str, Any]]) -> str:
    samples = _of_kind(events, "telemetry")
    if not samples:
        return _empty("Convergence time series (telemetry samples)")
    x_values = [event.get("round", index) for index, event in enumerate(samples)]
    columns = {}
    for name in _TELEMETRY_COLUMNS:
        values = [(event.get("extra") or {}).get(name) for event in samples]
        if any(value is not None for value in values):
            columns[name] = [value if value is not None else "-" for value in values]
    return format_series(
        "Convergence time series (telemetry samples)", "round", x_values, columns
    )


def _convergence_section(events: list[dict[str, Any]]) -> str:
    probes = _of_kind(events, "probe")
    if not probes:
        return _empty("Convergence curves (probe samples)")
    names: list[str] = []
    for event in probes:
        for name in (event.get("extra") or {}):
            if name not in names:
                names.append(name)
    x_values = [event.get("round", index + 1) for index, event in enumerate(probes)]
    columns = {
        name: [(event.get("extra") or {}).get(name, float("nan")) for event in probes]
        for name in names
    }
    return format_series("Convergence curves (probe samples)", "round", x_values, columns)


def _em_section(events: list[dict[str, Any]]) -> str:
    steps = _of_kind(events, "em_step")
    if not steps:
        return _empty("EM iterations")
    rows = [
        [
            index + 1,
            step.get("items", "-"),
            (step.get("extra") or {}).get("log_likelihood", "-"),
        ]
        for index, step in enumerate(steps)
    ]
    # Long centralised fits would swamp the report; keep the tail.
    shown = rows[-25:]
    title = "EM iterations"
    if len(shown) < len(rows):
        title += f" (last {len(shown)} of {len(rows)})"
    return f"{banner(title)}\n{format_table(['#', 'iteration', 'log_likelihood'], shown)}"


def _fastpath_section(events: list[dict[str, Any]]) -> str:
    """Partition fast-path hit rate (``fastpath`` events vs merges run)."""
    hits = _of_kind(events, "fastpath")
    if not hits:
        return _empty("Partition fast path")
    partitions = len(_of_kind(events, "merge"))
    pooled = sum(event.get("items", 0) or 0 for event in hits)
    rows = [
        ["fastpath_hits", len(hits)],
        ["pooled_collections_adopted", pooled],
        ["merge_events", partitions],
    ]
    return f"{banner('Partition fast path')}\n{format_table(['metric', 'value'], rows)}"


def _cache_section(events: list[dict[str, Any]]) -> str:
    """Merge-cache activity (``cache`` events, by path)."""
    cached = _of_kind(events, "cache")
    if not cached:
        return _empty("Merge cache")
    paths = Counter(str((event.get("extra") or {}).get("path", "?")) for event in cached)
    receives = sum(1 for event in events if event.get("kind") in ("fastpath", "merge"))
    rows = [
        ["memoised_receives", paths.get("memo", 0)],
        ["certified_noop_receives", paths.get("noop", 0)],
        ["merge_events", receives],
    ]
    quiescent = [event for event in cached if (event.get("extra") or {}).get("path") == "quiescent"]
    if quiescent:
        rows.append(["quiescence_detected_at", _stamp(quiescent[0])])
    return f"{banner('Merge cache')}\n{format_table(['metric', 'value'], rows)}"


def _crash_section(events: list[dict[str, Any]]) -> str:
    crashes = _of_kind(events, "crash")
    if not crashes:
        return _empty("Crash timeline")
    rows = [[_stamp(event), event.get("node", "-")] for event in crashes]
    return f"{banner(f'Crash timeline ({len(crashes)} crashes)')}\n" + format_table(
        ["when", "node"], rows
    )


def _node_section(events: list[dict[str, Any]], limit: int) -> str:
    per_node: dict[int, Counter] = defaultdict(Counter)
    crashed_at: dict[int, str] = {}
    for event in events:
        kind = event.get("kind")
        node = event.get("node")
        if node is None:
            continue
        if kind in ("send", "split", "merge", "crash"):
            per_node[node][kind] += 1
        if kind in ("deliver", "drop"):
            peer = event.get("peer")
            if peer is not None:
                per_node[peer]["received" if kind == "deliver" else "lost"] += 1
        if kind == "crash":
            crashed_at[node] = _stamp(event)
    if not per_node:
        return _empty("Per-node timelines")
    ranked = sorted(per_node.items(), key=lambda item: (-item[1]["send"], item[0]))
    shown = ranked[: max(limit, 0)] or ranked
    rows = [
        [
            node,
            counts["send"],
            counts["received"],
            counts["lost"],
            counts["split"],
            counts["merge"],
            crashed_at.get(node, "-"),
        ]
        for node, counts in shown
    ]
    title = f"Per-node timelines (top {len(shown)} of {len(ranked)} nodes by sends)"
    headers = ["node", "sends", "received", "lost", "splits", "merges", "crashed"]
    return f"{banner(title)}\n{format_table(headers, rows)}"


def collapse_span_events(events: list[dict[str, Any]]) -> dict[tuple[str, ...], float]:
    """Aggregate ``span`` events into exclusive seconds per call path.

    Spans written by the stack-aware profiler carry ``extra.stack``
    (semicolon-joined path) and ``extra.self`` (exclusive seconds); older
    traces carry only name and duration, which degrade to a single-frame
    path with exclusive == inclusive.
    """
    totals: dict[tuple[str, ...], float] = defaultdict(float)
    for event in _of_kind(events, "span"):
        extra = event.get("extra") or {}
        name = str(extra.get("name", "?"))
        duration = float(extra.get("duration", 0.0))
        stack_text = extra.get("stack")
        stack = tuple(str(stack_text).split(";")) if stack_text else (name,)
        exclusive = float(extra.get("self", duration))
        totals[stack] += exclusive
    return dict(totals)


def write_collapsed(events: list[dict[str, Any]], path: str) -> int:
    """Write the flamegraph-ready collapsed-stack file; returns line count."""
    totals = collapse_span_events(events)
    with open(path, "w", encoding="utf-8") as handle:
        for stack in sorted(totals):
            handle.write(f"{';'.join(stack)} {int(totals[stack] * 1e6)}\n")
    return len(totals)


def _span_section(events: list[dict[str, Any]], top: int) -> str:
    spans = _of_kind(events, "span")
    if not spans:
        return _empty("Profiled spans")
    inclusive: dict[str, list[float]] = defaultdict(list)
    exclusive: dict[str, float] = defaultdict(float)
    for event in spans:
        extra = event.get("extra") or {}
        name = str(extra.get("name", "?"))
        duration = float(extra.get("duration", 0.0))
        inclusive[name].append(duration)
        exclusive[name] += float(extra.get("self", duration))
    rows = [
        [
            name,
            len(durations),
            sum(durations),
            exclusive[name],
            1e3 * sum(durations) / len(durations),
            1e3 * max(durations),
        ]
        for name, durations in inclusive.items()
    ]
    rows.sort(key=lambda row: -row[2])
    lines = [
        banner("Profiled spans"),
        format_table(
            ["span", "count", "total_s", "self_s", "mean_ms", "max_ms"], rows
        ),
    ]
    slowest = sorted(
        (
            (float((event.get("extra") or {}).get("duration", 0.0)), event)
            for event in spans
        ),
        key=lambda pair: -pair[0],
    )[: max(top, 0)]
    if slowest:
        lines.append("")
        lines.append(f"Top {len(slowest)} slowest spans:")
        lines.append(
            format_table(
                ["span", "duration_ms", "when"],
                [
                    [(event.get("extra") or {}).get("name", "?"), 1e3 * duration, _stamp(event)]
                    for duration, event in slowest
                ],
            )
        )
    return "\n".join(lines)


def _metrics_section(events: list[dict[str, Any]]) -> str:
    snapshots = _of_kind(events, "metrics")
    if not snapshots:
        return _empty("Final metrics snapshot")
    final = snapshots[-1]
    rows = [[name, value] for name, value in sorted((final.get("extra") or {}).items())]
    title = f"Final metrics snapshot ({_stamp(final)})"
    if not rows:
        return f"{banner(title)}\n{_NO_DATA}"
    return f"{banner(title)}\n{format_table(['metric', 'value'], rows)}"


def render_report(events: list[dict[str, Any]], top: int = 10, nodes: int = 10) -> str:
    """The full plain-text report for one parsed trace.

    Every section renders unconditionally; a section with no matching
    events carries a ``(no data)`` body, so empty, cache-less and
    crashed-early traces still produce the complete report skeleton.
    """
    sections: Iterable[str] = (
        _summary_section(events),
        _message_section(events),
        _telemetry_section(events),
        _convergence_section(events),
        _em_section(events),
        _fastpath_section(events),
        _cache_section(events),
        _crash_section(events),
        _node_section(events, nodes),
        _span_section(events, top),
        _metrics_section(events),
    )
    return "\n\n".join(sections)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs.report",
        description="Summarise a JSONL event trace written with --trace / JsonlSink.",
    )
    parser.add_argument("trace", help="path to the .jsonl event log")
    parser.add_argument("--top", type=int, default=10, help="slowest spans to list")
    parser.add_argument("--nodes", type=int, default=10, help="nodes to show in timelines")
    parser.add_argument(
        "--collapsed",
        metavar="PATH",
        default=None,
        help="also write span events as a collapsed-stack file for flamegraph tools",
    )
    args = parser.parse_args(argv)
    try:
        events = load_events(args.trace)
    except (OSError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    # The artifact is written before anything hits stdout, so piping the
    # report into head cannot lose the collapsed-stack file.
    written = (
        write_collapsed(events, args.collapsed) if args.collapsed is not None else None
    )
    try:
        print(render_report(events, top=args.top, nodes=args.nodes))
        if written is not None:
            print(f"\ncollapsed stacks: {written} paths -> {args.collapsed}")
    except BrokenPipeError:
        # Output piped into a consumer that stopped reading (head, grep -q).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
