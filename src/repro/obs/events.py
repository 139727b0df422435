"""Structured run events and the sinks that collect them.

An :class:`Event` is one timestamped/round-stamped record of something the
system did: a message sent, delivered or dropped, a node crashing, a
collection split or merge, an EM iteration, a closed gossip round, a probe
sample, a timed span.  Engines and nodes emit events through a pluggable
:class:`EventSink`; with no sink installed, emission sites reduce to a
single ``None`` check, so tracing costs (almost) nothing when off.

The JSONL wire format (one compact JSON object per line, ``None`` fields
omitted) is what :mod:`repro.obs.report` consumes; the in-memory ring
buffer serves tests and interactive sessions.
"""

from __future__ import annotations

import abc
import json
from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = [
    "EVENT_KINDS",
    "Event",
    "EventSink",
    "RingBufferSink",
    "JsonlSink",
    "CompositeSink",
]

#: Every event kind the reproduction emits.  ``send``/``deliver``/``drop``
#: and ``crash`` come from the engines' transport layer; ``round_close``
#: from the round engine; ``split``/``merge`` from Algorithm 1's two
#: atomic blocks inside :class:`~repro.core.node.ClassifierNode`;
#: ``em_step`` from the centralised EM comparator; ``probe`` from
#: :class:`~repro.network.trace.RunTracer`; ``span`` from profiling timers;
#: ``fastpath`` marks a receipt where the node adopted the pooled set
#: without running the scheme's partition (see ``docs/performance.md``);
#: ``cache`` marks a receipt the merge cache certified as a no-op
#: (``extra.path`` is ``"noop"``) or, from the kernel, the quiescence
#: early exit (``extra.path`` ``"quiescent"``); ``telemetry`` carries one
#: per-round convergence sample from a
#: :class:`~repro.obs.timeseries.TimeSeriesRecorder`; ``metrics`` is a
#: final counter snapshot the kernel emits when a run ends early (the
#: quiescence exit), so truncated traces close with a complete summary.
EVENT_KINDS = frozenset(
    {
        "send",
        "deliver",
        "drop",
        "merge",
        "split",
        "crash",
        "round_close",
        "em_step",
        "probe",
        "span",
        "fastpath",
        "cache",
        "telemetry",
        "metrics",
    }
)


@dataclass(slots=True)
class Event:
    """One structured observation of a running system.

    Attributes
    ----------
    kind:
        One of :data:`EVENT_KINDS`.
    node:
        Primary actor (sender, crasher, merger); ``None`` when the event
        has no single node (e.g. an ``em_step`` of the centralised
        comparator).
    peer:
        Secondary party (the destination of a ``send``/``deliver``/
        ``drop``).
    round:
        Round stamp, for events produced under the round engine.  The
        transport events of round ``r`` and that round's ``round_close``
        all carry ``round == r`` (0-based); ``probe`` events carry the
        rounds-completed count (1-based), matching
        :attr:`~repro.network.trace.RoundRecord.round_index`.
    t:
        Simulation-time stamp, for events produced under the
        asynchronous engine.
    items:
        A size, when the event has one: payload items for ``send``,
        collections sent for ``split``, the iteration number for
        ``em_step``.
    extra:
        Kind-specific payload (e.g. ``{"messages": ..., "live": ...}``
        for ``round_close``, probe values for ``probe``, ``{"name": ...,
        "duration": ...}`` for ``span``).
    """

    kind: str
    node: int | None = None
    peer: int | None = None
    round: int | None = None
    t: float | None = None
    items: int | None = None
    extra: dict[str, Any] | None = None

    def __post_init__(self) -> None:
        if self.kind not in EVENT_KINDS:
            raise ValueError(
                f"unknown event kind {self.kind!r}; expected one of {sorted(EVENT_KINDS)}"
            )

    def to_json_dict(self) -> dict[str, Any]:
        """The JSONL representation: ``None`` fields dropped."""
        record: dict[str, Any] = {"kind": self.kind}
        for name in ("node", "peer", "round", "t", "items"):
            value = getattr(self, name)
            if value is not None:
                record[name] = value
        if self.extra:
            record["extra"] = self.extra
        return record


class EventSink(abc.ABC):
    """Destination for emitted events.

    Sinks must tolerate high emission rates (one ``send`` per message);
    implementations should keep :meth:`emit` allocation-light.  They are
    context managers: leaving the ``with`` block closes them.
    """

    @abc.abstractmethod
    def emit(self, event: Event) -> None:
        """Record one event."""

    def flush(self) -> None:
        """Push buffered events to durable storage; no-op by default.

        Engines call this at run boundaries (including early exits) so a
        reader tailing a file-backed sink — e.g. ``repro.obs.monitor`` —
        sees complete lines even while the run is still alive.
        """

    def close(self) -> None:
        """Flush and release resources; idempotent."""

    def __enter__(self) -> "EventSink":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class RingBufferSink(EventSink):
    """Keep the most recent ``capacity`` events in memory.

    The default sink for tests and interactive debugging: bounded, so it
    can observe arbitrarily long runs without growing without bound.
    """

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self.capacity = capacity
        self._events: deque[Event] = deque(maxlen=capacity)

    def emit(self, event: Event) -> None:
        self._events.append(event)

    @property
    def events(self) -> list[Event]:
        """The retained events, oldest first."""
        return list(self._events)

    def of_kind(self, kind: str) -> list[Event]:
        """Retained events of one kind, oldest first."""
        return [event for event in self._events if event.kind == kind]

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)


class JsonlSink(EventSink):
    """Append events to a JSONL file, one compact object per line.

    The file is created (truncated) at construction, so even an eventless
    run leaves a valid — empty — trace behind for the report CLI.
    """

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._file = open(self.path, "w", encoding="utf-8")
        self.emitted = 0

    def emit(self, event: Event) -> None:
        if self._file is None:
            raise ValueError(f"sink for {self.path!r} is closed")
        json.dump(event.to_json_dict(), self._file, separators=(",", ":"))
        self._file.write("\n")
        self.emitted += 1

    def flush(self) -> None:
        if self._file is not None:
            self._file.flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None


class CompositeSink(EventSink):
    """Fan one event stream out to several sinks (e.g. ring + file)."""

    def __init__(self, *sinks: EventSink) -> None:
        if not sinks:
            raise ValueError("a composite sink needs at least one child")
        self.sinks = tuple(sinks)

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.emit(event)

    def flush(self) -> None:
        for sink in self.sinks:
            sink.flush()

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()
