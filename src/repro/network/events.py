"""A deterministic discrete-event queue.

A tiny priority queue over ``(time, sequence, item)`` triples.  The
monotone sequence number breaks time ties in insertion order, which makes
event-driven runs bit-reproducible for a fixed seed — a property every
simulation test in this repository relies on.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator, Sequence

__all__ = ["EventQueue"]


class EventQueue:
    """Min-heap of timestamped events with deterministic tie-breaking."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, Any]] = []
        self._sequence = 0
        self._front = 0  # sequence numbers of events put back, descending

    def push(self, time: float, item: Any) -> None:
        """Schedule ``item`` at ``time`` (must be non-negative)."""
        if time < 0:
            raise ValueError(f"event time must be non-negative, got {time}")
        heapq.heappush(self._heap, (time, self._sequence, item))
        self._sequence += 1

    def push_front(self, events: Sequence[tuple[float, Any]]) -> None:
        """Put popped events back, in order, ahead of all queued at their times."""
        for time, item in reversed(events):
            self._front -= 1
            heapq.heappush(self._heap, (time, self._front, item))

    def pop(self) -> tuple[float, Any]:
        """Remove and return the earliest ``(time, item)``."""
        if not self._heap:
            raise IndexError("pop from an empty event queue")
        time, _, item = heapq.heappop(self._heap)
        return time, item

    def peek_time(self) -> float:
        """Timestamp of the earliest event without removing it."""
        if not self._heap:
            raise IndexError("peek on an empty event queue")
        return self._heap[0][0]

    def peek(self) -> tuple[float, Any]:
        """The earliest ``(time, item)`` without removing it."""
        if not self._heap:
            raise IndexError("peek on an empty event queue")
        time, _, item = self._heap[0]
        return time, item

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def drain(self) -> Iterator[tuple[float, Any]]:
        """Yield all events in time order, emptying the queue."""
        while self._heap:
            yield self.pop()
