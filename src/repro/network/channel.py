"""Reliable asynchronous communication channels.

The model (Section 3.1): channels are asynchronous but reliable — every
sent message eventually arrives, none are duplicated, none are forged.
:class:`Channel` realises one directed link with those guarantees plus an
optional FIFO discipline (delivery times are clamped to be non-decreasing
per channel).  The kernel's transport holds one channel per directed edge
while messages are in flight on it; the collections sitting inside
channels are part of Section 6.1's global pool, so channels expose their
in-flight payloads for inspection.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Iterator

__all__ = ["InFlightMessage", "Channel"]


@dataclass(frozen=True, slots=True)
class InFlightMessage:
    """A message travelling on a channel."""

    send_time: float
    deliver_time: float
    payload: Any


class Channel:
    """One directed, reliable, asynchronous link.

    Parameters
    ----------
    source, destination:
        Endpoint node ids (informational; routing is the engine's job).
    fifo:
        When true, a message never overtakes an earlier one: its delivery
        time is clamped up to the latest already-scheduled delivery.  The
        paper does not require FIFO (the algorithm is order-insensitive),
        but tests use it to build adversarial orderings deterministically.
    """

    def __init__(self, source: int, destination: int, fifo: bool = False) -> None:
        self.source = source
        self.destination = destination
        self.fifo = fifo
        self._queue: deque[InFlightMessage] = deque()
        self._latest_delivery = 0.0
        self.sent_count = 0
        self.delivered_count = 0

    def send(self, payload: Any, send_time: float, deliver_time: float) -> InFlightMessage:
        """Enqueue a message; returns the (possibly clamped) in-flight record."""
        if deliver_time < send_time:
            raise ValueError("messages cannot be delivered before they are sent")
        if self.fifo:
            deliver_time = max(deliver_time, self._latest_delivery)
        self._latest_delivery = max(self._latest_delivery, deliver_time)
        message = InFlightMessage(send_time=send_time, deliver_time=deliver_time, payload=payload)
        self._queue.append(message)
        self.sent_count += 1
        return message

    def deliver(self, message: InFlightMessage) -> Any:
        """Remove a specific in-flight message (called at its delivery event)."""
        self._queue.remove(message)
        self.delivered_count += 1
        return message.payload

    @property
    def in_flight(self) -> list[InFlightMessage]:
        """Messages currently travelling (part of the Section 6.1 pool)."""
        return list(self._queue)

    def __len__(self) -> int:
        return len(self._queue)

    def __iter__(self) -> Iterator[InFlightMessage]:
        return iter(self._queue)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Channel({self.source}->{self.destination}, in_flight={len(self._queue)}, "
            f"sent={self.sent_count})"
        )
