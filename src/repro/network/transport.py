"""Message movement: from simulation to real networks.

The paper's protocol is specified for physically distributed sensors, but
a reproduction naturally starts life inside one simulated event loop.
The transports in this module let the *same* node and scheme code run on
either side of that divide:

- :class:`Transport` — the common contract: every transport moves opaque
  gossip payloads between named nodes and accounts for what it moved in a
  :class:`TransportStats` block (frames, bytes, reconnects, peers).
- :class:`InMemoryTransport` — the simulation's message plumbing, owned
  by one :class:`~repro.network.kernel.SimulationKernel`: its transmit /
  queued-deliver / batched-receive pipeline.  A round send waits in one
  round buffer until the round's flush; a timed send travels in a
  channel that exists only while a message is in flight on it.  It
  draws no randomness; the seed-determinism and cache/telemetry parity
  suites pin its event order.
- :class:`FrameTransport` — the deployment contract: transports that move
  *encoded frames* (see :mod:`repro.network.frames`) between real node
  processes.  Implemented by
  :class:`~repro.network.process_transport.ProcessTransport` (pipes
  between local worker processes) and
  :class:`~repro.network.tcp_transport.AsyncioTCPTransport` (length-prefixed
  frames over real TCP sockets with per-peer reconnect/backoff).

What each transport name means (see ``docs/architecture.md`` and
``docs/deployment.md``); ``memory`` is the kernel's own, not an option:

===============  ==================  ============================  =====================
transport        runs where          moves                         driven by
===============  ==================  ============================  =====================
``memory``       one process         payload objects               ``SimulationKernel``
``process``      N local processes   frames over OS pipes          ``NodeRuntime`` each
``tcp``          anywhere            frames over TCP sockets       ``NodeRuntime`` each
===============  ==================  ============================  =====================
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.network.channel import Channel, InFlightMessage

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.frames import Frame
    from repro.network.kernel import SimulationKernel
    from repro.network.membership import PeerInfo

__all__ = [
    "TransportStats",
    "Transport",
    "InMemoryTransport",
    "FrameTransport",
    "TRANSPORT_NAMES",
]

#: The transport names (``docs/architecture.md`` has the table).
#: ``memory`` is the simulation kernel's own transport; the other two are
#: the deployment transports a per-node runtime selects between.
TRANSPORT_NAMES = ("memory", "process", "tcp")


@dataclass
class TransportStats:
    """What a transport moved; purely observational.

    ``frames_*`` count transport-level message units (one in-memory
    message, one wire frame).  ``bytes_*`` count encoded bytes and stay
    zero for the in-memory transport, which moves Python objects and
    never serialises.  ``reconnects`` counts re-established peer
    connections (TCP only).  ``peer_count`` is a gauge: currently known
    live peers (in-memory: distinct directed edges used so far).
    """

    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    reconnects: int = 0
    peer_count: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "reconnects": self.reconnects,
            "peer_count": self.peer_count,
        }


class Transport(abc.ABC):
    """Common contract: move gossip traffic, account for it in ``stats``."""

    #: Registry name (one of :data:`TRANSPORT_NAMES`).
    name: str = "abstract"

    def __init__(self) -> None:
        self.stats = TransportStats()

    def close(self) -> None:
        """Release sockets / pipes / threads; idempotent."""

    def describe(self) -> dict[str, Any]:
        """A JSON-able summary for reports and HTTP status endpoints."""
        return {"transport": self.name, **self.stats.as_dict()}


class _Delivery:
    """Queue entry: a timed message envelope due at its channel's far end."""

    __slots__ = ("channel", "message")

    def __init__(self, channel: Channel, message: InFlightMessage) -> None:
        self.channel = channel
        self.message = message


class InMemoryTransport(Transport):
    """The simulation kernel's in-process transport.

    It belongs to the one :class:`~repro.network.kernel.SimulationKernel`
    it is built with, and owns the message plumbing the kernel's
    schedulers drive: the sends due at the next flush, the per-edge
    channels that carry timed messages, the queued-delivery entries, and
    the in-flight pool.  Protocol interaction, metrics and event emission
    stay on the kernel (its single observability site), reached through
    :meth:`~repro.network.kernel.SimulationKernel.complete_deliveries`.

    A round send (no delivery time) is due at the round's flush, since a
    round's sends all precede its receives, so it never outlives its
    round: :meth:`send` appends it to the round buffer, three parallel
    lists of destinations, sources and payloads, and allocates no object
    of its own.  :meth:`flush_deliveries` groups the buffer by
    destination, ascending, each destination's payloads in send order,
    and completes the whole round in one call to the kernel.

    A timed send (the Poisson schedule) travels in an envelope on a
    reliable directed :class:`~repro.network.channel.Channel`, which
    exists only while a message is in flight on it.  Its delivery entry
    goes onto the *kernel's* event queue, time-ordered against scheduler
    fire events, and :meth:`dispatch_delivery` drops the channel once its
    last message is delivered.  Dropping an empty channel changes no
    delivery time: FIFO clamping raises a new message's delivery time to
    its channel's latest one, but once the channel is empty that delivery
    was due at or before the current clock, and no message is due before
    it is sent.  So :meth:`in_flight_payloads` (the round buffer and
    :attr:`channels`) costs O(messages in flight) however long the run.

    A send checks its edge with
    :meth:`~repro.network.kernel.SimulationKernel.neighbor_index` (a
    bisect of the kernel's sorted neighbour tuples) unless its caller
    passes the ``edge`` it checked, and a non-edge raises
    :class:`KeyError`.  The edges used so far are one integer bit mask per
    source over its neighbour positions: no per-edge object for the
    garbage collector to walk, and at most one bit per directed edge.
    Payloads travel as Python objects, never serialised, so
    ``stats.bytes_*`` stay zero and ``stats.peer_count`` counts the
    distinct directed edges used so far.
    """

    name = "memory"

    def __init__(self, kernel: "SimulationKernel") -> None:
        super().__init__()
        self.kernel = kernel
        #: Channels with at least one timed message in flight, keyed
        #: ``(source, destination)``.
        self.channels: dict[tuple[int, int], Channel] = {}
        # Per source, bit ``i`` is set once a message has used the edge
        # to the source's ``i``-th neighbour.
        self._used: dict[int, int] = {}
        # The round buffer: the sends due at the next flush, in send order.
        self._due_to: list[int] = []
        self._due_from: list[int] = []
        self._due_payloads: list[Any] = []

    # ------------------------------------------------------------------
    # Channels
    # ------------------------------------------------------------------
    def channel(self, source: int, destination: int) -> Channel:
        """The channel carrying an edge's timed in-flight messages, or a
        new empty one when none is in flight (:meth:`send` registers a
        channel when it sends a timed message on it)."""
        found = self.channels.get((source, destination))
        if found is not None:
            return found
        self._edge_index(source, destination)
        return Channel(source, destination, fifo=self.kernel.fifo)

    def _edge_index(self, source: int, destination: int) -> int:
        """The destination's position among the source's neighbours; a
        non-edge raises :class:`KeyError`."""
        index = self.kernel.neighbor_index(source, destination)
        if index is None:
            raise KeyError(f"no edge {source}->{destination} in the topology")
        return index

    def _mark_used(self, source: int, index: int) -> None:
        """Record a use of the edge to the source's ``index``-th neighbour."""
        bit = 1 << index
        used = self._used.get(source, 0)
        if not used & bit:
            self._used[source] = used | bit
            self.stats.peer_count += 1

    # ------------------------------------------------------------------
    # Send side
    # ------------------------------------------------------------------
    def send(
        self,
        source: int,
        destination: int,
        payload: Any,
        send_time: float,
        deliver_at: Optional[float],
        edge: Optional[int] = None,
    ) -> Optional[InFlightMessage]:
        """Put one payload in flight: ``deliver_at=None`` means due at the
        next :meth:`flush_deliveries` (the round schedule) and returns
        ``None``; a time schedules delivery in the envelope returned.
        A caller that has checked the edge passes its ``edge`` index."""
        if edge is None:
            edge = self._edge_index(source, destination)
        if deliver_at is None:
            self._mark_used(source, edge)
            self._due_to.append(destination)
            self._due_from.append(source)
            self._due_payloads.append(payload)
            self.stats.frames_sent += 1
            return None
        key = (source, destination)
        channel = self.channels.get(key)
        if channel is not None:
            message = channel.send(payload, send_time, deliver_at)
        else:
            # The edge's only message in flight: its channel joins the
            # registry, and a first use joins the source's mask.
            channel = Channel(source, destination, fifo=self.kernel.fifo)
            message = channel.send(payload, send_time, deliver_at)
            self.channels[key] = channel
            self._mark_used(source, edge)
        self.kernel.queue.push(message.deliver_time, _Delivery(channel, message))
        self.stats.frames_sent += 1
        return message

    # ------------------------------------------------------------------
    # Delivery side
    # ------------------------------------------------------------------
    def flush_deliveries(self) -> None:
        """The synchronous scheduler's receive phase: every payload in the
        round buffer reaches its destination as one batch per receiver
        (the paper's "accumulate all the received collections and run EM
        once for the entire set"), and the kernel completes the round's
        batches in one call, in destination order.  Timed envelopes stay
        on the event queue.  A round whose receives raise adopted nothing:
        its payloads go back in the round buffer before the error does."""
        destinations, sources, payloads = self._due_to, self._due_from, self._due_payloads
        self._due_to, self._due_from, self._due_payloads = [], [], []
        batches: dict[int, tuple[int, list[int], list[Any]]] = {}
        for destination, source, payload in zip(destinations, sources, payloads):
            batch = batches.get(destination)
            if batch is None:
                batches[destination] = (destination, [source], [payload])
            else:
                batch[1].append(source)
                batch[2].append(payload)
        try:
            self.kernel.complete_deliveries([batches[key] for key in sorted(batches)])
        except BaseException:
            self._due_to[:0], self._due_from[:0] = destinations, sources
            self._due_payloads[:0] = payloads
            raise
        self.stats.frames_received += len(destinations)

    def dispatch_delivery(
        self, channel: Channel, message: InFlightMessage, coalesce_at: Optional[float] = None
    ) -> int:
        """Deliver one due envelope; returns the number of envelopes consumed.

        With ``coalesce_at`` set (the event-driven path), any further
        queued deliveries due at exactly the same instant for the same
        destination join the batch — the asynchronous counterpart of the
        round schedule's receiver-side merge batching.  Random continuous
        delays make ties measure-zero, but FIFO clamping and adversarial
        test schedules produce them deliberately.  Each message is taken
        off its channel once the receive completes, and a channel left
        empty is dropped.  An event whose receive raises adopted nothing:
        its envelopes stay on their channels, and their delivery entries
        go back on the event queue ahead of every event they preceded.
        """
        kernel = self.kernel
        destination = channel.destination
        entries = [(channel, message)]
        if coalesce_at is not None:
            while kernel.queue:
                when, entry = kernel.queue.peek()
                if (
                    when != coalesce_at
                    or not isinstance(entry, _Delivery)
                    or entry.channel.destination != destination
                ):
                    break
                kernel.queue.pop()
                entries.append((entry.channel, entry.message))
        sources = [channel.source for channel, _ in entries]
        try:
            kernel.complete_deliveries(
                [(destination, sources, [message.payload for _, message in entries])]
            )
        except BaseException:
            kernel.queue.push_front([(m.deliver_time, _Delivery(c, m)) for c, m in entries])
            raise
        for channel, message in entries:
            channel.deliver(message)
            if not channel:
                del self.channels[(channel.source, destination)]
        self.stats.frames_received += len(entries)
        return len(entries)

    # ------------------------------------------------------------------
    # Pool inspection (Section 6.1)
    # ------------------------------------------------------------------
    def in_flight_payloads(self) -> list[Any]:
        """Payloads sent and not yet delivered (the Section 6.1 pool)."""
        return self._due_payloads + [
            message.payload for channel in self.channels.values() for message in channel
        ]


class FrameTransport(Transport):
    """Deployment contract: move encoded frames between real processes.

    Unlike the :class:`InMemoryTransport`, a frame transport has no
    central kernel: each node process owns one endpoint, driven by a
    :class:`~repro.network.runtime.NodeRuntime`.  Payloads cross the
    boundary as :mod:`repro.network.frames` byte strings — the
    length-prefixed, checksummed framing of the
    :mod:`repro.core.serialization` wire format — so everything a node
    learns arrives the way it would over a real radio.

    The facade is synchronous (``poll`` / ``send``) regardless of the
    implementation underneath; :class:`AsyncioTCPTransport` runs its
    asyncio machinery on a background thread behind it, which is what
    lets one runtime loop drive every deployment transport.
    """

    def __init__(self) -> None:
        super().__init__()
        #: Frames dropped for violating the wire contract (bad magic,
        #: CRC mismatch, truncation).  Kept out of :class:`TransportStats`
        #: — it is a transport-health diagnostic, not traffic accounting.
        self.frames_rejected = 0

    @abc.abstractmethod
    def start(self) -> None:
        """Bring the endpoint up (bind sockets, start worker threads)."""

    @abc.abstractmethod
    def poll(self, timeout: Optional[float] = None) -> "Optional[Frame]":
        """The next received (decoded, checksum-verified) frame, or
        ``None`` on timeout.  Corrupted traffic never surfaces here — it
        is dropped and counted in :attr:`frames_rejected`."""

    def drain(self, timeout: Optional[float] = None) -> "list[Frame]":
        """One blocking-with-timeout wait, then sweep the whole backlog.

        Blocks in :meth:`poll` for up to ``timeout`` for the *first*
        frame, then collects every further frame that is already queued
        without blocking again.  Returns the batch in arrival order
        (empty on timeout).  This is the runtime loop's entry point: one
        wait per batch instead of one per frame, so per-iteration work
        (snapshot refresh, timer checks) amortises over bursts instead
        of running once per queued frame.
        """
        first = self.poll(timeout=timeout)
        if first is None:
            return []
        batch = [first]
        while True:
            frame = self.poll(timeout=0.0)
            if frame is None:
                return batch
            batch.append(frame)

    @abc.abstractmethod
    def send_frame(self, peer: "PeerInfo", frame: bytes) -> bool:
        """Queue one encoded frame toward a peer; ``False`` if unreachable.

        "Unreachable" mirrors the simulator's drop-at-crashed-node
        semantics: a frame addressed to a peer the membership layer has
        declared dead is dropped, and the weight it carried leaves the
        system — exactly the paper's fail-stop crash model.
        """

    def forget_peer(self, peer: "PeerInfo") -> None:
        """Tear down per-peer resources after a failure declaration.

        Frames still queued toward the peer are discarded (fail-stop:
        in-flight weight is lost with the crash).  Default is a no-op for
        transports that keep no per-peer state.
        """

    def describe(self) -> dict[str, Any]:
        summary = super().describe()
        summary["frames_rejected"] = self.frames_rejected
        return summary
