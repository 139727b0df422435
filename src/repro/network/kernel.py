"""The simulation kernel: one engine core under every gossip schedule.

The paper proves convergence for *any* connected topology under
*arbitrary* asynchrony (Section 6) but evaluates with a synchronous round
schedule (Section 5.3).  Those are two points on one axis — *when* nodes
act — while everything else (what travels, how it can be lost, what is
counted, what is observed) is schedule-independent.  The kernel owns that
schedule-independent core:

- **transport** — message movement is delegated to a pluggable
  :class:`~repro.network.transport.SimulationTransport` (default
  :class:`~repro.network.transport.InMemoryTransport`: a round buffer
  for the sends due at a synchronous round's flush, and for timed sends
  one reliable directed :class:`~repro.network.channel.Channel` per
  edge with a message in flight, message envelopes, and the
  queued-delivery pipeline), while the kernel keeps the protocol
  interaction and the edge and link-availability checks (link
  availability → send → delay → deliver → receiver-side batched merge,
  whose full solves a synchronous round poses together, see
  :meth:`SimulationKernel.complete_deliveries`);
- **failure injection** — a :class:`~repro.network.failures.FailureModel`
  consulted at the end of every round (synchronous schedule) or at every
  round-equivalent epoch boundary (asynchronous schedule);
- **liveness and metrics** — inherited from
  :class:`~repro.network.simulator.Network`;
- **observability** — the *single* site where transport events
  (``send`` / ``deliver`` / ``drop`` / ``round_close``) are materialised,
  so a trace's schema cannot drift between schedules.

*When* things happen is delegated to a pluggable
:class:`Scheduler` strategy:
:class:`~repro.network.schedulers.SynchronousRoundScheduler` reproduces
the paper's Section 5.3 methodology (all sends logically precede all
receives; push / pull / push-pull variants), and
:class:`~repro.network.schedulers.PoissonScheduler` realises the Section 6
asynchronous model (exponential firing, random finite delays).  A run is
one kernel over one scheduler; what is specific to a schedule — the
round counter, the simulated clock, driving to a time — is read or
called on :attr:`SimulationKernel.scheduler`.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Union

import networkx as nx

from repro.core.fingerprint import MergeCache
from repro.core.receive import ReceiveBatch
from repro.network.channel import Channel, InFlightMessage
from repro.network.events import EventQueue
from repro.network.failures import FailureModel, NoFailures
from repro.network.links import AlwaysUp, LinkSchedule
from repro.network.simulator import NeighborSelector, Network
from repro.network.transport import InMemoryTransport, SimulationTransport
from repro.obs.events import Event, EventSink
from repro.obs.profiling import span
from repro.obs.timeseries import TimeSeriesRecorder, current_hub
from repro.protocols.base import GossipProtocol

__all__ = ["GOSSIP_VARIANTS", "Scheduler", "SimulationKernel"]

#: The gossip communication patterns of Section 4.1, valid on either
#: scheduler: ``push`` sends the split share to the chosen neighbour,
#: ``pull`` asks the chosen neighbour for its share, ``pushpull`` does
#: both in one exchange.
GOSSIP_VARIANTS = ("push", "pull", "pushpull")

#: A delivery time: an absolute timestamp, or a thunk evaluated lazily —
#: only once a payload actually exists — so schedulers can draw random
#: delays without disturbing the RNG stream when a node has nothing to
#: send.
DeliveryTime = Union[float, Callable[[], float]]


class Scheduler:
    """Execution-order strategy: decides *when* the kernel's machinery runs.

    A scheduler owns the clock (rounds or continuous time), drives the
    kernel's transport through :meth:`SimulationKernel.transmit` and the
    delivery helpers, and stamps every emitted event.  Concrete
    schedulers live in :mod:`repro.network.schedulers`.
    """

    def attach(self, kernel: "SimulationKernel") -> None:
        """Install initial events / state; called once from kernel init."""

    def advance(self, kernel: "SimulationKernel") -> bool:
        """Execute the scheduler's smallest unit of progress.

        One synchronous round, or one discrete event.  Returns ``False``
        when nothing remains to execute.
        """
        raise NotImplementedError

    def advance_unit(self, kernel: "SimulationKernel") -> bool:
        """Execute one *round-equivalent* of progress.

        For the synchronous scheduler this is one round; for the Poisson
        scheduler, one mean firing interval of simulated time.  This is
        the unit :meth:`SimulationKernel.run` counts, which is what lets
        experiment drivers measure "rounds" identically on both
        schedules.
        """
        raise NotImplementedError

    def stamp(self, kernel: "SimulationKernel") -> dict[str, Any]:
        """The schedule-specific progress stamp carried by every event."""
        raise NotImplementedError

    def clock(self, kernel: "SimulationKernel") -> float:
        """Current time on the scheduler's clock (rounds count as 1.0)."""
        raise NotImplementedError

    def tick(self, kernel: "SimulationKernel") -> int:
        """The round index equivalent, for link schedules and failures."""
        raise NotImplementedError

    def default_selector(self) -> Optional[NeighborSelector]:
        """Scheduler-preferred neighbour selection (``None`` = kernel default)."""
        return None


class _Fire:
    """Queue entry: a node's periodic timer expires (Algorithm 1 lines 3-7)."""

    __slots__ = ("node",)

    def __init__(self, node: int) -> None:
        self.node = node


class SimulationKernel(Network):
    """Schedule-independent gossip engine core.

    Parameters
    ----------
    graph, protocols, seed, selector, event_sink:
        See :class:`~repro.network.simulator.Network`.  When ``selector``
        is ``None`` the scheduler's preference applies (round-robin for
        the Poisson scheduler, uniform random otherwise).
    scheduler:
        The execution-order strategy; see :mod:`repro.network.schedulers`.
    failure_model:
        Crash injection, consulted once per round / epoch; defaults to no
        failures.
    link_schedule:
        Link availability per round / epoch; defaults to the paper's
        always-up static links.  A node that picks a currently-down link
        skips its transmission — nothing is sent, so channel reliability
        is not violated and the weight stays at the sender.
    fifo:
        Enforce per-channel FIFO delivery (only observable under delayed
        schedules; used by tests to build deterministic orderings).
    transport:
        The :class:`~repro.network.transport.SimulationTransport` that
        moves messages; defaults to a fresh
        :class:`~repro.network.transport.InMemoryTransport`, the
        in-process path.  The kernel binds the transport to itself and mirrors
        its :class:`~repro.network.transport.TransportStats` into
        :attr:`metrics` at every round close.
    merge_cache:
        The run-scoped :class:`~repro.core.fingerprint.MergeCache` the
        network's nodes share (``None`` when caching is disabled).  The
        kernel does not consult it; owning it here lets the metrics
        layer fold its counters into :attr:`metrics` at every round
        close, and gives tests one handle on the whole run's cache.
    stop_on_quiescence:
        When true, :meth:`run` probes after every round-equivalent
        whether all live nodes share one summary fingerprint *and* every
        in-flight payload's collections are already part of it; after
        ``quiescence_patience`` consecutive such probes the run stops
        early.  Off by default — figure reproduction runs full length —
        and opt-in for sweeps.  Past this point the class *structure* is
        frozen; only quanta keep moving between byte-identical
        summaries.
    quiescence_patience:
        Consecutive quiescent round-equivalents required before the
        early exit fires.
    telemetry:
        A :class:`~repro.obs.timeseries.TimeSeriesRecorder` fed once per
        closed round-equivalent with convergence gauges.  ``None`` (the
        default) attaches a recorder from the ambient
        :func:`~repro.obs.timeseries.telemetry` scope when one is
        active, and records nothing otherwise.  Telemetry is strictly
        observational: it never consults :attr:`rng`, so simulation
        results are byte-identical with it on or off.
    """

    def __init__(
        self,
        graph: nx.Graph,
        protocols: Mapping[int, GossipProtocol],
        scheduler: Scheduler,
        seed: int = 0,
        selector: Optional[NeighborSelector] = None,
        failure_model: Optional[FailureModel] = None,
        link_schedule: Optional[LinkSchedule] = None,
        fifo: bool = False,
        transport: Optional[SimulationTransport] = None,
        event_sink: Optional[EventSink] = None,
        merge_cache: Optional[MergeCache] = None,
        stop_on_quiescence: bool = False,
        quiescence_patience: int = 3,
        telemetry: Optional[TimeSeriesRecorder] = None,
    ) -> None:
        super().__init__(
            graph,
            protocols,
            seed=seed,
            selector=selector if selector is not None else scheduler.default_selector(),
            event_sink=event_sink,
        )
        self.failure_model = failure_model if failure_model is not None else NoFailures()
        self.link_schedule = link_schedule if link_schedule is not None else AlwaysUp()
        self.fifo = fifo
        self.queue = EventQueue()
        if transport is None:
            transport = InMemoryTransport()
        if not isinstance(transport, SimulationTransport):
            raise TypeError(
                "the simulation kernel needs a SimulationTransport (e.g. "
                f"InMemoryTransport); got {type(transport).__name__}.  Frame "
                "transports (process/tcp) are driven by repro.network.runtime, "
                "not the kernel — see docs/deployment.md."
            )
        self.transport = transport
        transport.bind(self)
        self.merge_cache = merge_cache
        if quiescence_patience < 1:
            raise ValueError(
                f"quiescence_patience must be at least 1, got {quiescence_patience}"
            )
        self.stop_on_quiescence = stop_on_quiescence
        self.quiescence_patience = quiescence_patience
        self._quiescent_streak = 0
        #: Round-equivalent count at which the early exit fired (``None``
        #: while the run has not quiesced).
        self.quiescent_at: Optional[int] = None
        if telemetry is None:
            hub = current_hub()
            if hub is not None:
                telemetry = hub.new_recorder()
        self.telemetry = telemetry
        self.scheduler = scheduler
        scheduler.attach(self)

    # ------------------------------------------------------------------
    # Observability: the single emission site
    # ------------------------------------------------------------------
    def _stamp(self) -> dict[str, Any]:
        return self.scheduler.stamp(self)

    def _emit(self, kind: str, **fields: Any) -> None:
        if self.event_sink is not None:
            self.event_sink.emit(Event(kind=kind, **fields, **self._stamp()))

    def emit_round_close(self, round_index: int, messages: int) -> None:
        """Record the end of one round (or round-equivalent epoch).

        ``round_index`` is the unified 0-based round-equivalent counter
        on *both* schedulers: the synchronous scheduler's round just
        closed, or the Poisson scheduler's epoch just completed (epoch
        ``e`` covers simulated time ``[e*mean_interval,
        (e+1)*mean_interval)``).  The payload carries it again as
        ``extra.epoch`` so per-round report and telemetry sections line
        up across engines without scheduler-specific parsing.
        """
        if self.merge_cache is not None:
            self.metrics.sync_cache(self.merge_cache)
        self.metrics.sync_transport(self.transport.stats)
        t: Optional[float] = None
        if self.event_sink is not None or self.telemetry is not None:
            t = self._stamp().get("t")
        if self.event_sink is not None:
            self.event_sink.emit(
                Event(
                    kind="round_close",
                    round=round_index,
                    t=t,
                    extra={
                        "messages": messages,
                        "live": len(self.live),
                        "epoch": round_index,
                    },
                )
            )
        if self.telemetry is not None:
            self.telemetry.observe_round(self, round_index, t)
            if self.event_sink is not None:
                # Keep the file-backed stream line-complete so a live
                # monitor tailing it sees every closed round promptly.
                self.event_sink.flush()

    # ------------------------------------------------------------------
    # Transport (delegated to the pluggable seam)
    # ------------------------------------------------------------------
    @property
    def channels(self) -> dict[tuple[int, int], Channel]:
        """The transport's channels with a timed message in flight, keyed
        ``(source, dest)``; a channel leaves once its last message is
        delivered, and a round send never opens one."""
        return self.transport.channels  # type: ignore[attr-defined]

    def channel(self, source: int, destination: int) -> Channel:
        """The channel carrying an edge's timed in-flight messages, or a
        new empty one when none is in flight (the transport registers a
        channel when it sends a timed message on it)."""
        return self.transport.channel(source, destination)

    def link_up(self, source: int, destination: int) -> bool:
        """Is the (undirected) link usable right now, per the schedule?"""
        return self.link_schedule.is_up(self.scheduler.tick(self), source, destination)

    def transmit(
        self,
        source: int,
        destination: int,
        deliver_time: Optional[DeliveryTime] = None,
    ) -> int:
        """Run the send half of the pipeline; returns messages sent (0 or 1).

        Checks the edge first (a non-edge raises :class:`KeyError` before
        anything changes), then asks ``source``'s protocol for a payload
        (which may legally be ``None`` — nothing sendable), hands it to
        the transport with the checked edge, and counts and emits the
        ``send``.  With no ``deliver_time`` the payload is due at the next
        :meth:`flush_deliveries` (the round schedule); otherwise it
        travels in an envelope on the directed channel, delivered at
        ``deliver_time``, an absolute time or a thunk.  The thunk is only
        evaluated once a payload exists, so random delay draws never
        happen for skipped transmissions.
        """
        with span("kernel.transport"):
            # Making the payload splits the source's weight, so a refused
            # send must be refused before it.
            edge = self.neighbor_index(source, destination)
            if edge is None:
                raise KeyError(f"no edge {source}->{destination} in the topology")
            payload = self.protocols[source].make_payload()
            if payload is None:
                return 0
            send_time = self.scheduler.clock(self)
            if callable(deliver_time):
                deliver_time = deliver_time()
            deliver_at = None if deliver_time is None else float(deliver_time)
            self.transport.send(source, destination, payload, send_time, deliver_at, edge)
            items = self.payload_size(payload)
            self.metrics.record_send(items)
            self._emit("send", node=source, peer=destination, items=items)
            return 1

    # ------------------------------------------------------------------
    # Delivery pipeline
    # ------------------------------------------------------------------
    def complete_deliveries(self, deliveries: list[tuple[int, list[int], list[Any]]]) -> None:
        """Terminal stage: drop at crashed nodes, batched receives at live ones.

        Each ``(destination, sources, payloads)`` entry is one
        receiver's batch, in destination order; the transport has
        already taken ``payloads`` (sent by ``sources``, in the same
        order) out of its round buffer or off their channels.  Every
        live receiver poses its receive on one
        :class:`~repro.core.receive.ReceiveBatch` (``defer_receive``),
        the batch answers them all, then, destination by destination,
        the drops or deliveries are recorded and emitted and each
        receiver adopts its rows.  Receivers are distinct, so the state
        and the events are a one-at-a-time loop's; a pass that raises
        leaves every receiver as it was, and the round transport then
        hands the payloads back to its round buffer.
        """
        with span("kernel.receive"):
            batch = ReceiveBatch()
            protocols = self.protocols
            live = self.live
            completions = [
                protocols[destination].defer_receive(payloads, batch)
                if destination in live
                else None
                for destination, _, payloads in deliveries
            ]
            batch.solve()
            metrics = self.metrics
            for (destination, sources, _), complete in zip(deliveries, completions):
                if complete is None:
                    # Reliable channels deliver, but a crashed node never
                    # processes: the payloads' weight leaves the system.
                    for source in sources:
                        metrics.record_drop()
                        self._emit("drop", node=source, peer=destination)
                    continue
                for source in sources:
                    metrics.record_delivery()
                    self._emit("deliver", node=source, peer=destination)
                complete()

    def flush_deliveries(self) -> None:
        """Deliver every payload sent with no delivery time, batched per
        destination.

        The synchronous scheduler's receive phase: one
        :meth:`complete_deliveries` call for the whole round; see
        :meth:`repro.network.transport.InMemoryTransport.flush_deliveries`.
        """
        self.transport.flush_deliveries()

    def dispatch_delivery(
        self, channel: Channel, message: InFlightMessage, coalesce_at: Optional[float] = None
    ) -> int:
        """Deliver one due envelope; returns the number of envelopes consumed.

        The event-driven path, with same-instant coalescing; see
        :meth:`repro.network.transport.InMemoryTransport.dispatch_delivery`.
        """
        return self.transport.dispatch_delivery(channel, message, coalesce_at=coalesce_at)

    # ------------------------------------------------------------------
    # Failure injection
    # ------------------------------------------------------------------
    def inject_crashes(self, round_index: int) -> None:
        """Consult the failure model for the round just finished."""
        crashed = self.failure_model.crashes_after_round(
            round_index, self.live_nodes, self.rng
        )
        for node in crashed:
            self.crash(node)

    # ------------------------------------------------------------------
    # Pool inspection (Section 6.1)
    # ------------------------------------------------------------------
    def in_flight_payloads(self) -> list[Any]:
        """Payloads sent and not yet delivered, for global-pool assertions:
        a synchronous round's sends before its flush, and timed messages
        inside channels.

        Costs O(messages in flight): the transport holds no channel that
        carries nothing.
        """
        return self.transport.in_flight_payloads()

    # ------------------------------------------------------------------
    # Quiescence detection
    # ------------------------------------------------------------------
    def _probe_quiescence(self) -> bool:
        """Do all live nodes (and all in-flight payloads) agree right now?

        Quiescence is *structural*: every live node's summary-level
        fingerprint (which summaries it holds, ignoring quanta — so
        splitting does not disturb it) is identical, and every collection
        still in flight carries a summary the shared fingerprint already
        contains.  Once that holds, no future receipt
        can introduce a new summary: the classes are final, only weight
        keeps circulating.  Returns ``False`` whenever the protocol or
        scheme cannot answer (no ``node`` attribute, no fingerprint
        support) — quiescence then never fires, it does not guess.
        """
        reference_fp: Optional[bytes] = None
        reference_digests: Optional[frozenset[bytes]] = None
        scheme = None
        for node_id in self.live:
            node = getattr(self.protocols[node_id], "node", None)
            if node is None:
                return False
            fingerprint = node.summary_fingerprint()
            if fingerprint is None:
                return False
            if reference_fp is None:
                reference_fp = fingerprint
                reference_digests = frozenset(node.summary_digests())
                scheme = node.scheme
            elif fingerprint != reference_fp:
                return False
        if reference_digests is None or scheme is None:
            return False
        for payload in self.in_flight_payloads():
            digests = getattr(payload, "row_digests", None)
            if digests is not None:
                # Packed payloads carry their rows' content digests once
                # the sender has computed them; comparing them is
                # equivalent to re-hashing the summaries (digest ==
                # summary_digest of the row, by construction) without
                # materialising any collection objects.
                if any(digest not in reference_digests for digest in digests):
                    return False
                continue
            for collection in payload:
                if scheme.summary_digest(collection.summary) not in reference_digests:
                    return False
        return True

    def _check_quiescence(self, executed: int) -> bool:
        """Advance the streak; returns ``True`` when the early exit fires."""
        if not self._probe_quiescence():
            self._quiescent_streak = 0
            return False
        self._quiescent_streak += 1
        self.metrics.quiescent_rounds += 1
        if self._quiescent_streak < self.quiescence_patience:
            return False
        if self.quiescent_at is None:
            self.quiescent_at = executed
            self._emit("cache", extra={"path": "quiescent", "streak": self._quiescent_streak})
        return True

    @property
    def quiescent(self) -> bool:
        """Whether a :meth:`run` ended early on quiescence."""
        return self.quiescent_at is not None

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(
        self,
        rounds: int,
        stop_condition: Optional[Callable[[Any], bool]] = None,
        per_round: Optional[Callable[[Any], None]] = None,
    ) -> int:
        """Run up to ``rounds`` round-equivalents; returns the number run.

        Uniform across schedulers: a synchronous round, or one mean
        firing interval of simulated time.  ``per_round`` (if given)
        observes the engine after each unit; ``stop_condition`` (if
        given) ends the run early when it returns true — the experiment
        scripts plug a
        :class:`~repro.core.convergence.ConvergenceDetector` in here to
        implement "run until convergence" on either schedule.
        """
        executed = 0
        quiesced = False
        for _ in range(rounds):
            if not self.scheduler.advance_unit(self):
                break
            executed += 1
            if per_round is not None:
                per_round(self)
            if self.stop_on_quiescence and self._check_quiescence(executed):
                quiesced = True
                break
            if stop_condition is not None and stop_condition(self):
                break
        if self.merge_cache is not None:
            self.metrics.sync_cache(self.merge_cache)
        self.metrics.sync_transport(self.transport.stats)
        if quiesced and self.event_sink is not None:
            # A truncated run must still leave a complete, valid trace:
            # close it with a final counter snapshot and push everything
            # buffered to durable storage.  Cache counters are excluded —
            # they legitimately differ between cache configurations whose
            # simulation results are byte-identical, and the trace
            # determinism gates compare exactly those runs.
            self._emit(
                "metrics",
                extra=self.metrics.scalar_snapshot(include_cache=False),
            )
            self.event_sink.flush()
        return executed

    def run_steps(
        self,
        count: int,
        stop_condition: Optional[Callable[[Any], bool]] = None,
        observer: Optional[Callable[[Any], None]] = None,
    ) -> int:
        """Run up to ``count`` scheduler steps; returns the number run."""
        executed = 0
        for _ in range(count):
            if not self.scheduler.advance(self):
                break
            executed += 1
            if observer is not None:
                observer(self)
            if stop_condition is not None and stop_condition(self):
                break
        return executed
