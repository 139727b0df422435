"""Pluggable schedulers: the paper's two execution models as strategies.

The kernel (:mod:`repro.network.kernel`) is schedule-independent; these
strategies decide *when* its machinery runs:

- :class:`SynchronousRoundScheduler` — Section 5.3's measurement
  methodology: in each round every node sends once, all sends logically
  precede all receives, receivers merge their whole round's intake as one
  batch, and crashes are injected between rounds.
- :class:`PoissonScheduler` — Section 6's asynchronous model: every node
  fires on its own exponential clock, messages take random finite delays,
  and deliveries are handled as they arrive.  Failure models and link
  schedules — written against round indices — apply at *epoch*
  granularity, one epoch being one mean firing interval (the time in
  which an average node sends once, i.e. the asynchronous analogue of a
  round).

Both accept the three gossip variants of Section 4.1 (push, pull,
push-pull) and run identical transport, failure, metrics and event
machinery, which is what makes robustness experiments directly
comparable across schedules.  A run is one
:class:`~repro.network.kernel.SimulationKernel` over one scheduler;
:func:`make_scheduler` picks the scheduler by its :data:`ENGINES` name,
which is what makes ``--engine`` a pure axis in the experiment CLI.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.network.failures import NoFailures
from repro.network.kernel import GOSSIP_VARIANTS, Scheduler, SimulationKernel, _Fire
from repro.network.simulator import NeighborSelector, RoundRobinSelector
from repro.obs.profiling import span

__all__ = ["ENGINES", "SynchronousRoundScheduler", "PoissonScheduler", "make_scheduler"]

#: The selectable execution models: ``"rounds"`` is Section 5.3's
#: synchronous schedule, ``"async"`` Section 6's Poisson schedule.
ENGINES = ("rounds", "async")


def _validated_variant(variant: str) -> str:
    if variant not in GOSSIP_VARIANTS:
        raise ValueError(f"variant must be one of {GOSSIP_VARIANTS}, got {variant!r}")
    return variant


class SynchronousRoundScheduler(Scheduler):
    """The paper's round schedule (Section 5.3).

    One :meth:`advance` is one synchronous parallel step: every live node
    picks a neighbour and (link permitting) transmits per the gossip
    variant; all queued messages are then flushed to their destinations,
    batched per receiver; finally the failure model injects crashes and
    the round closes.  Within a round all sends precede all receives, so
    a payload can never be forwarded twice in the round it was sent.
    """

    def __init__(self, variant: str = "push") -> None:
        self.variant = _validated_variant(variant)
        self.round_index = 0

    # -- clocking ------------------------------------------------------
    def stamp(self, kernel: SimulationKernel) -> dict[str, Any]:
        return {"round": self.round_index}

    def clock(self, kernel: SimulationKernel) -> float:
        return float(self.round_index)

    def tick(self, kernel: SimulationKernel) -> int:
        return self.round_index

    # -- execution -----------------------------------------------------
    def advance(self, kernel: SimulationKernel) -> bool:
        with span("engine.round"):
            self._run_round(kernel)
        return True

    advance_unit = advance

    def _run_round(self, kernel: SimulationKernel) -> None:
        messages = 0
        for node in kernel.live_nodes:
            neighbors = kernel.neighbors[node]
            if not neighbors:
                continue
            peer = kernel.selector.choose(node, neighbors, kernel.rng)
            if not kernel.link_up(node, peer):
                continue  # detected-down link: hold the data, try next round
            if self.variant in ("push", "pushpull"):
                messages += kernel.transmit(node, peer)
            if self.variant in ("pull", "pushpull"):
                # The peer answers a pull only if it is still alive.
                if kernel.is_live(peer):
                    messages += kernel.transmit(peer, node)
        kernel.transport.flush_deliveries()
        kernel.inject_crashes(self.round_index)
        kernel.emit_round_close(self.round_index, messages)
        self.round_index += 1
        kernel.metrics.close_round(messages)


class PoissonScheduler(Scheduler):
    """The convergence theorem's asynchronous schedule (Section 6).

    Parameters
    ----------
    variant:
        Gossip variant applied at each firing; pull answers are produced
        by the chosen peer at fire time and travel back with their own
        delay, mirroring the round schedule's same-round response.
    mean_interval:
        Mean of the exponential time between a node's sends.  Also the
        *epoch* length: failure models and link schedules written against
        round indices are evaluated per epoch, and :meth:`advance_unit`
        (the kernel's ``run`` unit) advances one epoch of simulated time.
    delay_range:
        Message latency is drawn uniformly from this interval; any finite
        positive range satisfies the reliable-asynchronous model.

    Epoch ↔ round mapping: one epoch is this schedule's round-equivalent
    — the window in which the average node fires once.  Both schedulers
    report the same unified 0-based counter to
    :meth:`SimulationKernel.emit_round_close` (epoch ``i`` ends exactly
    when synchronous round ``i`` would), so ``round_close`` events,
    telemetry samples, failure models and link schedules all share one
    round axis across engines; see ``docs/observability.md``.
    """

    def __init__(
        self,
        variant: str = "push",
        mean_interval: float = 1.0,
        delay_range: tuple[float, float] = (0.05, 2.0),
    ) -> None:
        self.variant = _validated_variant(variant)
        if mean_interval <= 0:
            raise ValueError("mean_interval must be positive")
        low, high = delay_range
        if not 0 <= low <= high:
            raise ValueError(f"invalid delay range {delay_range}")
        self.mean_interval = mean_interval
        self.delay_range = delay_range
        self.now = 0.0
        self.units_completed = 0
        self._epoch = 0
        self._inject_failures = False

    def default_selector(self) -> Optional[NeighborSelector]:
        # Round-robin: the deterministic fairness the proof assumes.
        return RoundRobinSelector()

    def attach(self, kernel: SimulationKernel) -> None:
        self._inject_failures = not isinstance(kernel.failure_model, NoFailures)
        # Stagger initial timers uniformly so nodes do not fire in lockstep.
        for node in kernel.live_nodes:
            kernel.queue.push(
                float(kernel.rng.uniform(0.0, self.mean_interval)), _Fire(node)
            )

    # -- clocking ------------------------------------------------------
    def stamp(self, kernel: SimulationKernel) -> dict[str, Any]:
        return {"t": self.now}

    def clock(self, kernel: SimulationKernel) -> float:
        return self.now

    def tick(self, kernel: SimulationKernel) -> int:
        return int(self.now / self.mean_interval)

    # -- execution -----------------------------------------------------
    def advance(self, kernel: SimulationKernel) -> bool:
        """Process one discrete event; returns False when none remain."""
        if not kernel.queue:
            return False
        when, entry = kernel.queue.pop()
        self._cross_epochs(kernel, when)
        self.now = when
        if isinstance(entry, _Fire):
            try:
                self._fire(kernel, entry.node)
            except BaseException:
                kernel.queue.push_front([(when, entry)])
                raise
            kernel.metrics.events += 1
        else:
            # An event counts once it has completed: a delivery whose
            # receive raises goes back on the queue uncounted.  Coalesced
            # same-instant deliveries count as processed too.
            kernel.metrics.events += kernel.transport.dispatch_delivery(
                entry.channel, entry.message, coalesce_at=when
            )
        return True

    def advance_unit(self, kernel: SimulationKernel) -> bool:
        """Advance one epoch of simulated time (a round-equivalent)."""
        if not kernel.queue:
            return False
        sent_before = kernel.metrics.messages_sent
        self.run_until(kernel, self.now + self.mean_interval)
        messages = kernel.metrics.messages_sent - sent_before
        kernel.emit_round_close(self.units_completed, messages)
        self.units_completed += 1
        kernel.metrics.close_round(messages)
        return True

    def run_until(self, kernel: SimulationKernel, time: float) -> None:
        """Process all events with timestamps strictly below ``time``."""
        while kernel.queue and kernel.queue.peek_time() < time:
            self.advance(kernel)
        self._cross_epochs(kernel, time)
        self.now = max(self.now, time)

    # -- internals -----------------------------------------------------
    def _cross_epochs(self, kernel: SimulationKernel, up_to: float) -> None:
        """Inject crashes for every epoch boundary at or before ``up_to``.

        The failure model's "crashes after round ``i``" fires at the end
        of epoch ``i`` — time ``(i + 1) * mean_interval`` — and applies
        before any event at or beyond that instant, mirroring the round
        schedule's crash-between-rounds semantics.
        """
        while self._inject_failures:
            boundary = (self._epoch + 1) * self.mean_interval
            if boundary > up_to:
                break
            self.now = boundary
            kernel.inject_crashes(self._epoch)
            self._epoch += 1

    def _fire(self, kernel: SimulationKernel, node: int) -> None:
        """One timer expiry: Algorithm 1 lines 3-7 under this schedule.

        A fire whose send raises is requeued first at its time and runs
        whole again, with fresh draws: under pushpull a push sent before
        the pull raised gets a second one, which Section 6's fair schedule
        allows, and each send splits the weight it carries.
        """
        if not kernel.is_live(node):
            return  # fail-stop: the dead node's clock is never rescheduled
        neighbors = kernel.neighbors[node]
        if neighbors:
            peer = kernel.selector.choose(node, neighbors, kernel.rng)
            if kernel.link_up(node, peer):
                low, high = self.delay_range

                def deliver_at() -> float:
                    return self.now + float(kernel.rng.uniform(low, high))

                if self.variant in ("push", "pushpull"):
                    kernel.transmit(node, peer, deliver_time=deliver_at)
                if self.variant in ("pull", "pushpull") and kernel.is_live(peer):
                    kernel.transmit(peer, node, deliver_time=deliver_at)
        next_fire = self.now + float(kernel.rng.exponential(self.mean_interval))
        kernel.queue.push(next_fire, _Fire(node))


def make_scheduler(
    engine: str,
    variant: str = "push",
    mean_interval: float = 1.0,
    delay_range: tuple[float, float] = (0.05, 2.0),
) -> Scheduler:
    """The scheduler for an :data:`ENGINES` name.

    ``mean_interval`` and ``delay_range`` only apply to ``"async"``; they
    are accepted (and ignored) for ``"rounds"`` so callers can thread one
    configuration through either schedule.
    """
    if engine == "rounds":
        return SynchronousRoundScheduler(variant=variant)
    if engine == "async":
        return PoissonScheduler(
            variant=variant, mean_interval=mean_interval, delay_range=delay_range
        )
    raise ValueError(f"unknown engine {engine!r}; ENGINES are {ENGINES}")
