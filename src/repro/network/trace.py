"""Structured per-round run traces.

A :class:`RunTracer` observes a
:class:`~repro.network.kernel.SimulationKernel` through one of its
observation hooks — ``run(..., per_round=tracer)`` once per
round-equivalent, ``run_steps(..., observer=tracer)`` once per scheduler
step — and records, at every sample, whatever probes the caller
registered: error against a ground truth, collection counts, live-node
counts, cumulative messages.  Experiments and notebooks get one tidy
record per sample instead of hand-rolled bookkeeping loops.

The tracer is schedule-agnostic: it needs only the kernel's
``live_nodes`` and ``metrics``.  The round stamp is the closed-round
count once a round has closed (the synchronous scheduler's round
counter, and the Poisson scheduler's ``round_close`` epochs), else the
processed-event count.  When the observed kernel has an event sink
attached, every sample is also emitted as a ``probe`` event, stamped
with the scheduler's simulated time when it keeps one, so JSONL traces
carry the convergence curve alongside the transport events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.obs.events import Event

__all__ = ["RoundRecord", "RunTracer"]


@dataclass(frozen=True)
class RoundRecord:
    """One round's observations."""

    round_index: int
    live_nodes: int
    messages_sent: int
    probes: dict[str, float]

    def __getitem__(self, key: str) -> float:
        return self.probes[key]


class RunTracer:
    """Collects per-round probe values from a running engine.

    Parameters
    ----------
    probes:
        Mapping from probe name to a callable taking the engine and
        returning a float.  Probes run after every round, in insertion
        order; exceptions propagate (a broken probe should fail loudly,
        not silently record garbage).

    Example
    -------
    >>> tracer = RunTracer({
    ...     "error": lambda engine: compute_error(engine),
    ... })                                              # doctest: +SKIP
    >>> engine.run(50, per_round=tracer)                # doctest: +SKIP
    >>> tracer.series("error")                          # doctest: +SKIP
    """

    def __init__(self, probes: Mapping[str, Callable[[Any], float]]) -> None:
        if not probes:
            raise ValueError("a tracer needs at least one probe")
        self.probes = dict(probes)
        self.records: list[RoundRecord] = []

    def __call__(self, engine: Any) -> None:
        """The ``per_round``/``observer`` hook: sample every probe."""
        values = {name: float(probe(engine)) for name, probe in self.probes.items()}
        if engine.metrics.rounds > 0:
            # Rounds are closing: the 1-based closed-round count is the
            # synchronous scheduler's round counter, and lines probe
            # rounds up with ``round_close`` epochs across schedulers.
            round_index = int(engine.metrics.rounds)
        else:
            # Event driving (``run_steps`` on the Poisson scheduler): no
            # rounds close, so the processed-event count is the only
            # monotone progress stamp available.
            round_index = int(engine.metrics.events)
        self.records.append(
            RoundRecord(
                round_index=round_index,
                live_nodes=len(engine.live_nodes),
                messages_sent=engine.metrics.messages_sent,
                probes=values,
            )
        )
        sink = getattr(engine, "event_sink", None)
        if sink is not None:
            sink.emit(
                Event(
                    kind="probe",
                    round=round_index,
                    t=getattr(getattr(engine, "scheduler", None), "now", None),
                    extra=dict(values),
                )
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    def series(self, name: str) -> list[float]:
        """The per-round values of one probe."""
        if name not in self.probes:
            raise KeyError(f"unknown probe {name!r}; have {sorted(self.probes)}")
        return [record.probes[name] for record in self.records]

    def rounds(self) -> list[int]:
        return [record.round_index for record in self.records]

    def live_node_series(self) -> list[int]:
        return [record.live_nodes for record in self.records]

    def final(self, name: str) -> float:
        """The last recorded value of a probe."""
        values = self.series(name)
        if not values:
            raise ValueError("tracer has recorded no rounds yet")
        return values[-1]

    def rounds_until(self, name: str, threshold: float) -> int | None:
        """First round at which a probe drops to/below ``threshold``.

        The standard "rounds to convergence" read-out; ``None`` when the
        probe never gets there.
        """
        for record in self.records:
            if record.probes[name] <= threshold:
                return record.round_index
        return None

    def as_columns(self) -> dict[str, list[float]]:
        """All probe series keyed by name (for the report formatter)."""
        return {name: self.series(name) for name in self.probes}
