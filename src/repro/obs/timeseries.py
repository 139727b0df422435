"""Per-round convergence telemetry (the ``repro.obs`` v2 time series).

The paper's claims are about *trajectories* — how fast gossip drives every
node's summary set to the common fixpoint, and what that costs in messages
— but events and end-of-run totals only let you reconstruct those curves
after the fact.  This module records them live:

- :class:`TelemetryConfig` — what to sample and how often (the stride is
  what keeps a 100k-node run O(rounds), not O(rounds x nodes));
- :class:`TimeSeriesRecorder` — a memory-bounded recorder the
  :class:`~repro.network.kernel.SimulationKernel` feeds once per closed
  round (per round-equivalent epoch on the Poisson scheduler);
- :class:`TelemetryHub` + :func:`telemetry` — the ambient scope that
  hands recorders to kernels built inside it, mirroring
  :func:`repro.obs.context.tracing`.

Each sample is one flat ``dict[str, float | int]`` so every exporter
(JSONL, Prometheus text, the sweep store's ``timeseries`` table — see
:mod:`repro.obs.exporters`) consumes the same rows.

Telemetry is strictly read-only with respect to the simulation: it never
touches the kernel's RNG and never mutates protocol state, so runs are
byte-identical with telemetry on or off (pinned by
``tests/integration/test_telemetry_parity.py``).
"""

from __future__ import annotations

import math
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterator, Optional

from repro.obs.events import Event

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.kernel import SimulationKernel

__all__ = [
    "TelemetryConfig",
    "TimeSeriesRecorder",
    "TelemetryHub",
    "telemetry",
    "current_hub",
]


@dataclass(frozen=True)
class TelemetryConfig:
    """What a :class:`TimeSeriesRecorder` samples, and how often.

    Parameters
    ----------
    stride:
        Sample every ``stride``-th closed round-equivalent (round 0 is
        always sampled).  The expensive gauges — distinct fingerprints,
        weight census — walk every live node, so the per-run telemetry
        cost is ``O(rounds / stride * nodes)``; pick a stride that makes
        that negligible next to the simulation itself (the overhead
        benchmark pins stride 10 at <= 5% on the 1,000-node GM round).
    max_samples:
        Upper bound on retained samples; older samples fall off the
        front, so telemetry memory is bounded regardless of run length.
    emit_events:
        Mirror each sample into the kernel's event sink as a
        ``telemetry`` event, which is what the live monitor tails.
    """

    stride: int = 1
    max_samples: int = 100_000
    emit_events: bool = True

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError(f"stride must be at least 1, got {self.stride}")
        if self.max_samples < 1:
            raise ValueError(
                f"max_samples must be at least 1, got {self.max_samples}"
            )


class TimeSeriesRecorder:
    """Memory-bounded per-round convergence gauges for one kernel.

    The kernel calls :meth:`observe_round` from ``emit_round_close``
    after every closed round-equivalent; on stride rounds the recorder
    walks the live nodes once and appends one flat sample row.

    Gauge columns (all per sample; counters are *window deltas* since the
    previous sample, gauges are instantaneous):

    ``round``, ``t``
        The round-equivalent index (see ``docs/observability.md`` for
        the epoch <-> round mapping) and, on the Poisson scheduler, the
        simulation clock.
    ``live``, ``crashed_window``
        Live-node census and crashes since the last sample.
    ``distinct_fingerprints``
        Number of distinct summary-level fingerprints across live nodes
        — the convergence gauge; reaches 1 at the common fixpoint.
        ``NaN`` when the protocol or scheme cannot answer.
    ``distinct_summaries``
        Size of the union of per-collection summary digests over live
        nodes (how many distinct class summaries exist system-wide).
    ``quiescent_fraction``
        Fraction of live nodes already holding the modal fingerprint.
    ``node_quanta``, ``in_flight_quanta``, ``total_quanta``
        The weight census: quanta held at live nodes, quanta travelling
        inside channels, and their sum — mass conservation says
        ``total_quanta`` is constant until a crash drops weight.  The
        in-flight part costs O(messages in flight), not O(edges used).
    ``messages_window``, ``payload_items_window``, ``delivered_window``,
    ``dropped_window``, ``bytes_window``
        Message complexity over the window; bytes use the scheme's wire
        codec (``NaN`` when no codec is registered for the scheme).
    ``frames_window``, ``transport_bytes_window``, ``reconnects_window``,
    ``peer_count``
        The transport's own accounting (see
        :class:`~repro.network.transport.TransportStats`): frame units
        and *actually serialised* bytes moved over the window, plus the
        peer gauge.  On the in-memory transport frames mirror messages,
        bytes stay 0 (payloads travel as objects) and ``peer_count``
        counts the distinct directed edges used so far;
        ``bytes_window`` above remains the codec-estimated wire cost.
    ``em_iterations_window``
        Hard-EM iterations spent in ``reduce_mixture`` over the window
        (process-wide counter, so only meaningful single-kernel).
    ``cache_hit_ratio``
        Cumulative share of the receives the merge cache was consulted on
        that it answered with a certified no-op (``NaN`` without a cache
        or before the first consulted receive).
    """

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self._samples: deque[dict[str, Any]] = deque(maxlen=self.config.max_samples)
        #: Rounds observed (not all sampled), for stride bookkeeping.
        self.rounds_observed = 0
        #: Rounds actually sampled.
        self.rounds_sampled = 0
        # Cumulative counter values at the previous sample, for windows.
        self._last_counters: Optional[dict[str, float]] = None
        # Lazily probed wire cost: (header_bytes, per_item_bytes), or
        # None once probing failed for this kernel's scheme.
        self._wire_cost: Optional[tuple[int, int]] = None
        self._wire_probed = False
        # The EM-iteration counter is process-global; baseline it now so
        # the first window covers only work after this recorder existed
        # (and serial vs pooled sweeps report identical windows).
        from repro.ml.reduction import em_iterations_total

        self._em_baseline = float(em_iterations_total())

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe_round(
        self, kernel: "SimulationKernel", round_index: int, t: Optional[float]
    ) -> Optional[dict[str, Any]]:
        """Observe one closed round-equivalent; sample on stride rounds.

        Returns the sample row when one was taken, else ``None``.
        """
        self.rounds_observed += 1
        if round_index % self.config.stride != 0:
            return None
        sample = self._sample(kernel, round_index, t)
        self._samples.append(sample)
        self.rounds_sampled += 1
        if self.config.emit_events and kernel.event_sink is not None:
            kernel.event_sink.emit(
                Event(kind="telemetry", round=round_index, t=t, extra=dict(sample))
            )
        return sample

    def _sample(
        self, kernel: "SimulationKernel", round_index: int, t: Optional[float]
    ) -> dict[str, Any]:
        sample: dict[str, Any] = {"round": round_index}
        if t is not None:
            sample["t"] = t
        sample["live"] = len(kernel.live)
        self._convergence_gauges(kernel, sample)
        self._weight_gauges(kernel, sample)
        self._counter_windows(kernel, sample)
        self._cache_gauges(kernel, sample)
        return sample

    def _convergence_gauges(
        self, kernel: "SimulationKernel", sample: dict[str, Any]
    ) -> None:
        fingerprints: dict[bytes, int] = {}
        digests: set[bytes] = set()
        for node_id in kernel.live:
            node = getattr(kernel.protocols[node_id], "node", None)
            if node is None:
                break
            fingerprint = node.summary_fingerprint()
            if fingerprint is None:
                break
            fingerprints[fingerprint] = fingerprints.get(fingerprint, 0) + 1
            digests.update(node.summary_digests() or ())
        else:
            if fingerprints:
                sample["distinct_fingerprints"] = len(fingerprints)
                sample["distinct_summaries"] = len(digests)
                sample["quiescent_fraction"] = max(fingerprints.values()) / sum(
                    fingerprints.values()
                )
                return
        # Protocol without classifier nodes (push-sum) or scheme without
        # fingerprints: the convergence gauges are honest NaNs.
        sample["distinct_fingerprints"] = math.nan
        sample["distinct_summaries"] = math.nan
        sample["quiescent_fraction"] = math.nan

    def _weight_gauges(self, kernel: "SimulationKernel", sample: dict[str, Any]) -> None:
        node_quanta = 0
        have_quanta = True
        for node_id in kernel.live:
            node = getattr(kernel.protocols[node_id], "node", None)
            if node is None:
                have_quanta = False
                break
            node_quanta += node.total_quanta
        in_flight = 0
        if have_quanta:
            try:
                for payload in kernel.in_flight_payloads():
                    in_flight += sum(collection.quanta for collection in payload)
            except (AttributeError, TypeError):
                have_quanta = False
        if have_quanta:
            sample["node_quanta"] = node_quanta
            sample["in_flight_quanta"] = in_flight
            sample["total_quanta"] = node_quanta + in_flight
        else:
            sample["node_quanta"] = math.nan
            sample["in_flight_quanta"] = math.nan
            sample["total_quanta"] = math.nan

    def _counter_windows(
        self, kernel: "SimulationKernel", sample: dict[str, Any]
    ) -> None:
        from repro.ml.reduction import em_iterations_total

        metrics = kernel.metrics
        transport_stats = kernel.transport.stats
        current = {
            "messages": float(metrics.messages_sent),
            "payload_items": float(metrics.payload_items_sent),
            "delivered": float(metrics.messages_delivered),
            "dropped": float(metrics.messages_dropped),
            "crashed": float(metrics.crashes),
            "em_iterations": float(em_iterations_total()),
            "frames": float(transport_stats.frames_sent),
            "transport_bytes": float(transport_stats.bytes_sent),
            "reconnects": float(transport_stats.reconnects),
        }
        if self._last_counters is not None:
            previous = self._last_counters
        else:
            previous = dict.fromkeys(current, 0.0)
            previous["em_iterations"] = self._em_baseline
        sample["messages_window"] = int(current["messages"] - previous["messages"])
        sample["payload_items_window"] = int(
            current["payload_items"] - previous["payload_items"]
        )
        sample["delivered_window"] = int(current["delivered"] - previous["delivered"])
        sample["dropped_window"] = int(current["dropped"] - previous["dropped"])
        sample["crashed_window"] = int(current["crashed"] - previous["crashed"])
        sample["em_iterations_window"] = int(
            current["em_iterations"] - previous["em_iterations"]
        )
        sample["frames_window"] = int(current["frames"] - previous["frames"])
        sample["transport_bytes_window"] = int(
            current["transport_bytes"] - previous["transport_bytes"]
        )
        sample["reconnects_window"] = int(
            current["reconnects"] - previous["reconnects"]
        )
        sample["peer_count"] = transport_stats.peer_count
        cost = self._wire_cost_for(kernel)
        if cost is None:
            sample["bytes_window"] = math.nan
        else:
            header, per_item = cost
            sample["bytes_window"] = (
                sample["messages_window"] * header
                + sample["payload_items_window"] * per_item
            )
        self._last_counters = current

    def _cache_gauges(self, kernel: "SimulationKernel", sample: dict[str, Any]) -> None:
        cache = kernel.merge_cache
        if cache is None:
            sample["cache_hit_ratio"] = math.nan
            return
        consulted = cache.noop_hits + cache.misses
        sample["cache_hit_ratio"] = cache.noop_hits / consulted if consulted else math.nan

    def _wire_cost_for(
        self, kernel: "SimulationKernel"
    ) -> Optional[tuple[int, int]]:
        """Wire cost (header bytes, per-collection bytes), probed once.

        Uses the public codec API so the byte gauge matches what
        ``encode_payload`` would actually put on the radio; any scheme
        without a registered codec degrades the gauge to ``NaN`` rather
        than failing the run.
        """
        if self._wire_probed:
            return self._wire_cost
        self._wire_probed = True
        try:
            from repro.core.serialization import codec_for_scheme, payload_size_bytes

            node = None
            for node_id in kernel.live:
                node = getattr(kernel.protocols[node_id], "node", None)
                if node is not None:
                    break
            if node is None:
                return None
            collections = list(node.classification)
            if not collections:
                return None
            import numpy as np

            summary = collections[0].summary
            mean = getattr(summary, "mean", None)
            if mean is not None:
                dimension = int(np.atleast_1d(np.asarray(mean)).shape[-1])
            else:
                dimension = int(np.atleast_1d(np.asarray(summary)).shape[-1])
            codec = codec_for_scheme(node.scheme, dimension)
            header = payload_size_bytes(0, codec)
            per_item = payload_size_bytes(1, codec) - header
            self._wire_cost = (header, per_item)
        except Exception:
            self._wire_cost = None
        return self._wire_cost

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------
    @property
    def samples(self) -> list[dict[str, Any]]:
        """The retained sample rows, oldest first."""
        return list(self._samples)

    def series(self, name: str) -> list[Any]:
        """One gauge column across all retained samples."""
        return [sample.get(name) for sample in self._samples]

    def last(self) -> Optional[dict[str, Any]]:
        """The most recent sample, or ``None`` before the first."""
        return self._samples[-1] if self._samples else None

    def __len__(self) -> int:
        return len(self._samples)


class TelemetryHub:
    """Collects the recorders of every kernel built inside one scope.

    A sweep cell (or a figure script) may construct several engines; the
    hub keys each recorder by an ``engine`` ordinal so exported rows stay
    attributable.  :meth:`rows` flattens everything into exporter-ready
    records.
    """

    def __init__(self, config: Optional[TelemetryConfig] = None) -> None:
        self.config = config if config is not None else TelemetryConfig()
        self.recorders: list[TimeSeriesRecorder] = []

    def new_recorder(self) -> TimeSeriesRecorder:
        """A fresh recorder sharing the hub's config; registered here."""
        recorder = TimeSeriesRecorder(self.config)
        self.recorders.append(recorder)
        return recorder

    def rows(self) -> list[dict[str, Any]]:
        """Every sample of every recorder, tagged with its engine ordinal."""
        rows: list[dict[str, Any]] = []
        for engine_index, recorder in enumerate(self.recorders):
            for sample in recorder.samples:
                row = {"engine": engine_index}
                row.update(sample)
                rows.append(row)
        return rows


#: The ambient hub; ``None`` means telemetry is off (the default) and
#: kernels are built without a recorder.
_HUB: Optional[TelemetryHub] = None


def current_hub() -> Optional[TelemetryHub]:
    """The ambient telemetry hub, or ``None`` when telemetry is off."""
    return _HUB


def set_hub(hub: Optional[TelemetryHub]) -> Optional[TelemetryHub]:
    """Install ``hub`` as ambient; returns the previous one."""
    global _HUB
    previous = _HUB
    _HUB = hub
    return previous


@contextmanager
def telemetry(
    config: Optional[TelemetryConfig] = None,
    hub: Optional[TelemetryHub] = None,
) -> Iterator[TelemetryHub]:
    """Scope within which new kernels record convergence time series.

    Mirrors :func:`repro.obs.context.tracing`: any
    :class:`~repro.network.kernel.SimulationKernel` constructed inside
    the ``with`` block (without an explicit ``telemetry`` argument)
    attaches a recorder from this hub.  The previous ambient hub is
    restored on exit, so scopes nest.
    """
    active = hub if hub is not None else TelemetryHub(config)
    previous = set_hub(active)
    try:
        yield active
    finally:
        set_hub(previous)
