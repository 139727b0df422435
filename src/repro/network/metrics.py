"""Instrumentation counters for network engines.

Purely observational: engines update these as a side effect and
benchmarks/ tests read them.  Message complexity is one of the paper's
selling points (message size depends on dataset parameters, never on
``n``), and the counters make that measurable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.fingerprint import MergeCache
    from repro.network.transport import TransportStats

__all__ = ["NetworkMetrics"]


@dataclass
class NetworkMetrics:
    """Counters accumulated over an engine's lifetime."""

    rounds: int = 0
    events: int = 0
    messages_sent: int = 0
    messages_delivered: int = 0
    messages_dropped: int = 0
    payload_items_sent: int = 0
    crashes: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_evictions: int = 0
    cache_noop_hits: int = 0
    quiescent_rounds: int = 0
    frames_sent: int = 0
    frames_received: int = 0
    bytes_sent: int = 0
    bytes_received: int = 0
    reconnects: int = 0
    peer_count: int = 0
    per_round_messages: list[int] = field(default_factory=list)

    def record_send(self, payload_items: int = 1) -> None:
        self.messages_sent += 1
        self.payload_items_sent += payload_items

    def record_delivery(self) -> None:
        self.messages_delivered += 1

    def record_drop(self) -> None:
        self.messages_dropped += 1

    def close_round(self, messages_this_round: int) -> None:
        self.rounds += 1
        self.per_round_messages.append(messages_this_round)

    def sync_cache(self, cache: "MergeCache") -> None:
        """Mirror the run's merge-cache counters (kernel calls this at
        every round close; the cache is shared, the metrics are the
        engine-scoped view of it)."""
        self.cache_hits = cache.hits
        self.cache_misses = cache.misses
        self.cache_evictions = cache.evictions
        self.cache_noop_hits = cache.noop_hits

    def sync_transport(self, stats: "TransportStats") -> None:
        """Mirror the transport's counters (frames, bytes, reconnects,
        peers).  Like :meth:`sync_cache`, the kernel calls this at every
        round close; the transport owns the counters, the metrics are
        the engine-scoped view of them.  For the in-memory transport,
        bytes stay zero (nothing is serialised) and ``peer_count``
        counts the distinct directed edges used so far; the wire transports report
        real byte counts and live peers — see ``docs/deployment.md``.
        """
        self.frames_sent = stats.frames_sent
        self.frames_received = stats.frames_received
        self.bytes_sent = stats.bytes_sent
        self.bytes_received = stats.bytes_received
        self.reconnects = stats.reconnects
        self.peer_count = stats.peer_count

    def scalar_snapshot(self, include_cache: bool = True) -> dict[str, int]:
        """The scalar counters only — no per-round series.

        This is the payload of the kernel's final ``metrics`` event on a
        quiescence early exit.  ``include_cache=False`` drops the
        ``cache_*`` mirrors: those counters differ between merge-cache
        configurations whose simulation results are byte-identical, and
        the trace determinism gates compare exactly such runs.
        """
        snapshot = {
            "rounds": self.rounds,
            "events": self.events,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "payload_items_sent": self.payload_items_sent,
            "crashes": self.crashes,
            "quiescent_rounds": self.quiescent_rounds,
        }
        if include_cache:
            snapshot.update(
                cache_hits=self.cache_hits,
                cache_misses=self.cache_misses,
                cache_evictions=self.cache_evictions,
                cache_noop_hits=self.cache_noop_hits,
            )
        return snapshot

    def as_dict(self) -> dict[str, object]:
        """Full snapshot, including the per-round message series.

        Besides the raw counters this carries ``per_round_messages`` and
        the derived per-round statistics (mean/max messages per round),
        so benchmark result files capture the paper's message-complexity
        claim without custom bookkeeping.
        """
        per_round = list(self.per_round_messages)
        return {
            "rounds": self.rounds,
            "events": self.events,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "payload_items_sent": self.payload_items_sent,
            "crashes": self.crashes,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_evictions": self.cache_evictions,
            "cache_noop_hits": self.cache_noop_hits,
            "quiescent_rounds": self.quiescent_rounds,
            "frames_sent": self.frames_sent,
            "frames_received": self.frames_received,
            "bytes_sent": self.bytes_sent,
            "bytes_received": self.bytes_received,
            "reconnects": self.reconnects,
            "peer_count": self.peer_count,
            "per_round_messages": per_round,
            "mean_messages_per_round": (
                sum(per_round) / len(per_round) if per_round else 0.0
            ),
            "max_messages_per_round": max(per_round, default=0),
        }
