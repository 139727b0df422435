"""The generic distributed classification algorithm (Algorithm 1).

A :class:`ClassifierNode` holds a node's entire protocol state: its current
classification (a set of weighted collection summaries), kept as one
:class:`~repro.core.packed.PackedState`.  Two operations mirror the two
atomic blocks of Algorithm 1:

- :meth:`ClassifierNode.make_message` is the periodic split-and-send block
  (lines 3-7): every collection's weight is halved on the quantum lattice,
  one share stays, the other is returned for transmission.
- :meth:`ClassifierNode.receive_packed` is the receipt handler (lines
  8-11): the incoming rows are pooled with the local ones, the scheme's
  ``partition_packed`` groups them into at most ``k`` sets, and each set
  is merged into a single row.  It is a round of one: a synchronous
  round poses every receiver's receive (:meth:`ClassifierNode.defer_receive`)
  to the one round driver, :func:`repro.core.receive.receive_round`.
  :meth:`ClassifierNode.receive` takes a collection list (a decoded wire
  frame, a test's hand-built input), packs it and hands it on.

The node is transport-agnostic: neighbour choice, fairness, and message
delivery live in :mod:`repro.network` and :mod:`repro.protocols`.  This
separation lets the same node run under round-based gossip (the paper's
simulation methodology) and fully asynchronous event-driven executions (the
setting of the convergence proof).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.classification import Classification
from repro.core.collection import Collection
from repro.core.fingerprint import MergeCache, combine_digests, state_fingerprint_of
from repro.core.mixture import MixtureVector
from repro.core.packed import PackedPayload, PackedState, unpack_collections
from repro.core.receive import FAST, SOLVED, ReceiveBatch
from repro.core.scheme import SummaryScheme
from repro.core.weights import Quantization
from repro.obs.context import current_sink
from repro.obs.events import Event, EventSink
from repro.obs.profiling import current_registry

__all__ = ["ClassifierNode", "NodeStats"]


def _unchanged() -> None:
    """The completion of a receive with nothing left to do."""


@dataclass(slots=True)
class NodeStats:
    """Instrumentation counters; purely observational.

    ``cache_memo_hits`` always reads 0: no receive is memoised.  The
    field stays because the end-to-end benchmark's kernel workloads
    read it.
    """

    splits: int = 0
    merges: int = 0
    messages_made: int = 0
    batches_received: int = 0
    collections_received: int = 0
    partition_calls: int = 0
    fastpath_hits: int = 0
    fastpath_misses: int = 0
    cache_memo_hits: int = 0
    cache_noop_hits: int = 0
    cache_misses: int = 0

    def as_dict(self) -> dict[str, int]:
        return asdict(self)


class ClassifierNode:
    """State machine for one node of the generic algorithm.

    Parameters
    ----------
    node_id:
        This node's index in ``0..n-1``; doubles as the input-value index
        for auxiliary tracking.
    value:
        The input value taken at time 0 (any object the scheme accepts).
    scheme:
        The instantiation: summary domain plus ``val_to_summary`` /
        ``merge_set`` / ``partition`` / ``distance``.
    k:
        Maximum number of collections per classification (the compression
        bound).
    quantization:
        The weight lattice; defaults to a 2**40-quanta unit.
    track_aux:
        When true, every collection carries its mixture-space vector
        (requires ``n_inputs``), held as the packed state's ``aux`` rows.
        Used by tests and provenance-based measurements; costs O(n)
        memory per collection, and turns the merge cache off for this
        node (aux vectors are not content-addressed).
    n_inputs:
        Total number of input values in the system; only needed when
        ``track_aux`` is set.
    validate:
        When true, every grouping of a pooled set — the fast path's
        identity groups included — is checked against Algorithm 1's
        structural rules.  On by default in tests, off in large
        benchmarks.
    event_sink:
        Destination for this node's ``split``/``merge``
        :class:`~repro.obs.events.Event` records; defaults to the
        ambient tracing sink (``None`` unless a
        :func:`repro.obs.context.tracing` block is active).
    merge_cache:
        The run-scoped :class:`~repro.core.fingerprint.MergeCache`
        shared by every node of a network, or ``None`` to disable the
        certified no-op short-circuit for this node.  Only consulted
        when the scheme declares ``supports_fingerprints``; a certified
        no-op is byte-identical to the uncached pipeline (see
        ``docs/performance.md``).
    """

    def __init__(
        self,
        node_id: int,
        value: Any,
        scheme: SummaryScheme,
        k: int,
        quantization: Optional[Quantization] = None,
        track_aux: bool = False,
        n_inputs: Optional[int] = None,
        validate: bool = False,
        event_sink: Optional[EventSink] = None,
        merge_cache: Optional[MergeCache] = None,
    ) -> None:
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        self.node_id = node_id
        self.scheme = scheme
        self.k = k
        self.quantization = quantization or Quantization()
        self.validate = validate
        self.stats = NodeStats()
        self.event_sink = event_sink if event_sink is not None else current_sink()
        self._track_aux = bool(track_aux)
        self.merge_cache = (
            merge_cache
            if scheme.supports_fingerprints and not self._track_aux
            else None
        )
        aux = None
        if track_aux:
            if n_inputs is None:
                raise ValueError("track_aux requires n_inputs")
            unit = MixtureVector.unit(node_id, n_inputs, self.quantization.unit)
            aux = unit.components[None, :]
        self._packed = PackedState(
            quanta=np.array([self.quantization.unit], dtype=np.int64),
            columns=scheme.pack_summaries([scheme.val_to_summary(value)]),
            aux=aux,
        )
        # Derived views, all lazy and invalidated on state change: the
        # collection objects observers read, and the two fingerprints.
        self._collections: Optional[list[Collection]] = None
        self._summary_fp: Optional[bytes] = None
        self._state_fp: Optional[bytes] = None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def classification(self) -> Classification:
        """The node's current output (Definition 4's ``classification_i(t)``)."""
        if self._collections is None:
            self._collections = unpack_collections(self.scheme, self._packed)
        return Classification(self._collections)

    @property
    def total_quanta(self) -> int:
        return int(self._packed.quanta.sum())

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def _row_digests(self) -> tuple[bytes, ...]:
        """Per-row digests of the packed state, computed at most once."""
        packed = self._packed
        if packed.row_digests is None:
            packed.row_digests = tuple(self.scheme.digest_rows(packed.columns))
        return packed.row_digests

    def summary_digests(self) -> Optional[tuple[bytes, ...]]:
        """Per-collection content digests, aligned with the classification.

        ``None`` when the scheme does not support fingerprints.
        """
        if not self.scheme.supports_fingerprints:
            return None
        return self._row_digests()

    def summary_fingerprint(self) -> Optional[bytes]:
        """Order-insensitive digest of *which* summaries the node holds.

        Ignores quanta, so splitting leaves it unchanged — this is the
        fingerprint the kernel's quiescence probe compares, since in a
        structurally converged run only quanta still move.
        """
        if not self.scheme.supports_fingerprints:
            return None
        if self._summary_fp is None:
            self._summary_fp = combine_digests(self._row_digests())
        return self._summary_fp

    def state_fingerprint(self) -> Optional[bytes]:
        """Order-insensitive digest of the full ``(summary, quanta)`` state."""
        if not self.scheme.supports_fingerprints:
            return None
        if self._state_fp is None:
            self._state_fp = state_fingerprint_of(
                zip(self._row_digests(), self._packed.quanta.tolist())
            )
        return self._state_fp

    # ------------------------------------------------------------------
    # Algorithm 1, lines 3-7: split
    # ------------------------------------------------------------------
    def make_message(self) -> PackedPayload:
        """Halve every collection; keep one share, return the other.

        The returned payload is the message for one neighbour.  It is
        empty (falsy) when every local collection holds a single quantum
        (then nothing can be sent without violating quantisation);
        callers should skip transmission in that case.

        ``Collection.split`` keeps ``q - q // 2`` and sends ``q // 2``
        (nothing at one quantum); the same arithmetic runs here on the
        whole quanta vector at once, and aux rows scale by the same
        ratios.  Summaries do not change, so the payload *shares* the
        column arrays — zero-copy, safe because packed columns are never
        mutated in place — except when some rows have nothing to send,
        where the sent rows are gathered out.
        """
        packed = self._packed
        quanta = packed.quanta
        sent = quanta >> 1  # q // 2 exactly, for non-negative int64
        kept = quanta - sent
        shares = sent.tolist()
        kept_aux = sent_aux = None
        if packed.aux is not None:
            # MixtureVector.scaled's arithmetic, one Python ratio per row.
            totals = quanta.tolist()
            kept_aux = packed.aux * np.array(
                [share / total for share, total in zip(kept.tolist(), totals)]
            )[:, None]
            sent_aux = packed.aux * np.array(
                [share / total for share, total in zip(shares, totals)]
            )[:, None]
        self._packed = PackedState(
            quanta=kept, columns=packed.columns, row_digests=packed.row_digests, aux=kept_aux
        )
        # Splitting changes quanta only: the row digests and the summary
        # fingerprint survive, the collection view and state fingerprint
        # do not.
        self._collections = None
        self._state_fp = None
        self.stats.splits += 1
        # Counting on the list: two numpy calls cost more than the scan
        # at k rows.
        n_sent = len(shares) - shares.count(0)
        if n_sent == len(shares):
            payload = PackedPayload(
                scheme=self.scheme,
                quanta=sent,
                columns=packed.columns,
                row_digests=packed.row_digests,
                aux=sent_aux,
            )
        else:
            mask = sent > 0
            digests = None
            if packed.row_digests is not None:
                digests = tuple(
                    digest for digest, share in zip(packed.row_digests, shares) if share
                )
            payload = PackedPayload(
                scheme=self.scheme,
                quanta=sent[mask],
                columns={name: col[mask] for name, col in packed.columns.items()},
                row_digests=digests,
                aux=None if sent_aux is None else sent_aux[mask],
            )
        if n_sent:
            self.stats.messages_made += 1
        if self.event_sink is not None:
            self.event_sink.emit(Event(kind="split", node=self.node_id, items=n_sent))
        return payload

    # ------------------------------------------------------------------
    # Algorithm 1, lines 8-11: receive and merge
    # ------------------------------------------------------------------
    def receive(self, incoming: "Sequence[Collection] | PackedPayload") -> None:
        """Receive one batch of collections: pack it, then :meth:`receive_packed`.

        ``incoming`` may concatenate the payloads of several messages: the
        paper's simulations have nodes that hear from multiple neighbours
        in a round "accumulate all the received collections and run EM once
        for the entire set" (Section 5.3), and batching is also how the
        asynchronous handler processes one message at a time.  A
        :class:`~repro.core.packed.PackedPayload` is passed on as-is.
        """
        if not isinstance(incoming, PackedPayload):
            incoming = self._payload_of(list(incoming))
        self.receive_packed((incoming,))

    def _payload_of(self, collections: list[Collection]) -> PackedPayload:
        """Pack a collection list into payload rows for the pipeline."""
        quanta = np.array([c.quanta for c in collections], dtype=np.int64)
        if not collections:
            columns = {name: col[:0] for name, col in self._packed.columns.items()}
            return PackedPayload(scheme=self.scheme, quanta=quanta, columns=columns)
        aux = None
        if self._track_aux:
            if any(c.aux is None for c in collections):
                raise ValueError("an aux-tracking node received a collection without aux")
            aux = np.stack([c.aux.components for c in collections])  # type: ignore[union-attr]
        return PackedPayload(
            scheme=self.scheme,
            quanta=quanta,
            columns=self.scheme.pack_summaries([c.summary for c in collections]),
            aux=aux,
        )

    def receive_packed(self, payloads: Sequence[PackedPayload]) -> None:
        """Pool the payloads' rows with local state, partition, and merge.

        :meth:`defer_receive` run as a round of one, whose slab views the
        node's arrays; a full solve runs the scheme's scalar
        ``partition_packed``.
        """
        batch = ReceiveBatch()
        complete = self.defer_receive(payloads, batch)
        batch.solve()
        complete()

    def defer_receive(
        self, payloads: Sequence[PackedPayload], batch: ReceiveBatch
    ) -> Callable[[], None]:
        """Pose one receive on ``batch``; return the call that adopts its answer.

        ``batch.solve()`` answers it through the round driver
        :func:`repro.core.receive.receive_round`, and every answer yields
        the bytes, stats deltas and ``merge`` events of the full solve (the
        parity suites pin them against the test-side Algorithm 1 oracle).
        With the merge cache the row digests are computed here, and a
        receive pooling more than ``k`` rows, not all local, counts its
        cache miss at once.
        """
        stats = self.stats
        stats.batches_received += 1
        total_in = 0
        for payload in payloads:
            total_in += len(payload.quanta)
        stats.collections_received += total_in
        if total_in == 0:
            return _unchanged
        local = self._packed
        cache = self.merge_cache
        missed = False
        if cache is not None:
            local_digests = set(self._row_digests())
            for payload in payloads:
                if payload.row_digests is None:
                    payload.row_digests = tuple(self.scheme.digest_rows(payload.columns))
                missed = missed or not local_digests.issuperset(payload.row_digests)
            missed = missed and len(local.quanta) + total_in > self.k
            if missed:
                cache.record_miss()
                stats.cache_misses += 1
                registry = current_registry()
                if registry is not None:
                    registry.inc("merge_cache.miss")
        return partial(self._adopt_receive, batch, batch.pose(self, local, payloads, total_in), missed)

    def _adopt_receive(self, batch: ReceiveBatch, index: int, missed: bool) -> None:
        """Adopt receive ``index`` of ``batch`` with the node's own work (stats,
        events, aux rows); answers share arrays, never mutated in place."""
        result, position, payloads = batch.answer(index)
        kind, tokens, quanta, columns, sizes = result.outcome(position)
        stats = self.stats
        registry = current_registry()
        cache = self.merge_cache
        if kind == FAST:
            stats.fastpath_hits += 1
        else:
            stats.fastpath_misses += 1
            stats.partition_calls += 1
            stats.merges += len(sizes) - sizes.count(1)
        if registry is not None:
            registry.inc("partition.fastpath_hit" if kind == FAST else "partition.fastpath_miss")
        if kind == SOLVED:
            if cache is not None and not missed:
                cache.record_miss()
                stats.cache_misses += 1
                if registry is not None:
                    registry.inc("merge_cache.miss")
        elif kind != FAST:
            assert cache is not None
            cache.record_noop()
            stats.cache_noop_hits += 1
            if registry is not None:
                registry.inc("merge_cache.noop")
        sink = self.event_sink
        if sink is not None:
            for size in sizes:
                if size > 1:
                    sink.emit(Event(kind="merge", node=self.node_id, items=size))
            if kind != SOLVED:
                sink.emit(
                    Event(
                        kind="fastpath" if kind == FAST else "cache",
                        node=self.node_id,
                        items=sum(sizes),
                        extra=None if kind == FAST else {"path": "noop"},
                    )
                )
        aux = self._packed.aux
        if aux is not None:
            aux = np.concatenate([aux, *(payload.aux for payload in payloads)])
            if kind != FAST:
                assert result.block is not None
                aux = np.stack(
                    [
                        aux[group[0]]
                        if len(group) == 1
                        else MixtureVector.sum_of(MixtureVector(aux[i]) for i in group).components
                        for group in result.block.groups(int(result.at[position]))
                    ]
                )
        self._packed = PackedState(quanta=quanta, columns=columns, row_digests=tokens, aux=aux)
        self._collections = None
        self._summary_fp = None
        self._state_fp = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClassifierNode(id={self.node_id}, collections={len(self._packed)}, "
            f"quanta={self.total_quanta})"
        )
