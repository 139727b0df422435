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
  is merged into a single row.  It is :meth:`ClassifierNode.defer_receive`
  run alone: a synchronous round calls that split form on every receiver,
  so the round's partitions and merges run in one batch.
  :meth:`ClassifierNode.receive` takes a collection list (a decoded wire
  frame, a test's hand-built input), packs it and hands it on.

The node is transport-agnostic: neighbour choice, fairness, and message
delivery live in :mod:`repro.network` and :mod:`repro.protocols`.  This
separation lets the same node run under round-based gossip (the paper's
simulation methodology) and fully asynchronous event-driven executions (the
setting of the convergence proof).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.core.classification import Classification
from repro.core.collection import Collection
from repro.core.fingerprint import MergeCache, combine_digests, state_fingerprint_of
from repro.core.mixture import MixtureVector
from repro.core.packed import PackedPayload, PackedState, unpack_collections
from repro.core.receive import PendingSolve, QueuedBlock, ReceiveBatch, takes_fast_path
from repro.core.scheme import SummaryScheme, validate_partition
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
        return {
            "splits": self.splits,
            "merges": self.merges,
            "messages_made": self.messages_made,
            "batches_received": self.batches_received,
            "collections_received": self.collections_received,
            "partition_calls": self.partition_calls,
            "fastpath_hits": self.fastpath_hits,
            "fastpath_misses": self.fastpath_misses,
            "cache_memo_hits": self.cache_memo_hits,
            "cache_noop_hits": self.cache_noop_hits,
            "cache_misses": self.cache_misses,
        }


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

    def _adopt(self, state: PackedState) -> None:
        """Make ``state`` the node's classification."""
        self._packed = state
        self._collections = None
        self._summary_fp = None
        self._state_fp = None

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

        :meth:`defer_receive` run as a round of one: decide, solve what
        was queued, complete.  One problem is posed, so a full solve runs
        the scheme's scalar ``partition_packed``.
        """
        batch = ReceiveBatch()
        complete = self.defer_receive(payloads, batch)
        batch.solve()
        complete()

    def defer_receive(
        self, payloads: Sequence[PackedPayload], batch: ReceiveBatch
    ) -> Callable[[], None]:
        """Decide one receive now; return the call that completes it.

        The decisions are :mod:`repro.core.receive`'s, taken in this
        order: the identity fast path (below the compression bound), the
        certified no-op, then the full solve.  A receive whose incoming
        digests are all local ones is queued on ``batch`` as a no-op
        candidate, which ``batch.solve()`` answers or queues for the full
        solve; any other full solve is queued at once.  Nothing is adopted
        here: the returned call adopts the rows after ``batch.solve()``,
        with the node's own work (aux rows, stats, events; ``validate``
        runs in the batch).  Every layer yields the bytes, stats deltas
        and ``merge`` events the full solve would; the parity suites pin
        the result against the test-side Algorithm 1 oracle.
        """
        stats = self.stats
        stats.batches_received += 1
        total_in = 0
        for payload in payloads:
            total_in += len(payload)
        stats.collections_received += total_in
        if total_in == 0:
            return _unchanged
        local = self._packed
        scheme = self.scheme
        k = self.k
        pooled_size = len(local) + total_in
        registry = current_registry()
        if pooled_size <= k:
            pooled = PackedState.concat_many((local, *payloads))
            incoming_quanta = pooled.quanta[len(local) :]
            if takes_fast_path(scheme, k, self.quantization, local.quanta, incoming_quanta):
                if self.validate:
                    identity = [[index] for index in range(pooled_size)]
                    validate_partition(identity, pooled, k, self.quantization)
                stats.fastpath_hits += 1
                if registry is not None:
                    registry.inc("partition.fastpath_hit")
                return partial(self._adopt_fast, pooled)
        stats.fastpath_misses += 1
        if registry is not None:
            registry.inc("partition.fastpath_miss")
        cache = self.merge_cache
        if cache is not None:
            local_digests = set(self._row_digests())
            all_local = True
            for payload in payloads:
                if payload.row_digests is None:
                    payload.row_digests = tuple(scheme.digest_rows(payload.columns))
                all_local = all_local and local_digests.issuperset(payload.row_digests)
            if all_local and pooled_size > k:
                pending = batch.queue_candidate(
                    scheme, k, self.quantization, self.validate, local, payloads, cache
                )
                return partial(self._adopt_candidate, pending, cache, pooled_size)
            self._record_miss(cache, registry)
        return partial(
            self._adopt_solved,
            *batch.queue(scheme, k, self.quantization, self.validate, local, payloads),
        )

    def _record_miss(self, cache: MergeCache, registry: Any) -> None:
        cache.record_miss()
        self.stats.cache_misses += 1
        if registry is not None:
            registry.inc("merge_cache.miss")

    def _adopt_fast(self, pooled: PackedState) -> None:
        """Complete a fast-path receive: the pooled rows are the output."""
        self._adopt(pooled)
        if self.event_sink is not None:
            self._emit_receive((), "fastpath", len(pooled))

    def _adopt_candidate(self, pending: PendingSolve, cache: MergeCache, pooled_size: int) -> None:
        """Complete a no-op candidate as its batch decided it.  A certified
        no-op's rows (arrays shared, never mutated in place) are adopted
        with the stats and events of the full solve they stand for."""
        registry = current_registry()
        rows = pending.rows
        if rows is None:
            self._record_miss(cache, registry)
            self._adopt_solved(*pending.solve)  # type: ignore[misc]
            return
        cache.record_noop()
        self._adopt(PackedState(quanta=rows.quanta, columns=rows.columns, row_digests=rows.tokens))
        stats = self.stats
        stats.partition_calls += 1
        stats.merges += rows.merges
        stats.cache_noop_hits += 1
        if registry is not None:
            registry.inc("merge_cache.noop")
        if self.event_sink is not None:
            self._emit_receive(rows.group_sizes, "cache", pooled_size, "noop")

    def _adopt_solved(self, block: QueuedBlock, problem: int) -> None:
        """Complete a full solve once its block has been solved (and validated)."""
        solved = block.solved
        assert solved is not None
        tokens, quanta, columns, sizes = solved.problem(problem)
        stats = self.stats
        stats.partition_calls += 1
        stats.merges += len(sizes) - sizes.count(1)
        if self.event_sink is not None:
            self._emit_receive(sizes)
        out_aux = None
        if block.aux is not None:
            aux = block.aux[block.bounds[problem] :]
            out_aux = np.stack(
                [
                    aux[group[0]]
                    if len(group) == 1
                    else MixtureVector.sum_of(MixtureVector(aux[i]) for i in group).components
                    for group in solved.groups(problem)
                ]
            )
        self._adopt(PackedState(quanta=quanta, columns=columns, row_digests=tokens, aux=out_aux))

    def _emit_receive(
        self,
        group_sizes: Sequence[int],
        kind: Optional[str] = None,
        pooled_size: int = 0,
        path: Optional[str] = None,
    ) -> None:
        """One ``merge`` event per output row built from several, then the
        answering layer's ``kind`` event (``fastpath`` or ``cache``), if any."""
        sink = self.event_sink
        assert sink is not None
        for size in group_sizes:
            if size > 1:
                sink.emit(Event(kind="merge", node=self.node_id, items=size))
        if kind is not None:
            sink.emit(
                Event(
                    kind=kind,
                    node=self.node_id,
                    items=pooled_size,
                    extra=None if path is None else {"path": path},
                )
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ClassifierNode(id={self.node_id}, collections={len(self._packed)}, "
            f"quanta={self.total_quanta})"
        )
