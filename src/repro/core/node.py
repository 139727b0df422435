"""The generic distributed classification algorithm (Algorithm 1).

A :class:`ClassifierNode` holds a node's entire protocol state: its current
classification (a set of weighted collection summaries).  Two operations
mirror the two atomic blocks of Algorithm 1:

- :meth:`ClassifierNode.make_message` is the periodic split-and-send block
  (lines 3-7): every collection's weight is halved on the quantum lattice,
  one share stays, the other is returned for transmission.
- :meth:`ClassifierNode.receive` is the receipt handler (lines 8-11): the
  incoming collections are pooled with the local ones, the scheme's
  ``partition`` groups them into at most ``k`` sets, and each set is merged
  into a single collection via the scheme's ``merge_set``.

The node is transport-agnostic: neighbour choice, fairness, and message
delivery live in :mod:`repro.network` and :mod:`repro.protocols`.  This
separation lets the same node run under round-based gossip (the paper's
simulation methodology) and fully asynchronous event-driven executions (the
setting of the convergence proof).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any, Optional, Sequence

import numpy as np

from repro.core.classification import Classification
from repro.core.collection import Collection
from repro.core.fingerprint import (
    CachedReceive,
    MergeCache,
    combine_digests,
    state_fingerprint_of,
)
from repro.core.mixture import MixtureVector
from repro.core.packed import PackedPayload, PackedState
from repro.core.scheme import SummaryScheme, validate_partition
from repro.core.weights import Quantization
from repro.native import native_enabled
from repro.obs.context import current_sink
from repro.obs.events import Event, EventSink
from repro.obs.profiling import current_registry, span

__all__ = ["ClassifierNode", "NodeStats", "packed_default"]


def packed_default() -> bool:
    """Whether nodes run the packed (array-native) hot path by default.

    On unless ``REPRO_PACKED`` is set to ``0``/``false``/``no``/``off``.
    The parity suite flips this to pin the packed path against the
    object-path conformance reference.
    """
    return os.environ.get("REPRO_PACKED", "1").strip().lower() not in {
        "0",
        "false",
        "no",
        "off",
    }


@dataclass(slots=True)
class NodeStats:
    """Instrumentation counters; purely observational."""

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
        (requires ``n_inputs``).  Used by tests and provenance-based
        measurements; costs O(n) memory per collection.
    n_inputs:
        Total number of input values in the system; only needed when
        ``track_aux`` is set.
    validate:
        When true, every partition returned by the scheme is checked
        against Algorithm 1's structural rules.  On by default in tests,
        off in large benchmarks.
    packed:
        When true and the scheme declares ``supports_packed``, the node
        carries a structure-of-arrays :class:`~repro.core.packed.PackedState`
        alongside its collection list and routes ``partition`` / ``merge_set``
        through the scheme's array-native entry points.  ``None`` (the
        default) defers to :func:`packed_default` (the ``REPRO_PACKED``
        environment variable).  Classifications are byte-identical either
        way; see ``docs/performance.md``.
    event_sink:
        Destination for this node's ``split``/``merge``
        :class:`~repro.obs.events.Event` records; defaults to the
        ambient tracing sink (``None`` unless a
        :func:`repro.obs.context.tracing` block is active).
    merge_cache:
        The run-scoped :class:`~repro.core.fingerprint.MergeCache`
        shared by every node of a network, or ``None`` to disable
        receive memoisation and the certified no-op short-circuit for
        this node.  Only consulted when the scheme declares
        ``supports_fingerprints``; cache hits are byte-identical to the
        uncached pipeline (see ``docs/performance.md``).
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
        packed: Optional[bool] = None,
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
        if packed is None:
            packed = packed_default()
        self.packed = bool(packed) and scheme.supports_packed
        self.merge_cache = (
            merge_cache if scheme.supports_fingerprints else None
        )
        self._track_aux = bool(track_aux)
        # The native tier: packed state is *authoritative* and messages
        # are zero-copy PackedPayload views; collection objects are
        # materialised lazily, only when observation code asks.  Requires
        # the packed entry points plus content digests, and is disabled
        # under aux tracking / validation (both need real objects in the
        # pipeline).  Byte-parity with the object path is pinned by the
        # native parity suite; REPRO_NATIVE=0 turns the tier off.
        self.native = (
            self.packed
            and scheme.supports_fingerprints
            and not self._track_aux
            and not validate
            and native_enabled()
        )
        # Content-address caches: per-collection digests plus the two
        # derived fingerprints, all lazy and invalidated on state change.
        self._digests: Optional[list[bytes]] = None
        self._summary_fp: Optional[bytes] = None
        self._state_fp: Optional[bytes] = None

        aux = None
        if track_aux:
            if n_inputs is None:
                raise ValueError("track_aux requires n_inputs")
            aux = MixtureVector.unit(node_id, n_inputs, self.quantization.unit)
        initial = Collection(
            summary=scheme.val_to_summary(value),
            quanta=self.quantization.unit,
            aux=aux,
        )
        # In native mode the packed state is authoritative and this list
        # may be None (stale) until an observer materialises it.
        self._collections: Optional[list[Collection]] = [initial]
        self._packed: Optional[PackedState] = (
            self._pack(self._collections) if self.packed else None
        )

    def _pack(self, collections: Sequence[Collection]) -> PackedState:
        """Build the structure-of-arrays view of ``collections``."""
        quanta = np.fromiter(
            (collection.quanta for collection in collections),
            dtype=np.int64,
            count=len(collections),
        )
        columns = self.scheme.pack_summaries(
            [collection.summary for collection in collections]
        )
        return PackedState(quanta=quanta, columns=columns)

    def _materialize(self) -> list[Collection]:
        """The collection list, rebuilt from packed rows when stale.

        The native tier keeps only the packed state current through the
        hot loop; summary objects are reconstructed here — with the same
        bytes (``unpack_summary`` inverts ``pack_summaries`` exactly) —
        the first time an observer needs them.
        """
        if self._collections is None:
            packed = self._packed
            assert packed is not None
            unpack = self.scheme.unpack_summary
            digests: Sequence[Optional[bytes]]
            digests = packed.row_digests or (None,) * len(packed)
            self._collections = [
                Collection(
                    summary=unpack(packed.columns, index),
                    quanta=quanta,
                    digest=digest,
                )
                for index, (quanta, digest) in enumerate(
                    zip(packed.quanta.tolist(), digests)
                )
            ]
        return self._collections

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    @property
    def classification(self) -> Classification:
        """The node's current output (Definition 4's ``classification_i(t)``)."""
        return Classification(self._materialize())

    @property
    def total_quanta(self) -> int:
        if self._collections is None:
            assert self._packed is not None
            return int(self._packed.quanta.sum())
        return sum(collection.quanta for collection in self._collections)

    # ------------------------------------------------------------------
    # Content addressing
    # ------------------------------------------------------------------
    def _set_digests(self, digests: Optional[list[bytes]]) -> None:
        self._digests = digests
        self._summary_fp = None
        self._state_fp = None
        if digests is not None and self._collections is not None:
            # Stamp each collection so downstream receivers (split shares
            # carry the digest along) can skip re-hashing the summary.
            for collection, digest in zip(self._collections, digests):
                collection.digest = digest

    def _ensure_digests(self) -> list[bytes]:
        if self._digests is None:
            if self._collections is None:
                self._digests = list(self._ensure_packed_digests())
            else:
                digest = self.scheme.summary_digest
                self._digests = [digest(c.summary) for c in self._collections]
        return self._digests

    def _ensure_packed_digests(self) -> tuple[bytes, ...]:
        """Per-row digests of the packed state, computed at most once."""
        packed = self._packed
        assert packed is not None
        if packed.row_digests is None:
            if self._digests is not None and len(self._digests) == len(packed):
                packed.row_digests = tuple(self._digests)
            else:
                digest_row = self.scheme.digest_row
                packed.row_digests = tuple(
                    digest_row(packed.columns, index) for index in range(len(packed))
                )
        return packed.row_digests

    def summary_digests(self) -> Optional[tuple[bytes, ...]]:
        """Per-collection content digests, aligned with the classification.

        ``None`` when the scheme does not support fingerprints.
        """
        if not self.scheme.supports_fingerprints:
            return None
        return tuple(self._ensure_digests())

    def summary_fingerprint(self) -> Optional[bytes]:
        """Order-insensitive digest of *which* summaries the node holds.

        Ignores quanta, so splitting leaves it unchanged — this is the
        fingerprint the kernel's quiescence probe compares, since in a
        structurally converged run only quanta still move.
        """
        if not self.scheme.supports_fingerprints:
            return None
        if self._summary_fp is None:
            self._summary_fp = combine_digests(self._ensure_digests())
        return self._summary_fp

    def state_fingerprint(self) -> Optional[bytes]:
        """Order-insensitive digest of the full ``(summary, quanta)`` state."""
        if not self.scheme.supports_fingerprints:
            return None
        if self._state_fp is None:
            if self._collections is None:
                assert self._packed is not None
                quanta: Sequence[int] = self._packed.quanta.tolist()
            else:
                quanta = [collection.quanta for collection in self._collections]
            self._state_fp = state_fingerprint_of(zip(self._ensure_digests(), quanta))
        return self._state_fp

    # ------------------------------------------------------------------
    # Algorithm 1, lines 3-7: split
    # ------------------------------------------------------------------
    def make_message(self) -> "list[Collection] | PackedPayload":
        """Halve every collection; keep one share, return the other.

        The returned sequence is the message payload for one neighbour.
        It may be empty when every local collection holds a single quantum
        (then nothing can be sent without violating quantisation); callers
        should skip transmission in that case.  On the native tier the
        payload is a :class:`~repro.core.packed.PackedPayload` — column
        views shared with the local packed state, no objects built — which
        still quacks like the historical collection list.
        """
        if self.native:
            return self._make_message_packed()
        kept: list[Collection] = []
        sent: list[Collection] = []
        assert self._collections is not None
        for collection in self._collections:
            kept_share, sent_share = collection.split(self.quantization)
            kept.append(kept_share)
            if sent_share is not None:
                sent.append(sent_share)
        self._collections = kept
        if self._packed is not None:
            # Splitting halves weights but leaves summaries untouched, so
            # only the quanta column changes: kept = q - q // 2 (identity
            # at one quantum, matching Collection.split).
            quanta = self._packed.quanta
            self._packed = PackedState(
                quanta=quanta - quanta // 2, columns=self._packed.columns
            )
        self.stats.splits += 1
        # Splitting changes quanta only: per-collection digests and the
        # summary fingerprint survive, the state fingerprint does not.
        self._state_fp = None
        if sent:
            self.stats.messages_made += 1
        if self.event_sink is not None:
            self.event_sink.emit(Event(kind="split", node=self.node_id, items=len(sent)))
        return sent

    def _make_message_packed(self) -> PackedPayload:
        """Native split: quanta arithmetic only, column arrays shared.

        ``Collection.split`` keeps ``q - q // 2`` and sends ``q // 2``
        (nothing at one quantum); the same arithmetic runs here on the
        whole quanta vector at once.  Summaries do not change, so the
        payload *shares* the column arrays — zero-copy, safe because
        packed columns are never mutated in place — except when some rows
        have nothing to send, where the sent rows are gathered out.
        """
        packed = self._packed
        assert packed is not None
        quanta = packed.quanta
        sent = quanta >> 1  # q // 2 exactly, for non-negative int64
        self._packed = PackedState(
            quanta=quanta - sent,
            columns=packed.columns,
            row_digests=packed.row_digests,
        )
        self._collections = None
        self.stats.splits += 1
        # Splitting changes quanta only: per-collection digests and the
        # summary fingerprint survive, the state fingerprint does not.
        self._state_fp = None
        mask = sent > 0
        n_sent = int(mask.sum())
        if n_sent == len(sent):
            payload = PackedPayload(
                scheme=self.scheme,
                quanta=sent,
                columns=packed.columns,
                row_digests=packed.row_digests,
            )
        elif n_sent == 0:
            payload = PackedPayload(
                scheme=self.scheme,
                quanta=sent[:0],
                columns={name: col[:0] for name, col in packed.columns.items()},
                row_digests=() if packed.row_digests is not None else None,
            )
        else:
            digests = None
            if packed.row_digests is not None:
                digests = tuple(
                    digest
                    for digest, keep in zip(packed.row_digests, mask.tolist())
                    if keep
                )
            payload = PackedPayload(
                scheme=self.scheme,
                quanta=sent[mask],
                columns={name: col[mask] for name, col in packed.columns.items()},
                row_digests=digests,
            )
        if n_sent:
            self.stats.messages_made += 1
        if self.event_sink is not None:
            self.event_sink.emit(Event(kind="split", node=self.node_id, items=n_sent))
        return payload

    # ------------------------------------------------------------------
    # Algorithm 1, lines 8-11: receive and merge
    # ------------------------------------------------------------------
    def receive(self, incoming: Sequence[Collection]) -> None:
        """Pool incoming collections with local state, partition, and merge.

        ``incoming`` may concatenate the payloads of several messages: the
        paper's simulations have nodes that hear from multiple neighbours
        in a round "accumulate all the received collections and run EM once
        for the entire set" (Section 5.3), and batching is also how the
        asynchronous handler processes one message at a time.

        A native-tier node accepts a :class:`~repro.core.packed.PackedPayload`
        directly (no materialisation); plain collection lists run the
        object pipeline, preserving its exact object-identity behaviour
        (singleton groups adopt the incoming objects as-is).
        """
        if self.native:
            if isinstance(incoming, PackedPayload):
                self.receive_packed((incoming,))
                return
            self._materialize()
        self.stats.batches_received += 1
        self.stats.collections_received += len(incoming)
        if not incoming:
            return
        cache = self.merge_cache
        local_digests: Optional[list[bytes]] = None
        incoming_digests: Optional[list[bytes]] = None
        if (
            cache is not None
            and not self._track_aux
            and all(collection.aux is None for collection in incoming)
        ):
            summary_digest = self.scheme.summary_digest
            incoming_digests = [
                c.digest if c.digest is not None else summary_digest(c.summary)
                for c in incoming
            ]
            local_digests = self._ensure_digests()
        assert self._collections is not None
        big_set = self._collections + list(incoming)
        if self._try_fastpath(big_set, incoming):
            if local_digests is not None and incoming_digests is not None:
                self._set_digests(local_digests + incoming_digests)
            else:
                self._set_digests(None)
            return
        self.stats.fastpath_misses += 1
        registry = current_registry()
        if registry is not None:
            registry.inc("partition.fastpath_miss")
        key = None
        if incoming_digests is not None:
            assert cache is not None and local_digests is not None
            # The memo key is *order-sensitive* on both sides, deliberately
            # stricter than the order-insensitive fingerprint: the EM
            # reduction breaks argmax/argmin ties by pooled index, so two
            # receipts over the same multiset but different collection
            # orders may legitimately produce differently ordered output.
            key = (
                id(self.scheme),
                self.k,
                self.quantization.unit,
                tuple(
                    (digest, collection.quanta)
                    for digest, collection in zip(local_digests, self._collections)
                ),
                tuple(
                    (digest, collection.quanta)
                    for digest, collection in zip(incoming_digests, incoming)
                ),
            )
            entry = cache.lookup(key)
            if entry is not None:
                self._apply_cached(entry, len(big_set))
                return
            if self._try_certified_noop(incoming, local_digests, incoming_digests):
                return
        # The pooled packed state is only needed from here on — building
        # it above would waste the work on every cache-served receipt.
        packed_set: Optional[PackedState] = None
        if self._packed is not None:
            packed_set = PackedState.concat(self._packed, self._pack(incoming))
        if packed_set is not None:
            groups = self.scheme.partition_packed(packed_set, self.k, self.quantization)
        else:
            groups = self.scheme.partition(big_set, self.k, self.quantization)
        self.stats.partition_calls += 1
        if self.validate:
            validate_partition(groups, big_set, self.k, self.quantization)
        self._collections = [
            self._merge_group(big_set, packed_set, group) for group in groups
        ]
        if self.packed:
            self._packed = self._pack(self._collections)
        if key is not None:
            assert cache is not None
            summary_digest = self.scheme.summary_digest
            out_digests = [summary_digest(c.summary) for c in self._collections]
            self._set_digests(out_digests)
            if self._packed is not None:
                self._packed.row_digests = tuple(out_digests)
            cache.store(
                key,
                CachedReceive(
                    summaries=tuple(c.summary for c in self._collections),
                    digests=tuple(out_digests),
                    quanta=tuple(c.quanta for c in self._collections),
                    group_sizes=tuple(len(group) for group in groups),
                    columns=(
                        dict(self._packed.columns)
                        if self._packed is not None
                        else None
                    ),
                ),
            )
            self.stats.cache_misses += 1
            if registry is not None:
                registry.inc("merge_cache.miss")
        else:
            self._set_digests(None)

    def _adopt_native(self, digests: Optional[Sequence[bytes]]) -> None:
        """Post-receive bookkeeping once ``_packed`` holds the new state."""
        self._collections = None
        self._digests = list(digests) if digests is not None else None
        self._summary_fp = None
        self._state_fp = None

    def receive_packed(self, payloads: Sequence[PackedPayload]) -> None:
        """Native-tier receive: the full pipeline on column arrays.

        Mirrors :meth:`receive` decision-for-decision — fast path, memo
        lookup, certified no-op, then partition and merge — but consumes
        the payloads' packed columns directly and assembles the output
        rows with the batched scheme kernels, never constructing a
        ``Collection`` or summary object.  Stats deltas, emitted events
        and the resulting state bytes are identical to the object path
        (the native parity suite pins all three).
        """
        stats = self.stats
        stats.batches_received += 1
        total_in = 0
        for payload in payloads:
            total_in += len(payload)
        stats.collections_received += total_in
        if total_in == 0:
            return
        local = self._packed
        assert local is not None
        if len(payloads) == 1:
            first = payloads[0]
            in_quanta = first.quanta
            in_columns = first.columns
            in_digests = first.row_digests
        else:
            in_quanta = np.concatenate([p.quanta for p in payloads])
            in_columns = {
                name: np.concatenate([p.columns[name] for p in payloads])
                for name in payloads[0].columns
            }
            in_digests = None
            if all(p.row_digests is not None for p in payloads):
                in_digests = tuple(
                    digest
                    for p in payloads
                    for digest in p.row_digests  # type: ignore[union-attr]
                )
        m = len(local)
        pooled_size = m + total_in
        # Fast path: below the compression bound the partition is the
        # identity (same proof obligations as _try_fastpath).
        if pooled_size <= self.k and self.scheme.identity_below_k:
            min_quanta = min(int(local.quanta.min()), int(in_quanta.min()))
            if not self.quantization.is_minimum(min_quanta):
                digests = None
                if local.row_digests is not None and in_digests is not None:
                    digests = local.row_digests + in_digests
                self._packed = PackedState(
                    quanta=np.concatenate([local.quanta, in_quanta]),
                    columns={
                        name: np.concatenate([column, in_columns[name]])
                        for name, column in local.columns.items()
                    },
                    row_digests=digests,
                )
                self._adopt_native(digests)
                stats.fastpath_hits += 1
                registry = current_registry()
                if registry is not None:
                    registry.inc("partition.fastpath_hit")
                if self.event_sink is not None:
                    self.event_sink.emit(
                        Event(kind="fastpath", node=self.node_id, items=pooled_size)
                    )
                return
        stats.fastpath_misses += 1
        registry = current_registry()
        if registry is not None:
            registry.inc("partition.fastpath_miss")
        cache = self.merge_cache
        key = None
        local_digests: Optional[tuple[bytes, ...]] = None
        if cache is not None:
            local_digests = self._ensure_packed_digests()
            if in_digests is None:
                digest_row = self.scheme.digest_row
                in_digests = tuple(
                    digest_row(in_columns, index) for index in range(total_in)
                )
            key = (
                id(self.scheme),
                self.k,
                self.quantization.unit,
                tuple(zip(local_digests, local.quanta.tolist())),
                tuple(zip(in_digests, in_quanta.tolist())),
            )
            entry = cache.lookup(key)
            if entry is not None:
                self._apply_cached_native(entry, pooled_size)
                return
            if self._try_certified_noop_packed(
                in_quanta, in_digests, local_digests, pooled_size
            ):
                return
        pooled_digests = None
        if local_digests is not None and in_digests is not None:
            pooled_digests = local_digests + in_digests
        pooled = PackedState(
            quanta=np.concatenate([local.quanta, in_quanta]),
            columns={
                name: np.concatenate([column, in_columns[name]])
                for name, column in local.columns.items()
            },
            row_digests=pooled_digests,
        )
        groups = self.scheme.partition_packed(pooled, self.k, self.quantization)
        stats.partition_calls += 1
        single_pos: list[int] = []
        single_idx: list[int] = []
        multi_pos: list[int] = []
        multi_groups: list[Sequence[int]] = []
        for position, group in enumerate(groups):
            if len(group) == 1:
                single_pos.append(position)
                single_idx.append(group[0])
            else:
                multi_pos.append(position)
                multi_groups.append(group)
        merged_columns: Optional[dict[str, np.ndarray]] = None
        if multi_groups:
            with span("scheme.merge_set"):
                merged_columns = self.scheme.merge_groups_columns(pooled, multi_groups)
        pooled_quanta = pooled.quanta
        if not multi_groups:
            gather = np.asarray(single_idx, dtype=np.intp)
            out_quanta = pooled_quanta[gather]
            out_columns = {
                name: column[gather] for name, column in pooled.columns.items()
            }
        else:
            # Python-int group sums off one tolist(): exact (no float
            # rounding possible) and far cheaper than a fancy-indexed
            # numpy gather per tiny group.
            quanta_list = pooled_quanta.tolist()
            if not single_pos:
                assert merged_columns is not None
                out_quanta = np.fromiter(
                    (sum(quanta_list[i] for i in g) for g in groups),
                    dtype=np.int64,
                    count=len(groups),
                )
                out_columns = merged_columns
            else:
                assert merged_columns is not None
                count = len(groups)
                sp = np.asarray(single_pos, dtype=np.intp)
                si = np.asarray(single_idx, dtype=np.intp)
                mp = np.asarray(multi_pos, dtype=np.intp)
                out_quanta = np.empty(count, dtype=np.int64)
                out_quanta[sp] = pooled_quanta[si]
                for position, group in zip(multi_pos, multi_groups):
                    out_quanta[position] = sum(quanta_list[i] for i in group)
                out_columns = {}
                for name, column in pooled.columns.items():
                    out = np.empty((count,) + column.shape[1:], dtype=column.dtype)
                    out[sp] = column[si]
                    out[mp] = merged_columns[name]
                    out_columns[name] = out
        sink = self.event_sink
        for group in groups:
            if len(group) > 1:
                stats.merges += 1
                if sink is not None:
                    sink.emit(
                        Event(kind="merge", node=self.node_id, items=len(group))
                    )
        out_digests: Optional[tuple[bytes, ...]] = None
        if key is not None:
            assert pooled_digests is not None
            digest_row = self.scheme.digest_row
            collected: list[bytes] = []
            merged_row = 0
            for group in groups:
                if len(group) == 1:
                    collected.append(pooled_digests[group[0]])
                else:
                    assert merged_columns is not None
                    collected.append(digest_row(merged_columns, merged_row))
                    merged_row += 1
            out_digests = tuple(collected)
        self._packed = PackedState(
            quanta=out_quanta, columns=out_columns, row_digests=out_digests
        )
        self._adopt_native(out_digests)
        if key is not None:
            assert cache is not None and out_digests is not None
            cache.store(
                key,
                CachedReceive(
                    summaries=None,
                    digests=out_digests,
                    quanta=tuple(out_quanta.tolist()),
                    group_sizes=tuple(len(group) for group in groups),
                    columns=dict(out_columns),
                ),
            )
            stats.cache_misses += 1
            if registry is not None:
                registry.inc("merge_cache.miss")

    def _apply_cached_native(self, entry: CachedReceive, pooled_size: int) -> None:
        """Replay a memoised outcome straight into the packed state."""
        quanta = np.fromiter(entry.quanta, dtype=np.int64, count=len(entry.quanta))
        if entry.columns is not None:
            # Columns are shared, never mutated in place (splits rebuild
            # only the quanta vector; receipts assemble fresh rows).
            columns = entry.columns
        else:
            assert entry.summaries is not None
            columns = self.scheme.pack_summaries(list(entry.summaries))
        self._packed = PackedState(
            quanta=quanta, columns=columns, row_digests=entry.digests
        )
        self._adopt_native(entry.digests)
        self.stats.partition_calls += 1
        self.stats.cache_memo_hits += 1
        registry = current_registry()
        if registry is not None:
            registry.inc("merge_cache.hit")
        sink = self.event_sink
        for size in entry.group_sizes:
            if size > 1:
                self.stats.merges += 1
                if sink is not None:
                    sink.emit(Event(kind="merge", node=self.node_id, items=size))
        if sink is not None:
            sink.emit(
                Event(
                    kind="cache",
                    node=self.node_id,
                    items=pooled_size,
                    extra={"path": "memo"},
                )
            )

    def _try_certified_noop_packed(
        self,
        in_quanta: np.ndarray,
        incoming_digests: tuple[bytes, ...],
        local_digests: tuple[bytes, ...],
        pooled_size: int,
    ) -> bool:
        """The certified no-op short-circuit on packed state.

        Same proof obligations and outcome as :meth:`_try_certified_noop`
        (see its docstring for the soundness argument); operates on the
        packed quanta vector and row digests instead of collection
        objects, and only unpacks summaries when a certificate actually
        has to be built (once per location set per run).
        """
        cache = self.merge_cache
        assert cache is not None
        local = self._packed
        assert local is not None
        m = len(local)
        if len(set(local_digests)) != m or m > self.k:
            return False
        local_index = {digest: i for i, digest in enumerate(local_digests)}
        for digest in incoming_digests:
            if digest not in local_index:
                return False
        if pooled_size <= self.k:
            return False
        style = self.scheme.identity_partition_style
        if style is None:
            return False
        if style == "greedy" and m != self.k:
            # The greedy merge loop stops at exactly k groups; with fewer
            # locations than k it leaves duplicates uncoalesced.
            return False
        is_min = self.quantization.is_minimum
        local_quanta = local.quanta.tolist()
        totals = []
        for quanta in local_quanta:
            if is_min(quanta):
                return False
            totals.append(quanta)
        counts = [1] * m
        incoming_quanta = in_quanta.tolist()
        for digest, quanta in zip(incoming_digests, incoming_quanta):
            if is_min(quanta):
                return False
            index = local_index[digest]
            totals[index] += quanta
            counts[index] += 1
        sorted_digests = tuple(sorted(local_digests))
        certificate = cache.certificate_lookup(sorted_digests)
        if certificate is None:
            unpack = self.scheme.unpack_summary
            certificate = cache.certificate_for(
                self.scheme,
                sorted_digests,
                tuple(
                    unpack(local.columns, local_index[digest])
                    for digest in sorted_digests
                ),
            )
        if not certificate.valid:
            return False
        if style == "em":
            # Replicate the seeding: heaviest pooled component first
            # (strict first-index argmax over locals-then-incoming, the
            # pooled order partition_packed would see), then the maximin
            # walk over locations; then check the E-step margins at the
            # actual mixing weights.
            best_quanta = -1
            best_digest = local_digests[0]
            for digest, quanta in zip(local_digests, local_quanta):
                if quanta > best_quanta:
                    best_quanta = quanta
                    best_digest = digest
            for digest, quanta in zip(incoming_digests, incoming_quanta):
                if quanta > best_quanta:
                    best_quanta = quanta
                    best_digest = digest
            ranks = tuple(local_index[digest] for digest in certificate.locations)
            seed_order = certificate.seed_order(
                certificate.index_of[best_digest], ranks
            )
            if seed_order is None:
                return False
            log_totals = [0.0] * m
            for digest, index in local_index.items():
                log_totals[certificate.index_of[digest]] = math.log(totals[index])
            if not certificate.margin_ok(log_totals):
                return False
            order_digests = tuple(
                certificate.locations[index] for index in seed_order
            )
        else:
            order_digests = tuple(local_digests)
        self._packed = PackedState(
            quanta=np.fromiter(
                (totals[local_index[digest]] for digest in order_digests),
                dtype=np.int64,
                count=m,
            ),
            columns=certificate.columns_for(order_digests, self.scheme),
            row_digests=order_digests,
        )
        self._adopt_native(order_digests)
        self.stats.partition_calls += 1
        self.stats.cache_noop_hits += 1
        cache.record_noop()
        registry = current_registry()
        if registry is not None:
            registry.inc("merge_cache.noop")
        sink = self.event_sink
        for digest in order_digests:
            if counts[local_index[digest]] > 1:
                self.stats.merges += 1
                if sink is not None:
                    sink.emit(
                        Event(
                            kind="merge",
                            node=self.node_id,
                            items=counts[local_index[digest]],
                        )
                    )
        if sink is not None:
            sink.emit(
                Event(
                    kind="cache",
                    node=self.node_id,
                    items=pooled_size,
                    extra={"path": "noop"},
                )
            )
        return True

    def _apply_cached(self, entry: CachedReceive, pooled_size: int) -> None:
        """Replay a memoised receive outcome (byte-identical by key design)."""
        if entry.summaries is not None:
            summaries: Sequence[Any] = entry.summaries
        else:
            # Stored by a native-tier node that never built the objects;
            # unpack them from the packed columns (byte-equal by contract).
            assert entry.columns is not None
            unpack = self.scheme.unpack_summary
            summaries = [
                unpack(entry.columns, index) for index in range(len(entry.quanta))
            ]
        self._collections = [
            Collection(summary=summary, quanta=quanta)
            for summary, quanta in zip(summaries, entry.quanta)
        ]
        if self.packed:
            quanta = np.fromiter(
                entry.quanta, dtype=np.int64, count=len(entry.quanta)
            )
            if entry.columns is not None:
                # Columns are shared, never mutated in place (splits
                # rebuild only the quanta vector; receipts re-pack).
                self._packed = PackedState(
                    quanta=quanta, columns=entry.columns, row_digests=entry.digests
                )
            else:
                self._packed = self._pack(self._collections)
                self._packed.row_digests = entry.digests
        self._set_digests(list(entry.digests))
        # Replay the stats/event deltas the uncached pipeline would produce.
        self.stats.partition_calls += 1
        self.stats.cache_memo_hits += 1
        registry = current_registry()
        if registry is not None:
            registry.inc("merge_cache.hit")
        sink = self.event_sink
        for size in entry.group_sizes:
            if size > 1:
                self.stats.merges += 1
                if sink is not None:
                    sink.emit(Event(kind="merge", node=self.node_id, items=size))
        if sink is not None:
            sink.emit(
                Event(
                    kind="cache",
                    node=self.node_id,
                    items=pooled_size,
                    extra={"path": "memo"},
                )
            )

    def _try_certified_noop(
        self,
        incoming: Sequence[Collection],
        local_digests: list[bytes],
        incoming_digests: list[bytes],
    ) -> bool:
        """Absorb a receipt whose collections the node already holds.

        Applies when every incoming digest matches a distinct local
        collection: the pooled set then consists of ``m`` *locations*
        (distinct byte patterns) with duplicates, and — under conditions
        certified per location set by
        :class:`~repro.core.fingerprint.IdentityCertificate` — the
        scheme's partition provably groups the pooled components exactly
        by location, with every merge reproducing the local summary bytes
        (identical inputs pool exactly; see the scheme-level shortcuts).
        The receipt then reduces to quanta bookkeeping: bump each
        location's count, reorder per the certified output order, and
        skip the partition/merge pipeline entirely.  Any condition that
        cannot be certified falls through to the real pipeline, so this
        path is sound by construction, not by testing alone.
        """
        cache = self.merge_cache
        assert cache is not None
        local = self._collections
        m = len(local)
        if len(set(local_digests)) != m or m > self.k:
            return False
        local_index = {digest: i for i, digest in enumerate(local_digests)}
        for digest in incoming_digests:
            if digest not in local_index:
                return False
        pooled_size = m + len(incoming)
        if pooled_size <= self.k:
            return False
        style = self.scheme.identity_partition_style
        if style is None:
            return False
        if style == "greedy" and m != self.k:
            # The greedy merge loop stops at exactly k groups; with fewer
            # locations than k it leaves duplicates uncoalesced.
            return False
        # Pool per-location quanta and member counts; bail anywhere near
        # the quantisation floor, where conformance rule 2 (and its
        # repair passes) could reshape the partition.
        is_min = self.quantization.is_minimum
        totals = []
        for collection in local:
            if is_min(collection.quanta):
                return False
            totals.append(collection.quanta)
        counts = [1] * m
        for digest, collection in zip(incoming_digests, incoming):
            if is_min(collection.quanta):
                return False
            index = local_index[digest]
            totals[index] += collection.quanta
            counts[index] += 1
        sorted_digests = tuple(sorted(local_digests))
        certificate = cache.certificate_for(
            self.scheme,
            sorted_digests,
            tuple(local[local_index[digest]].summary for digest in sorted_digests),
        )
        if not certificate.valid:
            return False
        if style == "em":
            # Replicate the seeding: heaviest pooled component first
            # (strict first-index argmax over locals-then-incoming, the
            # pooled order partition_packed would see), then the maximin
            # walk over locations; then check the E-step margins at the
            # actual mixing weights.  Exact integer quanta (< 2**53)
            # make the argmax and the log-weights exact.
            best_quanta = -1
            best_digest = local_digests[0]
            for digest, collection in zip(local_digests, local):
                if collection.quanta > best_quanta:
                    best_quanta = collection.quanta
                    best_digest = digest
            for digest, collection in zip(incoming_digests, incoming):
                if collection.quanta > best_quanta:
                    best_quanta = collection.quanta
                    best_digest = digest
            ranks = tuple(
                local_index[digest] for digest in certificate.locations
            )
            seed_order = certificate.seed_order(
                certificate.index_of[best_digest], ranks
            )
            if seed_order is None:
                return False
            log_totals = [0.0] * m
            for digest, index in local_index.items():
                log_totals[certificate.index_of[digest]] = math.log(totals[index])
            if not certificate.margin_ok(log_totals):
                return False
            order_digests = tuple(
                certificate.locations[index] for index in seed_order
            )
        else:
            # Greedy: duplicates coalesce first (zero distance is the
            # strict minimum), the loop stops at exactly k = m groups,
            # and surviving group leaders keep first-occurrence order —
            # the local collection order, since incoming ⊆ local.
            order_digests = tuple(local_digests)
        new_collections = []
        for digest in order_digests:
            index = local_index[digest]
            if counts[index] == 1:
                new_collections.append(local[index])
            else:
                new_collections.append(
                    Collection(summary=local[index].summary, quanta=totals[index])
                )
        self._collections = new_collections
        if self.packed:
            self._packed = PackedState(
                quanta=np.fromiter(
                    (collection.quanta for collection in new_collections),
                    dtype=np.int64,
                    count=m,
                ),
                columns=certificate.columns_for(order_digests, self.scheme),
                row_digests=order_digests,
            )
        self._set_digests(list(order_digests))
        # Replay the stats/event deltas of the pipeline this receipt skipped.
        self.stats.partition_calls += 1
        self.stats.cache_noop_hits += 1
        cache.record_noop()
        registry = current_registry()
        if registry is not None:
            registry.inc("merge_cache.noop")
        sink = self.event_sink
        for digest in order_digests:
            if counts[local_index[digest]] > 1:
                self.stats.merges += 1
                if sink is not None:
                    sink.emit(
                        Event(
                            kind="merge",
                            node=self.node_id,
                            items=counts[local_index[digest]],
                        )
                    )
        if sink is not None:
            sink.emit(
                Event(
                    kind="cache",
                    node=self.node_id,
                    items=pooled_size,
                    extra={"path": "noop"},
                )
            )
        return True

    def _try_fastpath(
        self, big_set: list[Collection], incoming: Sequence[Collection]
    ) -> bool:
        """Adopt the pooled set unpartitioned when that is provably correct.

        When the pooled set has at most ``k`` collections and the scheme
        declares :attr:`~repro.core.scheme.SummaryScheme.identity_below_k`,
        ``partition`` would return singleton groups in index order — so the
        partition/merge machinery can be skipped outright.  The identity
        claim only holds when conformance rule 2 cannot fire, i.e. when no
        minimum-weight collection is present (or the set is a single
        collection); otherwise we fall through to the real partition.
        """
        size = len(big_set)
        if size > self.k or not self.scheme.identity_below_k:
            return False
        if size > 1:
            min_quanta = min(collection.quanta for collection in big_set)
            if self.quantization.is_minimum(min_quanta):
                return False
        if self.validate:
            groups = [[index] for index in range(size)]
            validate_partition(groups, big_set, self.k, self.quantization)
        self._collections = big_set
        if self._packed is not None:
            self._packed = PackedState.concat(self._packed, self._pack(incoming))
        self.stats.fastpath_hits += 1
        registry = current_registry()
        if registry is not None:
            registry.inc("partition.fastpath_hit")
        if self.event_sink is not None:
            self.event_sink.emit(
                Event(kind="fastpath", node=self.node_id, items=size)
            )
        return True

    def _merge_group(
        self,
        big_set: list[Collection],
        packed_set: Optional[PackedState],
        group: Sequence[int],
    ) -> Collection:
        """Merge one partition group into a single collection (line 11)."""
        if len(group) == 1:
            # Merging a singleton is the identity under R4; skip the
            # arithmetic so repeated gossip cannot accumulate float churn.
            return big_set[group[0]]
        members = [big_set[index] for index in group]
        with span("scheme.merge_set"):
            if packed_set is not None:
                summary = self.scheme.merge_set_packed(packed_set, group)
            else:
                summary = self.scheme.merge_set(
                    [(member.summary, float(member.quanta)) for member in members]
                )
        quanta = sum(member.quanta for member in members)
        aux = None
        if members[0].aux is not None:
            aux = MixtureVector.sum_of(member.aux for member in members)
        self.stats.merges += 1
        if self.event_sink is not None:
            self.event_sink.emit(
                Event(kind="merge", node=self.node_id, items=len(members))
            )
        return Collection(summary=summary, quanta=quanta, aux=aux)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        count = (
            len(self._packed)
            if self._collections is None and self._packed is not None
            else len(self._collections or ())
        )
        return (
            f"ClassifierNode(id={self.node_id}, collections={count}, "
            f"quanta={self.total_quanta})"
        )
