"""Algorithm 1 as the paper writes it: the test-side reference node.

``OracleNode`` splits every collection, pools, and runs ``partition`` and
``merge_set`` per group, on collection objects only: no packed rows, no
fast path, no merge cache.  The parity suites demand that
:class:`repro.core.node.ClassifierNode` give the same summaries, quanta,
aux vectors and ``split``/``merge`` events; ``oracle_nodes()`` swaps the
oracle into ``build_classification_network`` inside a ``with`` block.
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial

import numpy as np

import repro.protocols.classification as classification_protocol
from repro.core.classification import Classification
from repro.core.collection import Collection
from repro.core.mixture import MixtureVector
from repro.core.node import NodeStats
from repro.core.scheme import validate_partition
from repro.core.weights import Quantization
from repro.obs.context import current_sink
from repro.obs.events import Event


class OracleNode:
    """One node of Algorithm 1 on collection objects; ``ClassifierNode``'s signature."""

    def __init__(self, node_id, value, scheme, k, quantization=None, track_aux=False,
                 n_inputs=None, validate=False, event_sink=None, merge_cache=None):
        self.node_id = node_id
        self.scheme = scheme
        self.k = k
        self.quantization = quantization or Quantization()
        self.event_sink = event_sink if event_sink is not None else current_sink()
        self.stats = NodeStats()
        unit = self.quantization.unit
        aux = MixtureVector.unit(node_id, n_inputs, unit) if track_aux else None
        self.collections = [Collection(scheme.val_to_summary(value), unit, aux)]

    @property
    def classification(self) -> Classification:
        return Classification(self.collections)

    def _emit(self, kind: str, items: int) -> None:
        if self.event_sink is not None:
            self.event_sink.emit(Event(kind=kind, node=self.node_id, items=items))

    def make_message(self) -> list[Collection]:
        """Lines 3-7: halve every collection, keep one share, send the other."""
        kept, sent = [], []
        for collection in self.collections:
            kept_share, sent_share = collection.split(self.quantization)
            kept.append(kept_share)
            if sent_share is not None:
                sent.append(sent_share)
        self.collections = kept
        self.stats.splits += 1
        self.stats.messages_made += bool(sent)
        self._emit("split", len(sent))
        return sent

    def receive(self, incoming) -> None:
        """Lines 8-11: pool, partition into at most k groups, merge each group."""
        incoming = list(incoming)
        self.stats.batches_received += 1
        self.stats.collections_received += len(incoming)
        if not incoming:
            return
        pooled = self.collections + incoming
        groups = self.scheme.partition(pooled, self.k, self.quantization)
        self.stats.partition_calls += 1
        validate_partition(groups, pooled, self.k, self.quantization)
        merged = []
        for group in groups:
            members = [pooled[index] for index in group]
            if len(members) == 1:
                merged.append(members[0])
                continue
            summary = self.scheme.merge_set([(m.summary, float(m.quanta)) for m in members])
            aux = None if members[0].aux is None else MixtureVector.sum_of(m.aux for m in members)
            merged.append(Collection(summary, sum(m.quanta for m in members), aux))
            self.stats.merges += 1
            self._emit("merge", len(members))
        self.collections = merged

    def receive_packed(self, payloads) -> None:
        """The protocol's entry point: every delivered payload in one batch."""
        self.receive([collection for payload in payloads for collection in payload])

    def defer_receive(self, payloads, batch):
        """The kernel's round hook: receive alone, when the kernel applies it."""
        return partial(self.receive_packed, payloads)


@contextmanager
def oracle_nodes():
    """Build networks from :class:`OracleNode` inside the block."""
    saved = classification_protocol.ClassifierNode
    classification_protocol.ClassifierNode = OracleNode
    try:
        yield
    finally:
        classification_protocol.ClassifierNode = saved


def summary_bytes(summary) -> bytes:
    """The raw float bytes of any shipped or example summary."""
    if isinstance(summary, (tuple, list)):
        return b"".join(summary_bytes(part) for part in summary)
    if hasattr(summary, "cov"):
        return summary.mean.tobytes() + summary.cov.tobytes()
    return np.asarray(summary, dtype=float).tobytes()


def state_bytes(node) -> list[tuple[int, bytes, bytes | None]]:
    """A node's classification as (quanta, summary bytes, aux bytes) rows."""
    return [
        (c.quanta, summary_bytes(c.summary), None if c.aux is None else c.aux.components.tobytes())
        for c in node.classification
    ]
