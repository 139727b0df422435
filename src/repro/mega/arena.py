"""The network arena: every node's packed state in one SoA block.

A :class:`NetworkArena` is the whole-population analogue of a single
node's :class:`~repro.core.packed.PackedState`: ``quanta`` is an
``(n, k)`` integer matrix (row ``i`` = node ``i``'s collections, padded
with zeros past ``counts[i]``), and each scheme column gains a leading
``(n, k)`` pair of axes — for the Gaussian schemes ``mean (n, k, d)``
and ``cov (n, k, d, d)``.

Summaries are *interned*: the arena never stores a summary object per
collection.  Instead a :class:`SummaryInterner` maps each distinct
packed-row byte pattern to a dense integer id, and the arena keeps an
``(n, k)`` id matrix alongside the float columns.  Ids make the three
expensive equalities of a gossip round O(1):

- two collections hold the same class  ⟺  same id (dedup of receives),
- a receive problem repeats            ⟺  same id/quanta key bytes,
- the population has structurally converged  ⟺  one id multiset per row.

Ids are engine-local (they depend on interning order); content digests —
the globally stable names the per-node kernel uses — are derived lazily
per id, so parity checks and certificates speak the same language as
:mod:`repro.core.fingerprint`.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.collection import Collection
from repro.core.scheme import SummaryScheme
from repro.core.weights import Quantization

__all__ = ["NetworkArena", "SummaryInterner"]


class SummaryInterner:
    """Dense ids for distinct packed summary rows, plus derived caches.

    The intern key of a row is the concatenation of its column bytes in
    sorted column-name order — exactly the bytes a scheme's
    ``pack_summaries`` would produce for the summary, so byte-parity
    with the object world is definitional.  Digest and summary-object
    caches are lazy: the hot round loop only touches ids; digests are
    materialised for certificates, parity checks and reporting.
    """

    def __init__(self, scheme: SummaryScheme, column_specs: Dict[str, Tuple[int, ...]]) -> None:
        self.scheme = scheme
        self.names: List[str] = sorted(column_specs)
        self.row_shapes: List[Tuple[int, ...]] = [column_specs[name] for name in self.names]
        self.row_lengths: List[int] = [
            math.prod(shape) for shape in self.row_shapes
        ]
        self._ids: Dict[bytes, int] = {}
        self._keys: List[bytes] = []
        self._digests: List[Optional[bytes]] = []
        self._summaries: List[Any] = []

    def __len__(self) -> int:
        return len(self._keys)

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _flatten_rows(self, columns: Dict[str, np.ndarray], count: int) -> np.ndarray:
        """One C-contiguous ``(count, total_floats)`` matrix of row bytes."""
        flats = []
        for name, shape in zip(self.names, self.row_shapes):
            array = np.ascontiguousarray(columns[name], dtype=float)
            if array.shape[0] != count or array.shape[1:] != shape:
                raise ValueError(
                    f"column {name!r} has shape {array.shape}, "
                    f"expected ({count}, {', '.join(map(str, shape))})"
                )
            flats.append(array.reshape(count, -1))
        return np.ascontiguousarray(np.concatenate(flats, axis=1))

    def intern_rows(self, columns: Dict[str, np.ndarray], count: int) -> np.ndarray:
        """Intern ``count`` packed rows; returns their ids, in row order."""
        flat = self._flatten_rows(columns, count)
        out = np.empty(count, dtype=np.int64)
        ids = self._ids
        keys = self._keys
        digests = self._digests
        summaries = self._summaries
        for i in range(count):
            key = flat[i].tobytes()
            found = ids.get(key)
            if found is None:
                found = len(keys)
                ids[key] = found
                keys.append(key)
                digests.append(None)
                summaries.append(None)
            out[i] = found
        return out

    def intern_row(self, columns: Dict[str, np.ndarray], index: int) -> int:
        """Intern the single packed row ``index`` of ``columns``."""
        key = b"".join(
            np.ascontiguousarray(columns[name][index], dtype=float).tobytes()
            for name in self.names
        )
        found = self._ids.get(key)
        if found is None:
            found = len(self._keys)
            self._ids[key] = found
            self._keys.append(key)
            self._digests.append(None)
            self._summaries.append(None)
        return found

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def key_bytes(self, summary_id: int) -> bytes:
        """The intern key (packed row bytes) behind an id.

        Content-stable across interners: two interners over the same
        column specs assign the same key bytes to the same summary, even
        when their dense ids differ — the currency for cross-process
        state comparison.
        """
        return self._keys[summary_id]

    def row_arrays(self, summary_id: int) -> Dict[str, np.ndarray]:
        """The packed column row behind an id (fresh, writable arrays)."""
        key = self._keys[summary_id]
        out: Dict[str, np.ndarray] = {}
        offset = 0
        for name, shape, length in zip(self.names, self.row_shapes, self.row_lengths):
            out[name] = (
                np.frombuffer(key, dtype=np.float64, count=length, offset=offset)
                .reshape(shape)
                .copy()
            )
            offset += length * 8
        return out

    def summary(self, summary_id: int) -> Any:
        """The summary object behind an id (cached; treat as immutable)."""
        cached = self._summaries[summary_id]
        if cached is None:
            rows = self.row_arrays(summary_id)
            cached = self.scheme.unpack_summary(
                {name: row[None, ...] for name, row in rows.items()}, 0
            )
            self._summaries[summary_id] = cached
        return cached

    def digest(self, summary_id: int) -> bytes:
        """The scheme content digest behind an id (cached)."""
        cached = self._digests[summary_id]
        if cached is None:
            cached = self.scheme.summary_digest(self.summary(summary_id))
            self._digests[summary_id] = cached
        return cached


class NetworkArena:
    """All ``n`` nodes' classification state as one structure of arrays.

    Attributes
    ----------
    counts:
        ``(n,)`` int64 — collections held per node (``1..k``).
    quanta:
        ``(n, k)`` int64 — collection weights; zero past ``counts[i]``.
        Row sums are conserved at ``quantization.unit`` per node (plus
        whatever is in flight mid-exchange).
    ids:
        ``(n, k)`` int64 — interned summary ids; stale past ``counts[i]``
        (slots are masked by zero quanta, never read).
    columns:
        Scheme columns with leading ``(n, k)`` axes; row ``[i, j]`` holds
        the packed summary of node ``i``'s collection ``j``.
    """

    def __init__(
        self,
        scheme: SummaryScheme,
        k: int,
        quantization: Quantization,
        counts: np.ndarray,
        quanta: np.ndarray,
        ids: np.ndarray,
        columns: Dict[str, np.ndarray],
        interner: SummaryInterner,
    ) -> None:
        self.scheme = scheme
        self.k = k
        self.quantization = quantization
        self.counts = counts
        self.quanta = quanta
        self.ids = ids
        self.columns = columns
        self.interner = interner

    @property
    def n(self) -> int:
        return int(self.counts.shape[0])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_values(
        cls,
        values: Sequence[Any],
        scheme: SummaryScheme,
        k: int,
        quantization: Optional[Quantization] = None,
    ) -> "NetworkArena":
        """Time-0 arena: one unit-weight collection per input value."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if not scheme.supports_packed:
            raise ValueError(
                f"{type(scheme).__name__} does not implement the packed hot "
                "path; the arena engine requires it"
            )
        quantization = quantization or Quantization()
        n = len(values)
        if n == 0:
            raise ValueError("cannot build an arena over zero values")
        quantization.check_population(n)
        packed = scheme.pack_values(values)
        specs = {name: array.shape[1:] for name, array in packed.items()}
        interner = SummaryInterner(scheme, specs)

        counts = np.ones(n, dtype=np.int64)
        quanta = np.zeros((n, k), dtype=np.int64)
        quanta[:, 0] = quantization.unit
        ids = np.full((n, k), -1, dtype=np.int64)
        ids[:, 0] = interner.intern_rows(packed, n)
        columns: Dict[str, np.ndarray] = {}
        for name, array in packed.items():
            column = np.zeros((n, k) + array.shape[1:], dtype=float)
            column[:, 0] = array
            columns[name] = column
        return cls(scheme, k, quantization, counts, quanta, ids, columns, interner)

    # ------------------------------------------------------------------
    # The round
    # ------------------------------------------------------------------
    def split(self) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Every node sends half of each collection's quanta, rounded down.

        Returns ``(messages, sender, cells, quanta, ids)``: the sent rows
        in ascending (sender, slot) order, which is the concatenation of
        every node's ``make_message`` payload, and the number of distinct
        senders (the kernel's message count).  ``sender`` indexes this
        arena's rows; ``cells`` (``sender * k + slot``) names each row's
        cell of :meth:`cell_columns`, which holds its summary: a sent row
        is its sender's row byte for byte, so no column is copied.  The
        kept halves are a new :attr:`quanta` array; the old one is left
        as it was, so a caller can put it back if the round fails.
        """
        quanta = self.quanta
        sent = quanta // 2
        self.quanta = quanta - sent
        cells = np.flatnonzero(sent)
        sender = cells // self.k
        messages = int(np.count_nonzero(np.diff(sender)) + 1) if len(sender) else 0
        return messages, sender, cells, sent.reshape(-1)[cells], self.ids.reshape(-1)[cells]

    def cell_columns(self) -> Dict[str, np.ndarray]:
        """The scheme columns as ``(n * k, ...)`` views: row ``i * k + j`` is cell ``[i, j]``."""
        return {name: column.reshape((-1,) + column.shape[2:]) for name, column in self.columns.items()}

    def structurally_converged(self) -> bool:
        """Does every node hold the same summary-id multiset?

        The structural-quiescence test: between synchronous rounds
        nothing is in flight, so equal multisets are the whole condition.
        """
        counts = self.counts
        first = int(counts[0])
        if not bool(np.all(counts == first)):
            return False
        block = np.sort(self.ids[:, :first], axis=1)
        return bool(np.all(block == block[0]))

    # ------------------------------------------------------------------
    # Observation (parity-facing views into the object world)
    # ------------------------------------------------------------------
    def node_collections(self, node: int) -> List[Collection]:
        """Node ``node``'s classification as collection objects, in order."""
        interner = self.interner
        count = int(self.counts[node])
        return [
            Collection(
                summary=interner.summary(int(self.ids[node, slot])),
                quanta=int(self.quanta[node, slot]),
                digest=interner.digest(int(self.ids[node, slot])),
            )
            for slot in range(count)
        ]

    def classifications(self) -> List[List[Collection]]:
        return [self.node_collections(node) for node in range(self.n)]

    def state_digests(self, node: int) -> Tuple[Tuple[bytes, int], ...]:
        """Ordered ``(summary digest, quanta)`` pairs — the parity currency."""
        interner = self.interner
        count = int(self.counts[node])
        return tuple(
            (interner.digest(int(self.ids[node, slot])), int(self.quanta[node, slot]))
            for slot in range(count)
        )

    def total_quanta(self) -> int:
        """Population weight; conserved at ``n * unit`` between rounds."""
        return int(self.quanta.sum())
