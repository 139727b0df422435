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

The interner is a numpy hash table that names a whole block of rows in
one probe.  Ids are engine-local (they depend on interning order);
content digests — the globally stable names the per-node kernel uses —
are derived lazily per id, so parity checks and certificates speak the
same language as :mod:`repro.core.fingerprint`.  On noisy inputs every
round mints new rows and most old ones die, so at the end of a round in
which the interner holds more than ``2·n·k`` ids (live ones number at
most ``n·k``) :meth:`NetworkArena.compact` renumbers the live ids
densely and the interner forgets the rest.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.collection import Collection
from repro.core.scheme import SummaryScheme
from repro.core.weights import Quantization

__all__ = ["NetworkArena", "SummaryInterner"]


#: Fewest slots of an id table and rows of a row table: a power of two.
_MIN_SLOTS = 64
#: Multipliers of the row hash (odd 64-bit constants from splitmix64/murmur3).
_MIX = (np.uint64(0x9E3779B97F4A7C15), np.uint64(0xFF51AFD7ED558CCD), np.uint64(0xC4CEB9FE1A85EC53))


def _power_of_two(count: int) -> int:
    """The smallest power of two, at least :data:`_MIN_SLOTS`, that holds ``count``."""
    return max(_MIN_SLOTS, 1 << max(count - 1, 0).bit_length())


def _row_hashes(words: np.ndarray) -> np.ndarray:
    """One 64-bit hash per row of the word-major ``words``, mixing every bit of every word.

    Exact values such as 8.0 keep all their bits in the exponent and the
    high mantissa, so each word is folded in by a multiply and a
    high-to-low shift, and murmur3's finaliser spreads the result over
    the low bits a slot is taken from.
    """
    golden, first, second = _MIX
    hashes = np.full(words.shape[1], golden, dtype=np.uint64)
    for word in words:
        hashes ^= word
        hashes *= golden
        hashes ^= hashes >> np.uint64(29)
    hashes ^= hashes >> np.uint64(33)
    hashes *= first
    hashes ^= hashes >> np.uint64(33)
    hashes *= second
    hashes ^= hashes >> np.uint64(33)
    return hashes


def _same_rows(table: np.ndarray, at: np.ndarray, words: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Whether row ``at[i]`` of ``table`` holds the words of row ``rows[i]`` of ``words`` (both word-major)."""
    same = table[0][at] == words[0][rows]
    for word in range(1, len(words)):
        same &= table[word][at] == words[word][rows]
    return same


def _first_equal(words: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """For each row of the word-major ``words``, the first row holding the same words.

    Rows are grouped by hash and each is confirmed against the first row
    of its group; rows that differ from it, under a colliding hash, are
    grouped again among themselves.
    """
    first = np.arange(len(hashes))
    left = first
    while len(left):
        order = left[np.argsort(hashes[left])]
        ordered = hashes[order]
        starts = np.flatnonzero(np.append(True, ordered[1:] != ordered[:-1]))
        leader = np.repeat(np.minimum.reduceat(order, starts), np.diff(starts, append=len(order)))
        equal = _same_rows(words, order, words, leader)
        first[order[equal]] = leader[equal]
        left = order[~equal]
    return first


class SummaryInterner:
    """Dense ids for distinct packed summary rows, plus derived caches.

    The intern key of a row is the concatenation of its column bytes in
    sorted column-name order — exactly the bytes a scheme's
    ``pack_summaries`` would produce for the summary, so byte-parity
    with the object world is definitional.

    The table lives in numpy arrays.  A growing uint64 row table holds
    id ``i``'s key as 64-bit words, stored word-major (``(words, ids)``,
    so each comparison reads one contiguous array per word), with each
    row's hash beside it, and a power-of-two open-addressing table, kept
    at most half full, maps a row's hash to its id.  :meth:`intern_rows`
    names a whole block at once: it probes every row together, counts a
    hit only once the full row words compare equal (so two different
    rows never share an id, and ``0.0``/``-0.0`` or NaN payloads stay
    apart), and mints the misses in first-occurrence order — the ids a
    one-at-a-time loop mints.  Both tables grow by doubling.

    :meth:`compact` keeps only the ids a caller names, renumbered
    densely in order.  Digests and summary objects are cached lazily,
    only for the ids asked about; the hot round loop touches ids alone.
    """

    def __init__(self, scheme: SummaryScheme, column_specs: Dict[str, Tuple[int, ...]]) -> None:
        self.scheme = scheme
        self.names: List[str] = sorted(column_specs)
        self.row_shapes: List[Tuple[int, ...]] = [column_specs[name] for name in self.names]
        self.row_lengths: List[int] = [
            math.prod(shape) for shape in self.row_shapes
        ]
        self._count = 0
        self._words = np.empty((sum(self.row_lengths), _MIN_SLOTS), dtype=np.uint64)
        self._hashes = np.empty(_MIN_SLOTS, dtype=np.uint64)
        self._slots = np.full(_MIN_SLOTS, -1, dtype=np.int64)
        self._digests: Dict[int, bytes] = {}
        self._summaries: Dict[int, Any] = {}

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------------
    # Interning
    # ------------------------------------------------------------------
    def _words_of(self, columns: Dict[str, np.ndarray], count: int) -> np.ndarray:
        """The ``count`` packed rows of ``columns`` as one word-major uint64 array."""
        flats = []
        for name, shape, length in zip(self.names, self.row_shapes, self.row_lengths):
            array = np.asarray(columns[name], dtype=float)
            if array.shape[0] != count or array.shape[1:] != shape:
                raise ValueError(
                    f"column {name!r} has shape {array.shape}, "
                    f"expected ({count}, {', '.join(map(str, shape))})"
                )
            flats.append(array.reshape(count, length).T)
        return np.concatenate(flats).view(np.uint64)

    def intern_rows(self, columns: Dict[str, np.ndarray], count: int) -> np.ndarray:
        """Intern ``count`` packed rows; returns their ids, in row order."""
        words = self._words_of(columns, count)
        hashes = _row_hashes(words)
        ids = self._find(words, hashes)
        missed = np.flatnonzero(ids < 0)
        if len(missed):
            first = _first_equal(words[:, missed], hashes[missed])
            fresh = np.flatnonzero(first == np.arange(len(missed)))
            rank = np.empty(len(missed), dtype=np.int64)
            rank[fresh] = np.arange(self._count, self._count + len(fresh))
            ids[missed] = rank[first]
            self._append(words[:, missed[fresh]], hashes[missed[fresh]])
        return ids

    def intern_row(self, columns: Dict[str, np.ndarray], index: int) -> int:
        """Intern the single packed row ``index`` of ``columns``."""
        row = {name: columns[name][index : index + 1] for name in self.names}
        return int(self.intern_rows(row, 1)[0])

    def _find(self, words: np.ndarray, hashes: np.ndarray) -> np.ndarray:
        """Each row's id, or -1: every row walks its probe chain at once."""
        slots, mask = self._slots, len(self._slots) - 1
        found = np.full(len(hashes), -1, dtype=np.int64)
        rows = np.arange(len(hashes))
        at = (hashes & np.uint64(mask)).astype(np.int64)
        while len(rows):
            held = slots[at]
            taken = held >= 0
            rows, at, held = rows[taken], at[taken], held[taken]
            same = self._hashes[held] == hashes[rows]
            candidates = np.flatnonzero(same)
            same[candidates] = _same_rows(self._words, held[candidates], words, rows[candidates])
            found[rows[same]] = held[same]
            rows, at = rows[~same], (at[~same] + 1) & mask
        return found

    def _append(self, words: np.ndarray, hashes: np.ndarray) -> None:
        """Give the word-major rows ``words`` the next ids; both tables grow by doubling."""
        low, high = self._count, self._count + len(hashes)
        if high > len(self._hashes):
            spare = _power_of_two(high) - low
            self._words = np.concatenate(
                [self._words[:, :low], np.empty((len(words), spare), np.uint64)], axis=1
            )
            self._hashes = np.concatenate([self._hashes[:low], np.empty(spare, np.uint64)])
        self._words[:, low:high] = words
        self._hashes[low:high] = hashes
        self._count = high
        if 2 * high > len(self._slots):
            self._rebuild()
        else:
            self._place(np.arange(low, high))

    def _rebuild(self) -> None:
        """A fresh id table, at most half full, holding every id."""
        self._slots = np.full(_power_of_two(2 * self._count), -1, dtype=np.int64)
        self._place(np.arange(self._count))

    def _place(self, ids: np.ndarray) -> None:
        """Put ``ids`` in the id table, each in the first free slot of its chain."""
        slots, mask = self._slots, len(self._slots) - 1
        at = (self._hashes[ids] & np.uint64(mask)).astype(np.int64)
        while len(ids):
            free = slots[at] < 0
            slots[at[free]] = ids[free]
            placed = np.zeros(len(ids), dtype=bool)
            placed[free] = slots[at[free]] == ids[free]
            ids, at = ids[~placed], (at[~placed] + 1) & mask

    def compact(self, live: np.ndarray) -> None:
        """Keep only the ids in ``live`` (ascending, distinct), as ``0..len(live)-1``.

        Both tables are rebuilt and the lazy caches dropped: what they
        held is recomputed on demand from the row words.
        """
        self._words = self._words[:, live]
        self._hashes = self._hashes[live]
        self._count = len(live)
        self._rebuild()
        self._digests.clear()
        self._summaries.clear()

    # ------------------------------------------------------------------
    # Decoding
    # ------------------------------------------------------------------
    def _check(self, summary_id: int) -> int:
        """``summary_id`` as an int, or IndexError outside ``range(len(self))``."""
        if not 0 <= summary_id < self._count:
            raise IndexError(f"no summary id {summary_id} among {self._count}")
        return int(summary_id)

    def key_bytes(self, summary_id: int) -> bytes:
        """The intern key (packed row bytes) behind an id.

        Content-stable across interners: two interners over the same
        column specs assign the same key bytes to the same summary, even
        when their dense ids differ — the currency for cross-process
        state comparison.
        """
        return self._words[:, self._check(summary_id)].tobytes()

    def row_arrays(self, summary_id: int) -> Dict[str, np.ndarray]:
        """The packed column row behind an id (fresh, writable arrays)."""
        floats = self._words[:, self._check(summary_id)].view(np.float64)
        out: Dict[str, np.ndarray] = {}
        offset = 0
        for name, shape, length in zip(self.names, self.row_shapes, self.row_lengths):
            out[name] = floats[offset : offset + length].reshape(shape).copy()
            offset += length
        return out

    def summary(self, summary_id: int) -> Any:
        """The summary object behind an id (cached; treat as immutable)."""
        summary_id = self._check(summary_id)
        cached = self._summaries.get(summary_id)
        if cached is None:
            rows = self.row_arrays(summary_id)
            cached = self.scheme.unpack_summary(
                {name: row[None, ...] for name, row in rows.items()}, 0
            )
            self._summaries[summary_id] = cached
        return cached

    def digest(self, summary_id: int) -> bytes:
        """The scheme content digest behind an id (cached)."""
        summary_id = self._check(summary_id)
        cached = self._digests.get(summary_id)
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
        #: Times :meth:`compact` has renumbered the ids.
        self.compactions = 0

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

    def _live_cells(self) -> np.ndarray:
        """``(n, k)`` mask of the cells that hold a collection."""
        return np.arange(self.k) < self.counts[:, None]

    def compact(self) -> bool:
        """Renumber the live ids densely once the interner holds more than ``2·n·k``.

        Live ids number at most ``n·k``, so past that bound dead ids
        outnumber them.  The interner keeps the live ids' rows, in id
        order, as ``0..live-1``, and cells that hold no collection get
        -1.  Returns whether it compacted; a caller holding anything
        keyed by ids (no-op plans) drops it then.
        """
        if len(self.interner) <= 2 * self.ids.size:
            return False
        cells = self._live_cells()
        live, dense = np.unique(self.ids[cells], return_inverse=True)
        self.interner.compact(live)
        self.ids.fill(-1)
        self.ids[cells] = dense
        self.compactions += 1
        return True

    def interner_stats(self) -> Dict[str, int]:
        """The interner's size against the live ids it holds, and compactions so far."""
        return {
            "nodes": self.n,
            "interned": len(self.interner),
            "live_ids": len(np.unique(self.ids[self._live_cells()])),
            "compactions": self.compactions,
        }

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
