"""Packed classification state: a structure-of-arrays view of collections.

The receive pipeline (pool, partition, merge) is the per-step cost that
dominates the paper's Section 5.3 simulations.  An object representation
pays for it twice: every ``partition`` call re-stacks numpy arrays out of
Python summary objects, and every ``merge_set`` call re-reads the same
objects per group.

A :class:`PackedState` *is* a node's classification: ``quanta`` as one
integer vector plus scheme-specific columns (for the Gaussian schemes
``mean (l, d)`` and ``cov (l, d, d)``; for centroids/histograms one
``(l, d)`` position matrix; for schemes that implement only the object
contract, one object column of summaries), and, on aux-tracking nodes,
one row of mixture-space components per collection.  Splits only
rescale the quanta (and aux) rows, receipts pool the payload rows,
merges write fresh rows.  Schemes consume it through their array-native
entry points (``partition_packed`` / ``merge_groups_columns``); the
object-level ``partition`` / ``merge_set`` contract survives as the
test-side Algorithm 1 oracle, which the parity suites pin the packed
pipeline against byte for byte.

Quanta are stored as ``int64``.  That is exact (no float rounding) and
covers the default lattice (2**40 quanta per unit value) aggregated over
up to 8,388,607 nodes, the bound every engine builder enforces through
:meth:`~repro.core.weights.Quantization.check_population`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.collection import Collection
    from repro.core.scheme import SummaryScheme

__all__ = [
    "PackedState",
    "PackedPayload",
    "unpack_collections",
    "flatten_groups",
    "split_groups",
    "SLAB_HEADER_BYTES",
    "slab_region_bytes",
    "write_payload_slab",
    "read_payload_slab",
]

def flatten_groups(
    groupings: Sequence[Sequence[Sequence[int]]], bounds: Sequence[int]
) -> Tuple[np.ndarray, np.ndarray]:
    """Per-problem groupings (indices relative to each problem's first row
    ``bounds[p]``) as one *flat grouping* of the block: ``members``, the
    rows group by group, problem by problem, and each group's ``sizes``."""
    members = [base + row for base, groups in zip(bounds, groupings) for g in groups for row in g]
    sizes = [len(group) for groups in groupings for group in groups]
    return np.array(members, dtype=np.intp), np.array(sizes, dtype=np.intp)


def split_groups(
    members: np.ndarray, sizes: np.ndarray, bounds: Sequence[int]
) -> List[List[List[int]]]:
    """The inverse of :func:`flatten_groups` (``members`` from problem 0's
    first row on): one list of groups per problem."""
    ends = np.cumsum(sizes)
    cuts = np.searchsorted(ends, np.subtract(bounds, bounds[0]), side="right")
    groups = np.split(members, ends[:-1])
    return [
        [(group - low).tolist() for group in groups[a:b]]
        for low, a, b in zip(bounds, cuts[:-1], cuts[1:])
    ]


# ---------------------------------------------------------------------------
# Payload slabs: packed dest/quanta/column rows in one contiguous buffer.
#
# The sharded arena's cross-shard exchange writes one slab per (source
# shard, target shard) into a shared-memory segment; only the tiny
# (round, rows) control tuple crosses a pipe.  The layout is columnar —
# the writer holds columnar payload arrays and the reader wants columnar
# views, so rows never need interleaving:
#
#   [rows int64][round int64][dest cap*int64][quanta cap*int64]
#   [col_0 cap*len_0 float64]...[col_m cap*len_m float64]
#
# ``cap`` (the row capacity) is fixed per slab so every region of a
# double-buffered segment sits at a static offset; ``rows <= cap`` of
# each array are valid.  Columns are laid out in the caller's name order
# (by convention sorted, matching ``SummaryInterner``).  The header is
# written last so a torn write can never present a plausible row count
# with incomplete rows behind it.
# ---------------------------------------------------------------------------

#: Bytes of the per-slab header: row count + round index, both int64.
SLAB_HEADER_BYTES = 16


def slab_region_bytes(capacity: int, row_floats: int) -> int:
    """Size in bytes of one slab region holding up to ``capacity`` rows.

    ``row_floats`` is the total float64 count of one row's scheme
    columns (e.g. 6 for GM in d=2: mean 2 + cov 4); dest and quanta add
    two int64 fields per row.
    """
    if capacity < 0:
        raise ValueError(f"slab capacity must be non-negative, got {capacity}")
    return SLAB_HEADER_BYTES + capacity * 8 * (2 + row_floats)


def _slab_views(
    buf,
    offset: int,
    capacity: int,
    column_specs: Sequence[Tuple[str, Tuple[int, ...]]],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """Header/dest/quanta/column views over one slab region (full capacity)."""
    header = np.frombuffer(buf, dtype=np.int64, count=2, offset=offset)
    cursor = offset + SLAB_HEADER_BYTES
    dest = np.frombuffer(buf, dtype=np.int64, count=capacity, offset=cursor)
    cursor += capacity * 8
    quanta = np.frombuffer(buf, dtype=np.int64, count=capacity, offset=cursor)
    cursor += capacity * 8
    columns: Dict[str, np.ndarray] = {}
    for name, shape in column_specs:
        length = int(np.prod(shape, dtype=np.int64)) if shape else 1
        flat = np.frombuffer(
            buf, dtype=np.float64, count=capacity * length, offset=cursor
        )
        columns[name] = flat.reshape((capacity,) + tuple(shape))
        cursor += capacity * length * 8
    return header, dest, quanta, columns


def write_payload_slab(
    buf,
    offset: int,
    capacity: int,
    round_index: int,
    dest: np.ndarray,
    quanta: np.ndarray,
    columns: Dict[str, np.ndarray],
    column_specs: Sequence[Tuple[str, Tuple[int, ...]]],
) -> None:
    """Write one payload slab into ``buf`` at ``offset``.

    ``dest``/``quanta`` are int64 vectors of equal length ``rows``;
    ``columns[name]`` has shape ``(rows,) + shape`` per ``column_specs``
    entry.  Raises ``ValueError`` when ``rows`` exceeds the region's
    ``capacity`` — slabs never grow, capacity is the static worst case.
    """
    rows = int(np.asarray(dest).shape[0])
    if rows > capacity:
        raise ValueError(f"slab overflow: {rows} rows into capacity {capacity}")
    header, dest_view, quanta_view, column_views = _slab_views(
        buf, offset, capacity, column_specs
    )
    dest_view[:rows] = dest
    quanta_view[:rows] = quanta
    for name, _ in column_specs:
        column_views[name][:rows] = columns[name]
    header[1] = round_index
    header[0] = rows


def read_payload_slab(
    buf,
    offset: int,
    capacity: int,
    column_specs: Sequence[Tuple[str, Tuple[int, ...]]],
    copy: bool = False,
) -> Tuple[int, int, np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """Read one payload slab; returns ``(round, rows, dest, quanta, columns)``.

    With ``copy=False`` the returned arrays are zero-copy views into
    ``buf`` — valid only until the slab's buffer is rewritten (the
    double-buffer discipline gives readers a full round of slack).
    ``copy=True`` returns owned arrays (the checkpoint/replay snapshot
    path).
    """
    header, dest, quanta, columns = _slab_views(buf, offset, capacity, column_specs)
    rows = int(header[0])
    round_index = int(header[1])
    if rows > capacity:
        raise ValueError(f"corrupt slab header: {rows} rows in capacity {capacity}")
    dest = dest[:rows]
    quanta = quanta[:rows]
    out_columns = {name: column[:rows] for name, column in columns.items()}
    if copy:
        dest = dest.copy()
        quanta = quanta.copy()
        out_columns = {name: column.copy() for name, column in out_columns.items()}
    return round_index, rows, dest, quanta, out_columns


@dataclass(slots=True)
class PackedState:
    """A node's classification as a structure of arrays.

    Attributes
    ----------
    quanta:
        Integer quanta counts, shape ``(l,)``, dtype ``int64``; row ``i``
        is the weight of collection ``i``.
    columns:
        Scheme-specific summary arrays; every value has leading
        dimension ``l`` and row ``i`` describes collection ``i``.  The
        owning scheme defines the keys (see ``pack_summaries``).
    row_digests:
        Optional per-row content digests (``supports_fingerprints``
        schemes only): ``row_digests[i]`` addresses the summary behind
        row ``i``.  ``None`` means "not computed"; structural operations
        propagate digests when every input carries them and fall back to
        ``None`` otherwise — digests are a cache, never a requirement.
    aux:
        Optional mixture-space vectors, shape ``(l, n_inputs)``: row
        ``i`` is collection ``i``'s :class:`~repro.core.mixture.MixtureVector`
        components.  Present only on nodes built with ``track_aux``.
    """

    quanta: np.ndarray
    columns: Dict[str, np.ndarray]
    row_digests: Optional[Tuple[bytes, ...]] = None
    aux: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return len(self.quanta)

    @staticmethod
    def concat_many(
        states: Sequence["PackedState | PackedPayload"],
    ) -> "PackedState":
        """Row-wise concatenation of packed states or payloads, in order.

        A receiving node pools its local rows with every delivered
        payload in a single allocation.  Digests survive when every part
        carries them; aux rows are concatenated when the parts have them.
        """
        if not states:
            raise ValueError("cannot concatenate zero packed states")
        names = states[0].columns.keys()
        for state in states[1:]:
            if state.columns.keys() != names:
                raise ValueError(
                    f"packed column mismatch: {sorted(names)} vs {sorted(state.columns)}"
                )
        digests: Optional[Tuple[bytes, ...]] = None
        if all(state.row_digests is not None for state in states):
            digests = tuple(
                digest for state in states for digest in state.row_digests  # type: ignore[union-attr]
            )
        aux = None
        if states[0].aux is not None:
            aux = np.concatenate([state.aux for state in states])  # type: ignore[misc]
        return PackedState(
            quanta=np.concatenate([state.quanta for state in states]),
            columns={
                name: np.concatenate([state.columns[name] for state in states])
                for name in names
            },
            row_digests=digests,
            aux=aux,
        )

    def weights(self) -> np.ndarray:
        """Quanta as float weights (the scale partition math runs in)."""
        return self.quanta.astype(float)


def unpack_collections(
    scheme: "SummaryScheme", rows: "PackedState | PackedPayload"
) -> List["Collection"]:
    """The :class:`~repro.core.collection.Collection` objects behind packed rows.

    Summaries come from ``unpack_summary`` (byte-equal to the rows by
    contract), digests and aux vectors from the rows when present.
    """
    from repro.core.collection import Collection  # noqa: PLC0415 - cycle
    from repro.core.mixture import MixtureVector  # noqa: PLC0415 - cycle

    unpack = scheme.unpack_summary
    digests: Sequence[Optional[bytes]] = rows.row_digests or (None,) * len(rows)
    aux = rows.aux
    return [
        Collection(
            summary=unpack(rows.columns, index),
            quanta=quanta,
            aux=None if aux is None else MixtureVector(aux[index]),
            digest=digest,
        )
        for index, (quanta, digest) in enumerate(zip(rows.quanta.tolist(), digests))
    ]


@dataclass(slots=True, eq=False)
class PackedPayload:
    """A zero-copy message payload: column views instead of collections.

    Produced by ``ClassifierNode.make_message``: ``columns`` are
    (typically) the *sender's own* packed column arrays, shared without
    copying — safe because packed columns are never mutated in place
    (splits rebuild only the quanta vector; receipts assemble fresh
    output arrays).  ``quanta`` carries the sent shares, ``row_digests``
    the sender's per-row content digests when it had them, ``aux`` the
    sent shares' mixture vectors on aux-tracking nodes.

    The payload quacks like a ``list[Collection]``: ``len``/truthiness
    give the row count (the kernel's ``payload_size`` and "skip empty
    sends" checks), iteration and indexing lazily materialise
    :class:`~repro.core.collection.Collection` objects — the *transport
    seam*, paid only when a frame codec, a test, or analysis code
    actually needs objects.  Receiving nodes never iterate; they consume
    the arrays directly via ``receive_packed``.
    """

    scheme: "SummaryScheme"
    quanta: np.ndarray
    columns: Dict[str, np.ndarray]
    row_digests: Optional[Tuple[bytes, ...]] = None
    aux: Optional[np.ndarray] = None
    _materialized: Optional[List["Collection"]] = field(default=None, repr=False)

    def __len__(self) -> int:
        return len(self.quanta)

    def to_collections(self) -> List["Collection"]:
        """Materialise (and cache) the equivalent collection list."""
        if self._materialized is None:
            self._materialized = unpack_collections(self.scheme, self)
        return self._materialized

    def __iter__(self) -> Iterator["Collection"]:
        return iter(self.to_collections())

    def __getitem__(self, index: int) -> "Collection":
        return self.to_collections()[index]

    def __eq__(self, other: object) -> bool:
        """List-compatible equality (the historical payload type)."""
        if isinstance(other, PackedPayload):
            return (
                self.columns.keys() == other.columns.keys()
                and bool(np.array_equal(self.quanta, other.quanta))
                and all(
                    np.array_equal(column, other.columns[name])
                    for name, column in self.columns.items()
                )
            )
        if isinstance(other, (list, tuple)):
            if len(self) != len(other):
                return False
            return self.to_collections() == list(other)
        return NotImplemented
