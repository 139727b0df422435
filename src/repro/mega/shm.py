"""Shared-memory slab exchange for the sharded arena.

The sharded arena's cross-shard data path: double-buffered
``multiprocessing.shared_memory`` outbox slabs.  Each shard owns, per
buffer parity, one segment holding a contiguous slab region per *target*
shard (the slab layout and its pack/unpack are defined here).  During
``split`` a worker writes its payload rows straight into the regions;
only tiny ``(target, rows)`` control tuples cross the pipes, and
receivers assemble inbound bundles as zero-copy views in ascending
source-shard order, so the delivery order — and hence byte parity — is
the single-process engine's.  Nothing is pickled on the data path.

Double buffering (segment parity = ``round % 2``) is what lets the
round protocol overlap: shard A may already be writing round ``r+1``
into buffer ``(r+1) % 2`` while shard B still reads A's round-``r``
regions from buffer ``r % 2``.  A buffer is only rewritten at
``r + 2``, by which time every reader of round ``r`` — including the
parent's checkpoint/replay snapshot — has finished with it.

Capacity is static worst case: shard ``s`` can emit at most
``shard_size(s) * k`` payload rows per round toward a single target, so
regions never grow and every slab sits at a fixed offset.  The parent
creates (and finally unlinks) all segments; workers — including
respawned ones — attach by name.  Worker attachments are excluded from
the ``resource_tracker`` so a worker death never unregisters or
double-frees the parent's segments.
"""

from __future__ import annotations

import math
from multiprocessing import resource_tracker, shared_memory
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "SlabExchangeSpec",
    "SlabExchange",
    "SLAB_HEADER_BYTES",
    "slab_region_bytes",
    "write_payload_slab",
    "read_payload_slab",
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



def _attach(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without resource-tracker tracking.

    The tracker is shared across the forked process tree and keeps a
    name *set*, not a refcount: a worker's attach registering the
    parent's segment (or explicitly unregistering it) unbalances the
    parent's create/unlink pair either way.  Python 3.13 has
    ``track=False`` for exactly this; on older versions the attach-side
    registration is suppressed instead, so the worker never talks to
    the tracker at all.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)  # type: ignore[call-arg]
    except TypeError:
        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None  # type: ignore[assignment]
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original


class SlabExchangeSpec:
    """Picklable geometry of one engine's exchange segments.

    Built once by the parent from the shard boundaries, ``k`` and the
    scheme's packed column specs; shipped to workers inside their
    ``_ShardConfig`` so respawned workers can re-attach and re-derive
    every offset without further coordination.
    """

    def __init__(
        self,
        bounds: np.ndarray,
        k: int,
        column_specs: Dict[str, Tuple[int, ...]],
        token: str,
    ) -> None:
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.shards = int(len(self.bounds) - 1)
        self.k = int(k)
        self.names: List[str] = sorted(column_specs)
        self.column_specs: List[Tuple[str, Tuple[int, ...]]] = [
            (name, tuple(column_specs[name])) for name in self.names
        ]
        self.row_floats = sum(
            math.prod(shape) if shape else 1 for _, shape in self.column_specs
        )
        self.token = token

    def capacity(self, source: int) -> int:
        """Worst-case rows from ``source`` toward one target in one round."""
        return int(self.bounds[source + 1] - self.bounds[source]) * self.k

    def region_bytes(self, source: int) -> int:
        return slab_region_bytes(self.capacity(source), self.row_floats)

    def region_offset(self, source: int, target: int) -> int:
        """Offset of the ``target`` region inside a ``source`` segment."""
        if target == source:
            raise ValueError(f"shard {source} has no outbox region for itself")
        index = target if target < source else target - 1
        return index * self.region_bytes(source)

    def segment_bytes(self, source: int) -> int:
        return (self.shards - 1) * self.region_bytes(source)

    def segment_name(self, source: int, parity: int) -> str:
        return f"rmega_{self.token}_s{source}b{parity}"

    def segment_names(self) -> List[str]:
        return [
            self.segment_name(source, parity)
            for source in range(self.shards)
            for parity in (0, 1)
            if self.segment_bytes(source) > 0
        ]


class SlabExchange:
    """One process's attachment to every exchange segment.

    The parent constructs with ``create=True`` (allocates, and later
    unlinks, all ``2 * shards`` segments); workers attach by name.  All
    offsets come from the shared :class:`SlabExchangeSpec`, so writer
    and reader agree on layout by construction.
    """

    def __init__(self, spec: SlabExchangeSpec, create: bool) -> None:
        self.spec = spec
        self.owner = create
        self._segments: Dict[Tuple[int, int], shared_memory.SharedMemory] = {}
        try:
            for source in range(spec.shards):
                nbytes = spec.segment_bytes(source)
                if nbytes == 0:  # single shard: nothing ever crosses
                    continue
                for parity in (0, 1):
                    name = spec.segment_name(source, parity)
                    if create:
                        segment = shared_memory.SharedMemory(
                            name=name, create=True, size=nbytes
                        )
                    else:
                        segment = _attach(name)
                    self._segments[(source, parity)] = segment
        except BaseException:
            if create:
                self.destroy()  # release whatever was already allocated
            else:
                self.close()
            raise

    @property
    def segment_names(self) -> List[str]:
        return [segment.name for segment in self._segments.values()]

    # ------------------------------------------------------------------
    # Data path
    # ------------------------------------------------------------------
    def write(
        self,
        source: int,
        parity: int,
        target: int,
        round_index: int,
        dest: np.ndarray,
        quanta: np.ndarray,
        columns: Dict[str, np.ndarray],
    ) -> None:
        """Write one outbound bundle into the ``(source, parity)`` outbox."""
        spec = self.spec
        segment = self._segments[(source, parity)]
        write_payload_slab(
            segment.buf,
            spec.region_offset(source, target),
            spec.capacity(source),
            round_index,
            dest,
            quanta,
            columns,
            spec.column_specs,
        )

    def read(
        self,
        source: int,
        parity: int,
        target: int,
        round_index: int,
        rows: int,
        copy: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
        """Read the bundle ``source`` wrote for ``target`` this round.

        Zero-copy views by default (receivers consume them within the
        round); ``copy=True`` for the parent's replay-history snapshot.
        The header must echo the expected ``(round, rows)`` — a mismatch
        means the protocol barrier broke, which is a bug, not a
        recoverable condition.
        """
        spec = self.spec
        segment = self._segments[(source, parity)]
        got_round, got_rows, dest, quanta, columns = read_payload_slab(
            segment.buf,
            spec.region_offset(source, target),
            spec.capacity(source),
            spec.column_specs,
            copy=copy,
        )
        if got_round != round_index or got_rows != rows:
            raise RuntimeError(
                f"slab exchange protocol violation: shard {source} buffer {parity} "
                f"region {target} holds round {got_round} ({got_rows} rows), "
                f"expected round {round_index} ({rows} rows)"
            )
        return dest, quanta, columns

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drop this process's mappings (workers; idempotent)."""
        for segment in self._segments.values():
            try:
                segment.close()
            except BufferError:  # pragma: no cover - a live view escaped
                pass
        self._segments = {}

    def destroy(self) -> None:
        """Owner teardown: unlink every segment, then close (idempotent)."""
        for segment in self._segments.values():
            try:
                segment.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass
        self.close()
