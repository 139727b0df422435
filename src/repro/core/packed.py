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
