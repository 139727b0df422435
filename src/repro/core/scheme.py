"""The instantiation interface of the generic algorithm.

Algorithm 1 is generic: it is instantiated with a summary domain ``S`` and
three functions — ``valToSummary``, ``mergeSet`` and ``partition`` — plus a
pseudo-metric ``d_S`` on summaries.  This module defines that contract as
the :class:`SummaryScheme` strategy interface, together with a validator
for the structural rules ``partition`` must respect.

Section 4.2.1 places four requirements on instantiations; they are recorded
here so scheme implementations (and the property tests in
``tests/core/test_requirements.py``) can refer to them by name:

R1  Summaries are Lipschitz in the mixture space: collections whose mixture
    vectors are close in angle have summaries close in ``d_S``.
R2  ``valToSummary(val_i) == f(e_i)``: initial summaries agree with ``f``.
R3  ``f`` is scale-invariant: ``f(v) == f(alpha * v)`` for ``alpha > 0``.
    (This is why schemes may treat integer quanta counts as weights.)
R4  Merging summaries commutes with merging collections:
    ``mergeSet({(f(v), |v|_1)}) == f(sum v)``.

R2-R4 give Lemma 1 (the summaries a node maintains are exactly the
summaries of the collections its mixture vectors describe); R1 turns
mixture-space convergence into summary convergence (Corollary 1).
"""

from __future__ import annotations

import abc
from typing import Any, Generic, Sequence, TypeVar

import numpy as np

from repro.core.collection import Collection
from repro.core.packed import PackedState, flatten_groups, split_groups, unpack_collections
from repro.core.weights import Quantization

__all__ = ["SummaryScheme", "PartitionError", "validate_partition"]

S = TypeVar("S")


class PartitionError(ValueError):
    """Raised when a partition violates Algorithm 1's structural rules."""


class SummaryScheme(abc.ABC, Generic[S]):
    """Strategy object bundling the application-specific functions.

    Implementations must satisfy requirements R1-R4 above for the
    convergence theorem (Section 6) to apply; the repository ships
    machine checks for all four in the test suite.

    Nodes run every scheme through the packed entry points
    (``pack_summaries`` / ``unpack_summary`` / ``partition_packed`` /
    ``merge_groups_columns``).  Their defaults wrap the object-level
    contract over one object column, so implementing the four abstract
    methods is enough to run on any node; a scheme overrides them with
    numeric columns (and declares ``supports_packed``) for speed and for
    the arena engines.  ``identity_below_k`` lets nodes skip ``partition``
    outright on small pooled sets (see ``docs/performance.md`` for both
    contracts).
    """

    #: Fast-path contract: when true, ``partition(collections, k, q)``
    #: is guaranteed to return the identity partition — singleton groups
    #: in index order — whenever ``len(collections) <= k`` and either a
    #: single collection is given or no collection has minimum weight
    #: (conformance rule 2 never fires).  Nodes then skip the partition
    #: call entirely.  The shipped schemes all satisfy this: the EM
    #: reduction returns singletons at ``l <= k`` and the greedy
    #: closest-pair merge loop never runs below the bound.
    identity_below_k: bool = False

    #: True when the scheme overrides the packed entry points below with
    #: numeric columns.  Nodes run any scheme (the defaults wrap the
    #: object contract); the arena engines in :mod:`repro.mega` need real
    #: numeric columns and refuse schemes without this flag.
    supports_packed: bool = False

    #: True when the scheme implements :meth:`summary_digest`, making its
    #: summaries content-addressable.  Nodes then maintain per-collection
    #: digests and participate in the run's merge cache and the kernel's
    #: quiescence probe (see :mod:`repro.core.fingerprint`).
    supports_fingerprints: bool = False

    #: How the scheme's ``partition`` groups a pooled set whose members
    #: are byte-identical copies of a few distinct "locations": ``"em"``
    #: (EM reduction: groups = locations in maximin seed order, subject
    #: to the certificate's margin check) or ``"greedy"`` (closest-pair
    #: merging: groups = locations in first-occurrence order, when the
    #: location count equals ``k``).  ``None`` disables the certified
    #: no-op receive path for the scheme.
    identity_partition_style: str | None = None

    @abc.abstractmethod
    def val_to_summary(self, value: Any) -> S:
        """Summarise a single whole input value (Algorithm 1 line 2)."""

    @abc.abstractmethod
    def merge_set(self, items: Sequence[tuple[S, float]]) -> S:
        """Summarise the union of collections given their (summary, weight) pairs.

        Weights may be given in any common scale (R3 guarantees the result
        is the same); the algorithm passes integer quanta counts.
        """

    @abc.abstractmethod
    def partition(
        self,
        collections: Sequence[Collection],
        k: int,
        quantization: Quantization,
    ) -> list[list[int]]:
        """Group collections for merging (Algorithm 1 line 10).

        Returns a partition of ``range(len(collections))`` into at most
        ``k`` groups.  Every minimum-weight collection (weight exactly
        ``q``) must share its group with at least one other collection
        whenever the input has more than one collection.
        """

    @abc.abstractmethod
    def distance(self, a: S, b: S) -> float:
        """The pseudo-metric ``d_S`` on the summary domain."""

    # ------------------------------------------------------------------
    # Packed entry points — defaults wrap the object contract
    # ------------------------------------------------------------------
    def pack_summaries(self, summaries: Sequence[S]) -> dict[str, Any]:
        """Stack summaries into the scheme's packed column arrays.

        Every returned array must have leading dimension
        ``len(summaries)`` with row ``i`` encoding ``summaries[i]``
        exactly (the same float values ``partition`` would stack from the
        summary objects).  The default keeps the summary objects
        themselves in one object column, ``"summary"``.
        """
        column = np.empty(len(summaries), dtype=object)
        for index, summary in enumerate(summaries):
            column[index] = summary
        return {"summary": column}

    def partition_packed(
        self,
        packed: PackedState,
        k: int,
        quantization: Quantization,
    ) -> list[list[int]]:
        """Array-native ``partition``: same contract, packed input.

        Must return exactly the groups ``partition`` would return for
        the equivalent collection list — the parity suite enforces this
        byte for byte.  The default runs ``partition`` on exactly that
        list.
        """
        return self.partition(unpack_collections(self, packed), k, quantization)

    def partition_packed_batch(
        self, pooled: PackedState, bounds: Sequence[int], k: int, quantization: Quantization
    ) -> tuple[np.ndarray, np.ndarray]:
        """``partition_packed`` of every problem of one pooled block.

        Problem ``p`` owns rows ``bounds[p]:bounds[p+1]``.  Returns the
        block's flat grouping (:func:`~repro.core.packed.flatten_groups`),
        each problem's groups exactly as ``partition_packed`` returns them
        for it alone, member order included.  The default loops over
        problem views; schemes override it to solve them in stacks.
        """
        views = (
            PackedState(pooled.quanta[lo:hi], {n: c[lo:hi] for n, c in pooled.columns.items()})
            for lo, hi in zip(bounds[:-1], bounds[1:])
        )
        return flatten_groups([self.partition_packed(v, k, quantization) for v in views], bounds)

    # ------------------------------------------------------------------
    # Batch (whole-network) entry points — used by the arena engine
    # ------------------------------------------------------------------
    def pack_values(self, values: Sequence[Any]) -> dict[str, Any]:
        """Pack one summary row per input value, in one call.

        Must be byte-identical to
        ``pack_summaries([val_to_summary(v) for v in values])``; the
        default does exactly that.  Schemes override it with a
        vectorised construction so the arena engine can initialise a
        million-node arena without a million Python objects.
        """
        return self.pack_summaries([self.val_to_summary(value) for value in values])

    def unpack_summary(self, columns: dict[str, Any], index: int) -> S:
        """Reconstruct the summary object encoded by packed row ``index``.

        The inverse of ``pack_summaries`` for one row: packing the
        returned summary again must reproduce the row byte for byte.
        The returned object must own its arrays (no views into
        ``columns`` — arena rows are overwritten in place).  The default
        reads the object column of the default ``pack_summaries``.
        """
        return columns["summary"][index]

    def merge_groups_columns(
        self, packed: PackedState, members: np.ndarray, sizes: np.ndarray
    ) -> dict[str, Any]:
        """Array-native ``merge_set``: merge groups straight to packed column rows.

        The groups are a flat grouping over ``packed``'s rows (group ``g``
        holds the next ``sizes[g]`` rows of ``members``).  Returns the
        scheme's packed columns holding one merged row per group, in
        group order.  Row ``g`` must be byte-identical to packing
        ``merge_set`` over group ``g``'s ``(unpack_summary(columns, i),
        float(quanta[i]))`` pairs; the default computes exactly that.
        Schemes with array-native merges override it with batched kernels
        (:func:`repro.ml.gaussian.pool_moments_groups`,
        :func:`repro.schemes.centroid.weighted_average_groups`) so a
        receiving node never constructs summary objects at all.
        """
        quanta = packed.quanta.tolist()
        (groups,) = split_groups(members, sizes, [0, len(members)])
        return self.pack_summaries(
            [
                self.merge_set(
                    [(self.unpack_summary(packed.columns, i), float(quanta[i])) for i in group]
                )
                for group in groups
            ]
        )

    # ------------------------------------------------------------------
    # Content addressing — optional, see supports_fingerprints
    # ------------------------------------------------------------------
    def digest_row(self, columns: dict[str, Any], index: int) -> bytes:
        """Content digest of packed row ``index`` (see ``summary_digest``).

        Must equal ``summary_digest(unpack_summary(columns, index))``;
        the default computes exactly that.  Schemes override it to hash
        the row's column slices directly, skipping the intermediate
        summary object.
        """
        return self.summary_digest(self.unpack_summary(columns, index))

    def digest_rows(self, columns: dict[str, Any]) -> list[bytes]:
        """``digest_row`` of every row of ``columns``, in order.  The default
        loops; schemes override it to hash the rows in one pass."""
        count = len(next(iter(columns.values())))
        return [self.digest_row(columns, index) for index in range(count)]

    def summary_digest(self, summary: S) -> bytes:
        """Stable content digest of one summary.

        Two summaries must share a digest iff their packed rows are
        byte-identical — i.e. iff substituting one for the other leaves
        every downstream partition/merge bit-for-bit unchanged.  Schemes
        typically hash their packed column arrays via
        :func:`repro.core.fingerprint.digest_arrays`.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not support content-addressed summaries"
        )


def validate_partition(
    groups: Sequence[Sequence[int]],
    collections: Sequence[Collection] | PackedState,
    k: int,
    quantization: Quantization,
) -> None:
    """Check a partition against Algorithm 1's two conformance rules.

    ``collections`` is the pooled set the groups index into, as
    collection objects or as packed rows.

    Rule 1: at most ``k`` groups.  Rule 2: no group consists of a single
    collection of minimum weight ``q`` (unless that collection is the only
    one in the input, in which case no merge partner exists).

    Additionally verifies the groups are an exact partition — every index
    exactly once — since weight conservation depends on it.

    Raises
    ------
    PartitionError
        On any violation.
    """
    if len(groups) > k:
        raise PartitionError(f"partition produced {len(groups)} groups, bound is k={k}")
    seen: set[int] = set()
    for group in groups:
        if not group:
            raise PartitionError("partition contains an empty group")
        for index in group:
            if index in seen:
                raise PartitionError(f"collection index {index} appears in two groups")
            if not 0 <= index < len(collections):
                raise PartitionError(f"collection index {index} out of range")
            seen.add(index)
    if len(seen) != len(collections):
        missing = set(range(len(collections))) - seen
        raise PartitionError(f"partition drops collection indices {sorted(missing)}")
    if isinstance(collections, PackedState):
        quanta = collections.quanta.tolist()
    else:
        quanta = [collection.quanta for collection in collections]
    if len(quanta) > 1:
        for group in groups:
            if len(group) == 1 and quantization.is_minimum(quanta[group[0]]):
                raise PartitionError(
                    "a minimum-weight collection was left unmerged "
                    f"(index {group[0]}); Section 4.1 rule 2 forbids this"
                )
