"""The centroids instantiation (Algorithm 2): k-means-style classification.

Summaries are collection centroids (weighted averages of the values), the
summary domain equals the value domain R^d, ``d_S`` is the L2 distance
between centroids, and ``partition`` greedily merges the closest groups
until the ``k`` bound is met.  This is the paper's running example of the
generic algorithm and the distributed analogue of k-means.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.collection import Collection
from repro.core.fingerprint import digest_array_rows, digest_arrays
from repro.core.packed import PackedState
from repro.core.scheme import SummaryScheme
from repro.core.weights import Quantization
from repro.obs.profiling import span

__all__ = ["CentroidScheme", "greedy_closest_pair_partition", "weighted_average_groups"]


def greedy_partition(
    positions: np.ndarray,
    weights: np.ndarray,
    heavy: np.ndarray,
    k: int,
) -> list[list[int]]:
    """Masked greedy closest-pair partition.

    Same greedy merge sequence as the incremental delete-based loop it
    replaces, but dead groups are masked with ``inf`` rows/columns
    instead of physically deleted, so each merge costs one recomputed
    row instead of an O(l^2) matrix copy.  Row-major ``argmin`` over
    the masked matrix visits surviving entries in the same order the
    compacted matrix would, so exact ties break identically.

    ``heavy[i]`` is False when collection ``i`` carries the minimum
    weight (rule 2: such singletons merge into their nearest group
    first).  Returns groups of original indices, survivors in
    original-index order.
    """
    n = positions.shape[0]
    if n == 0:
        raise ValueError("cannot partition zero collections")
    groups: list[list[int] | None] = [[i] for i in range(n)]
    points = positions.copy()
    masses = weights.astype(float, copy=True)
    has_heavy = heavy.astype(bool, copy=True)
    dead = np.zeros(n, dtype=bool)
    deltas = points[:, None, :] - points[None, :, :]
    distances_sq = np.einsum("abd,abd->ab", deltas, deltas)
    np.fill_diagonal(distances_sq, np.inf)
    alive = n

    def merge(a: int, b: int) -> None:
        """Fold group ``b`` into group ``a`` (requires ``a < b``)."""
        nonlocal alive
        total = masses[a] + masses[b]
        if not np.array_equal(points[a], points[b]):
            # Coincident points average to themselves; skipping the
            # arithmetic keeps the result byte-exact (no float dust),
            # which converged states rely on for content addressing.
            points[a] = (masses[a] * points[a] + masses[b] * points[b]) / total
        masses[a] = total
        groups[a].extend(groups[b])  # type: ignore[union-attr]
        has_heavy[a] = True  # merged groups always have >= 2 members
        groups[b] = None
        dead[b] = True
        distances_sq[b, :] = np.inf
        distances_sq[:, b] = np.inf
        row = ((points - points[a]) ** 2).sum(axis=1)
        row[dead] = np.inf
        row[a] = np.inf
        distances_sq[a, :] = row
        distances_sq[:, a] = row
        alive -= 1

    # Rule 2: merge every minimum-weight singleton with its nearest group.
    while alive > 1:
        lonely = next(
            (
                g
                for g in range(n)
                if groups[g] is not None and len(groups[g]) == 1 and not has_heavy[g]
            ),
            None,
        )
        if lonely is None:
            break
        other = int(np.argmin(distances_sq[lonely]))
        merge(min(lonely, other), max(lonely, other))

    # Rule 1: enforce the k bound by merging closest pairs.
    while alive > k:
        a, b = divmod(int(np.argmin(distances_sq)), n)
        merge(min(a, b), max(a, b))

    return [group for group in groups if group is not None]


def weighted_average_groups(
    rows: np.ndarray,
    quanta: np.ndarray,
    members: np.ndarray,
    sizes: np.ndarray,
) -> np.ndarray:
    """Batched weighted average of row groups (the centroid and histogram merge).

    Group ``g`` holds the next ``sizes[g]`` rows of ``members`` (a flat
    grouping).  Byte-parity contract with :meth:`CentroidScheme.merge_set` on each
    group's ``(row_i, float(q_i))`` pairs: ``sum(float(q_i) * row_i) /
    total`` accumulated left-to-right from zero, with byte-identical
    groups short-circuiting to a copy of their first row.  Groups are
    bucketed by size and each bucket runs as one zero-seeded
    accumulation over the slot axis, the order Python's ``sum`` adds in.
    """
    starts = np.cumsum(sizes) - sizes
    buckets = np.unique(sizes).tolist()
    # One size bucket covers every group (the common receive shape:
    # all-pairs merges): its rows are already in group order, so the
    # gather into ``out`` is skipped entirely.
    single_bucket = len(buckets) == 1
    out = None
    if not single_bucket:
        out = np.empty((len(sizes),) + rows.shape[1:], dtype=float)
    for m in buckets:
        gids = np.flatnonzero(sizes == m)
        idx = members[starts[gids, None] + np.arange(m)]
        sub = rows[idx]  # (G, m, ...)
        if m == 1:
            merged = sub[:, 0].copy()
        else:
            identical = (sub == sub[:, :1]).all(axis=tuple(range(1, sub.ndim)))
            w = quanta[idx].astype(float)
            acc = np.zeros_like(sub[:, 0])
            total = np.zeros(len(gids))
            for j in range(m):
                acc = acc + w[:, j, None] * sub[:, j]
                total = total + w[:, j]
            merged = acc / total[:, None]
            if identical.any():
                merged = np.where(identical[:, None], sub[:, 0], merged)
        if single_bucket:
            return merged
        assert out is not None
        out[gids] = merged
    return out


def greedy_closest_pair_partition(
    positions: np.ndarray,
    weights: np.ndarray,
    quanta: Sequence[int],
    k: int,
    quantization: Quantization,
) -> list[list[int]]:
    """Algorithm 2's ``partition``: repeatedly merge the closest groups.

    ``positions`` are the points the distance is measured between (the
    centroids, or any scheme's summary embedding); groups are merged by
    weighted average of their positions, exactly as the resulting merged
    collection's centroid would move.

    Two conformance rules are enforced: minimum-weight (one-quantum)
    collections are first merged with their nearest group, and merging
    continues until at most ``k`` groups remain.

    The closest pair is tracked through a squared-distance matrix with
    merged-away groups masked to ``inf`` (one recomputed row/column per
    merge, no matrix reallocation); see
    :func:`greedy_partition` for the loop itself
    and its byte-parity argument against the delete-based form.
    Squared distances order pairs exactly like distances, so the greedy
    choices are unchanged up to exact-tie rounding of ``sqrt``.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    weights = np.asarray(weights, dtype=float)
    n = positions.shape[0]
    if n == 0:
        raise ValueError("cannot partition zero collections")

    with span("schemes.greedy_partition"):
        return greedy_partition(positions, weights, ~quantization.is_minimum(np.asarray(quanta)), k)


class CentroidScheme(SummaryScheme):
    """Summaries are centroids; the distributed analogue of k-means.

    ``val_to_summary`` is the identity on R^d (Algorithm 2), ``merge_set``
    the weighted average, and ``distance`` the L2 norm.  Satisfies R1-R4
    exactly (the weighted average of centroids *is* the centroid of the
    union), which the property tests verify.
    """

    # Below the k bound the greedy merge loops never fire (rule 2 only
    # triggers on minimum-weight collections, which the node fast path
    # excludes), so partition is the identity there.
    identity_below_k = True
    supports_packed = True
    supports_fingerprints = True
    identity_partition_style = "greedy"

    def val_to_summary(self, value: Any) -> np.ndarray:
        summary = np.atleast_1d(np.asarray(value, dtype=float))
        if summary.ndim != 1:
            raise ValueError(f"centroid values must be vectors, got shape {summary.shape}")
        return summary

    def merge_set(self, items: Sequence[tuple[np.ndarray, float]]) -> np.ndarray:
        if not items:
            raise ValueError("cannot merge an empty set")
        total = sum(weight for _, weight in items)
        if total <= 0:
            raise ValueError("merged weight must be positive")
        first = np.asarray(items[0][0], dtype=float)
        if all(np.array_equal(first, summary) for summary, _ in items[1:]):
            # Identical summaries merge to themselves, exactly (see the
            # greedy merge guard above — same byte-stability argument).
            return first.copy()
        merged = sum(weight * summary for summary, weight in items) / total
        return np.asarray(merged, dtype=float)

    def partition(
        self,
        collections: Sequence[Collection],
        k: int,
        quantization: Quantization,
    ) -> list[list[int]]:
        positions = np.stack([collection.summary for collection in collections])
        weights = np.array([float(collection.quanta) for collection in collections])
        quanta = [collection.quanta for collection in collections]
        return greedy_closest_pair_partition(positions, weights, quanta, k, quantization)

    # ------------------------------------------------------------------
    # Packed hot path
    # ------------------------------------------------------------------
    def pack_summaries(self, summaries: Sequence[np.ndarray]) -> dict[str, np.ndarray]:
        return {"position": np.stack([np.asarray(s, dtype=float) for s in summaries])}

    def pack_values(self, values: Sequence[Any]) -> dict[str, np.ndarray]:
        array = np.asarray(values, dtype=float)
        if array.ndim == 1:
            array = array[:, None]
        if array.ndim != 2:
            raise ValueError(f"centroid values must be vectors, got shape {array.shape}")
        return {"position": np.ascontiguousarray(array)}

    def unpack_summary(self, columns: dict[str, np.ndarray], index: int) -> np.ndarray:
        return np.array(columns["position"][index], dtype=float)

    def partition_packed(
        self,
        packed: PackedState,
        k: int,
        quantization: Quantization,
    ) -> list[list[int]]:
        return greedy_closest_pair_partition(
            packed.columns["position"], packed.weights(), packed.quanta, k, quantization
        )

    def merge_groups_columns(
        self, packed: PackedState, members: np.ndarray, sizes: np.ndarray
    ) -> dict[str, np.ndarray]:
        return {
            "position": weighted_average_groups(
                packed.columns["position"], packed.quanta, members, sizes
            )
        }

    def digest_row(self, columns: dict[str, np.ndarray], index: int) -> bytes:
        return digest_arrays(columns["position"][index])

    def digest_rows(self, columns: dict[str, np.ndarray]) -> list[bytes]:
        return digest_array_rows(columns["position"])

    def distance(self, a: np.ndarray, b: np.ndarray) -> float:
        return float(np.linalg.norm(np.asarray(a, dtype=float) - np.asarray(b, dtype=float)))

    def summary_digest(self, summary: np.ndarray) -> bytes:
        return digest_arrays(np.asarray(summary, dtype=float))
