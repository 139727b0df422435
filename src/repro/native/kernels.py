"""Batched numpy kernels for the receive/merge hot loop.

Each kernel here replaces a Python-level loop over collections or
groups with one batched computation, under a strict byte-parity
contract with the unbatched reference it replaces (the schemes'
``merge_set_packed``, :func:`repro.ml.gaussian.pool_moments`, and the
incremental greedy partition).  The parity rules the implementations
lean on, enforced empirically by ``tests/native/test_kernels.py``:

- **Equal-size batching.**  numpy's pairwise summation splits a
  reduction by its lane length only, so reducing a gathered
  ``(G, m, ...)`` block over axis 1 is byte-identical to reducing each
  group's ``(m, ...)`` block over axis 0.  Groups are therefore
  bucketed by size and each bucket is reduced in one shot.
- **Sequential einsum.**  ``np.einsum`` contracts its summation index
  with a sequential C loop (no pairwise splitting), in both the
  per-group and the batched spelling.
- **Sequential emulation of Python ``sum``.**  Where the reference is
  a Python-level ``sum(...)`` (strictly left-to-right, seeded with
  ``0``), the batch accumulates with an explicit zero-seeded loop over
  the group slot axis.

Everything below is pure computation: no scheme objects, no
Collections, no I/O.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "compact_labels",
    "greedy_partition",
    "maximin_seed_walk",
    "pairwise_sq_matrix",
    "pool_moments_groups",
    "split_quanta",
    "weighted_average_groups",
]

# ----------------------------------------------------------------------
# Quanta arithmetic
# ----------------------------------------------------------------------
def split_quanta(quanta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-collection gossip split: returns ``(kept, sent)`` quanta.

    Mirrors ``ClassifierNode.make_message``: a node sends half of each
    collection's quanta (rounded down) and keeps the rest.  Integer
    arithmetic, so exact.
    """
    sent = quanta // 2
    return quanta - sent, sent


# ----------------------------------------------------------------------
# Hard-EM reduction primitives
# ----------------------------------------------------------------------
def pairwise_sq_matrix(points: np.ndarray) -> np.ndarray:
    """Full squared-distance matrix with byte-parity to the row form.

    Computed as ``(deltas ** 2).sum(axis=2)`` so each entry reduces a
    length-``d`` lane exactly like the per-row reference
    ``np.sum((points - points[i]) ** 2, axis=1)`` — same lane length,
    same pairwise splits, same bytes, for any ``d``.
    """
    deltas = points[:, None, :] - points[None, :, :]
    return (deltas**2).sum(axis=2)


def maximin_seed_walk(
    weights: np.ndarray, distance_matrix: np.ndarray, k: int
) -> list[int]:
    """Deterministic maximin seeding on a precomputed distance matrix.

    Byte-identical to the walk in ``repro.ml.reduction``: heaviest
    component first, then greedy farthest-point, ties to the lowest
    index, stopping early when every remaining point coincides with a
    seed.  Returns the chosen component indices (callers take
    ``distance_matrix[:, chosen]`` as the seed distances).
    """
    first = int(weights.argmax())
    chosen = [first]
    closest_sq = distance_matrix[first]
    for _ in range(1, k):
        candidate = int(closest_sq.argmax())
        if closest_sq[candidate] <= 0.0:
            break
        chosen.append(candidate)
        closest_sq = np.minimum(closest_sq, distance_matrix[candidate])
    return chosen


def compact_labels(assignment: np.ndarray) -> tuple[np.ndarray, int]:
    """Relabel an assignment to compact labels ``0..occupied-1``.

    Byte-equal to ``np.searchsorted(np.unique(a), a)`` (occupied labels
    keep their sorted order) without the sort: one bincount over the
    small label space and a cumulative-sum lookup.
    """
    occupied = np.bincount(assignment) > 0
    lookup = np.cumsum(occupied) - 1
    return lookup[assignment], int(lookup[-1]) + 1


# ----------------------------------------------------------------------
# Greedy closest-pair partition (Algorithm 2)
# ----------------------------------------------------------------------
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


# ----------------------------------------------------------------------
# Batched group merges
# ----------------------------------------------------------------------
def _buckets_by_size(groups: Sequence[Sequence[int]]) -> dict[int, list[int]]:
    by_size: dict[int, list[int]] = {}
    for gi, group in enumerate(groups):
        by_size.setdefault(len(group), []).append(gi)
    return by_size


def weighted_average_groups(
    rows: np.ndarray,
    quanta: np.ndarray,
    groups: Sequence[Sequence[int]],
) -> np.ndarray:
    """Batched weighted average of row groups (centroid/histogram merge).

    Byte-parity contract with the schemes' sequential
    ``merge_set_packed``: per group, ``sum(float(q_i) * row_i) / total``
    accumulated left-to-right from zero, with byte-identical groups
    short-circuiting to a copy of their first row.  Groups are bucketed
    by size and each bucket runs as one zero-seeded accumulation over
    the slot axis.
    """
    by_size = _buckets_by_size(groups)
    # One size bucket covers every group (the common receive shape:
    # all-pairs merges): its rows are already in group order, so the
    # gather into ``out`` is skipped entirely.
    single_bucket = len(by_size) == 1
    out = None
    if not single_bucket:
        out = np.empty((len(groups),) + rows.shape[1:], dtype=float)
    for m, gids in by_size.items():
        idx = np.array([groups[gi] for gi in gids], dtype=np.intp)
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


def pool_moments_groups(
    quanta: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    groups: Sequence[Sequence[int]],
) -> tuple[np.ndarray, np.ndarray]:
    """Batched Gaussian moment pooling over row groups (GM merge).

    Byte-parity contract with :func:`repro.ml.gaussian.pool_moments`
    applied per group: identical components short-circuit to
    ``(mean[0], symmetrize(cov[0]))``; otherwise the weighted mean,
    scatter and within-group terms are computed with the same lane
    lengths (equal-size bucketing) and the same sequential einsum
    contractions, so every intermediate rounds identically.
    """
    # Imported here, not at module scope: repro.ml.reduction imports
    # this module, so a top-level repro.ml import would be circular.
    from repro.ml.linalg import symmetrize

    d = means.shape[1]
    by_size = _buckets_by_size(groups)
    single_bucket = len(by_size) == 1
    out_means = out_covs = None
    if not single_bucket:
        out_means = np.empty((len(groups), d))
        out_covs = np.empty((len(groups), d, d))
    for m, gids in by_size.items():
        idx = np.array([groups[gi] for gi in gids], dtype=np.intp)
        sub_means = means[idx]  # (G, m, d)
        sub_covs = covs[idx]  # (G, m, d, d)
        if m == 1:
            mean = sub_means[:, 0].copy()
            cov = symmetrize(sub_covs[:, 0])
        else:
            identical = (sub_means == sub_means[:, :1]).all(axis=(1, 2)) & (
                sub_covs == sub_covs[:, :1]
            ).all(axis=(1, 2, 3))
            w = quanta[idx].astype(float)
            total = w.sum(axis=1)
            mean = (w[:, :, None] * sub_means).sum(axis=1) / total[:, None]
            centered = sub_means - mean[:, None, :]
            scatter = np.einsum("gi,gij,gik->gjk", w, centered, centered)
            within = np.einsum("gi,gijk->gjk", w, sub_covs)
            cov = symmetrize((within + scatter) / total[:, None, None])
            if identical.any():
                mean = np.where(identical[:, None], sub_means[:, 0], mean)
                cov = np.where(
                    identical[:, None, None], symmetrize(sub_covs[:, 0]), cov
                )
        if single_bucket:
            return mean, cov
        assert out_means is not None and out_covs is not None
        out_means[gids] = mean
        out_covs[gids] = cov
    return out_means, out_covs
