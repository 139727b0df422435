"""Mixture reduction: grouping an l-GM into a k-GM via Expectation Maximization.

Section 5.2 of the paper: when a node accumulates more than ``k``
collections, it must merge some of them.  The ideal grouping maximises the
likelihood of the ``l``-component mixture under the best ``k``-component
mixture, which is NP-hard, so — "following common practice" — the paper
approximates it with EM.  Here the *data points* of the EM are themselves
weighted Gaussians (the collections), so the E-step scores a candidate
group by the **expected** log-density of an inner Gaussian under the
group's moment-matched outer Gaussian (see
:func:`repro.ml.gaussian.expected_log_density`), and the M-step is the
closed-form moment match of :func:`repro.ml.gaussian.pool_moments`.

Assignments are *hard* because the generic algorithm's ``partition`` must
return a partition — a collection is merged wholly into one group, never
fractionally shared (sharing happens upstream, through weight splitting).

Hard EM exists in two spellings that share every piece of arithmetic
(features, M-step, scores): :func:`reduce_mixture` solves one problem,
and :func:`reduce_mixture_batch` solves a stack of equal-size problems in
one pass (both engines' batched receive solves pose a round's problems
this way).  A problem's groups, iteration count and
:func:`em_iterations_total` contribution do not depend on the spelling or
on the batch it is solved in; ``tests/ml/test_reduction.py`` pins this
byte for byte.  A receive posed alone keeps the scalar spelling: a batch
of one pays the stack's bookkeeping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import Optional, Sequence

from repro.ml.gaussian import pool_moments
from repro.ml.gmm import GaussianMixtureModel
from repro.ml.linalg import (
    cholesky_log_det_batch,
    regularize_covariance,
    triangular_inverse_batch,
)
from repro.obs.profiling import span

__all__ = [
    "ReductionResult",
    "em_iterations_total",
    "reduce_mixture",
    "reduce_mixture_batch",
]

#: Process-wide count of hard-EM iterations executed by
#: :func:`reduce_mixture` and :func:`reduce_mixture_batch` (one count
#: per problem per iteration).  Telemetry reads this as a monotone gauge
#: and reports per-round deltas; it is observational only and never
#: feeds back into the algorithm.
_EM_ITERATIONS_TOTAL = 0


def em_iterations_total() -> int:
    """Cumulative hard-EM iterations run so far, summed over problems."""
    return _EM_ITERATIONS_TOTAL

#: Ridge applied to group covariances when *scoring* only; the reported
#: moment-matched covariances are exact.
_SCORING_RIDGE = 1e-6

_LOG_2PI = float(np.log(2.0 * np.pi))

#: Below this component count the scalar maximin seeding runs on a fused
#: pairwise distance matrix (one batched computation reused by the seed
#: walk *and* the initial assignment).  The gossip receive path always
#: sits far below it; centralized reductions of thousands of components
#: keep the O(l*k) row-at-a-time form to avoid an O(l^2 d) intermediate.
_FUSED_PAIRWISE_MAX = 64

#: Cap on the component rows one pass of the stacked core holds, so a
#: round with a million receive problems runs in bounded slices.
_BATCH_ROWS = 1 << 15


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of an l-GM -> k-GM reduction.

    ``model`` is ``None`` when the caller requested ``build_model=False``
    (the schemes' partition hot path only consumes ``groups``).
    """

    groups: tuple[tuple[int, ...], ...]
    model: Optional[GaussianMixtureModel]
    iterations: int
    converged: bool


def _group_moments(
    groups: Sequence[Sequence[int]],
    weights: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Moment-match each group; returns (group_weights, group_means, group_covs)."""
    d = means.shape[1]
    group_weights = np.empty(len(groups))
    group_means = np.empty((len(groups), d))
    group_covs = np.empty((len(groups), d, d))
    for j, group in enumerate(groups):
        idx = np.asarray(group, dtype=int)
        group_weights[j] = weights[idx].sum()
        group_means[j], group_covs[j] = pool_moments(weights[idx], means[idx], covs[idx])
    return group_weights, group_means, group_covs


def _moments_from_assignment(
    compact: np.ndarray,
    k_occupied: int,
    weights: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Segment-sum moment match over a compact hard assignment.

    ``compact`` holds group labels in ``0..k_occupied-1`` with every label
    occupied.  One pass of ``np.bincount``/``np.add.at`` replaces the
    Python loop over groups: this is the M-step for *all* groups at once.
    Both accumulate in row order, so a group's moments are the same
    bytes whether its labels are local to one problem or global ids
    over a whole batch.
    """
    d = means.shape[1]
    group_weights = np.bincount(compact, weights=weights, minlength=k_occupied)
    group_means = np.zeros((k_occupied, d))
    np.add.at(group_means, compact, weights[:, None] * means)
    group_means /= group_weights[:, None]
    centered = means - group_means[compact]
    spread = covs + centered[:, :, None] * centered[:, None, :]
    group_covs = np.zeros((k_occupied, d, d))
    np.add.at(group_covs, compact, weights[:, None, None] * spread)
    group_covs /= group_weights[:, None, None]
    group_covs = (group_covs + np.swapaxes(group_covs, -2, -1)) * 0.5
    return group_weights, group_means, group_covs


def _score_features(means: np.ndarray, covs: np.ndarray) -> np.ndarray:
    """Per-component feature rows ``[vec(C_i + mu_i mu_i^T), mu_i, 1]``.

    The expected log-density of component ``i`` under any group Gaussian
    is *linear* in these features (see :func:`_score_matrix`), so they are
    computed once per reduction and reused by every EM iteration.
    """
    l, d = means.shape
    spread = covs + means[:, :, None] * means[:, None, :]
    features = np.empty((l, d * d + d + 1))
    features[:, : d * d] = spread.reshape(l, d * d)
    features[:, d * d : d * d + d] = means
    features[:, -1] = 1.0
    return features


def _score_coefficients(
    d: int,
    log_pi: np.ndarray,
    group_means: np.ndarray,
    group_covs: np.ndarray,
    block: int | None = None,
) -> np.ndarray:
    """Per-group score coefficients ``[-1/2 vec(P_j), P_j m_j, const_j]``.

    ``log_pi (G,)``, ``group_means (G, d)``, ``group_covs (G, d, d)``;
    returns ``(G, d^2+d+1)``.  Every group's row is computed elementwise
    (or by one LAPACK call per matrix), so it does not depend on which
    other groups share the call; ``block`` is the groups per problem
    when the call spans several (see :func:`cholesky_log_det_batch`).
    See :func:`_score_matrix`.
    """
    if d == 2:
        # Inline regularize_covariance for the 2x2 stack: symmetrise,
        # then add a relative ridge on the diagonal.
        off = (group_covs[:, 0, 1] + group_covs[:, 1, 0]) * 0.5
        a = group_covs[:, 0, 0]
        e = group_covs[:, 1, 1]
        floor = np.maximum((a + e) * (0.5 * _SCORING_RIDGE), _SCORING_RIDGE)
        a = a + floor
        e = e + floor
        det = a * e - off * off
        log_dets = np.log(det)
        inv_det = 1.0 / det
        p00 = e * inv_det
        p11 = a * inv_det
        p01 = -off * inv_det
        m0 = group_means[:, 0]
        m1 = group_means[:, 1]
        s0 = p00 * m0 + p01 * m1
        s1 = p01 * m0 + p11 * m1
        consts = log_pi - 0.5 * (2.0 * _LOG_2PI + log_dets + (s0 * m0 + s1 * m1))
        coefficients = np.empty((len(log_pi), 7))
        coefficients[:, 0] = -0.5 * p00
        coefficients[:, 1] = -0.5 * p01
        coefficients[:, 2] = coefficients[:, 1]
        coefficients[:, 3] = -0.5 * p11
        coefficients[:, 4] = s0
        coefficients[:, 5] = s1
        coefficients[:, 6] = consts
        return coefficients
    regularized = regularize_covariance(group_covs, _SCORING_RIDGE)
    lowers, log_dets = cholesky_log_det_batch(regularized, _SCORING_RIDGE, block)
    lower_invs = triangular_inverse_batch(lowers)
    precisions = np.matmul(np.swapaxes(lower_invs, -2, -1), lower_invs)
    scaled_means = np.einsum("jab,jb->ja", precisions, group_means)
    mean_quads = np.einsum("ja,ja->j", scaled_means, group_means)
    consts = log_pi - 0.5 * (d * _LOG_2PI + log_dets + mean_quads)
    return np.concatenate(
        [-0.5 * precisions.reshape(-1, d * d), scaled_means, consts[:, None]],
        axis=1,
    )


def _score_matrix(
    features: np.ndarray,
    d: int,
    group_weights: np.ndarray,
    group_means: np.ndarray,
    group_covs: np.ndarray,
) -> np.ndarray:
    """Expected complete-data log-likelihood of component i under group j.

    Vectorised form of :func:`repro.ml.gaussian.expected_log_density`
    over all components and groups at once: for group covariance ``S``,
    precision ``P = S^-1`` and component ``(mu_i, C_i)``::

        log pi_j - 1/2 (d log 2pi + log|S| + tr(P C_i) + (mu_i-m_j)^T P (mu_i-m_j))

    The score decomposes linearly over the per-component features
    ``[vec(C_i + mu_i mu_i^T), mu_i, 1]`` with per-group coefficients
    ``[-1/2 vec(P_j), P_j m_j, const_j]``: both ``tr(P C)`` and the
    quadratic form are Frobenius inner products against ``P_j``.  The
    whole E-step is then a single ``(l, d^2+d+1) @ (d^2+d+1, k)`` matrix
    product — no per-group ``inv``/``slogdet`` calls, no ``(l, k, d)``
    intermediates.

    For ``d == 2`` — every sensor-plane workload in the paper — the
    (ridge-regularised) precisions and log-determinants come from the
    closed-form 2x2 adjugate instead of a batched Cholesky; the gossip
    hot path calls this on 5-group stacks where the LAPACK round trip
    costs more than the whole remaining E-step.  Larger ``d`` keeps the
    batched factorisation.  This routine is the *single* scoring
    definition shared by the EM loop, its stacked spelling
    (:func:`_score_stack`) and the merge-cache no-op certificates, so
    every consumer sees identical scores.
    """
    log_pi = np.log(group_weights / group_weights.sum())
    return features @ _score_coefficients(d, log_pi, group_means, group_covs).T


def _score_stack(
    features: np.ndarray,
    d: int,
    group_weights: np.ndarray,
    group_means: np.ndarray,
    group_covs: np.ndarray,
) -> np.ndarray:
    """:func:`_score_matrix` for ``P`` problems of ``k`` groups each.

    ``features (P, l, F)``, ``group_weights (P, k)`` and the groups'
    moments flattened to ``(P*k, d)`` / ``(P*k, d, d)``; returns
    ``(P, l, k)``.  The mixing-weight total reduces each problem's own
    ``k`` lane, and the product is one stacked ``(P, l, F) @ (P, F, k)``
    matmul, which numpy runs as one BLAS call per slice with the scalar
    spelling's operand layout: each problem gets the bytes it gets
    alone.
    """
    problems, count = group_weights.shape
    log_pi = np.log(group_weights / group_weights.sum(axis=1, keepdims=True)).ravel()
    coefficients = _score_coefficients(d, log_pi, group_means, group_covs, count)
    return features @ coefficients.reshape(problems, count, -1).swapaxes(1, 2)


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
    """:func:`_maximin_seeds` on a precomputed distance matrix.

    The same walk, byte for byte: heaviest component first, then greedy
    farthest-point, ties to the lowest index, stopping early when every
    remaining point coincides with a seed.  Returns the chosen component
    indices (callers take ``distance_matrix[:, chosen]`` as the seed
    distances).
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


def _maximin_seeds(weights: np.ndarray, means: np.ndarray, k: int) -> np.ndarray:
    """Deterministic seed selection: heaviest first, then farthest-point.

    The classic 2-approximation for k-centers: each subsequent seed is
    the component farthest (in mean distance) from all chosen seeds.
    Deterministic by construction — ties resolve to the lowest index.
    """
    first = int(np.argmax(weights))
    chosen = [first]
    closest_sq = np.sum((means - means[first]) ** 2, axis=1)
    for _ in range(1, k):
        candidate = int(np.argmax(closest_sq))
        if closest_sq[candidate] <= 0.0:
            break  # all remaining components coincide with a seed
        chosen.append(candidate)
        closest_sq = np.minimum(
            closest_sq, np.sum((means - means[candidate]) ** 2, axis=1)
        )
    return means[chosen]


def _seed_stack(weights: np.ndarray, means: np.ndarray, k: int) -> np.ndarray:
    """Maximin seeding of a ``(P, l)`` stack; returns the initial assignment.

    The walk of :func:`_maximin_seeds`, one problem per row.  Each
    component's nearest-seed distance *is* the walk's running
    ``closest`` row, so one distance row per seed serves both the walk
    and the assignment (ties to the earlier seed, like ``argmin`` over
    the chosen seeds).  Rows reduce the lanes of the scalar spelling.  A
    problem whose remaining components all coincide with seeds has an
    all-zero ``closest`` row, so no later seed is strictly nearer to any
    of its components: its early stop needs no mask.
    """
    problems = np.arange(weights.shape[0])
    closest = np.add.reduce((means - means[problems, weights.argmax(axis=1), None]) ** 2, axis=2)
    assignment = np.zeros(closest.shape, dtype=np.intp)
    for slot in range(1, k):
        seed = means[problems, closest.argmax(axis=1), None]
        distances = np.add.reduce((means - seed) ** 2, axis=2)
        assignment[distances < closest] = slot
        closest = np.minimum(closest, distances)
    return assignment


def _compact_stack(assignment: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row :func:`compact_labels` of a ``(P, l)`` stack.

    Returns the compact labels and each row's occupied-group count.
    """
    rows = np.arange(assignment.shape[0])[:, None]
    occupied = np.zeros((assignment.shape[0], int(assignment.max()) + 1), dtype=bool)
    occupied[rows, assignment] = True
    lookup = occupied.cumsum(axis=1) - 1
    return lookup[rows, assignment], lookup[:, -1] + 1


def _e_step(
    weights: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    features: np.ndarray,
    compact: np.ndarray,
    occupied: int,
) -> np.ndarray:
    """One M-step + E-step for problems that all hold ``occupied`` groups.

    The moments of every group of the stack come from one segment sum
    over global group ids (problem ``p``'s group ``j`` is
    ``p * occupied + j``); the scores from one stacked product.  Returns
    the new assignment, with empty groups repaired.
    """
    problems, size = compact.shape
    d = means.shape[-1]
    offsets = np.arange(0, problems * occupied, occupied)[:, None]
    group_weights, group_means, group_covs = _moments_from_assignment(
        (compact + offsets).ravel(),
        problems * occupied,
        weights.ravel(),
        means.reshape(-1, d),
        covs.reshape(-1, d, d),
    )
    scores = _score_stack(
        features, d, group_weights.reshape(problems, occupied), group_means, group_covs
    )
    assignment = scores.argmax(axis=2)
    members = np.bincount((assignment + offsets).ravel(), minlength=problems * occupied)
    if members.all():
        return assignment
    members = members.reshape(problems, occupied)
    for p in np.flatnonzero(~members.all(axis=1)).tolist():
        # Repair empty groups (possible when seeds collapse), one problem
        # at a time: move the worst-explained components into them.
        best = scores[p, np.arange(size), assignment[p]]
        order = np.argsort(best)  # worst fit first
        for j, i in zip(np.flatnonzero(members[p] == 0), order):
            assignment[p, int(i)] = int(j)
    return assignment


def _hard_em(
    weights: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    k: int,
    max_iterations: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hard EM over ``P`` equal-size problems with more than ``k`` rows.

    Returns per-problem final labels ``(P, l)`` (group ``j`` = the
    ``j``-th smallest label), iteration counts and converged flags.
    Each problem freezes at its own fixed point; only the problems still
    moving take part in later iterations.
    """
    # Seed group centres deterministically: the heaviest component first,
    # then greedy farthest-point (maximin) selection.  Unlike randomised
    # k-means++ this *always* covers well-separated clusters, so a node
    # can never draw an unlucky seeding that merges a distant outlier
    # cluster into the bulk — an irreversible mistake under the
    # algorithm's lossy compression (merged collections never separate).
    assignment = _seed_stack(weights, means, k)
    labels = np.empty_like(assignment)
    problems, size, d = means.shape
    iterations = np.zeros(problems, dtype=np.int64)
    converged = np.zeros(problems, dtype=bool)
    active = np.arange(problems)
    features = _score_features(means.reshape(-1, d), covs.reshape(-1, d, d)).reshape(
        problems, size, -1
    )
    with span("ml.reduce_mixture"):
        for iteration in range(1, max_iterations + 1):
            # Relabel occupied groups compactly (occupied labels keep
            # their sorted order), then step every problem, one stack
            # per occupied-group count so no problem sees padding.  A
            # problem with one group keeps every component in it.
            compact, occupied = _compact_stack(assignment)
            low = int(occupied[0])
            if (occupied == low).all():
                new_assignment = (
                    _e_step(weights, means, covs, features, compact, low)
                    if low > 1
                    else compact
                )
            else:
                new_assignment = compact.copy()
                for count in np.unique(occupied[occupied > 1]).tolist():
                    sub = np.flatnonzero(occupied == count)
                    new_assignment[sub] = _e_step(
                        weights[sub], means[sub], covs[sub], features[sub], compact[sub], count
                    )
            moving = (new_assignment != compact).any(axis=1)
            if not moving.all():
                fixed = active[~moving]
                labels[fixed] = compact[~moving]
                iterations[fixed] = iteration
                converged[fixed] = True
                active = active[moving]
                if not len(active):
                    break
                new_assignment = new_assignment[moving]
                weights, means, covs, features = (
                    weights[moving],
                    means[moving],
                    covs[moving],
                    features[moving],
                )
            assignment = new_assignment
        else:
            labels[active] = assignment
            iterations[active] = max_iterations
    global _EM_ITERATIONS_TOTAL
    _EM_ITERATIONS_TOTAL += int(iterations.sum())
    return labels, iterations, converged


def _groups_of(labels: list[int]) -> tuple[tuple[int, ...], ...]:
    """Component indices bucketed by label: ascending labels, ascending indices."""
    buckets: dict[int, list[int]] = {}
    for i, label in enumerate(labels):
        buckets.setdefault(label, []).append(i)
    return tuple(tuple(buckets[label]) for label in sorted(buckets))


def reduce_mixture_batch(
    weights: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    k: int,
    max_iterations: int = 50,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Group each of ``P`` equal-size ``l``-mixtures into at most ``k`` groups.

    ``weights``, ``means`` and ``covs`` have shapes ``(P, l)``,
    ``(P, l, d)`` and ``(P, l, d, d)``.  Returns the label stack
    ``(P, l)``, the iteration counts and the converged flags.  Problem
    ``p``'s group ``j`` is the components holding the ``j``-th smallest
    of its labels, ascending: exactly :func:`reduce_mixture`'s groups with
    ``build_model=False``, and its iteration count and converged flag.
    The stack runs in slices of at most ``_BATCH_ROWS`` component rows.
    """
    problems, size = weights.shape
    if size <= k:
        labels = np.broadcast_to(np.arange(size), (problems, size))
        return labels, np.zeros(problems, dtype=np.int64), np.ones(problems, dtype=bool)
    step = max(1, _BATCH_ROWS // size)
    cuts = [slice(low, low + step) for low in range(0, problems, step)]
    slices = [_hard_em(weights[cut], means[cut], covs[cut], k, max_iterations) for cut in cuts]
    labels, iterations, converged = (np.concatenate(part) for part in zip(*slices))
    return labels, iterations, converged


def reduce_mixture(
    weights: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    k: int,
    rng: np.random.Generator | None = None,
    max_iterations: int = 50,
    build_model: bool = True,
) -> ReductionResult:
    """Group ``l`` weighted Gaussians into at most ``k`` groups by hard EM.

    Parameters
    ----------
    weights, means, covs:
        The input components: shapes ``(l,)``, ``(l, d)``, ``(l, d, d)``.
    k:
        Maximum number of output groups.
    rng:
        Accepted for API stability; the reduction is fully deterministic
        (maximin seeding), so the generator is not consulted.
    max_iterations:
        Hard cap on EM iterations; hard-assignment EM either cycles or
        reaches a fixed point, and the fixed point is detected exactly.
    build_model:
        When false, skip constructing the moment-matched output mixture
        (``result.model`` is ``None``).  The scheme partition hot path
        only needs ``groups``, so it opts out of the extra k moment
        matches per call.

    Returns
    -------
    ReductionResult
        ``groups`` partitions ``range(l)``; ``model`` is the
        moment-matched reduced mixture.
    """
    weights = np.asarray(weights, dtype=float)
    means = np.atleast_2d(np.asarray(means, dtype=float))
    covs = np.asarray(covs, dtype=float)
    if covs.ndim == 2:
        covs = covs[None, :, :]
    l = weights.shape[0]
    if means.shape[0] != l or covs.shape[0] != l:
        raise ValueError("weights, means and covs must align")
    if k < 1:
        raise ValueError("k must be at least 1")

    if l <= k:
        groups = [[i] for i in range(l)]
        model = None
        if build_model:
            group_weights, group_means, group_covs = _group_moments(
                groups, weights, means, covs
            )
            model = GaussianMixtureModel(group_weights, group_means, group_covs)
        return ReductionResult(
            groups=tuple(tuple(group) for group in groups),
            model=model,
            iterations=0,
            converged=True,
        )

    # Seed group centres deterministically (see _hard_em).
    if l <= _FUSED_PAIRWISE_MAX:
        # Gossip-sized inputs: one fused pairwise matrix feeds both the
        # seed walk and the initial assignment.  Byte-identical to the
        # row-at-a-time form below (same lane lengths per reduction).
        distance_matrix = pairwise_sq_matrix(means)
        chosen = maximin_seed_walk(weights, distance_matrix, k)
        distances_sq = distance_matrix[:, chosen]
    else:
        seeds = _maximin_seeds(weights, means, k)
        distances_sq = np.sum((means[:, None, :] - seeds[None, :, :]) ** 2, axis=2)
    assignment = distances_sq.argmin(axis=1)

    converged = False
    iteration = 0
    d = means.shape[1]
    features = _score_features(means, covs)
    with span("ml.reduce_mixture"):
        for iteration in range(1, max_iterations + 1):
            # Relabel occupied groups compactly (occupied labels keep
            # their sorted order, matching the old group-list scan) and
            # moment-match them all in one segment-sum pass.
            compact, occupied_count = compact_labels(assignment)
            group_weights, group_means, group_covs = _moments_from_assignment(
                compact, occupied_count, weights, means, covs
            )
            scores = _score_matrix(
                features, d, group_weights, group_means, group_covs
            )
            new_assignment = scores.argmax(axis=1)

            # Repair empty groups (possible when k seeds collapse): move the
            # worst-explained component into its own group.
            counts = np.bincount(new_assignment, minlength=occupied_count)
            if not counts.all():
                free = np.flatnonzero(counts == 0)
                best = scores[np.arange(l), new_assignment]
                order = np.argsort(best)  # worst fit first
                for j, i in zip(free, order):
                    new_assignment[int(i)] = int(j)

            if (new_assignment == compact).all():
                converged = True
                break
            assignment = new_assignment

    global _EM_ITERATIONS_TOTAL
    _EM_ITERATIONS_TOTAL += iteration

    groups = _groups_of(assignment.tolist())
    model = None
    if build_model:
        group_weights, group_means, group_covs = _group_moments(
            groups, weights, means, covs
        )
        model = GaussianMixtureModel(group_weights, group_means, group_covs)
    return ReductionResult(
        groups=groups,
        model=model,
        iterations=iteration,
        converged=converged,
    )
