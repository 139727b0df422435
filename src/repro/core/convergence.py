"""Convergence measurement machinery (Definition 3 and Section 6).

The paper proves convergence but, being asynchronous and topology-agnostic,
cannot bound its time; experiments therefore *measure* it.  This module
provides the instruments:

- :func:`classification_distance` — an earth-mover distance between two
  classifications over the scheme's summary pseudo-metric.  Definition 3's
  convergence (summaries approach their destinations *and* relative
  weights approach the destination weights) is exactly convergence of this
  distance to zero, so it is the single scalar all experiments track.
- :func:`match_collections` — the mapping ``psi_t`` of Definition 3 as a
  concrete minimum-cost assignment.
- :func:`max_reference_angles` / :func:`pool_collections` — the Lemma 2
  monotonicity invariant over the global pool of mixture vectors.
- :class:`ConvergenceDetector` — a practical stop rule: the run has
  converged once every node's classification has stopped moving.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

import numpy as np

from repro.core.classification import Classification
from repro.core.collection import Collection
from repro.core.node import ClassifierNode
from repro.core.scheme import SummaryScheme

__all__ = [
    "classification_distance",
    "match_collections",
    "disagreement",
    "pool_collections",
    "max_reference_angles",
    "ConvergenceDetector",
]


def classification_distance(
    a: Classification,
    b: Classification,
    scheme: SummaryScheme,
) -> float:
    """Earth-mover distance between two classifications.

    Each classification is viewed as a discrete probability distribution
    placing its collections' *relative* weights on their summaries; the
    ground metric is the scheme's ``d_S``.  Relative weights make the
    distance insensitive to absolute weight scale, matching Definition 3
    which constrains relative weights only.

    Solved exactly as a transportation linear program; with ``k`` bounded
    (typically <= 10 collections a side) the LP is trivial.
    """
    weights_a = a.relative_weights()
    weights_b = b.relative_weights()
    cost = np.array(
        [
            [scheme.distance(ca.summary, cb.summary) for cb in b]
            for ca in a
        ],
        dtype=float,
    )
    n_a, n_b = cost.shape
    if n_a == 1 and n_b == 1:
        return float(cost[0, 0])
    # Transportation LP: minimise sum f_ij c_ij with row sums weights_a and
    # column sums weights_b.  The final column constraint is linearly
    # dependent on the rest (both marginals sum to 1) and is dropped:
    # keeping it is redundant at best, and at worst the degenerate system
    # trips the solver's presolve into a spurious infeasibility when some
    # weights are many orders of magnitude below others.
    c = cost.reshape(-1)
    a_eq = []
    b_eq = []
    for i in range(n_a):
        row = np.zeros(n_a * n_b)
        row[i * n_b : (i + 1) * n_b] = 1.0
        a_eq.append(row)
        b_eq.append(weights_a[i])
    for j in range(n_b - 1):
        col = np.zeros(n_a * n_b)
        col[j::n_b] = 1.0
        a_eq.append(col)
        b_eq.append(weights_b[j])
    from scipy.optimize import linprog  # scipy.optimize is slow to import

    result = linprog(c, A_eq=np.array(a_eq), b_eq=np.array(b_eq), bounds=(0, None), method="highs")
    if not result.success:  # pragma: no cover - the LP above is always feasible
        raise RuntimeError(f"transportation LP failed: {result.message}")
    # The solver may return a tiny negative objective (or -0.0) at
    # optimality; a distance is never negative.
    return max(0.0, float(result.fun))


def match_collections(
    a: Classification,
    b: Classification,
    scheme: SummaryScheme,
) -> list[tuple[int, int]]:
    """Minimum-cost one-to-one matching between two classifications.

    This is the concrete ``psi_t`` used by tests of Definition 3: pairs of
    (index in ``a``, index in ``b``) minimising total summary distance.
    When sizes differ, the surplus collections of the larger side stay
    unmatched (they correspond to collections destined to merge).
    """
    cost = np.array(
        [[scheme.distance(ca.summary, cb.summary) for cb in b] for ca in a],
        dtype=float,
    )
    from scipy.optimize import linear_sum_assignment

    rows, cols = linear_sum_assignment(cost)
    return list(zip(rows.tolist(), cols.tolist()))


def disagreement(
    nodes: Sequence[ClassifierNode],
    scheme: SummaryScheme,
    reference: Optional[Classification] = None,
) -> float:
    """Maximum classification distance from any node to a reference.

    With no explicit reference the first node's classification is used;
    Definition 4 requires this quantity to converge to zero for any choice
    of reference, so the choice does not matter asymptotically.
    """
    if not nodes:
        raise ValueError("disagreement requires at least one node")
    if reference is None:
        reference = nodes[0].classification
    return max(
        classification_distance(node.classification, reference, scheme) for node in nodes
    )


def pool_collections(nodes: Iterable[ClassifierNode], in_flight: Iterable[Collection] = ()) -> list[Collection]:
    """The global pool of Section 6.1: all collections at nodes and in channels."""
    pool: list[Collection] = []
    for node in nodes:
        pool.extend(node.classification.collections)
    pool.extend(in_flight)
    return pool


def max_reference_angles(pool: Sequence[Collection]) -> np.ndarray:
    """Per-axis maximal reference angle over the pool (Lemma 2's quantity).

    Requires auxiliary tracking; Lemma 2 proves each component of the
    returned vector is monotonically non-increasing along any execution.
    """
    if not pool:
        raise ValueError("empty pool has no reference angles")
    angle_rows = []
    for collection in pool:
        if collection.aux is None:
            raise ValueError("max_reference_angles requires aux tracking on all collections")
        angle_rows.append(collection.aux.reference_angles())
    return np.max(np.stack(angle_rows), axis=0)


class ConvergenceDetector:
    """Declares convergence when classifications stop moving.

    Call :meth:`update` once per round with the nodes; the detector
    compares every node's classification with its own previous round via
    :func:`classification_distance` and reports convergence once the
    maximum movement has stayed below ``tolerance`` for ``patience``
    consecutive rounds.

    Nodes whose state fingerprint (see :mod:`repro.core.fingerprint`)
    is unchanged since the previous round have movement exactly ``0.0``
    by construction, so the transportation LP is skipped for them — in
    a converged tail this short-circuits the whole O(n·k²) sweep.
    """

    def __init__(
        self,
        scheme: SummaryScheme,
        tolerance: float = 1e-6,
        patience: int = 3,
    ) -> None:
        if patience < 1:
            raise ValueError("patience must be at least 1")
        self.scheme = scheme
        self.tolerance = tolerance
        self.patience = patience
        self._previous: dict[int, Classification] = {}
        self._previous_fp: dict[int, bytes] = {}
        self._quiet_rounds = 0
        self.last_movement: float = float("inf")

    def update(self, nodes: Iterable[ClassifierNode]) -> bool:
        """Record a round; return True once converged."""
        movement = 0.0
        current: dict[int, Classification] = {}
        current_fp: dict[int, bytes] = {}
        for node in nodes:
            classification = node.classification
            current[node.node_id] = classification
            fingerprint = node.state_fingerprint()
            if fingerprint is not None:
                current_fp[node.node_id] = fingerprint
            previous = self._previous.get(node.node_id)
            if previous is None:
                movement = float("inf")
            elif (
                fingerprint is not None
                and self._previous_fp.get(node.node_id) == fingerprint
            ):
                # Identical bytes: distance is zero, no LP needed.
                continue
            else:
                movement = max(
                    movement,
                    classification_distance(classification, previous, self.scheme),
                )
        self._previous = current
        self._previous_fp = current_fp
        self.last_movement = movement
        if movement <= self.tolerance:
            self._quiet_rounds += 1
        else:
            self._quiet_rounds = 0
        return self._quiet_rounds >= self.patience

    @property
    def converged(self) -> bool:
        return self._quiet_rounds >= self.patience
