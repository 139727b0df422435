"""Partition-and-heal: temporary network splits.

The convergence theorem assumes a static connected topology, but its
machinery (fairness + reliable links) only needs connectivity to hold
*eventually*.  This experiment cuts a network into two halves for a
window of rounds and measures three phases:

1. **pre-partition** — the whole network converging normally;
2. **partitioned** — each side converging to a classification of *its
   own* values (the two sides disagree, by design);
3. **healed** — the cut edges return and the sides reconcile to the
   global classification.

The measured quantity is the disagreement between the two sides (the
classification EMD between a probe node on each side), which should rise
during the partition and collapse after healing — demonstrating that
temporary violations of the connectivity assumption delay convergence
without destroying it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.convergence import classification_distance
from repro.data import make_dataset
from repro.experiments.common import Scale, PAPER
from repro.network.links import WindowedOutage, cut_edges
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.schemes.gm import GaussianMixtureScheme

__all__ = ["PartitionResult", "run_partition_heal"]


@dataclass(frozen=True)
class PartitionResult:
    """Per-round cross-partition disagreement trace."""

    rounds: tuple[int, ...]
    cross_disagreement: tuple[float, ...]
    partition_start: int
    partition_end: int
    n_nodes: int

    def phase_mean(self, start: int, end: int) -> float:
        """Mean disagreement over rounds ``[start, end)`` (1-based rounds)."""
        values = [
            gap
            for round_index, gap in zip(self.rounds, self.cross_disagreement)
            if start <= round_index < end
        ]
        if not values:
            raise ValueError("empty phase window")
        return float(np.mean(values))


def run_partition_heal(
    scale: Scale = PAPER,
    seed: int = 41,
    partition_start: int = 12,
    partition_length: int = 15,
    total_rounds: int = 60,
) -> PartitionResult:
    """Run the three-phase partition experiment on a complete graph.

    The two halves hold values from *different* clusters, so while
    partitioned each side can only describe half the data and the
    cross-side disagreement grows; healing lets the halves exchange
    weight again and the disagreement collapses.
    """
    n = min(scale.n_nodes, 120)
    half = n // 2
    # Side A holds cluster-0-heavy data, side B cluster-1-heavy data, so
    # a partition visibly starves each side of the other cluster.
    values = make_dataset("two_cluster", n, seed)
    graph = complete(n)
    outage = WindowedOutage(
        cut_edges(graph, range(half)),
        start=partition_start,
        end=partition_start + partition_length,
    )
    scheme = GaussianMixtureScheme(seed=seed)
    engine, nodes = build_classification_network(
        values, scheme, k=2, graph=graph, seed=seed, link_schedule=outage,
        engine=scale.engine,
    )

    probe_a, probe_b = nodes[0], nodes[n - 1]
    rounds: list[int] = []
    gaps: list[float] = []

    def record(current_engine) -> None:
        # Round-equivalent count; works on either scheduler (the async
        # engine has no round counter).
        rounds.append(len(rounds) + 1)
        gaps.append(
            classification_distance(
                probe_a.classification, probe_b.classification, scheme
            )
        )

    engine.run(total_rounds, per_round=record)
    return PartitionResult(
        rounds=tuple(rounds),
        cross_disagreement=tuple(gaps),
        partition_start=partition_start,
        partition_end=partition_start + partition_length,
        n_nodes=n,
    )
