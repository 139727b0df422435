"""Figure 3 — robust averaging: the effect of outlier separation.

Section 5.3.2's sweep: 950 values from N(0, I), 50 outliers from
N((0, delta), 0.1 I), with delta from 0 to 25.  For each delta the GM
algorithm runs with ``k = 2`` ("hopefully one collection for good values
and one for outliers") until convergence, and three series are reported:

- ``missed_outliers_pct`` — weight ratio of density-defined outliers
  (density under N(0, I) below f_min = 5e-5) wrongly assigned to the good
  collection, measured through the auxiliary provenance vectors;
- ``robust_error`` — average over nodes of the distance between the good
  collection's mean and the true mean (0, 0);
- ``regular_error`` — the same error for plain push-sum averaging, which
  cannot remove outliers.

Expected shape (the paper's Figure 3b): the regular error grows linearly
in delta (5% outlier mass drags the mean by ~0.05 delta); the miss rate
collapses once the collections separate (around delta ~ 5); and the
robust error stays small throughout, dropping to near the no-outlier
noise floor for large delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.analysis.accuracy import average_error
from repro.analysis.outliers import F_MIN, missed_outlier_fraction, robust_mean
from repro.data.generators import OutlierScenario, outlier_count, outlier_scenario
from repro.experiments.common import Scale, PAPER, run_until_convergence
from repro.network.topology import complete
from repro.protocols.push_sum import build_push_sum_network
from repro.schemes.gm import GaussianMixtureScheme

__all__ = ["Fig3Row", "Fig3Result", "run_fig3", "run_fig3_row"]


@dataclass(frozen=True)
class Fig3Row:
    """One delta's measurements (one x position in Figure 3b)."""

    delta: float
    missed_outliers_pct: float
    robust_error: float
    regular_error: float
    rounds: int


@dataclass(frozen=True)
class Fig3Result:
    """The full regenerated Figure 3b series."""

    rows: tuple[Fig3Row, ...]
    n_nodes: int
    f_min: float

    def column(self, name: str) -> list[float]:
        return [getattr(row, name) for row in self.rows]


def _scenario_for(scale: Scale, delta: float, seed: int) -> OutlierScenario:
    """The paper's 95%/5% split, rescaled to the preset's network size."""
    n_outliers = outlier_count(scale.n_nodes)
    return outlier_scenario(
        delta, n_good=scale.n_nodes - n_outliers, n_outliers=n_outliers, seed=seed
    )


def run_fig3_row(
    delta: float,
    scale: Scale = PAPER,
    seed: int = 3,
    rounds_cap: int | None = None,
) -> Fig3Row:
    """Run one delta of the sweep (GM with aux tracking + push-sum)."""
    scenario = _scenario_for(scale, delta, seed)
    scheme = GaussianMixtureScheme(seed=seed)
    run_scale = scale if rounds_cap is None else scale.with_overrides(max_rounds=rounds_cap)
    _, nodes, rounds = run_until_convergence(
        scenario.values, scheme, k=2, scale=run_scale, seed=seed, track_aux=True
    )
    outlier_indices = scenario.density_outlier_indices(F_MIN)
    missed = float(
        np.mean(
            [
                missed_outlier_fraction(node.classification, outlier_indices)
                for node in nodes
            ]
        )
    )
    robust = average_error(
        (robust_mean(node.classification) for node in nodes), scenario.true_mean
    )

    push_engine, push_nodes = build_push_sum_network(
        scenario.values, complete(scenario.n), seed=seed, engine=scale.engine
    )
    push_engine.run(rounds)
    regular = average_error((node.estimate for node in push_nodes), scenario.true_mean)

    return Fig3Row(
        delta=delta,
        missed_outliers_pct=100.0 * missed,
        robust_error=robust,
        regular_error=regular,
        rounds=rounds,
    )


def run_fig3(
    scale: Scale = PAPER,
    seed: int = 3,
    deltas: Sequence[float] | None = None,
) -> Fig3Result:
    """Run the whole delta sweep; ``deltas`` defaults to the preset's."""
    sweep = tuple(deltas) if deltas is not None else scale.deltas
    rows = tuple(run_fig3_row(delta, scale=scale, seed=seed) for delta in sweep)
    return Fig3Result(rows=rows, n_nodes=scale.n_nodes, f_min=F_MIN)
