"""Robustness extensions beyond Figure 3/4's single axis.

The paper's companion report [8] ("Distributed clustering for robust
aggregation in large networks", HotDep 2009) analyses the robust-average
application along further axes; these experiments rebuild the two most
informative ones, plus a stress test the paper only implies:

- :func:`run_outlier_fraction_sweep` — Figure 3 fixes 5% outliers and
  sweeps their distance; here the distance is fixed (well-separated,
  delta = 10) and the *contamination level* sweeps from 1% to 30%.  The
  breakdown point of the heaviest-collection read-out is 50%; the robust
  error should stay near the noise floor until contamination approaches
  it, while the regular error grows linearly (slope ~ delta).
- :func:`run_crash_rate_sweep` — Figure 4 fixes 5% crashes per round;
  here the per-round crash probability sweeps upward, measuring how hard
  the network can be killed before the surviving estimate degrades.
- :func:`run_k_mismatch` — the robust application sets k = 2 hoping for
  one good and one outlier collection; what happens with k = 3, 4, 5?
  (More collections fragment the good mass; the heaviest-collection mean
  remains accurate, which is the claim under test.)
"""

from __future__ import annotations

from typing import Sequence

from repro.analysis.accuracy import average_error
from repro.analysis.outliers import robust_mean
from repro.data.generators import outlier_count, outlier_scenario
from repro.experiments.ablations import AblationRow
from repro.experiments.common import Scale, PAPER, run_experiment_sweep
from repro.network.failures import BernoulliCrashes
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.protocols.push_sum import build_push_sum_network
from repro.schemes.gm import GaussianMixtureScheme
from repro.sweep import SweepSpec

__all__ = [
    "run_outlier_fraction_sweep",
    "run_crash_rate_sweep",
    "run_k_mismatch",
    "robustness_cell",
]


def _run_robust(scenario, k, rounds, seed, failure_model=None, engine_kind="rounds"):
    """Robust (GM, k collections) error, averaged over live nodes."""
    engine, nodes = build_classification_network(
        scenario.values,
        GaussianMixtureScheme(seed=seed),
        k=k,
        graph=complete(scenario.n),
        seed=seed,
        failure_model=failure_model,
        engine=engine_kind,
    )
    engine.run(rounds)
    live = [nodes[node_id] for node_id in engine.live_nodes]
    error = average_error(
        (robust_mean(node.classification) for node in live), scenario.true_mean
    )
    return error, engine


def _run_regular(scenario, rounds, seed, failure_model=None, engine_kind="rounds"):
    """Push-sum error under identical conditions."""
    engine, nodes = build_push_sum_network(
        scenario.values,
        complete(scenario.n),
        seed=seed,
        failure_model=failure_model,
        engine=engine_kind,
    )
    engine.run(rounds)
    return average_error(
        (nodes[node_id].estimate for node_id in engine.live_nodes), scenario.true_mean
    )


def robustness_cell(params: dict) -> dict:
    """One robustness-sweep cell: mode selects which axis it measures.

    ``mode="fraction"`` measures robust and regular error at one
    contamination level; ``mode="crash"`` measures robust error and
    survivor count at one per-round crash rate; ``mode="k"`` measures
    robust error at one collection count.  Every cell rebuilds its
    scenario from parameters alone so it can run in any process.
    """
    mode = str(params["mode"])
    n_nodes = int(params["n_nodes"])
    seed = int(params["seed"])
    delta = float(params["delta"])
    rounds = int(params["rounds"])
    engine_kind = str(params["engine"])
    n_outliers = outlier_count(n_nodes, float(params.get("fraction", 0.05)))
    scenario = outlier_scenario(
        delta, n_good=n_nodes - n_outliers, n_outliers=n_outliers, seed=seed
    )
    if mode == "fraction":
        robust, _ = _run_robust(scenario, k=2, rounds=rounds, seed=seed, engine_kind=engine_kind)
        regular = _run_regular(scenario, rounds=rounds, seed=seed, engine_kind=engine_kind)
        return {"robust_error": float(robust), "regular_error": float(regular)}
    if mode == "crash":
        rate = float(params["rate"])
        failure_model = BernoulliCrashes(rate, min_survivors=4) if rate > 0 else None
        robust, engine = _run_robust(
            scenario,
            k=2,
            rounds=rounds,
            seed=seed,
            failure_model=failure_model,
            engine_kind=engine_kind,
        )
        return {"robust_error": float(robust), "survivors": len(engine.live_nodes)}
    if mode == "k":
        robust, _ = _run_robust(
            scenario, k=int(params["k"]), rounds=rounds, seed=seed, engine_kind=engine_kind
        )
        return {"robust_error": float(robust)}
    raise ValueError(f"unknown robustness cell mode {mode!r}")


def _robustness_sweep(name: str, cells: list[dict], scale: Scale, seed: int) -> dict:
    spec = SweepSpec(
        name=name,
        runner="repro.experiments.robustness:robustness_cell",
        base_seed=seed,
        cells=cells,
    )
    return run_experiment_sweep(spec, scale)


def run_outlier_fraction_sweep(
    scale: Scale = PAPER,
    seed: int = 31,
    fractions: Sequence[float] = (0.01, 0.05, 0.10, 0.20, 0.30),
    delta: float = 10.0,
) -> list[AblationRow]:
    """Robust vs regular error as the contamination level grows."""
    rounds = min(scale.max_rounds, 40)
    labels = [f"{fraction:.0%}" for fraction in fractions]
    cells = [
        {
            "label": label,
            "mode": "fraction",
            "fraction": fraction,
            "delta": delta,
            "n_nodes": scale.n_nodes,
            "rounds": rounds,
            "engine": scale.engine,
            "seed": seed,
        }
        for label, fraction in zip(labels, fractions)
    ]
    results = _robustness_sweep("robustness-outliers", cells, scale, seed)
    return [
        AblationRow(
            label=label,
            metrics={
                "outlier_fraction": fraction,
                "robust_error": results[label]["robust_error"],
                "regular_error": results[label]["regular_error"],
            },
        )
        for label, fraction in zip(labels, fractions)
    ]


def run_crash_rate_sweep(
    scale: Scale = PAPER,
    seed: int = 32,
    rates: Sequence[float] = (0.0, 0.02, 0.05, 0.10, 0.20),
    delta: float = 10.0,
    rounds: int = 40,
) -> list[AblationRow]:
    """Surviving-node estimate quality as the crash rate grows."""
    labels = [f"p={rate:.2f}" for rate in rates]
    cells = [
        {
            "label": label,
            "mode": "crash",
            "rate": rate,
            "delta": delta,
            "n_nodes": scale.n_nodes,
            "rounds": rounds,
            "engine": scale.engine,
            "seed": seed,
        }
        for label, rate in zip(labels, rates)
    ]
    results = _robustness_sweep("robustness-crashes", cells, scale, seed)
    return [
        AblationRow(
            label=label,
            metrics={
                "crash_rate": rate,
                "robust_error": results[label]["robust_error"],
                "survivors": float(results[label]["survivors"]),
            },
        )
        for label, rate in zip(labels, rates)
    ]


def run_k_mismatch(
    scale: Scale = PAPER,
    seed: int = 33,
    ks: Sequence[int] = (2, 3, 4, 5),
    delta: float = 10.0,
) -> list[AblationRow]:
    """Robust averaging with more collections than the two it hopes for."""
    rounds = min(scale.max_rounds, 40)
    labels = [f"k={k}" for k in ks]
    cells = [
        {
            "label": label,
            "mode": "k",
            "k": k,
            "delta": delta,
            "n_nodes": scale.n_nodes,
            "rounds": rounds,
            "engine": scale.engine,
            "seed": seed,
        }
        for label, k in zip(labels, ks)
    ]
    results = _robustness_sweep("robustness-k", cells, scale, seed)
    return [
        AblationRow(
            label=label,
            metrics={"k": float(k), "robust_error": results[label]["robust_error"]},
        )
        for label, k in zip(labels, ks)
    ]
