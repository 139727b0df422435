"""Figure 4 — crash robustness and convergence speed.

The Figure 3 workload fixed at delta = 10, run for a fixed number of
rounds while recording the average node error of the mean *every round*,
in four configurations: {robust GM, regular push-sum} x {no crashes,
5% per-round Bernoulli crashes}.

Expected shape (the paper's Figure 4): the robust protocol converges to a
clearly lower error than regular aggregation (which absorbs the outliers);
crashes barely change either curve; and both protocols converge at
equivalent speed — within a few tens of rounds on the fully connected
network.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.accuracy import average_error
from repro.analysis.outliers import robust_mean
from repro.data.generators import OutlierScenario, outlier_count, outlier_scenario
from repro.experiments.common import Scale, PAPER, run_experiment_sweep
from repro.network.failures import BernoulliCrashes, NoFailures
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.protocols.push_sum import build_push_sum_network
from repro.schemes.gm import GaussianMixtureScheme
from repro.sweep import SweepSpec

__all__ = ["Fig4Result", "run_fig4", "fig4_cell", "CRASH_PROBABILITY"]

#: The paper's per-round crash probability.
CRASH_PROBABILITY = 0.05


@dataclass(frozen=True)
class Fig4Result:
    """Per-round error traces for the four configurations."""

    rounds: tuple[int, ...]
    robust_no_crashes: tuple[float, ...]
    regular_no_crashes: tuple[float, ...]
    robust_with_crashes: tuple[float, ...]
    regular_with_crashes: tuple[float, ...]
    survivors_with_crashes: tuple[int, ...]
    delta: float
    n_nodes: int

    def final_errors(self) -> dict[str, float]:
        return {
            "robust_no_crashes": self.robust_no_crashes[-1],
            "regular_no_crashes": self.regular_no_crashes[-1],
            "robust_with_crashes": self.robust_with_crashes[-1],
            "regular_with_crashes": self.regular_with_crashes[-1],
        }


def _robust_trace(
    scenario: OutlierScenario,
    rounds: int,
    seed: int,
    crash_probability: float,
    engine: str = "rounds",
) -> tuple[list[float], list[int]]:
    """Per-round average robust-mean error of the GM protocol."""
    failure_model = (
        BernoulliCrashes(crash_probability) if crash_probability > 0 else NoFailures()
    )
    engine, nodes = build_classification_network(
        scenario.values,
        GaussianMixtureScheme(seed=seed),
        k=2,
        graph=complete(scenario.n),
        seed=seed,
        failure_model=failure_model,
        engine=engine,
    )
    errors: list[float] = []
    survivors: list[int] = []

    def record(current_engine) -> None:
        live = [nodes[node_id] for node_id in current_engine.live_nodes]
        errors.append(
            average_error(
                (robust_mean(node.classification) for node in live),
                scenario.true_mean,
            )
        )
        survivors.append(len(live))

    engine.run(rounds, per_round=record)
    return errors, survivors


def _regular_trace(
    scenario: OutlierScenario,
    rounds: int,
    seed: int,
    crash_probability: float,
    engine: str = "rounds",
) -> list[float]:
    """Per-round average push-sum error under the same conditions."""
    failure_model = (
        BernoulliCrashes(crash_probability) if crash_probability > 0 else NoFailures()
    )
    engine, nodes = build_push_sum_network(
        scenario.values,
        complete(scenario.n),
        seed=seed,
        failure_model=failure_model,
        engine=engine,
    )
    errors: list[float] = []

    def record(current_engine) -> None:
        live = [nodes[node_id] for node_id in current_engine.live_nodes]
        errors.append(
            average_error((node.estimate for node in live), scenario.true_mean)
        )

    engine.run(rounds, per_round=record)
    return errors


def fig4_cell(params: dict) -> dict:
    """One Figure 4 configuration as an independent sweep cell.

    Each of the four {protocol} x {crash rate} configurations rebuilds
    the delta = 10 outlier scenario from its parameters alone, so the
    cell runs identically in-process or inside a pool worker.
    """
    n_nodes = int(params["n_nodes"])
    seed = int(params["seed"])
    n_outliers = outlier_count(n_nodes)
    scenario = outlier_scenario(
        float(params["delta"]),
        n_good=n_nodes - n_outliers,
        n_outliers=n_outliers,
        seed=seed,
    )
    rounds = int(params["rounds"])
    crash_probability = float(params["crash_probability"])
    engine = str(params["engine"])
    if params["protocol"] == "robust":
        errors, survivors = _robust_trace(scenario, rounds, seed, crash_probability, engine)
        return {"errors": [float(e) for e in errors], "survivors": [int(s) for s in survivors]}
    errors = _regular_trace(scenario, rounds, seed, crash_probability, engine)
    return {"errors": [float(e) for e in errors], "survivors": []}


def run_fig4(
    scale: Scale = PAPER,
    delta: float = 10.0,
    rounds: int | None = None,
    seed: int = 4,
    crash_probability: float = CRASH_PROBABILITY,
) -> Fig4Result:
    """Run the four-configuration crash experiment.

    The configurations are declared as a four-cell
    :class:`~repro.sweep.spec.SweepSpec` and executed through
    :func:`repro.sweep.run_sweep` — serially by default, or on
    ``scale.workers`` processes.  Every cell pins the experiment's seed,
    so the traces are identical to running the helpers directly.
    """
    total_rounds = rounds if rounds is not None else min(50, scale.max_rounds)
    base = {
        "delta": delta,
        "n_nodes": scale.n_nodes,
        "rounds": total_rounds,
        "engine": scale.engine,
        "seed": seed,
    }
    spec = SweepSpec(
        name="fig4",
        runner="repro.experiments.fig4:fig4_cell",
        base_seed=seed,
        cells=[
            {"label": "robust_no_crashes", "protocol": "robust", "crash_probability": 0.0, **base},
            {"label": "regular_no_crashes", "protocol": "regular", "crash_probability": 0.0, **base},
            {
                "label": "robust_with_crashes",
                "protocol": "robust",
                "crash_probability": crash_probability,
                **base,
            },
            {
                "label": "regular_with_crashes",
                "protocol": "regular",
                "crash_probability": crash_probability,
                **base,
            },
        ],
    )
    results = run_experiment_sweep(spec, scale)

    return Fig4Result(
        rounds=tuple(range(1, total_rounds + 1)),
        robust_no_crashes=tuple(results["robust_no_crashes"]["errors"]),
        regular_no_crashes=tuple(results["regular_no_crashes"]["errors"]),
        robust_with_crashes=tuple(results["robust_with_crashes"]["errors"]),
        regular_with_crashes=tuple(results["regular_with_crashes"]["errors"]),
        survivors_with_crashes=tuple(results["robust_with_crashes"]["survivors"]),
        delta=delta,
        n_nodes=scale.n_nodes,
    )
