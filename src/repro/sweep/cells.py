"""Built-in sweep cell runners and runner resolution.

A *cell runner* is a module-level function ``fn(params: dict) -> dict``:
it receives one task's parameter dict (with ``seed`` injected) and
returns a JSON-able result.  Runners are referenced by dotted
``"module:function"`` paths — or by the short names in :data:`RUNNERS` —
so worker processes resolve them by import, never by pickling.

Determinism contract: a runner must derive **all** randomness from
``params["seed"]`` (and the deterministic simulation kernel it drives)
and must return plain Python scalars and lists, so the canonical JSON of
its result is byte-identical wherever the cell runs.

The built-ins cover the paper's evaluation grid:

- :func:`classification_cell` — Algorithm 1 (any scheme) on any topology
  under either scheduler, with optional Bernoulli crash injection; the
  generic cell behind the figure-4 / robustness / ablation style sweeps.
- :func:`push_sum_cell` — the regular-aggregation baseline on the same
  grid, for robust-vs-regular comparisons.
- :func:`debug_cell` — a controllable cell (sleep, fail, echo) used by
  the test-suite and the orchestration-overhead benchmark.
"""

from __future__ import annotations

import importlib
import time
from typing import Any, Callable, Mapping

import numpy as np

from repro.analysis.accuracy import average_error
from repro.analysis.outliers import robust_mean
from repro.core.convergence import disagreement
from repro.core.weights import Quantization
from repro.data.generators import fence_fire_values, outlier_scenario, two_cluster_values
from repro.network import topology
from repro.network.failures import BernoulliCrashes, NoFailures
from repro.protocols.classification import build_classification_network
from repro.protocols.push_sum import build_push_sum_network
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

__all__ = [
    "RUNNERS",
    "resolve_runner",
    "classification_cell",
    "push_sum_cell",
    "debug_cell",
]

#: Short names accepted anywhere a runner reference is.
RUNNERS: dict[str, str] = {
    "classification": "repro.sweep.cells:classification_cell",
    "push_sum": "repro.sweep.cells:push_sum_cell",
    "debug": "repro.sweep.cells:debug_cell",
}

CellRunner = Callable[[Mapping[str, Any]], dict[str, Any]]


def resolve_runner(reference: str) -> CellRunner:
    """Import the runner behind a short name or ``module:function`` path."""
    path = RUNNERS.get(reference, reference)
    module_name, sep, function_name = path.partition(":")
    if not sep or not module_name or not function_name:
        raise ValueError(
            f"runner reference {reference!r} is neither a registered name "
            f"({sorted(RUNNERS)}) nor a 'module:function' path"
        )
    module = importlib.import_module(module_name)
    try:
        fn = getattr(module, function_name)
    except AttributeError:
        raise ValueError(f"module {module_name!r} has no attribute {function_name!r}") from None
    if not callable(fn):
        raise ValueError(f"runner {path!r} is not callable")
    return fn


# ----------------------------------------------------------------------
# Shared builders
# ----------------------------------------------------------------------
def _build_graph(name: str, n: int, seed: int):
    """A named topology at (or near) ``n`` nodes."""
    if name == "complete":
        return topology.complete(n)
    if name == "ring":
        return topology.ring(n)
    if name == "line":
        return topology.line(n)
    if name == "star":
        return topology.star(n)
    if name == "grid":
        side = max(1, int(np.sqrt(n)))
        return topology.grid(side, (n + side - 1) // side)
    if name == "geometric":
        return topology.random_geometric(n, seed=seed)
    if name == "small_world":
        return topology.watts_strogatz(n, k=4, rewire=0.2, seed=seed)
    if name == "erdos_renyi":
        return topology.erdos_renyi(n, seed=seed)
    raise ValueError(f"unknown topology {name!r}")


def _build_scheme(name: str, seed: int, params: Mapping[str, Any]):
    if name in ("gm", "gaussian_mixture"):
        return GaussianMixtureScheme(seed=seed)
    if name == "centroid":
        return CentroidScheme()
    if name in ("diagonal", "diagonal_gaussian"):
        return DiagonalGaussianScheme(seed=seed)
    if name == "histogram":
        return HistogramScheme(
            low=float(params.get("histogram_low", -5.0)),
            high=float(params.get("histogram_high", 25.0)),
            bins=int(params.get("histogram_bins", 48)),
        )
    raise ValueError(f"unknown scheme {name!r}")


def _build_dataset(params: Mapping[str, Any], seed: int):
    """(values, true_mean_or_None) for the named dataset."""
    dataset = params.get("dataset", "outlier")
    n = int(params["n"])
    if dataset == "outlier":
        fraction = float(params.get("outlier_fraction", 0.05))
        delta = float(params.get("delta", 10.0))
        n_outliers = max(1, round(n * fraction))
        scenario = outlier_scenario(
            delta, n_good=n - n_outliers, n_outliers=n_outliers, seed=seed
        )
        return scenario.values, scenario.true_mean
    if dataset == "two_cluster":
        separation = float(params.get("separation", 8.0))
        return two_cluster_values(n, seed=seed, separation=separation), None
    if dataset == "fence_fire":
        values, _ = fence_fire_values(n, seed=seed)
        return values, None
    raise ValueError(f"unknown dataset {dataset!r}")


def _failure_model(params: Mapping[str, Any]):
    rate = float(params.get("crash_rate", 0.0))
    if rate <= 0.0:
        return NoFailures()
    return BernoulliCrashes(rate, min_survivors=int(params.get("min_survivors", 2)))


# ----------------------------------------------------------------------
# Built-in cells
# ----------------------------------------------------------------------
def classification_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """Run Algorithm 1 on one grid cell; return its scalar measurements.

    Recognised parameters (with defaults): ``n`` (required), ``seed``
    (injected), ``scheme`` ("gm"), ``topology`` ("complete"), ``engine``
    ("rounds"), ``variant`` ("push"), ``k`` (2), ``rounds`` (15),
    ``dataset`` ("outlier"; also "two_cluster", "fence_fire"),
    ``delta`` / ``outlier_fraction`` / ``separation`` (dataset shape),
    ``crash_rate`` / ``min_survivors`` (failure injection),
    ``quanta_per_unit`` (weight lattice), ``early_exit`` (stop once the
    kernel detects structural quiescence — see ``docs/performance.md``)
    with ``quiescence_patience`` (3).
    """
    seed = int(params["seed"])
    values, true_mean = _build_dataset(params, seed)
    n = len(values)
    graph = _build_graph(str(params.get("topology", "complete")), n, seed)
    if graph.number_of_nodes() != n:
        values = values[: graph.number_of_nodes()]
        n = len(values)
    scheme = _build_scheme(str(params.get("scheme", "gm")), seed, params)
    quanta = params.get("quanta_per_unit")
    early_exit = bool(params.get("early_exit", False))
    engine, nodes = build_classification_network(
        values,
        scheme,
        k=int(params.get("k", 2)),
        graph=graph,
        seed=seed,
        quantization=Quantization(int(quanta)) if quanta is not None else None,
        variant=str(params.get("variant", "push")),
        failure_model=_failure_model(params),
        engine=str(params.get("engine", "rounds")),
        stop_on_quiescence=early_exit,
        quiescence_patience=int(params.get("quiescence_patience", 3)),
    )
    rounds = int(params.get("rounds", 15))
    rounds_run = engine.run(rounds)

    live = [nodes[node_id] for node_id in engine.live_nodes]
    result: dict[str, Any] = {
        "n": int(n),
        "rounds_run": int(rounds_run),
        "messages_sent": int(engine.metrics.messages_sent),
        "messages_delivered": int(engine.metrics.messages_delivered),
        "messages_dropped": int(engine.metrics.messages_dropped),
        "survivors": int(len(live)),
        "disagreement": float(disagreement([nodes[i] for i in engine.live_nodes], scheme)),
    }
    if early_exit:
        result["quiescent"] = bool(engine.quiescent)
        result["rounds_saved"] = int(rounds - rounds_run)
    if true_mean is not None and live:
        result["robust_error"] = float(
            average_error((robust_mean(node.classification) for node in live), true_mean)
        )
    return result


def push_sum_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """Regular push-sum aggregation on the same grid axes."""
    seed = int(params["seed"])
    values, true_mean = _build_dataset(params, seed)
    n = len(values)
    graph = _build_graph(str(params.get("topology", "complete")), n, seed)
    if graph.number_of_nodes() != n:
        values = values[: graph.number_of_nodes()]
        n = len(values)
    engine, nodes = build_push_sum_network(
        values,
        graph,
        seed=seed,
        variant=str(params.get("variant", "push")),
        failure_model=_failure_model(params),
        engine=str(params.get("engine", "rounds")),
    )
    rounds_run = engine.run(int(params.get("rounds", 15)))
    live = list(engine.live_nodes)
    result: dict[str, Any] = {
        "n": int(n),
        "rounds_run": int(rounds_run),
        "messages_sent": int(engine.metrics.messages_sent),
        "survivors": int(len(live)),
    }
    if true_mean is not None and live:
        result["regular_error"] = float(
            average_error((nodes[i].estimate for i in live), true_mean)
        )
    return result


def debug_cell(params: Mapping[str, Any]) -> dict[str, Any]:
    """A controllable cell for tests and orchestration benchmarks.

    ``sleep_s`` blocks for that long (simulating a slow cell; the
    orchestration benchmark uses this to measure pool scaling
    independently of core count), ``fail`` raises, and the result echoes
    ``value`` and the injected seed.
    """
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s > 0.0:
        time.sleep(sleep_s)
    if params.get("fail"):
        raise RuntimeError(f"injected cell failure (value={params.get('value')!r})")
    return {"value": params.get("value"), "seed": int(params["seed"])}
