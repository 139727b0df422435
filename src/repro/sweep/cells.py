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
from repro.data import make_dataset
from repro.data.generators import outlier_count
from repro.network.failures import BernoulliCrashes, NoFailures
from repro.network.topology import make_topology
from repro.protocols.classification import build_classification_network
from repro.protocols.push_sum import build_push_sum_network
from repro.schemes import make_scheme

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
def _inputs(params: Mapping[str, Any], seed: int):
    """(values, graph, true_mean_or_None) for a cell: one reading per node
    of the graph, which may have fewer than ``n`` nodes (a ``grid`` keeps
    whole rows).  Only the ``outlier`` readings have a robust-average
    target: the good readings' mean, the origin."""
    graph = make_topology(str(params.get("topology", "complete")), int(params["n"]), seed)
    n = graph.number_of_nodes()
    dataset = str(params.get("dataset", "outlier"))
    shape = {
        "outlier": {
            "delta": float(params.get("delta", 10.0)),
            "n_outliers": outlier_count(n, float(params.get("outlier_fraction", 0.05))),
        },
        "two_cluster": {"separation": float(params.get("separation", 8.0))},
    }.get(dataset, {})
    values = make_dataset(dataset, n, seed, **shape)
    true_mean = np.zeros(values.shape[1]) if dataset == "outlier" else None
    return values, graph, true_mean


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
    (injected), ``scheme`` ("gm"; a :data:`repro.schemes.SCHEMES` name,
    the histogram binned by ``histogram_low`` / ``histogram_high`` /
    ``histogram_bins``, -5 / 25 / 48), ``topology`` ("complete"; a
    :data:`repro.network.topology.TOPOLOGIES` name), ``engine``
    ("rounds"), ``variant`` ("push"), ``k`` (2), ``rounds`` (15),
    ``dataset`` ("outlier"; a :data:`repro.data.DATASETS` name),
    ``delta`` / ``outlier_fraction`` / ``separation`` (dataset shape),
    ``crash_rate`` / ``min_survivors`` (failure injection),
    ``quanta_per_unit`` (weight lattice), ``early_exit`` (stop once the
    kernel detects structural quiescence — see ``docs/performance.md``)
    with ``quiescence_patience`` (3).
    """
    seed = int(params["seed"])
    values, graph, true_mean = _inputs(params, seed)
    n = len(values)
    scheme_name = str(params.get("scheme", "gm"))
    binning = {
        "low": float(params.get("histogram_low", -5.0)),
        "high": float(params.get("histogram_high", 25.0)),
        "bins": int(params.get("histogram_bins", 48)),
    }
    scheme = make_scheme(scheme_name, **(binning if scheme_name == "histogram" else {}))
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
    values, graph, true_mean = _inputs(params, seed)
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
