"""Shared experiment plumbing: scale presets and convergence-driven runs.

Every experiment module exposes a ``run_*`` function taking a
:class:`Scale`.  The ``paper`` preset reproduces the published setup
(1,000 nodes, fully connected, run to convergence); the ``fast`` preset
shrinks the network so the same code paths run in seconds — that is what
the test suite uses, keeping every experiment covered by ``pytest tests/``
without multi-minute runs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional

import networkx as nx
import numpy as np

from repro.core.convergence import ConvergenceDetector
from repro.core.node import ClassifierNode
from repro.core.scheme import SummaryScheme
from repro.network.failures import FailureModel
from repro.network.kernel import SimulationKernel
from repro.network.schedulers import ENGINES
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.sweep import SweepSpec, run_sweep

__all__ = [
    "Scale",
    "PAPER",
    "BENCH",
    "FAST",
    "preset",
    "run_until_convergence",
    "run_experiment_sweep",
]


@dataclass(frozen=True)
class Scale:
    """Knobs that trade fidelity for runtime.

    Attributes
    ----------
    name:
        Preset label, echoed in reports.
    n_nodes:
        Network size (the paper uses 1,000).
    max_rounds:
        Upper bound on gossip rounds per run.
    convergence_tolerance:
        Per-round movement below which a probe node counts as settled.
    probe_count:
        Convergence is tracked on this many probe nodes (tracking all
        1,000 would cost one transport LP per node per round).
    deltas:
        The Figure 3 sweep values.  Sampled densely around delta ~ 4-5,
        where the paper's miss-rate cliff sits: below ~4 the planted
        outliers are not density-distinguishable at all, at 4-4.5 they
        are flagged but inseparable, and from ~5 the classifier isolates
        them.
    engine:
        Which scheduler drives the gossip — ``"rounds"`` (the paper's
        Section 5.3 synchronous methodology, the default) or ``"async"``
        (the Section 6 Poisson schedule; one "round" is then one mean
        firing interval of simulated time).  Threaded through every
        experiment so each figure and robustness sweep runs identically
        on either execution model.
    workers:
        Worker processes for experiments that fan their grids out
        through :mod:`repro.sweep`.  ``0`` (the default) runs every
        cell inline in this process; results are byte-identical either
        way, so this is purely a wall-clock knob.
    """

    name: str
    n_nodes: int
    max_rounds: int
    convergence_tolerance: float = 1e-4
    probe_count: int = 8
    deltas: tuple[float, ...] = (
        0.0, 2.5, 4.0, 4.5, 5.0, 7.5, 10.0, 12.5, 15.0, 17.5, 20.0, 22.5, 25.0,
    )
    engine: str = "rounds"
    workers: int = 0

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.workers < 0:
            raise ValueError(f"workers must be >= 0, got {self.workers}")

    def with_overrides(self, **kwargs) -> "Scale":
        return replace(self, **kwargs)

    def as_dict(self) -> dict:
        """A JSON-serialisable view (``deltas`` becomes a list)."""
        return {
            "name": self.name,
            "n_nodes": self.n_nodes,
            "max_rounds": self.max_rounds,
            "convergence_tolerance": self.convergence_tolerance,
            "probe_count": self.probe_count,
            "deltas": list(self.deltas),
            "engine": self.engine,
            "workers": self.workers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Scale":
        payload = dict(data)
        if "deltas" in payload:
            payload["deltas"] = tuple(payload["deltas"])
        return cls(**payload)


#: The published configuration (Section 5.3).
PAPER = Scale(name="paper", n_nodes=1000, max_rounds=60)

#: The default for the benchmark suite: large enough that every paper
#: shape (miss-rate cliff, linear regular error, crash indifference)
#: reproduces clearly, small enough that the whole suite runs in minutes.
BENCH = Scale(name="bench", n_nodes=400, max_rounds=45)

#: A seconds-scale configuration exercising identical code paths.
FAST = Scale(
    name="fast",
    n_nodes=100,
    max_rounds=30,
    deltas=(0.0, 5.0, 10.0, 20.0),
)

_PRESETS = {"paper": PAPER, "bench": BENCH, "fast": FAST}


def preset(name: str) -> Scale:
    """Look up a preset by name ('paper' or 'fast')."""
    try:
        return _PRESETS[name]
    except KeyError:
        raise ValueError(f"unknown scale {name!r}; choose from {sorted(_PRESETS)}") from None


def run_experiment_sweep(spec: SweepSpec, scale: Scale) -> dict:
    """Execute an experiment's cell grid through :mod:`repro.sweep`.

    Returns results keyed by cell key (the ``label`` for explicit
    cells).  Experiments are not partial-result consumers the way ad-hoc
    sweeps are — a figure with a missing curve is wrong, not degraded —
    so any failed cell raises instead of being silently dropped.
    """
    report = run_sweep(spec, workers=scale.workers)
    if report.failures:
        summary = "; ".join(
            f"{key}: {error.strip().splitlines()[-1] if error.strip() else 'unknown error'}"
            for key, error in report.failures.items()
        )
        raise RuntimeError(f"sweep {spec.name!r} had failed cells: {summary}")
    return report.results


def run_until_convergence(
    values: np.ndarray,
    scheme: SummaryScheme,
    k: int,
    scale: Scale,
    seed: int = 0,
    graph: Optional[nx.Graph] = None,
    track_aux: bool = False,
    failure_model: Optional[FailureModel] = None,
    variant: str = "push",
) -> tuple[SimulationKernel, list[ClassifierNode], int]:
    """Run Algorithm 1 until probe nodes stop moving (or max_rounds).

    Returns ``(engine, nodes, rounds_run)``.  Convergence is declared when
    ``probe_count`` evenly spaced nodes all move less than
    ``scale.convergence_tolerance`` (classification EMD) for three
    consecutive rounds — a practical stand-in for the paper's "run until
    convergence" which its asynchronous model cannot bound a priori.

    ``scale.engine`` selects the scheduler; the kernel's uniform ``run``
    drives either one in round-equivalents, so "rounds to convergence"
    is measured on the same axis for both execution models.
    """
    n = len(values)
    if graph is None:
        graph = complete(n)
    engine, nodes = build_classification_network(
        values,
        scheme,
        k=k,
        graph=graph,
        seed=seed,
        track_aux=track_aux,
        failure_model=failure_model,
        variant=variant,
        engine=scale.engine,
    )
    probe_step = max(1, n // max(1, scale.probe_count))
    detector = ConvergenceDetector(scheme, tolerance=scale.convergence_tolerance)

    def settled(current_engine: SimulationKernel) -> bool:
        probes = [
            nodes[node_id]
            for node_id in range(0, n, probe_step)
            if current_engine.is_live(node_id)
        ]
        if not probes:
            return True
        return detector.update(probes)

    rounds_run = engine.run(scale.max_rounds, stop_condition=settled)
    return engine, nodes, rounds_run
