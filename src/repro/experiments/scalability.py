"""Scalability and message-size experiments.

These back the paper's efficiency claims, which the evaluation section
asserts but does not plot:

- **Message size is independent of n** (Section 2: message size depends
  "only on the parameters of the dataset, and not on the number of
  nodes").  :func:`run_message_size_ablation` serialises *real* payloads
  from converged runs at different network sizes through the binary wire
  format and compares byte counts — across sizes and across schemes
  (full vs diagonal Gaussians vs centroids).
- **Rounds to convergence grow slowly with n** on the fully connected
  gossip topology.  :func:`run_scalability` sweeps n and reports rounds,
  total messages and bytes per message.
- **Asynchrony is not load-bearing** (Section 6 proves convergence
  without rounds).  :func:`run_async_ablation` runs the event-driven
  engine and reports simulated time and events to a disagreement target.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.convergence import disagreement
from repro.core.node import ClassifierNode
from repro.core.serialization import codec_for_scheme, encode_payload
from repro.data.generators import two_cluster_values
from repro.experiments.ablations import AblationRow
from repro.experiments.common import Scale, PAPER, run_until_convergence
from repro.network.schedulers import PoissonScheduler
from repro.network.topology import make_topology
from repro.protocols.classification import build_classification_network
from repro.schemes import make_scheme
from repro.schemes.gm import GaussianMixtureScheme

__all__ = [
    "run_message_size_ablation",
    "run_scalability",
    "run_async_ablation",
    "measured_payload_bytes",
]


def measured_payload_bytes(
    nodes: Sequence[ClassifierNode],
    scheme,
    dimension: int,
    probe_count: int = 16,
) -> int:
    """Largest wire size of a real split payload across probe nodes.

    Each probe node performs one split, the would-be message is
    serialised, and the halves are merged straight back in — weight is
    conserved exactly and the summaries are unchanged (merging two
    identical summaries is the identity under R4), so the measurement
    does not disturb the converged state.
    """
    codec = codec_for_scheme(scheme, dimension)
    worst = 0
    step = max(1, len(nodes) // probe_count)
    for node in list(nodes)[::step]:
        payload = node.make_message()
        if payload:
            worst = max(worst, len(encode_payload(payload, codec)))
            node.receive(payload)  # put the weight straight back
    return worst


def run_message_size_ablation(scale: Scale = PAPER, seed: int = 21) -> list[AblationRow]:
    """Wire bytes per message: scheme x network size.

    The claim under test: for a fixed scheme and k, the byte count is the
    same at every network size (the wire format has no n-dependent field,
    and the collection count is bounded by k).
    """
    sizes = sorted({min(scale.n_nodes, 64), min(scale.n_nodes, 192)})
    rows = []
    for name in ("centroid", "diagonal_gaussian", "gaussian_mixture"):
        measured = {}
        for n in sizes:
            values = two_cluster_values(n, seed)
            scheme = make_scheme(name)
            run_scale = scale.with_overrides(n_nodes=n, max_rounds=min(scale.max_rounds, 30))
            _, nodes, _ = run_until_convergence(values, scheme, k=2, scale=run_scale, seed=seed)
            measured[n] = measured_payload_bytes(nodes, scheme, dimension=2)
        rows.append(
            AblationRow(
                label=name,
                metrics={
                    **{f"bytes_at_n={n}": float(b) for n, b in measured.items()},
                    "size_independent_of_n": float(len(set(measured.values())) == 1),
                },
            )
        )
    return rows


def run_scalability(
    scale: Scale = PAPER,
    seed: int = 22,
    sizes: Sequence[int] | None = None,
    target_disagreement: float = 0.05,
) -> list[AblationRow]:
    """Rounds / messages / bytes to convergence as n grows."""
    if sizes is None:
        cap = scale.n_nodes
        sizes = sorted({min(cap, n) for n in (50, 100, 200, 400)})
    rows = []
    for n in sizes:
        values = two_cluster_values(n, seed)
        scheme = GaussianMixtureScheme(seed=seed)
        run_scale = scale.with_overrides(n_nodes=n)
        engine, nodes, rounds = run_until_convergence(
            values, scheme, k=2, scale=run_scale, seed=seed
        )
        rows.append(
            AblationRow(
                label=f"n={n}",
                metrics={
                    "n": float(n),
                    "rounds": float(rounds),
                    "messages": float(engine.metrics.messages_sent),
                    "messages_per_node": engine.metrics.messages_sent / n,
                    "bytes_per_message": float(
                        measured_payload_bytes(nodes, scheme, dimension=2)
                    ),
                    "final_disagreement": disagreement(nodes, scheme),
                },
            )
        )
    return rows


def run_async_ablation(
    scale: Scale = PAPER,
    seed: int = 23,
    target_disagreement: float = 0.1,
) -> list[AblationRow]:
    """Event-driven convergence on dense and sparse topologies.

    Reports the simulated time and event count at which the network's
    disagreement first drops below the target — the asynchronous
    analogue of "rounds to convergence".
    """
    n = min(scale.n_nodes, 32)
    values = two_cluster_values(n, seed)
    rows = []
    for name in ("complete", "ring"):
        scheme = GaussianMixtureScheme(seed=seed)
        engine, nodes = build_classification_network(
            values, scheme, k=2, graph=make_topology(name, n), seed=seed, engine="async"
        )
        scheduler = engine.scheduler
        assert isinstance(scheduler, PoissonScheduler)
        horizon = 40.0
        reached_at = float("nan")
        while horizon <= 20000.0:
            scheduler.run_until(engine, horizon)
            gap = disagreement(nodes, scheme)
            if gap < target_disagreement:
                reached_at = scheduler.now
                break
            horizon *= 2.0
        rows.append(
            AblationRow(
                label=name,
                metrics={
                    "sim_time_to_target": reached_at,
                    "events": float(engine.metrics.events),
                    "messages": float(engine.metrics.messages_sent),
                    "final_disagreement": disagreement(nodes, scheme),
                },
            )
        )
    return rows
