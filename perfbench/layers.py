"""Which program entry points the traced run times, and the per-layer metric set.

Every timed layer is reported as its *self* time (seconds spent in the
wrapped call minus the wrapped calls inside it) next to its call count,
so the times of one traced run add up, with ``trace.unattributed_s``, to
``trace.wall_s``.  A layer a workload never enters reports 0 calls and
0 s: ``ml.em_calls`` is 0 on the tails by design, and the shard
workers' own layers are not traced (only the parent is), so on
``shard2_converge`` the solver-internal times read 0 and the exchange
phases carry the split.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

from tracing import ROOT, LayerTracer

#: (metric for the self time, tracer layer, metric for the call count).
TIMED: List[Tuple[str, str, str]] = [
    ("arena.pairing_s", "arena.pairing", "arena.pairing_calls"),
    ("arena.round_self_s", "arena.round", "arena.round_calls"),
    ("arena.probe_s", "arena.run", "arena.run_calls"),
    ("solver.receive_self_s", "solver.receive", "solver.receive_calls"),
    ("arena.intern_s", "arena.intern", "arena.intern_calls"),
    ("ml.em_s", "ml.em", "ml.em_calls"),
    ("scheme.partition_self_s", "scheme.partition", "scheme.partition_calls"),
    ("scheme.merge_s", "scheme.merge", "scheme.merge_calls"),
    ("scheme.digest_s", "scheme.digest", "scheme.digest_calls"),
    ("cache.lookup_s", "cache.lookup", "cache.lookup_calls"),
    ("cache.store_s", "cache.store", "cache.store_calls"),
    ("cache.certificate_s", "cache.certificate", "cache.certificate_calls"),
    ("kernel.schedule_self_s", "kernel.run", "kernel.run_calls"),
    ("kernel.select_s", "kernel.select", "kernel.select_calls"),
    ("kernel.transmit_self_s", "kernel.transmit", "kernel.transmit_calls"),
    ("transport.send_s", "transport.send", "transport.send_calls"),
    ("transport.flush_self_s", "transport.flush", "transport.flush_calls"),
    ("node.split_s", "node.split", "node.split_calls"),
    ("node.receive_self_s", "node.receive", "node.receive_calls"),
]

#: Metrics filled from engine counters and process clocks, with units.
COUNTED: List[Tuple[str, str]] = [
    ("ml.em_rows_per_call", "rows"),
    ("exchange.split_s", "s"),
    ("exchange.route_s", "s"),
    ("exchange.deliver_s", "s"),
    ("exchange.parent_self_s", "s"),
    ("shard.full_solves", "count"),
    ("shard.dup_solves", "count"),
    ("shard.imbalance", "ratio"),
    ("shard.worker_cpu_s", "s"),
    ("shard.restarts", "count"),
    ("solver.receivers", "count"),
    ("solver.full_solves", "count"),
    ("solver.memo_hits", "count"),
    ("solver.noop_hits", "count"),
    ("solver.noop_sweep_hits", "count"),
    ("solver.fastpath_hits", "count"),
    ("solver.dedup_ratio", "ratio"),
    ("arena.rounds_to_quiescence", "rounds"),
    ("kernel.rounds_to_quiescence", "rounds"),
    ("kernel.messages", "count"),
    ("kernel.deliveries", "count"),
    ("node.cache_noop_hits", "count"),
    ("node.cache_memo_hits", "count"),
    ("node.cache_misses", "count"),
    ("node.fastpath_hits", "count"),
    ("node.hit_ratio", "ratio"),
    ("wire.bytes_per_node_round", "B"),
    ("python.gc_s", "s"),
    ("python.gc_collections", "count"),
    ("process.cpu_s", "s"),
    ("measured.rounds", "rounds"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: Dict[str, str] = {}
    for time_name, _, calls_name in TIMED:
        units[time_name] = "s"
        units[calls_name] = "count"
    units.update(dict(COUNTED))
    return units


def install(tracer: LayerTracer) -> None:
    """Wrap the public entry points of every layer the workloads run."""
    from repro.core.fingerprint import MergeCache
    from repro.mega.arena import SummaryInterner
    from repro.mega.engine import ArenaEngine, GossipPairing, ReceiveSolver
    from repro.mega.shard import ShardedArenaEngine
    from repro.ml.reduction import reduce_mixture
    from repro.network.kernel import SimulationKernel
    from repro.network.simulator import RandomSelector
    from repro.network.transport import InMemoryTransport
    from repro.protocols.classification import ClassificationProtocol
    from repro.schemes.gm import GaussianMixtureScheme

    wrap = tracer.wrap_method
    wrap(GossipPairing, "draw", "arena.pairing")
    wrap(ArenaEngine, "run_round", "arena.round")
    wrap(ArenaEngine, "run", "arena.run")
    # The payload rows routed to the solver in a round are the rows on
    # the wire that round (args: self, dests, bounds, ids, ...).
    wrap(ReceiveSolver, "receive_slab", "solver.receive", rows=lambda args: len(args[3]))
    wrap(SummaryInterner, "intern_row", "arena.intern")
    tracer.wrap_function(reduce_mixture, "ml.em", rows=lambda args: len(args[0]))
    wrap(GaussianMixtureScheme, "partition_packed", "scheme.partition")
    wrap(GaussianMixtureScheme, "merge_groups_columns", "scheme.merge")
    wrap(GaussianMixtureScheme, "digest_row", "scheme.digest")
    wrap(MergeCache, "lookup", "cache.lookup")
    wrap(MergeCache, "store", "cache.store")
    wrap(MergeCache, "certificate_for", "cache.certificate")
    wrap(SimulationKernel, "run", "kernel.run")
    wrap(RandomSelector, "choose", "kernel.select")
    wrap(SimulationKernel, "transmit", "kernel.transmit")
    wrap(InMemoryTransport, "send", "transport.send")
    wrap(InMemoryTransport, "flush_deliveries", "transport.flush")
    wrap(ClassificationProtocol, "make_payload", "node.split")
    wrap(ClassificationProtocol, "receive_batch", "node.receive")
    wrap(ShardedArenaEngine, "run", "exchange.run")
    wrap(ShardedArenaEngine, "run_round", "exchange.round")
    tracer.start_gc_overlay()


def timed_metrics(tracer: LayerTracer) -> Dict[str, float]:
    """Self seconds and call counts of every timed layer, plus the root."""
    metrics: Dict[str, float] = {}
    for time_name, layer_name, calls_name in TIMED:
        layer = tracer.layer(layer_name)
        metrics[time_name] = layer.self_time
        metrics[calls_name] = layer.calls
    em = tracer.layer("ml.em")
    metrics["ml.em_rows_per_call"] = em.rows / em.calls if em.calls else 0.0
    root = tracer.layer(ROOT)
    metrics["trace.wall_s"] = root.inclusive
    metrics["trace.unattributed_s"] = root.self_time
    metrics["python.gc_s"] = tracer.gc_seconds
    metrics["python.gc_collections"] = tracer.gc_collections
    return metrics


def fill_missing(metrics: Dict[str, Any]) -> Dict[str, Any]:
    """Zero every per-layer metric a workload does not produce."""
    return {name: metrics.get(name, 0) for name in per_layer_units()}
