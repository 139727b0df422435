"""Mega-scale benchmark: the arena engine's nodes-vs-wall-clock curve.

Drives :class:`repro.mega.ArenaEngine` over discrete-valued GM data (the
byte-converging regime of ``BENCH_cache``: every node's value sits on
one of three centers, so merges are float-exact and the population
reaches structural quiescence) at 1k / 10k / 100k nodes, plus a
shard-scaling sweep over the :class:`repro.mega.ShardedArenaEngine`
shared-memory exchange, and writes everything to
``benchmarks/results/BENCH_megascale.json``.  Results are *merged* into
the existing JSON — curve entries by node count, shard-scaling entries
by ``(nodes, shards)`` — so a ``fast``-scale CI run refreshes its own
points without clobbering the recorded 100k / million-node entries.

Four gates ride along:

- **parity** — at 1,000 nodes the arena's final classifications must be
  byte-identical to the per-node ``SimulationKernel``'s (same seed, same
  rounds), the ISSUE 8 correctness contract at benchmark scale;
- **budget** — the 100k-node run must finish within ``BUDGET_S``
  (minutes, not hours, on CI hardware);
- **shard speedup** — when the machine actually has >= 4 cores, the
  4-shard shared-memory run must be no slower than single-process at
  the sweep size (target >= 1.5x).  On smaller machines the gate is
  recorded as skipped with the core count — workers would time-slice
  one core, which measures the scheduler, not the exchange;
- **two shards** — with at least 2 cores and the 100k sweep size, the
  median of three 2-shard runs, alternated with three single-process
  runs, must be no slower than the single-process median.  Below 100k
  nodes or 2 cores the gate is recorded as skipped.  It is checked
  after the JSON is written, so a failing run still leaves its numbers.

Scale presets via ``REPRO_BENCH_SCALE``: ``fast`` stops at 10k (the CI
``megascale-smoke`` configuration), the default ``bench`` carries the
curve through 100k, ``paper`` adds 250k, and ``mega`` adds the
1,000,000-node run to structural quiescence.

Run with::

    python -m pytest benchmarks/test_megascale.py -q
"""

from __future__ import annotations

import json
import os
import pathlib
import statistics
import time

import numpy as np

from repro.data import make_dataset
from repro.mega import ArenaEngine, ShardedArenaEngine
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.schemes.gm import GaussianMixtureScheme

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_megascale.json"

K = 3
SEED = 11
MAX_ROUNDS = 200
PARITY_N = 1000
BUDGET_S = 600.0
MILLION_N = 1_000_000
MILLION_BUDGET_S = 3600.0
SPEEDUP_TARGET = 1.5
TWO_SHARD_GATE_N = 100000
TWO_SHARD_GATE_REPEATS = 3

CURVE_SIZES = {
    "fast": [1000, 10000],
    "bench": [1000, 10000, 100000],
    "paper": [1000, 10000, 100000, 250000],
    "mega": [1000, 10000, 100000],
}

#: Shard-scaling sweep per preset: (nodes, shard counts).  Shards=1 is
#: the protocol floor (one worker, no cross-shard traffic) and 0 the
#: single-process baseline the speedup gate compares against.
SHARD_SWEEP = {
    "fast": (10000, [1, 2, 4]),
    "bench": (100000, [1, 2, 4, 8]),
    "paper": (100000, [1, 2, 4, 8]),
    "mega": (100000, [1, 2, 4, 8]),
}


def _available_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _values(n: int) -> np.ndarray:
    return make_dataset("centers", n, 11)


def _arena_run(n: int, shards: int = 0) -> dict:
    values = _values(n)
    start = time.perf_counter()
    if shards:
        engine = ShardedArenaEngine(
            values, GaussianMixtureScheme(seed=0), K, seed=SEED,
            shards=shards, use_cache=True,
        )
    else:
        engine = ArenaEngine(
            values, GaussianMixtureScheme(seed=0), K, seed=SEED, use_cache=True
        )
    executed = engine.run(MAX_ROUNDS, stop_on_quiescence=True)
    if shards:
        engine.collect()
    wall_s = time.perf_counter() - start
    stats = engine.stats.as_dict()
    assert engine.quiescent, f"n={n}: no quiescence within {MAX_ROUNDS} rounds"
    record = {
        "nodes": n,
        "shards": shards,
        "rounds": executed,
        "quiescent_at": engine.quiescent_at,
        "wall_s": wall_s,
        "rounds_per_s": executed / wall_s,
        "node_rounds_per_s": n * executed / wall_s,
        "messages": stats["messages"],
        "receives": stats["receivers"],
        "dedup_hits": stats["memo_round_hits"] + stats["memo_lru_hits"] + stats["noop_hits"],
        "full_solves": stats["full_solves"],
    }
    if shards:
        record["phase_s"] = {
            name: round(value, 3) for name, value in engine.phase_seconds.items()
        }
    return record


def _merge_records(new: dict) -> dict:
    """Merge this run's records into the existing benchmark JSON.

    Curve points merge by node count and shard-scaling points by
    ``(nodes, shards)``; the ``million_node`` entry survives
    runs that did not regenerate it.  The legacy ``sharded_10k`` key is
    dropped — ``shard_scaling`` supersedes it.
    """
    old: dict = {}
    if RESULTS_PATH.exists():
        try:
            old = json.loads(RESULTS_PATH.read_text())
        except json.JSONDecodeError:  # pragma: no cover - corrupt file
            old = {}
    merged = dict(old)
    merged.pop("sharded_10k", None)
    for key, value in new.items():
        if key not in ("curve", "shard_scaling"):
            merged[key] = value
    curve = {entry["nodes"]: entry for entry in old.get("curve", [])}
    curve.update({entry["nodes"]: entry for entry in new.get("curve", [])})
    merged["curve"] = [curve[nodes] for nodes in sorted(curve)]
    scaling = {
        (entry["nodes"], entry["shards"]): entry
        for entry in old.get("shard_scaling", []) + new.get("shard_scaling", [])
    }
    merged["shard_scaling"] = [scaling[key] for key in sorted(scaling)]
    return merged


def _two_shard_gate(nodes: int, cores: int) -> dict:
    """2 shards against one process, median of alternating runs."""
    if nodes < TWO_SHARD_GATE_N or cores < 2:
        return {
            "status": "skipped",
            "available_cores": cores,
            "reason": (
                f"needs >= 2 cores and the {TWO_SHARD_GATE_N}-node sweep size, "
                f"have {cores} cores and {nodes} nodes"
            ),
        }
    single, two_shard = [], []
    for _ in range(TWO_SHARD_GATE_REPEATS):
        single.append(_arena_run(nodes)["wall_s"])
        two_shard.append(_arena_run(nodes, shards=2)["wall_s"])
    return {
        "status": "enforced",
        "available_cores": cores,
        "nodes": nodes,
        "single_wall_s": [round(value, 3) for value in single],
        "two_shard_wall_s": [round(value, 3) for value in two_shard],
        "median_single_s": round(statistics.median(single), 3),
        "median_two_shard_s": round(statistics.median(two_shard), 3),
        "passed": statistics.median(two_shard) <= statistics.median(single),
    }


def test_megascale_curve():
    scale = os.environ.get("REPRO_BENCH_SCALE", "bench")
    sizes = CURVE_SIZES.get(scale, CURVE_SIZES["bench"])
    cores = _available_cores()

    # Parity gate: the arena vs the per-node kernel, byte for byte.
    values = _values(PARITY_N)
    engine = ArenaEngine(
        values, GaussianMixtureScheme(seed=0), K, seed=SEED, use_cache=True
    )
    parity_rounds = engine.run(MAX_ROUNDS, stop_on_quiescence=True)
    kernel, nodes = build_classification_network(
        values,
        GaussianMixtureScheme(seed=0),
        k=K,
        graph=complete(PARITY_N),
        seed=SEED,
        merge_cache=True,
    )
    kernel.run(parity_rounds)
    scheme = nodes[0].scheme
    kernel_states = [
        tuple((scheme.summary_digest(c.summary), c.quanta) for c in node.classification)
        for node in nodes
    ]
    arena_states = [engine.state_digests(node) for node in range(PARITY_N)]
    assert arena_states == kernel_states, (
        f"arena/kernel parity broke at n={PARITY_N} after {parity_rounds} rounds"
    )

    curve = [_arena_run(n) for n in sizes]

    # Shard-scaling sweep: single-process baseline plus 1/2/4/... shard
    # runs at one size.
    sweep_nodes, shard_counts = SHARD_SWEEP.get(scale, SHARD_SWEEP["bench"])
    baseline = next(
        (point for point in curve if point["nodes"] == sweep_nodes), None
    )
    if baseline is None:
        baseline = _arena_run(sweep_nodes)
    shard_scaling = [baseline]
    shard_scaling += [_arena_run(sweep_nodes, shards=s) for s in shard_counts]

    # Speedup gate: only meaningful when 4 workers can actually run in
    # parallel; on fewer cores record the skip instead of measuring the
    # scheduler.
    four_shard = next((p for p in shard_scaling if p["shards"] == 4), None)
    if four_shard is not None and cores >= 4:
        speedup = baseline["wall_s"] / four_shard["wall_s"]
        gate = {
            "status": "enforced",
            "available_cores": cores,
            "speedup_4shard_vs_single": round(speedup, 3),
            "target": SPEEDUP_TARGET,
        }
        assert four_shard["wall_s"] <= baseline["wall_s"], (
            f"4-shard run ({four_shard['wall_s']:.1f}s) slower than "
            f"single-process ({baseline['wall_s']:.1f}s) on {cores} cores"
        )
    else:
        gate = {
            "status": "skipped",
            "available_cores": cores,
            "reason": (
                f"needs >= 4 cores for a meaningful parallel measurement, have {cores}"
                if cores < 4
                else "no 4-shard point in this sweep"
            ),
        }

    records = {
        "workload": (
            f"GM scheme, k={K}, complete graph, three-center discrete data, "
            f"run to structural quiescence (patience 3), seed {SEED}"
        ),
        "scale": scale,
        "parity": {
            "nodes": PARITY_N,
            "rounds": parity_rounds,
            "matches_kernel": True,
        },
        "curve": curve,
        "shard_scaling": shard_scaling,
        "shard_speedup_gate": gate,
        "two_shard_gate": _two_shard_gate(sweep_nodes, cores),
    }

    if scale == "mega":
        # The first recorded million-node run: structural quiescence of
        # a 1,000,000-node GM population.  Sharded when the hardware can
        # host parallel workers, single-process otherwise.
        million_shards = 4 if cores >= 4 else 0
        million = _arena_run(MILLION_N, shards=million_shards)
        assert million["wall_s"] <= MILLION_BUDGET_S, (
            f"1M nodes: {million['wall_s']:.0f}s exceeds the "
            f"{MILLION_BUDGET_S:.0f}s budget"
        )
        records["million_node"] = million

    RESULTS_PATH.parent.mkdir(exist_ok=True)
    merged = _merge_records(records)
    RESULTS_PATH.write_text(json.dumps(merged, indent=2, sort_keys=True) + "\n")

    for point in curve:
        assert point["wall_s"] <= BUDGET_S, (
            f"n={point['nodes']}: {point['wall_s']:.1f}s exceeds the "
            f"{BUDGET_S:.0f}s budget"
        )
    two_shard = records["two_shard_gate"]
    assert two_shard["status"] == "skipped" or two_shard["passed"], (
        f"2 shards (median {two_shard['median_two_shard_s']:.1f}s) slower than "
        f"single-process (median {two_shard['median_single_s']:.1f}s) "
        f"on {cores} cores"
    )
