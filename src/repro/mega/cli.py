"""The mega-scale CLI: ``python -m repro.mega``.

Usage::

    python -m repro.mega --nodes 100000 --scheme gm --stop-on-quiescence
    python -m repro.mega --nodes 250000 --shards 4 --rounds 40 --json run.json
    python -m repro.mega --nodes 1000000 --shards 8 --stop-on-quiescence
    python -m repro.mega --nodes 1000 --data normal --scheme centroid

Runs one whole-network arena simulation — single-process
:class:`~repro.mega.engine.ArenaEngine` by default, the multi-process
:class:`~repro.mega.shard.ShardedArenaEngine` with ``--shards N`` — and
prints a round/time/cache summary (optionally as JSON for scripting).
Sharded runs move payload rows through shared-memory slabs; the summary
names the segments' count and the exchange's per-phase seconds.

``--data centers`` (the default) draws each node's value from three
well-separated cluster centers: merges are float-exact, so the
population byte-converges and quiescence detection can stop the run —
the regime the mega-scale benchmark measures.  ``--data normal`` draws
continuous values, which never byte-converge; use a fixed ``--rounds``
budget there.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Optional

import numpy as np

from repro.analysis.reporting import banner, format_table
from repro.mega.engine import ArenaEngine
from repro.mega.shard import ShardedArenaEngine

__all__ = ["build_values", "build_scheme", "main"]

#: Three well-separated, exactly-representable cluster centers: every
#: merge of same-center summaries is float-exact, so the population
#: reaches a byte-stable classification (cf. benchmarks/test_convergence_cache.py).
CENTER_POINTS = np.array([[0.0, 0.0], [8.0, 8.0], [-8.0, 8.0]])


def build_values(data: str, nodes: int, data_seed: int, scheme_name: str) -> np.ndarray:
    """The per-node input values for a CLI/benchmark run."""
    rng = np.random.default_rng(data_seed)
    if data == "centers":
        values = CENTER_POINTS[rng.integers(0, len(CENTER_POINTS), size=nodes)]
    elif data == "normal":
        values = rng.normal(size=(nodes, 2))
    else:
        raise ValueError(f"unknown data generator {data!r}")
    if scheme_name == "histogram":
        return values[:, :1]
    return values


def build_scheme(scheme_name: str, scheme_seed: int = 0) -> Any:
    if scheme_name == "gm":
        from repro.schemes.gm import GaussianMixtureScheme

        return GaussianMixtureScheme(seed=scheme_seed)
    if scheme_name == "diagonal":
        from repro.schemes.diagonal import DiagonalGaussianScheme

        return DiagonalGaussianScheme(seed=scheme_seed)
    if scheme_name == "centroid":
        from repro.schemes.centroid import CentroidScheme

        return CentroidScheme()
    if scheme_name == "histogram":
        from repro.schemes.histogram import HistogramScheme

        return HistogramScheme(low=-12.0, high=12.0, bins=32)
    raise ValueError(f"unknown scheme {scheme_name!r}")


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.mega",
        description="Whole-network arena gossip at 100k-1M nodes.",
    )
    parser.add_argument("--nodes", type=int, default=10000, help="population size")
    parser.add_argument(
        "--scheme", choices=["gm", "centroid", "diagonal", "histogram"], default="gm"
    )
    parser.add_argument("--k", type=int, default=3, help="collections per node")
    parser.add_argument("--seed", type=int, default=11, help="pairing RNG seed")
    parser.add_argument(
        "--data", choices=["centers", "normal"], default="centers",
        help="value generator (centers byte-converges; normal never does)",
    )
    parser.add_argument("--data-seed", type=int, default=11)
    parser.add_argument("--rounds", type=int, default=200, help="round budget")
    parser.add_argument(
        "--shards", type=int, default=0,
        help="worker processes (0 = single-process engine, the default)",
    )
    parser.add_argument("--topology", default="complete")
    parser.add_argument(
        "--stop-on-quiescence", action="store_true",
        help="stop once the population holds a stable classification",
    )
    parser.add_argument("--patience", type=int, default=3,
                        help="consecutive quiet rounds before stopping")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the certified no-op merge cache")
    parser.add_argument("--checkpoint-every", type=int, default=4,
                        help="rounds between shard worker checkpoints")
    parser.add_argument("--json", metavar="PATH", default=None,
                        help="also write the summary as JSON ('-' for stdout)")
    args = parser.parse_args(argv)

    values = build_values(args.data, args.nodes, args.data_seed, args.scheme)
    scheme = build_scheme(args.scheme)
    use_cache = not args.no_cache

    start = time.perf_counter()
    try:
        if args.shards > 0:
            engine: Any = ShardedArenaEngine(
                values, scheme, args.k,
                shards=args.shards,
                seed=args.seed,
                topology=args.topology,
                use_cache=use_cache,
                checkpoint_every=args.checkpoint_every,
            )
        else:
            engine = ArenaEngine(
                values, scheme, args.k,
                seed=args.seed,
                topology=args.topology,
                use_cache=use_cache,
            )
    except (ValueError, KeyError) as exc:
        parser.error(str(exc))
    executed = engine.run(
        args.rounds,
        stop_on_quiescence=args.stop_on_quiescence,
        quiescence_patience=args.patience,
    )
    if args.shards > 0:
        engine.collect()
    elapsed = time.perf_counter() - start

    stats = engine.stats.as_dict()
    if args.shards > 0:
        tier = f"shared-memory slabs ({len(engine.segment_names)} segments)"
    else:
        tier = "in-process (single arena)"
    summary = {
        "nodes": args.nodes,
        "scheme": args.scheme,
        "k": args.k,
        "seed": args.seed,
        "data": args.data,
        "topology": args.topology,
        "shards": args.shards,
        "rounds_executed": executed,
        "quiescent_at": engine.quiescent_at,
        "wall_s": round(elapsed, 3),
        "rounds_per_s": round(executed / elapsed, 3) if elapsed > 0 else None,
        "stats": stats,
    }
    if args.shards > 0:
        summary["exchange_phase_s"] = {
            name: round(value, 3) for name, value in engine.phase_seconds.items()
        }
        summary["shard_solver"] = engine.shard_solver_stats()

    mode = f"{args.shards} shards" if args.shards > 0 else "single process"
    print(banner(f"repro.mega — {args.nodes} nodes, {args.scheme}, {mode}"))
    hits = stats["memo_round_hits"] + stats["noop_hits"]
    rows = [
        ["exchange tier", tier],
        ["rounds executed", executed],
        ["quiescent at", engine.quiescent_at if engine.quiescent_at is not None else "-"],
        ["wall clock (s)", summary["wall_s"]],
        ["messages", stats["messages"]],
        ["receives", stats["receivers"]],
        ["dedup/no-op hits", hits],
        ["full merges solved", stats["full_solves"]],
    ]
    if args.shards > 0:
        phases = engine.phase_seconds
        rows.append(
            [
                "exchange phases (s)",
                "split {split:.3f} / route {route:.3f} / deliver {deliver:.3f}".format(
                    **phases
                ),
            ]
        )
    print(format_table(["metric", "value"], rows))
    if args.shards > 0:
        print(banner("Per-shard receive solver (caches are shard-private)"))
        solver_rows = [
            [
                entry["shard"],
                entry["receivers"],
                entry["cache_hits"],
                entry["full_solves"],
                f"{entry['solver_hit_rate']:.4f}",
            ]
            for entry in engine.shard_solver_stats()
        ]
        print(
            format_table(
                ["shard", "receives", "cache hits", "full solves", "hit rate"],
                solver_rows,
            )
        )

    if args.json:
        text = json.dumps(summary, indent=2, sort_keys=True)
        if args.json == "-":
            print(text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
