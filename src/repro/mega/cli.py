"""The mega-scale CLI: ``python -m repro.mega``.

Usage::

    python -m repro.mega --nodes 100000 --scheme gm --stop-on-quiescence
    python -m repro.mega --nodes 250000 --shards 4 --rounds 40 --json run.json
    python -m repro.mega --nodes 1000000 --shards 8 --stop-on-quiescence
    python -m repro.mega --nodes 1000 --data normal --scheme centroid
    python -m repro.mega --nodes 20000 --data paper --rounds 16

Runs one whole-network arena simulation — single-process
:class:`~repro.mega.engine.ArenaEngine` by default, the multi-process
:class:`~repro.mega.shard.ShardedArenaEngine` with ``--shards N`` — and
prints a round/time/cache summary (optionally as JSON for scripting).
Sharded runs move payload rows through shared-memory slabs; the summary
names the segments' count and the exchange's per-phase seconds.

``--data``, ``--scheme`` and ``--topology`` are names in
:data:`repro.data.DATASETS`, :data:`repro.schemes.SCHEMES` and
:data:`repro.network.topology.TOPOLOGIES`.  ``--data centers`` (the
default) draws each node's value from three well-separated cluster
centers: merges are float-exact, so the population byte-converges and
quiescence detection can stop the run — the regime the mega-scale
benchmark measures.  ``--data normal`` draws one N(0, I) blob, which
never byte-converges; use a fixed ``--rounds`` budget there.  ``--data
paper`` is the paper's own setup (§5.3): the three centers plus unit
Gaussian noise, which never byte-converges either.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Any, Optional

from repro.analysis.reporting import banner, format_table
from repro.data import make_dataset
from repro.mega.engine import ArenaEngine
from repro.mega.shard import ShardedArenaEngine
from repro.schemes import make_scheme

__all__ = ["main"]

#: The histogram's binning: 32 bins over every center's first coordinate.
_HISTOGRAM_BINNING = {"low": -12.0, "high": 12.0, "bins": 32}


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
        "--data", choices=["centers", "normal", "paper"], default="centers",
        help="value generator (centers byte-converges; normal and paper never do)",
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

    values = make_dataset(args.data, args.nodes, args.data_seed)
    scheme = make_scheme(
        args.scheme, **(_HISTOGRAM_BINNING if args.scheme == "histogram" else {})
    )
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
