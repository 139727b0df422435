"""Command-line entry point: regenerate any figure or ablation.

Usage::

    python -m repro.experiments.run fig2 --scale fast
    python -m repro.experiments.run fig3 --scale paper
    python -m repro.experiments.run ablation-topology
    python -m repro.experiments.run all --scale fast
    python -m repro.experiments.run fig4 --scale fast --trace trace.jsonl
    python -m repro.experiments.run ablation-k --scale bench --workers 4

Prints the same fixed-width series the benchmark suite emits.  With
``--trace PATH``, every engine the experiment constructs writes its
structured event log (sends, deliveries, drops, crashes, round closes,
EM steps, profiled spans) to ``PATH`` as JSONL; summarise it afterwards
with ``python -m repro.obs.report PATH``.  Adding ``--telemetry
[STRIDE]`` samples each engine's per-round convergence gauges (distinct
classifications, weight conservation, message/byte windows, cache hit
ratios) into the same trace — follow it live with ``python -m
repro.obs.monitor PATH``.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable

from repro.analysis.reporting import banner, format_series, format_table
from repro.network.schedulers import ENGINES
from repro.experiments import (
    preset,
    run_partition_heal,
    run_async_ablation,
    run_centralized_gap,
    run_crash_rate_sweep,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_gossip_variant_ablation,
    run_k_ablation,
    run_k_mismatch,
    run_message_size_ablation,
    run_outlier_fraction_sweep,
    run_quantum_ablation,
    run_scalability,
    run_scheme_ablation,
    run_topology_ablation,
)


def _print_fig1(scale) -> None:
    result = run_fig1(scale)
    print(banner("Figure 1 — centroid vs Gaussian association"))
    rows = [
        ["distance to centroid", result.distance_to_a, result.distance_to_b],
        ["log density", result.log_density_a, result.log_density_b],
    ]
    print(format_table(["criterion", "collection A (tight)", "collection B (wide)"], rows))
    print(f"centroid rule associates the new value with: {result.centroid_choice}")
    print(f"Gaussian rule associates the new value with: {result.gaussian_choice}")
    print(f"demonstrates the paper's claim: {result.demonstrates_claim}")


def _print_fig2(scale) -> None:
    result = run_fig2(scale)
    print(banner(f"Figure 2 — GM classification of fence-fire data ({scale.name} scale)"))
    print(f"converged after {result.rounds} rounds; {result.n_collections} collections at node 0")
    rows = []
    for match in result.recovery.matches:
        rows.append(
            [
                f"source[{match.true_index}]",
                match.mean_distance,
                match.weight_error,
                match.cov_frobenius_error,
            ]
        )
    print(format_table(["component", "mean_dist", "weight_err", "cov_frob_err"], rows))
    rows = [
        ["distributed GM", result.log_likelihood_distributed],
        ["centralized EM", result.log_likelihood_centralized],
        ["true source", result.log_likelihood_source],
    ]
    print(format_table(["model", "loglik/value"], rows))


def _print_fig3(scale) -> None:
    result = run_fig3(scale)
    print(
        format_series(
            f"Figure 3 — outlier separation sweep ({scale.name} scale, n={result.n_nodes})",
            "delta",
            result.column("delta"),
            {
                "missed_outliers_%": result.column("missed_outliers_pct"),
                "robust_error": result.column("robust_error"),
                "regular_error": result.column("regular_error"),
                "rounds": result.column("rounds"),
            },
        )
    )


def _print_fig4(scale) -> None:
    result = run_fig4(scale)
    print(
        format_series(
            f"Figure 4 — crash robustness (delta={result.delta}, {scale.name} scale)",
            "round",
            list(result.rounds),
            {
                "robust_no_crash": list(result.robust_no_crashes),
                "regular_no_crash": list(result.regular_no_crashes),
                "robust_crash": list(result.robust_with_crashes),
                "regular_crash": list(result.regular_with_crashes),
                "survivors": list(result.survivors_with_crashes),
            },
        )
    )


def _print_partition_heal(scale) -> None:
    result = run_partition_heal(scale)
    print(
        format_series(
            f"Partition and heal (n={result.n_nodes}, cut rounds "
            f"[{result.partition_start}, {result.partition_end}))",
            "round",
            list(result.rounds),
            {"cross_partition_disagreement": list(result.cross_disagreement)},
        )
    )


def _print_ablation(title: str, runner: Callable) -> Callable:
    def printer(scale) -> None:
        rows = runner(scale)
        print(banner(title))
        headers = ["config", *rows[0].metrics.keys()]
        table = [[row.label, *row.metrics.values()] for row in rows]
        print(format_table(headers, table))

    return printer


COMMANDS: dict[str, Callable] = {
    "fig1": _print_fig1,
    "fig2": _print_fig2,
    "fig3": _print_fig3,
    "fig4": _print_fig4,
    "ablation-topology": _print_ablation("Ablation — topology", run_topology_ablation),
    "ablation-gossip": _print_ablation("Ablation — gossip variant", run_gossip_variant_ablation),
    "ablation-k": _print_ablation("Ablation — compression bound k", run_k_ablation),
    "ablation-quantum": _print_ablation("Ablation — weight quantum q", run_quantum_ablation),
    "ablation-scheme": _print_ablation("Ablation — summary scheme", run_scheme_ablation),
    "ablation-centralized": _print_ablation(
        "Ablation — distributed vs centralized", run_centralized_gap
    ),
    "ablation-message-size": _print_ablation(
        "Ablation — wire bytes per message", run_message_size_ablation
    ),
    "ablation-scalability": _print_ablation(
        "Ablation — scalability in n", run_scalability
    ),
    "ablation-async": _print_ablation(
        "Ablation — asynchronous convergence", run_async_ablation
    ),
    "robustness-outlier-fraction": _print_ablation(
        "Robustness — contamination level sweep", run_outlier_fraction_sweep
    ),
    "robustness-crash-rate": _print_ablation(
        "Robustness — crash rate sweep", run_crash_rate_sweep
    ),
    "robustness-k-mismatch": _print_ablation(
        "Robustness — k mismatch", run_k_mismatch
    ),
    "partition-heal": _print_partition_heal,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments.run",
        description="Regenerate the paper's figures and ablations.",
    )
    parser.add_argument("experiment", choices=[*COMMANDS.keys(), "all"])
    parser.add_argument("--scale", default="paper", choices=["paper", "bench", "fast"])
    parser.add_argument(
        "--engine",
        default=None,
        choices=list(ENGINES),
        help="scheduler driving the gossip: 'rounds' (synchronous, the paper's "
        "Section 5.3 methodology, the default) or 'async' (Section 6 Poisson model)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes for the experiments that fan out through repro.sweep "
        "(0 = run every cell inline, the default; results are identical either way)",
    )
    parser.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write a JSONL event trace of the run (see repro.obs.report)",
    )
    parser.add_argument(
        "--telemetry",
        metavar="STRIDE",
        type=int,
        nargs="?",
        const=1,
        default=None,
        help="sample per-round convergence telemetry every STRIDE-th round "
        "(default stride 1 when the flag is given bare); telemetry events "
        "land in the --trace file when one is set",
    )
    args = parser.parse_args(argv)
    if args.workers < 0:
        parser.error("--workers must be >= 0")
    scale = preset(args.scale)
    if args.engine is not None:
        scale = scale.with_overrides(engine=args.engine)
    if args.workers:
        scale = scale.with_overrides(workers=args.workers)
    names = list(COMMANDS) if args.experiment == "all" else [args.experiment]

    def execute() -> None:
        for name in names:
            COMMANDS[name](scale)
            print()

    def execute_with_telemetry() -> None:
        if args.telemetry is None:
            execute()
            return
        from repro.obs import TelemetryConfig, telemetry

        with telemetry(TelemetryConfig(stride=args.telemetry)):
            execute()

    if args.trace:
        from repro.obs import JsonlSink, tracing

        try:
            sink = JsonlSink(args.trace)
        except OSError as exc:
            parser.error(f"cannot open trace file: {exc}")
        with tracing(sink):
            execute_with_telemetry()
    else:
        execute_with_telemetry()
    return 0


if __name__ == "__main__":
    sys.exit(main())
