"""Record repeated benchmark runs, and compare two sets of them.

Record ten seeds of every workload, one fresh process per run::

    python3 perfbench/ledger.py record --out perfbench/results/a.jsonl --seeds 101-110

Each line of the output file holds one run: its record (machine,
versions, settings, per-round figures) and its result.

Compare two sets (or summarise one)::

    python3 perfbench/ledger.py compare perfbench/results/a.jsonl perfbench/results/b.jsonl

For every workload and end-to-end metric this prints each set's median
and quartiles, the spread (quartile distance over median), and whether
the medians agree within the metric's bound from ``BENCHMARK.json``.
A set is *steady* when every spread is below a third of the metric's
bound; it is accepted while each spread stays within the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Figures kept in each run's record: shown, never gated.  The raw wall
#: time of the measured phases, the box's speed gauged by the reference
#: task over the run, and the parts of the raw wall time.
INFO = ("wall_solve_s", "run_speed", "converge_s", "round_median_ms")


def parse_seeds(text: str) -> List[int]:
    seeds: List[int] = []
    for part in text.split(","):
        if "-" in part:
            low, high = part.split("-")
            seeds.extend(range(int(low), int(high) + 1))
        else:
            seeds.append(int(part))
    return seeds


def load_benchmark() -> Dict[str, Any]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def record(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    names = args.workloads.split(",") if args.workloads else [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    failures = 0
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    with open(args.out, "a", encoding="utf-8") as out:
        for name in names:
            for seed in parse_seeds(args.seeds):
                command = [
                    sys.executable, str(HERE / "run.py"),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(seconds), "--trace", "0",
                ]
                done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
                lines = done.stdout.strip().splitlines()
                if done.returncode != 0 or len(lines) < 2:
                    failures += 1
                    print(f"{name} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                    continue
                entry = {**json.loads(lines[-2]), "result": json.loads(lines[-1])}
                out.write(json.dumps(entry, sort_keys=True) + "\n")
                out.flush()
                result = entry["result"]
                shown = ", ".join(
                    f"{metric} {value['value']:.4g}" for metric, value in result["metrics"].items()
                )
                print(f"{name} seed {seed}: failed {result['failed']}/{result['attempted']}; {shown}")
    return 1 if failures else 0


def _load(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, plus the failed-operation totals."""
    values: Dict[str, Dict[str, List[float]]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if not line.strip():
                continue
            entry = json.loads(line)
            workload = entry["record"]["workload"]
            result = entry["result"]
            metrics = values.setdefault(workload, {})
            metrics.setdefault("failed ops", []).append(result["failed"])
            for metric, value in result["metrics"].items():
                metrics.setdefault(metric, []).append(value["value"])
            detail = entry["record"]["detail"]
            metrics.setdefault("wall_solve_s", []).append(statistics.median(detail["solves_s"]))
            metrics.setdefault("run_speed", []).append(detail["run_speed"])
            converge = [phase["converge_s"] for phase in detail.get("phases", []) if "converge_s" in phase]
            if converge:
                metrics.setdefault("converge_s", []).append(statistics.median(converge))
            if "rounds" in detail:
                metrics.setdefault("round_median_ms", []).append(detail["rounds"]["median_ms"])
    return values


def _summary(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) >= 2:
        low, _, high = statistics.quantiles(values, n=4)
    else:
        low = high = values[0]
    return {
        "median": median,
        "q1": low,
        "q3": high,
        "spread": (high - low) / median if median else 0.0,
        "runs": len(values),
    }


def compare(args: argparse.Namespace) -> int:
    benchmark = load_benchmark()
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    sets = [_load(path) for path in args.files]
    verdict_ok = True
    header = f"{'workload':16} {'metric':15} " + " ".join(
        f"{'median':>10} {'q1':>10} {'q3':>10} {'spread':>7} {'n':>3}" for _ in sets
    )
    if len(sets) == 2:
        header += f" {'change':>8} {'bound':>6} verdict"
    else:
        header += f" {'bound':>6} steadiness"
    print(header)
    for workload in sorted(set().union(*sets)):
        for name in list(metrics) + list(INFO):
            spec = metrics.get(name)
            columns = []
            summaries = []
            for values in sets:
                series = values.get(workload, {}).get(name)
                if not series:
                    break
                summary = _summary(series)
                summaries.append(summary)
                columns.append(
                    f"{summary['median']:10.4f} {summary['q1']:10.4f} {summary['q3']:10.4f} "
                    f"{summary['spread']:7.1%} {summary['runs']:3d}"
                )
            if len(summaries) != len(sets):
                continue
            line = f"{workload:16} {name:15} " + " ".join(columns)
            if spec is None:
                print(line + "   (record, not gated)")
                continue
            bound = spec["bound"]
            steadiness = []
            for summary in summaries:
                if summary["spread"] < bound / 3:
                    steadiness.append("steady")
                elif summary["spread"] <= bound:
                    steadiness.append("within-bound")
                else:
                    steadiness.append("UNSTEADY")
                    verdict_ok = False
            if len(sets) == 2:
                first, second = summaries
                change = (second["median"] - first["median"]) / first["median"]
                worse = change if spec["better"] == "lower" else -change
                agree = "agree" if worse <= bound else "WORSE"
                if worse > bound:
                    verdict_ok = False
                line += f" {change:+8.1%} {bound:6.2f} {agree}; {'/'.join(steadiness)}"
            else:
                line += f" {bound:6.2f} {steadiness[0]}"
            print(line)
    for index, values in enumerate(sets):
        failed = sum(sum(metrics_.get("failed ops", [])) for metrics_ in values.values())
        if failed:
            verdict_ok = False
        print(f"set {index + 1} ({args.files[index]}): {failed} failed operations")
    print("verdict:", "ok" if verdict_ok else "NOT OK")
    return 0 if verdict_ok else 1


def main(argv: "List[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    rec = commands.add_parser("record", help="run workloads over seeds, append to a JSONL file")
    rec.add_argument("--out", required=True)
    rec.add_argument("--seeds", default="101-110", help="e.g. 101-110 or 1,5,9")
    rec.add_argument("--workloads", default="", help="comma-separated (default: all)")
    rec.set_defaults(func=record)
    cmp_ = commands.add_parser("compare", help="compare one or two recorded sets")
    cmp_.add_argument("files", nargs="+", metavar="FILE")
    cmp_.set_defaults(func=compare)
    args = parser.parse_args(argv)
    if args.command == "compare" and len(args.files) > 2:
        parser.error("compare takes one or two files")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
