"""Self-test of the benchmark at tiny sizes (about a minute).

    python3 perfbench/selftest.py

In this one process it checks that ``BENCHMARK.json`` names exactly the
workloads and metrics the runs report, runs every workload untraced and
traced at tiny sizes (60 arena nodes, 30 kernel nodes) and requires 0
failed operations, positive end-to-end metrics and traced self times
that add up to the traced wall, then plants a bad output on every
workload (one quantum removed from one node) and requires the output
checks to count exactly that one failure.  On the converging workloads
it also lowers the round cap below the quiescence patience and requires
the quiescence check to fail, though the tail rounds run on past the
cap.  Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys

import run  # sets the BLAS thread variables before numpy is imported

SEED = 7
#: Long enough at tiny sizes for kernel_noisy's means to settle.
SECONDS = 8.0


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import layers
    import workloads

    problems = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        benchmark = json.load(handle)
    expect(
        [w["name"] for w in benchmark["workloads"]] == workloads.WORKLOADS,
        "BENCHMARK.json workloads match the registry",
    )
    expect(
        {m["name"]: m["unit"] for m in benchmark["end_to_end"]} == workloads.END_TO_END_UNITS,
        "BENCHMARK.json end_to_end metrics match what untraced runs report",
    )
    expect(
        {m["name"]: m["unit"] for m in benchmark["per_layer"]} == layers.per_layer_units(),
        "BENCHMARK.json per_layer metrics match what traced runs report",
    )

    workloads.import_program()
    for name in workloads.WORKLOADS:
        outcome = workloads.run_measured(name, SEED, SECONDS, 0.0, scale="tiny")
        checks = outcome["checks"]
        values = outcome["metrics"]
        expect(
            checks.attempted > 0 and checks.failed == 0,
            f"{name}: {checks.failed} of {checks.attempted} operations failed {checks.notes}",
        )
        expect(
            all(math.isfinite(v) and v > 0 for v in values.values()),
            f"{name}: end-to-end metrics positive {values}",
        )

        traced = workloads.run_traced(name, SEED, SECONDS, scale="tiny")
        checks = traced["checks"]
        metrics = traced["metrics"]
        detail = traced["detail"]
        expect(checks.failed == 0, f"{name} traced: {checks.failed} of {checks.attempted} failed")
        expect(
            set(metrics) == set(layers.per_layer_units()),
            f"{name} traced: reports every per-layer metric",
        )
        wall = metrics["trace.wall_s"]
        expect(
            wall > 0 and abs(detail["self_time_sum_s"] - wall) <= 1e-9 * max(1.0, wall) + 1e-12,
            f"{name} traced: self times sum to the traced wall "
            f"({detail['self_time_sum_s']:.6f} vs {wall:.6f} s)",
        )
        expect(metrics["trace.unattributed_s"] >= 0, f"{name} traced: unattributed time >= 0")

        planted = workloads.run_measured(name, SEED, SECONDS, 0.0, scale="tiny", plant_fault=True)
        checks = planted["checks"]
        expect(
            checks.failed == 1 and "conservation" in " ".join(checks.notes),
            f"{name}: planted bad output counted as failed ({checks.failed} failed, {checks.notes})",
        )

        if workloads.REGISTRY[name].converges:
            cap = workloads.ROUND_CAP
            workloads.ROUND_CAP = workloads.PATIENCE - 1
            try:
                capped = workloads.run_measured(name, SEED, SECONDS, 0.0, scale="tiny")
            finally:
                workloads.ROUND_CAP = cap
            notes = capped["checks"].notes
            expect(
                any(note.startswith("quiescence") for note in notes),
                f"{name}: no quiescence within a cap of {workloads.PATIENCE - 1} rounds "
                f"counted as failed ({notes})",
            )

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
