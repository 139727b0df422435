"""Run one benchmark workload and print its record and result.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload arena_converge --seed 101 --seconds 8 --trace 0

``--trace 0`` prints the end-to-end metrics of one untraced run; it
also starts :data:`IMPORT_PROBES` fresh processes that only import what
the run imports, so ``setup_s`` can take the median import time.
``--trace 1`` runs the workload twice untraced and then once with
timing wrappers on the program's layer entry points, and prints the
per-layer metrics of the traced pass.  The next-to-last line of standard output
is the run's record (machine, versions, settings, per-round figures,
check notes, the layer table); the last line is the result::

    {"correct": true, "attempted": 20003, "failed": 0, "metrics": {...}}

The program is imported from ``src/`` next to this directory; without
it the script exits with status 2 and prints no result.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS/OpenMP thread: the box has 2 vCPUs, and the 2-shard workload
# already runs one worker per CPU.  Must precede the first numpy import.
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _variable in THREAD_VARIABLES:
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Extra processes timed from start to the end of their imports.
IMPORT_PROBES = 2


def process_age() -> float:
    """Seconds since this process started (kernel start time, 10 ms ticks)."""
    with open("/proc/self/stat", encoding="ascii") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
    return time.clock_gettime(time.CLOCK_BOOTTIME) - started


def import_probe() -> float:
    """Seconds a fresh process takes to start and import what a run imports."""
    code = (
        f"import sys; sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]; "
        "import run, layers, workloads; workloads.import_program(); print(run.process_age())"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, check=True
    )
    return float(done.stdout.split()[-1])


def commit() -> str:
    try:
        found = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return found.stdout.strip() if found.returncode == 0 else "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def stop_resource_tracker() -> None:
    """Stop and wait for the helper process shared memory starts.

    Creating a shared-memory segment (shard2_converge) starts
    multiprocessing's resource tracker, which would otherwise outlive
    this process for a moment.  ``_stop`` is the standard library's own
    shutdown hook for it; there is no public one.
    """
    tracker_module = sys.modules.get("multiprocessing.resource_tracker")
    if tracker_module is not None:
        tracker_module._resource_tracker._stop()


def envelope(args: argparse.Namespace) -> dict:
    import networkx
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "repro_env": {k: v for k, v in sorted(os.environ.items()) if k.startswith("REPRO_")},
        "blas_threads": {name: os.environ[name] for name in THREAD_VARIABLES},
    }


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    if args.workload not in workloads.REGISTRY:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads.import_program()
    imports_s = [process_age()]

    try:
        if args.trace:
            outcome = workloads.run_traced(args.workload, args.seed, args.seconds)
        else:
            imports_s += [import_probe() for _ in range(IMPORT_PROBES)]
            outcome = workloads.run_measured(
                args.workload, args.seed, args.seconds, statistics.median(imports_s)
            )
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        stop_resource_tracker()
    checks = outcome["checks"]
    units = layers.per_layer_units() if args.trace else workloads.END_TO_END_UNITS
    record = {
        **envelope(args),
        "imports_s": imports_s,
        "check_notes": checks.notes,
        "detail": outcome["detail"],
    }
    if args.trace:
        record["trace_overhead_frac"] = outcome["metrics"]["trace.overhead_frac"]
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": outcome["metrics"][name], "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
