"""Telemetry overhead benchmark: sampling must be close to free.

A 1,000-node GM round-engine run (the ``BENCH_cache.json`` workload) is
timed three ways in the same process:

- ``off`` — no recorder attached (the default; the kernel's telemetry
  hook is a single ``None`` check per round);
- ``sampled`` — a :class:`TimeSeriesRecorder` with stride 10, the
  configuration sweeps are expected to run with;
- ``full`` — stride 1, every round sampled, recorded for the curve.

``off`` and ``sampled`` are timed in :data:`PAIRS` pairs, alternating
which runs first, because one pair is noisier than the gate: the
acceptance floor is that the median ``sampled`` run costs at most 5%
over the median ``off`` run.
``full`` is timed once.  The final node states are byte-identical across
all runs (telemetry is a pure observer).  Results, every pair's times
included, land in ``benchmarks/results/BENCH_obs.json``.

Run with::

    python -m pytest benchmarks/test_obs_overhead.py -q
"""

from __future__ import annotations

import json
import pathlib
import statistics
import time

import numpy as np

from repro.data import make_dataset
from repro.network.topology import complete
from repro.obs import TelemetryConfig, TimeSeriesRecorder
from repro.protocols.classification import build_classification_network
from repro.schemes.gm import GaussianMixtureScheme

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_obs.json"

N = 1000
K = 3
ROUNDS = 30

#: Acceptance ceiling for the sampled configuration, as a ratio of medians.
MAX_SAMPLED_OVERHEAD = 1.05

#: Alternating ``off``/``sampled`` timing pairs.
PAIRS = 5


def _values() -> np.ndarray:
    return make_dataset("centers", N, 11)


def _build(recorder):
    return build_classification_network(
        _values(),
        GaussianMixtureScheme(seed=0),
        k=K,
        graph=complete(N),
        seed=11,
        telemetry=recorder,
    )


def _state(nodes, scheme):
    return [
        [(c.quanta, scheme.summary_digest(c.summary)) for c in node.classification]
        for node in nodes
    ]


def _timed(make_recorder):
    """One run: its wall time, final state and sample count."""
    recorder = make_recorder()
    kernel, nodes = _build(recorder)
    start = time.perf_counter()
    kernel.run(ROUNDS)
    elapsed = time.perf_counter() - start
    samples = len(recorder) if recorder is not None else 0
    return elapsed, _state(nodes, nodes[0].scheme), samples


def test_sampled_telemetry_overhead():
    configs = {
        "off": lambda: None,
        "sampled": lambda: TimeSeriesRecorder(TelemetryConfig(stride=10)),
        "full": lambda: TimeSeriesRecorder(TelemetryConfig(stride=1)),
    }
    # Warm-up: JIT-free Python, but the first run pays allocator and
    # cache warmup; a short throwaway run levels the field.
    warmup, _ = _build(None)
    warmup.run(3)

    timings: dict[str, list[float]] = {"off": [], "sampled": []}
    states: list[list] = []
    samples: dict[str, int] = {}
    for pair in range(PAIRS):
        for label in ("off", "sampled") if pair % 2 == 0 else ("sampled", "off"):
            elapsed, state, samples[label] = _timed(configs[label])
            timings[label].append(elapsed)
            states.append(state)
    full_s, state, samples["full"] = _timed(configs["full"])
    states.append(state)

    # Telemetry is a pure observer: byte-identical states, always.
    assert all(state == states[0] for state in states)
    assert samples["sampled"] == ROUNDS // 10
    assert samples["full"] == ROUNDS

    off_s = statistics.median(timings["off"])
    sampled_s = statistics.median(timings["sampled"])
    sampled_ratio = sampled_s / off_s
    full_ratio = full_s / off_s
    records = {
        "gm_n1000_telemetry_overhead": {
            "workload": (
                f"GM scheme, {N} nodes, complete graph, {ROUNDS} rounds, "
                f"telemetry off vs stride-10 sampled in {PAIRS} pairs alternating "
                "which runs first (medians), then stride-1 full once"
            ),
            "pairs": [
                {"off_s": off, "sampled_s": sampled}
                for off, sampled in zip(timings["off"], timings["sampled"])
            ],
            "off_s": off_s,
            "sampled_s": sampled_s,
            "full_s": full_s,
            "sampled_overhead_ratio": sampled_ratio,
            "full_overhead_ratio": full_ratio,
            "sampled_samples": samples["sampled"],
            "full_samples": samples["full"],
            "max_sampled_overhead": MAX_SAMPLED_OVERHEAD,
        },
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")

    assert sampled_ratio <= MAX_SAMPLED_OVERHEAD, (
        f"stride-10 telemetry costs {(sampled_ratio - 1) * 100:.1f}% "
        f"over baseline (allowed {(MAX_SAMPLED_OVERHEAD - 1) * 100:.0f}%): "
        f"median {sampled_s:.3f}s vs {off_s:.3f}s over {PAIRS} pairs"
    )
