"""Kernel round-throughput baseline at the paper's 1,000-node scale.

Times one round-equivalent of the simulation kernel under each scheduler
on the published network size (Section 5.3: n = 1,000, complete graph),
using the push-sum protocol so the number measures the *kernel* —
transport, queueing, delivery batching — rather than EM.

Besides pytest-benchmark's own table, the module writes
``benchmarks/results/BENCH_kernel.json`` keyed by scheduler, so future
changes to the kernel hot path can be diffed against this baseline.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro.network.schedulers import ENGINES
from repro.network.topology import complete
from repro.protocols.push_sum import build_push_sum_network

N = 1000
RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_kernel.json"

_records: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_baseline():
    """After both scheduler cases ran, persist the JSON baseline."""
    yield
    if _records:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(json.dumps(_records, indent=2, sort_keys=True) + "\n")


@pytest.mark.parametrize("engine", ENGINES)
def test_round_equivalent_throughput(benchmark, engine):
    rng = np.random.default_rng(11)
    values = rng.normal(0.0, 1.0, size=N)
    kernel, nodes = build_push_sum_network(
        values, complete(N), seed=11, engine=engine
    )

    benchmark.pedantic(kernel.run, args=(1,), rounds=5, iterations=1, warmup_rounds=1)

    # The workload must have actually gossiped at paper scale.
    assert kernel.metrics.messages_sent >= N
    stats = benchmark.stats.stats
    _records[engine] = {
        "n_nodes": N,
        "workload": "push-sum, complete graph, one round-equivalent",
        "mean_s": stats.mean,
        "min_s": stats.min,
        "max_s": stats.max,
        "stddev_s": stats.stddev,
        "timed_rounds": stats.rounds,
        "messages_sent_total": kernel.metrics.messages_sent,
    }
