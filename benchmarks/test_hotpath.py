"""Hot-path micro-benchmarks: the packed/vectorized speedup record.

Times the three workloads the vectorized hot path targets and writes
``benchmarks/results/BENCH_hotpath.json`` with before/after fields:

- ``reduce_mixture`` on large mixtures (l = 2,000 and 4,000): the
  Cholesky scoring + segment-sum M-step rewrite;
- ``greedy_closest_pair_partition`` on large sets: the incremental
  distance-matrix rewrite (was O(l^3) Python rescans);
- one 1,000-node GM round-equivalent: the end-to-end effect of the
  packed node state and the partition fast path.

The ``baseline_s`` numbers were measured on the pre-vectorization tree
(commit ``d01dcab``) with *exactly* the harness below — same generators,
same seeds, same best-of-N policy — so ``speedup`` compares like with
like on the machine that recorded the baseline.  The assertions leave
headroom (the measured speedups are far larger) so the suite stays green
on slower CI runners.

Run with::

    python -m pytest benchmarks/test_hotpath.py -q
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np
import pytest

from repro.core.weights import Quantization
from repro.data import make_dataset
from repro.ml.reduction import reduce_mixture
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import greedy_closest_pair_partition
from repro.schemes.gm import GaussianMixtureScheme

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_hotpath.json"

#: Pre-change timings (see module docstring for provenance).
BASELINE_S = {
    "reduce_mixture_l2000": 0.2402,
    "reduce_mixture_l4000": 0.2988,
    "greedy_partition_n256": 20.645,
    "greedy_partition_n512": 89.468,
    "gm_round_equivalent_n1000": 1.8867,
}

_records: dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def _write_results():
    """After all cases ran, persist the before/after record."""
    yield
    if _records:
        RESULTS_PATH.parent.mkdir(exist_ok=True)
        RESULTS_PATH.write_text(json.dumps(_records, indent=2, sort_keys=True) + "\n")


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _record(key: str, seconds: float, workload: str) -> dict:
    baseline = BASELINE_S[key]
    entry = {
        "workload": workload,
        "baseline_s": baseline,
        "after_s": seconds,
        "speedup": baseline / seconds,
    }
    _records[key] = entry
    return entry


def _make_components(l: int, d: int = 2, seed: int = 0):
    rng = np.random.default_rng(seed)
    centers = rng.normal(0, 50, size=(8, d))
    means = centers[rng.integers(0, 8, size=l)] + rng.normal(0, 1, size=(l, d))
    covs = np.einsum("ij,ik->ijk", rng.normal(0, 0.3, (l, d)), rng.normal(0, 0.3, (l, d)))
    covs = covs + 0.5 * np.eye(d)
    covs = (covs + covs.transpose(0, 2, 1)) / 2
    weights = rng.uniform(0.5, 2.0, size=l)
    return weights, means, covs


@pytest.mark.parametrize("l", [2000, 4000])
def test_reduce_mixture_micro(l):
    weights, means, covs = _make_components(l)
    rng = np.random.default_rng(1)
    seconds = _best_of(
        lambda: reduce_mixture(weights, means, covs, k=32, rng=rng, max_iterations=25)
    )
    entry = _record(
        f"reduce_mixture_l{l}",
        seconds,
        f"hard-EM reduction, l={l} d=2 k=32, <=25 iterations, best of 3",
    )
    assert entry["speedup"] >= 2.0, (
        f"reduce_mixture l={l}: {entry['speedup']:.2f}x < required 2x "
        f"({seconds:.4f}s vs baseline {entry['baseline_s']:.4f}s)"
    )


@pytest.mark.parametrize("n", [256, 512])
def test_greedy_partition_micro(n):
    rng = np.random.default_rng(2)
    positions = rng.normal(0, 10, size=(n, 2))
    weights = rng.uniform(1, 4, size=n)
    quanta = [16] * n
    lattice = Quantization(1 << 20)
    seconds = _best_of(
        lambda: greedy_closest_pair_partition(positions, weights, quanta, k=8, quantization=lattice)
    )
    entry = _record(
        f"greedy_partition_n{n}",
        seconds,
        f"greedy closest-pair partition, n={n} d=2 k=8, best of 3",
    )
    assert entry["speedup"] >= 2.0, (
        f"greedy partition n={n}: {entry['speedup']:.2f}x < required 2x"
    )


def test_gm_round_equivalent_n1000():
    n = 1000
    values = make_dataset("paper", n, 11)
    kernel, _ = build_classification_network(
        values, GaussianMixtureScheme(seed=0), k=5, graph=complete(n), seed=11
    )
    kernel.run(2)  # warmup: populate multi-collection state
    times = []
    for _ in range(5):
        start = time.perf_counter()
        kernel.run(1)
        times.append(time.perf_counter() - start)
    entry = _record(
        "gm_round_equivalent_n1000",
        min(times),
        "GM scheme, 1,000 nodes, complete graph, one round-equivalent, "
        "2 warmup rounds, min of 5",
    )
    assert entry["speedup"] >= 1.3, (
        f"1000-node GM round: {entry['speedup']:.2f}x < required 1.3x "
        f"({min(times):.4f}s vs baseline {entry['baseline_s']:.4f}s)"
    )
