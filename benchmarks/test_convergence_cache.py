"""Convergence-tail benchmark: the merge cache's speedup record.

A 1,000-node GM run over discrete-valued data (every node's value sits
exactly on one of three centers, so the converged state is byte-stable)
is driven to structural quiescence and then 50 rounds further — the
regime long-running experiments spend most of their wall-clock in, where
every receive re-derives a state the network has already computed.  Both
phases are timed with the merge cache on and off, and the resulting
states are checked byte-identical, then recorded to
``benchmarks/results/BENCH_cache.json``:

- ``gm_n1000_tail50`` — the 50 post-convergence rounds; the certified
  no-op short circuit must deliver at least a 3x speedup here;
- ``gm_n1000_end_to_end`` — the whole run including the convergence
  phase, recorded for the overall picture (no floor asserted: early
  rounds are cache-cold by construction).

Unlike ``BENCH_hotpath.json`` there is no pinned baseline: the cache-off
run is measured in the same process, so the comparison is like-for-like
on any machine.

Run with::

    python -m pytest benchmarks/test_convergence_cache.py -q
"""

from __future__ import annotations

import json
import pathlib
import time

import numpy as np

from repro.data import make_dataset
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.schemes.gm import GaussianMixtureScheme

RESULTS_PATH = pathlib.Path(__file__).parent / "results" / "BENCH_cache.json"

N = 1000
K = 3
TAIL_ROUNDS = 50
MAX_ROUNDS = 200


def _values() -> np.ndarray:
    return make_dataset("centers", N, 11)


def _build(merge_cache: bool, **kwargs):
    return build_classification_network(
        _values(),
        GaussianMixtureScheme(seed=0),
        k=K,
        graph=complete(N),
        seed=11,
        merge_cache=merge_cache,
        **kwargs,
    )


def _state(nodes, scheme):
    return [
        [(c.quanta, scheme.summary_digest(c.summary)) for c in node.classification]
        for node in nodes
    ]


def test_convergence_tail_speedup():
    # Find the structural convergence round once (cache on: the probe's
    # schedule is identical either way, only its wall-clock differs).
    probe, _ = _build(True, stop_on_quiescence=True)
    convergence_round = probe.run(MAX_ROUNDS)
    assert probe.quiescent, f"no quiescence within {MAX_ROUNDS} rounds"

    timings: dict[bool, tuple[float, float]] = {}
    states: dict[bool, list] = {}
    counters: dict[bool, dict] = {}
    for cached in (True, False):
        kernel, nodes = _build(cached)
        start = time.perf_counter()
        kernel.run(convergence_round)
        converge_s = time.perf_counter() - start
        start = time.perf_counter()
        kernel.run(TAIL_ROUNDS)
        tail_s = time.perf_counter() - start
        timings[cached] = (converge_s, tail_s)
        states[cached] = _state(nodes, nodes[0].scheme)
        counters[cached] = {
            "cache_noop_hits": kernel.metrics.cache_noop_hits,
            "cache_misses": kernel.metrics.cache_misses,
        }

    # The cache's byte-identity contract, at benchmark scale.
    assert states[True] == states[False]

    tail_speedup = timings[False][1] / timings[True][1]
    end_to_end = {cached: sum(pair) for cached, pair in timings.items()}
    records = {
        "gm_n1000_tail50": {
            "workload": (
                f"GM scheme, {N} nodes, complete graph, {TAIL_ROUNDS} rounds "
                f"after structural quiescence (round {convergence_round})"
            ),
            "cache_off_s": timings[False][1],
            "cache_on_s": timings[True][1],
            "speedup": tail_speedup,
            "cache_noop_hits": counters[True]["cache_noop_hits"],
            "cache_misses": counters[True]["cache_misses"],
        },
        "gm_n1000_end_to_end": {
            "workload": (
                f"GM scheme, {N} nodes, complete graph, full run of "
                f"{convergence_round + TAIL_ROUNDS} rounds"
            ),
            "cache_off_s": end_to_end[False],
            "cache_on_s": end_to_end[True],
            "speedup": end_to_end[False] / end_to_end[True],
            "convergence_round": convergence_round,
        },
    }
    RESULTS_PATH.parent.mkdir(exist_ok=True)
    RESULTS_PATH.write_text(json.dumps(records, indent=2, sort_keys=True) + "\n")

    assert tail_speedup >= 3.0, (
        f"post-convergence tail: {tail_speedup:.2f}x < required 3x "
        f"({timings[True][1]:.3f}s cached vs {timings[False][1]:.3f}s uncached)"
    )
