"""Seed determinism: one seed, one scheduler — one byte-exact trace.

Every stochastic choice in a run (peer selection, crash draws, Poisson
firing times, channel delays) flows from the single kernel RNG, and
every observable event funnels through the kernel's one emission site.
Replaying a configuration with the same seed must therefore reproduce
the JSONL event trace byte for byte — the property the seeded figure
tests and the obs replay tooling rely on.  A regression here means a
nondeterministic iteration order or an RNG draw that moved between code
paths, both of which silently break reproducibility long before any
numeric assertion notices.
"""

from __future__ import annotations

import json

import numpy as np
import pytest
from oracle import oracle_nodes

from repro.network.failures import BernoulliCrashes
from repro.network.schedulers import ENGINES
from repro.network.topology import complete
from repro.obs.events import JsonlSink
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import CentroidScheme
from repro.schemes.gm import GaussianMixtureScheme

N = 12
UNITS = 5


def _trace_bytes(path, seed: int, engine: str, variant: str = "push", scheme=None) -> bytes:
    rng = np.random.default_rng(7)
    values = rng.normal(0.0, 1.0, size=(N, 2))
    sink = JsonlSink(str(path))
    try:
        kernel, _ = build_classification_network(
            values,
            scheme if scheme is not None else CentroidScheme(),
            k=2,
            graph=complete(N),
            seed=seed,
            variant=variant,
            failure_model=BernoulliCrashes(0.05, min_survivors=4),
            event_sink=sink,
            engine=engine,
        )
        kernel.run(UNITS)
    finally:
        sink.close()
    return path.read_bytes()


@pytest.mark.parametrize("engine", ENGINES)
def test_same_seed_same_trace(tmp_path, engine):
    first = _trace_bytes(tmp_path / "a.jsonl", seed=123, engine=engine)
    second = _trace_bytes(tmp_path / "b.jsonl", seed=123, engine=engine)
    assert first, "run emitted no events — the trace check is vacuous"
    assert first == second


@pytest.mark.parametrize("engine", ENGINES)
def test_different_seeds_diverge(tmp_path, engine):
    first = _trace_bytes(tmp_path / "a.jsonl", seed=123, engine=engine)
    second = _trace_bytes(tmp_path / "b.jsonl", seed=124, engine=engine)
    assert first != second


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("scheme_name", ["centroid", "gm"])
def test_packed_and_object_paths_trace_identically(tmp_path, engine, scheme_name):
    """The node's packed pipeline against the object-level Algorithm 1
    oracle: with the same seed, the JSONL traces must match line for line
    (same events, same order, same payload counts) once the node's own
    ``fastpath``/``cache`` bookkeeping events, which the oracle has no
    layers to emit, are dropped."""

    def make_scheme():
        return CentroidScheme() if scheme_name == "centroid" else GaussianMixtureScheme(seed=0)

    def lines(path):
        return [
            line
            for line in path.read_bytes().splitlines()
            if json.loads(line)["kind"] not in ("fastpath", "cache")
        ]

    _trace_bytes(tmp_path / "packed.jsonl", seed=123, engine=engine, scheme=make_scheme())
    with oracle_nodes():
        _trace_bytes(tmp_path / "object.jsonl", seed=123, engine=engine, scheme=make_scheme())
    packed = lines(tmp_path / "packed.jsonl")
    assert packed, "run emitted no events — the parity check is vacuous"
    assert packed == lines(tmp_path / "object.jsonl")


def test_schedulers_stamp_traces_differently(tmp_path):
    """The two schedules are distinguishable in the trace (round vs t)."""
    sync = _trace_bytes(tmp_path / "sync.jsonl", seed=5, engine="rounds")
    poisson = _trace_bytes(tmp_path / "async.jsonl", seed=5, engine="async")
    assert sync != poisson
    assert b'"t":' in poisson
