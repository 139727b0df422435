"""Byte-parity: the arena engine IS the per-node kernel, batched.

The contract (ISSUE 8): at overlapping sizes, same seeds, all four
schemes, the arena engine's classifications equal the per-node
``SimulationKernel``'s byte for byte — same summary digests, same
quanta, same collection order.  Everything the arena does differently
(vectorised pairing, slab routing, problem dedup, certified no-ops over
interned ids) must be observationally invisible.

These tests compare the full ordered ``(digest, quanta)`` state of every
node, which catches ordering bugs an unordered comparison would forgive
(the EM seed order and greedy partition order are deterministic and must
be reproduced exactly).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import receive
from repro.core.fingerprint import MergeCache
from repro.core.weights import Quantization
from repro.data import make_dataset
from repro.mega import ArenaEngine
from repro.network.simulator import RoundRobinSelector
from repro.network.topology import complete, grid, make_topology
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

N = 60
ROUNDS = 12


def _values(dimension: int) -> np.ndarray:
    return np.random.default_rng(3).normal(size=(N, dimension))


def _kernel_states(values, scheme, k, seed, rounds, topology="complete", selector=None):
    graph = make_topology(topology, len(values), seed)
    kernel, nodes = build_classification_network(
        values, scheme, k, graph=graph, seed=seed, selector=selector, merge_cache=True
    )
    kernel.run(rounds)
    digest = scheme.summary_digest
    return [
        tuple((digest(c.summary), c.quanta) for c in node.classification)
        for node in nodes
    ]


def _engine_states(engine: ArenaEngine):
    return [engine.state_digests(node) for node in range(engine.arena.n)]


SCHEMES = [
    pytest.param(lambda: GaussianMixtureScheme(seed=0), 3, 2, id="gm"),
    pytest.param(lambda: CentroidScheme(), 3, 2, id="centroid"),
    pytest.param(lambda: DiagonalGaussianScheme(seed=0), 2, 2, id="diagonal"),
    pytest.param(lambda: HistogramScheme(low=-4.0, high=4.0, bins=12), 3, 1, id="histogram"),
]


@pytest.mark.parametrize("make_scheme, k, dimension", SCHEMES)
@pytest.mark.parametrize("seed", [0, 7])
def test_engine_matches_kernel(make_scheme, k, dimension, seed):
    values = _values(dimension)
    expected = _kernel_states(values, make_scheme(), k, seed, ROUNDS)
    engine = ArenaEngine(values, make_scheme(), k, seed=seed, use_cache=True)
    engine.run(ROUNDS)
    assert _engine_states(engine) == expected


CONVERGING = [
    pytest.param(lambda: GaussianMixtureScheme(seed=0), True, id="gm"),
    pytest.param(lambda: CentroidScheme(), False, id="centroid"),
    pytest.param(lambda: DiagonalGaussianScheme(seed=0), True, id="diagonal"),
    pytest.param(lambda: HistogramScheme(low=-12.0, high=12.0, bins=32), False, id="histogram"),
]


@pytest.mark.parametrize("make_scheme, swept", CONVERGING)
def test_engine_matches_kernel_on_converging_inputs(make_scheme, swept):
    """Exact centers converge byte for byte, so the no-op layers answer.

    Normal inputs rarely pose a certified no-op; here most receives after
    the first rounds are one, on the scalar path and (EM-style schemes
    only) in the arena's vectorised sweep, and both must reproduce the
    kernel's bytes and row order.
    """
    values = make_dataset("centers", 200, 11)
    expected = _kernel_states(values, make_scheme(), 3, 11, 30)
    engine = ArenaEngine(values, make_scheme(), 3, seed=11, use_cache=True)
    engine.run(30)
    assert _engine_states(engine) == expected
    assert engine.stats.noop_hits > 0
    if swept:
        assert engine.stats.noop_sweep_hits > 0


def test_noop_sweep_gathers_each_order_before_scattering_it():
    """Receivers that share a local block can need different output orders.

    The sweep writes one order at a time into the arena, so each order
    must gather its rows from a receiver it has not rewritten yet.  At
    400 nodes on exact centers some rounds pose such blocks (at 200 none
    do); the cached run must equal the uncached one.
    """
    values = make_dataset("centers", 400, 11)
    cached, uncached = (
        ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=11, use_cache=use_cache)
        for use_cache in (True, False)
    )
    cached.run(30)
    uncached.run(30)
    assert cached.stats.noop_sweep_hits > 0
    assert _engine_states(cached) == _engine_states(uncached)


@pytest.mark.parametrize("topology", ["ring", "star", "line", "geometric"])
def test_engine_matches_kernel_on_sparse_topologies(topology):
    values = _values(2)
    scheme_a, scheme_b = GaussianMixtureScheme(seed=0), GaussianMixtureScheme(seed=0)
    expected = _kernel_states(values, scheme_a, 3, 5, ROUNDS, topology=topology)
    engine = ArenaEngine(values, scheme_b, 3, seed=5, topology=topology, use_cache=True)
    engine.run(ROUNDS)
    assert _engine_states(engine) == expected


@pytest.mark.parametrize("topology", ["grid", grid(3, 3)], ids=["named", "explicit"])
def test_topology_must_have_one_node_per_value(topology):
    """The grid within 10 nodes is the 3 x 3 lattice: an arena of 10
    values refuses it, by name as by graph."""
    with pytest.raises(ValueError, match="topology has 9 nodes, arena has 10"):
        ArenaEngine(_values(2)[:10], GaussianMixtureScheme(seed=0), 3, topology=topology)


def test_engine_matches_kernel_with_round_robin_selector():
    # RoundRobinSelector is stateful per node, so the engine must fall
    # back to the kernel's scalar draw loop — and still match exactly.
    values = _values(2)
    expected = _kernel_states(
        values, CentroidScheme(), 3, 2, ROUNDS, selector=RoundRobinSelector()
    )
    engine = ArenaEngine(
        values, CentroidScheme(), 3, seed=2, selector=RoundRobinSelector(), use_cache=True
    )
    engine.run(ROUNDS)
    assert _engine_states(engine) == expected


def test_engine_matches_kernel_without_merge_cache():
    values = _values(2)
    graph = complete(N)
    kernel, nodes = build_classification_network(
        values, GaussianMixtureScheme(seed=0), 3, graph=graph, seed=4, merge_cache=False
    )
    kernel.run(ROUNDS)
    scheme = GaussianMixtureScheme(seed=0)
    engine = ArenaEngine(values, scheme, 3, seed=4, use_cache=False)
    engine.run(ROUNDS)
    digest = scheme.summary_digest
    expected = [
        tuple((digest(c.summary), c.quanta) for c in node.classification)
        for node in nodes
    ]
    assert _engine_states(engine) == expected


def test_quanta_conserved_across_rounds():
    values = _values(2)
    engine = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=0)
    total = engine.arena.total_quanta()
    for _ in range(5):
        engine.run_round()
        assert engine.arena.total_quanta() == total


def test_quiescence_on_discrete_values():
    values = make_dataset("centers", 200, 11)
    engine = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=11, use_cache=True)
    executed = engine.run(100, stop_on_quiescence=True)
    assert engine.quiescent
    assert engine.quiescent_at == executed < 100
    # Converged: every node holds the same summary multiset.
    reference = set(engine.arena.ids[0, : int(engine.arena.counts[0])].tolist())
    for node in range(engine.arena.n):
        count = int(engine.arena.counts[node])
        assert set(engine.arena.ids[node, :count].tolist()) == reference


def test_stats_account_for_every_receiver():
    values = _values(2)
    engine = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=1, use_cache=True)
    engine.run(8)
    stats = engine.stats
    assert stats.rounds == 8
    assert stats.receivers > 0
    handled = stats.memo_round_hits + stats.noop_hits + stats.fastpath_hits + stats.full_solves
    # Every receiver either hit the round memo or ran one of the solve paths.
    assert stats.memo_round_hits <= stats.receivers
    assert stats.memo_lru_hits == 0
    assert handled == stats.receivers


def test_pull_variant_rejected():
    with pytest.raises(ValueError, match="push"):
        ArenaEngine(_values(2), CentroidScheme(), 3, variant="pull")


@pytest.mark.parametrize("shared", [False, True])
def test_noop_plan_only_for_local_incoming(monkeypatch, shared):
    """The certified no-op checks membership before it builds a plan.

    Two nodes, k = 1: each receive pools two rows, so neither the fast
    path nor the round memo answers it.  With distinct values the incoming
    summary is not the receiver's own, and no plan (and no certificate)
    may be built; with a shared value it is, and the plan is built.
    """
    built, certified = [], []
    build = receive.build_noop_plan
    certificate_for = MergeCache.certificate_for

    def counting_build(*args):
        built.append(args)
        return build(*args)

    def counting_certificate(self, *args, **kwargs):
        certified.append(args)
        return certificate_for(self, *args, **kwargs)

    monkeypatch.setattr(receive, "build_noop_plan", counting_build)
    monkeypatch.setattr(MergeCache, "certificate_for", counting_certificate)
    values = np.array([[0.0, 0.0], [0.0, 0.0] if shared else [8.0, 8.0]])
    engine = ArenaEngine(values, GaussianMixtureScheme(seed=0), 1, seed=0, use_cache=True)
    engine.run_round()
    if shared:
        assert built and certified
    else:
        assert built == [] and certified == []
        assert engine.stats.full_solves == 2


@pytest.mark.parametrize("engine", ["kernel", "arena"])
def test_no_certificate_for_pooled_sets_within_k(monkeypatch, engine):
    """A pooled set of at most k rows is never a certified no-op.

    Two nodes with one value, k = 3, two quanta per unit: every receive
    pools two one-quantum rows, which the fast path declines (conformance
    rule 2 could fire), and the no-op must decline before it asks the
    merge cache for a certificate.
    """
    certified = []
    certificate_for = MergeCache.certificate_for

    def counting_certificate(self, *args, **kwargs):
        certified.append(args)
        return certificate_for(self, *args, **kwargs)

    monkeypatch.setattr(MergeCache, "certificate_for", counting_certificate)
    values = np.zeros((2, 2))
    if engine == "kernel":
        kernel, _ = build_classification_network(
            values,
            GaussianMixtureScheme(seed=0),
            3,
            graph=complete(2),
            quantization=Quantization(2),
            merge_cache=True,
        )
        kernel.run(3)
        assert kernel.metrics.cache_misses > 0
    else:
        arena = ArenaEngine(
            values, GaussianMixtureScheme(seed=0), 3, quantization=Quantization(2), use_cache=True
        )
        arena.run(3)
        assert arena.stats.full_solves > 0
    assert certified == []


def test_receives_of_a_failed_batch_are_solved_when_posed_again(monkeypatch):
    """Round 3's batched partition raises.  The same receives posed
    again are solved: they end in the bytes of a run that never
    failed."""
    values = np.random.default_rng(5).normal(size=(64, 2))
    reference = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=2, use_cache=True)
    reference.run(3)
    engine = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=2, use_cache=True)
    engine.run(2)
    arena, solver = engine.arena, engine.solver
    receive_slab = solver.receive_slab
    posed = []

    def recording_receive_slab(*args):
        state = (arena.counts, arena.ids, arena.quanta, *arena.columns.values())
        posed.append((args, [array.copy() for array in state]))
        return receive_slab(*args)

    batches = []

    def failing_partition(pooled, bounds, k, quantization):
        batches.append(len(bounds) - 1)
        raise RuntimeError("planted partition failure")

    monkeypatch.setattr(solver, "receive_slab", recording_receive_slab)
    monkeypatch.setattr(arena.scheme, "partition_packed_batch", failing_partition)
    with pytest.raises(RuntimeError, match="planted"):
        engine.run_round()
    assert batches and batches[0] > 1, "no batched solve was queued: the test is vacuous"

    monkeypatch.undo()
    (args, snapshot), = posed
    state = (arena.counts, arena.ids, arena.quanta, *arena.columns.values())
    for array, saved in zip(state, snapshot):
        array[...] = saved
    solver.receive_slab(*args)
    assert _engine_states(engine) == _engine_states(reference)


def _first_round_sweeping_and_solving(values, seed, limit=20):
    """The first round in which the no-op sweep handles receivers and a
    full solve is queued too."""
    engine = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=seed, use_cache=True)
    for index in range(limit):
        swept, solved = engine.stats.noop_sweep_hits, engine.stats.full_solves
        engine.run_round()
        if engine.stats.noop_sweep_hits > swept and engine.stats.full_solves > solved:
            return index
    raise AssertionError("no round both swept and solved: the test is vacuous")


@pytest.mark.parametrize("data", ["normal", "centers"])
def test_failed_round_leaves_the_arena_as_it_was(monkeypatch, data):
    """A round whose batched partition raises puts back the state it
    started from: every node's rows and the network's total weight, and
    the round counter does not move.  On centers inputs the failing round
    is one where the no-op sweep handled receivers before the solve."""
    values = make_dataset(data, 64, 2)
    if data == "normal":
        failing = 2
    else:
        failing = _first_round_sweeping_and_solving(values, seed=2)
    engine = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=2, use_cache=True)
    engine.run(failing)
    unit = engine.arena.quantization.unit
    assert engine.arena.total_quanta() == 64 * unit
    before = _engine_states(engine)
    answered = []

    def spy(*args):
        swept = sweep(*args)
        answered.append(sum(len(accepted) for accepted, *_ in swept))
        return swept

    def failing_partition(pooled, bounds, k, quantization):
        raise RuntimeError("planted partition failure")

    sweep = receive.sweep_noops
    monkeypatch.setattr(receive, "sweep_noops", spy)
    monkeypatch.setattr(engine.arena.scheme, "partition_packed_batch", failing_partition)
    with pytest.raises(RuntimeError, match="planted"):
        engine.run_round()
    if data == "centers":
        assert sum(answered) > 0
    assert engine.arena.total_quanta() == 64 * unit
    assert _engine_states(engine) == before
    assert engine.round_index == failing
