"""The sharded engine: parity, quiescence, fault tolerance.

Sharding must be observationally invisible — ``shards=1`` equals
``shards=4`` equals the single-process engine byte for byte, because the
pairing draw is replicated (not communicated) and bundles are applied in
ascending source-shard order, which reconstructs the transport's global
ascending-sender delivery order.  Payload rows cross shards through the
shared-memory slab exchange; the fault-tolerance tests use the
deterministic crash knobs
(``REPRO_MEGA_CRASH_SHARD``/``_FLAG``) to kill a worker at exact
protocol points — including mid-``deliver``, which exercises the slab
snapshot/replay path — and require byte-identical results after
recovery.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from repro.data import make_dataset
from repro.mega import ArenaEngine, ShardedArenaEngine
from repro.mega.engine import ArenaStats
from repro.mega.shard import CRASH_FLAG_ENV, CRASH_SHARD_ENV
from repro.schemes.centroid import CentroidScheme
from repro.schemes.gm import GaussianMixtureScheme

N = 60
ROUNDS = 10


@pytest.fixture
def values() -> np.ndarray:
    return np.random.default_rng(3).normal(size=(N, 2))


def _single_states(values, scheme, k, seed, rounds, **kwargs):
    engine = ArenaEngine(values, scheme, k, seed=seed, **kwargs)
    engine.run(rounds)
    return [engine.state_digests(node) for node in range(N)]


@pytest.mark.parametrize("shards", [1, 3, 4])
def test_sharded_matches_single_process(values, shards):
    expected = _single_states(values, GaussianMixtureScheme(seed=0), 3, 0, ROUNDS, use_cache=True)
    with ShardedArenaEngine(
        values, GaussianMixtureScheme(seed=0), 3, seed=0, shards=shards, use_cache=True
    ) as engine:
        engine.run(ROUNDS)
        arena = engine.collect()
        assert [arena.state_digests(node) for node in range(N)] == expected


def test_sharded_matches_single_on_ring(values):
    expected = _single_states(
        values, CentroidScheme(), 3, 5, ROUNDS, topology="ring", use_cache=True
    )
    with ShardedArenaEngine(
        values, CentroidScheme(), 3, seed=5, shards=3, topology="ring", use_cache=True
    ) as engine:
        engine.run(ROUNDS)
        arena = engine.collect()
        assert [arena.state_digests(node) for node in range(N)] == expected


def test_sharded_quiescence_matches_single():
    values = make_dataset("centers", 200, 11)
    single = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=11, use_cache=True)
    executed_single = single.run(100, stop_on_quiescence=True)
    with ShardedArenaEngine(
        values, GaussianMixtureScheme(seed=0), 3, seed=11, shards=3, use_cache=True
    ) as engine:
        executed_sharded = engine.run(100, stop_on_quiescence=True)
        assert executed_sharded == executed_single
        assert engine.quiescent_at == single.quiescent_at
        arena = engine.collect()
        assert [arena.state_digests(i) for i in range(200)] == [
            single.state_digests(i) for i in range(200)
        ]


def test_sharded_stats_match_single(values):
    single = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=0, use_cache=True)
    single.run(ROUNDS)
    with ShardedArenaEngine(
        values, GaussianMixtureScheme(seed=0), 3, seed=0, shards=3, use_cache=True
    ) as engine:
        engine.run(ROUNDS)
        stats = engine.stats
        # Messages and receives are structural (fixed by the shared
        # draw), so they match exactly; cache-hit split differs because
        # each worker dedups only within its shard.
        assert stats.rounds == single.stats.rounds
        assert stats.messages == single.stats.messages
        assert stats.receivers == single.stats.receivers
        engine.collect()


def test_sharded_stats_sum_every_worker_counter():
    """Each aggregate counter, the batched no-op sweep's included, is the
    sum of the workers' final counters after a converging 2-shard run."""
    values = make_dataset("centers", 400, 11)
    with ShardedArenaEngine(
        values, GaussianMixtureScheme(seed=0), 3, seed=11, shards=2, use_cache=True
    ) as engine:
        engine.run(30)
        engine.collect()
        stats = engine.stats
        workers = engine._shard_stats
        for field in fields(ArenaStats):
            if field.name not in ("rounds", "messages"):
                expected = sum(worker[field.name] for worker in workers)
                assert getattr(stats, field.name) == expected, field.name
        assert stats.noop_sweep_hits > 0


def test_shard_solver_stats_cover_all_receives(values):
    with ShardedArenaEngine(
        values, GaussianMixtureScheme(seed=0), 3, seed=0, shards=3, use_cache=True
    ) as engine:
        engine.run(ROUNDS)
        per_shard = engine.shard_solver_stats()
        assert len(per_shard) == 3
        assert sum(entry["receivers"] for entry in per_shard) == engine.stats.receivers
        assert sum(entry["full_solves"] for entry in per_shard) == engine.stats.full_solves
        for entry in per_shard:
            assert entry["cache_hits"] == entry["receivers"] - entry["full_solves"]
            assert 0.0 <= entry["solver_hit_rate"] <= 1.0
        engine.collect()


@pytest.mark.parametrize("crash_at", ["1:0", "1:4", "0:9", "1:4:deliver"])
def test_worker_crash_recovers_with_identical_state(values, crash_at, monkeypatch, tmp_path):
    expected = _single_states(values, GaussianMixtureScheme(seed=0), 3, 0, ROUNDS, use_cache=True)
    flag = tmp_path / "crash.flag"
    monkeypatch.setenv(CRASH_SHARD_ENV, crash_at)
    monkeypatch.setenv(CRASH_FLAG_ENV, str(flag))
    with ShardedArenaEngine(
        values,
        GaussianMixtureScheme(seed=0),
        3,
        seed=0,
        shards=3,
        use_cache=True,
        checkpoint_every=4,
        worker_timeout=120.0,
    ) as engine:
        engine.run(ROUNDS)
        arena = engine.collect()
        assert flag.exists(), "the crash was never injected — the test is vacuous"
        assert engine._restarts == 1
        assert [arena.state_digests(node) for node in range(N)] == expected


def test_restart_budget_enforced(values, monkeypatch, tmp_path):
    monkeypatch.setenv(CRASH_SHARD_ENV, "0:2")
    monkeypatch.setenv(CRASH_FLAG_ENV, str(tmp_path / "crash.flag"))
    engine = ShardedArenaEngine(
        values,
        GaussianMixtureScheme(seed=0),
        3,
        seed=0,
        shards=2,
        max_restarts=0,
        worker_timeout=120.0,
    )
    try:
        with pytest.raises(RuntimeError, match="restart budget"):
            engine.run(ROUNDS)
    finally:
        engine.close()


def test_run_after_collect_rejected(values):
    engine = ShardedArenaEngine(values, CentroidScheme(), 3, seed=0, shards=2)
    engine.run(2)
    engine.collect()
    with pytest.raises(RuntimeError, match="collected"):
        engine.run_round()


def test_invalid_shard_counts(values):
    with pytest.raises(ValueError, match="shards"):
        ShardedArenaEngine(values, CentroidScheme(), 3, shards=0)
    with pytest.raises(ValueError, match=f"cannot split {N} nodes"):
        ShardedArenaEngine(values, CentroidScheme(), 3, shards=N + 1)


def test_only_the_slab_exchange_is_accepted(values):
    with pytest.raises(ValueError, match="use_shm must be True"):
        ShardedArenaEngine(values, CentroidScheme(), 3, shards=2, use_shm=False)
