"""Slab pack/unpack and the shared-memory exchange lifecycle.

The slab layer has two independent contracts, tested separately:

* **Round-trip fidelity** (hypothesis): whatever rows a writer packs —
  empty outbox, a single row, an exact max-fill, any shape mix — the
  reader gets back bit-identical, through both the zero-copy view path
  and the ``copy=True`` snapshot path, and across the two buffers of a
  double-buffered segment.
* **Lifecycle hygiene**: every segment an engine creates is unlinked by
  ``close()``/``collect()``/context-exit — verified by re-attaching by
  name and requiring ``FileNotFoundError`` — and a mid-``__init__``
  failure never strands a half-created set.
"""

from __future__ import annotations

from multiprocessing import shared_memory

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mega import ShardedArenaEngine, SlabExchange, SlabExchangeSpec
from repro.mega.shm import (
    SLAB_HEADER_BYTES,
    read_payload_slab,
    slab_region_bytes,
    write_payload_slab,
)
from repro.schemes.centroid import CentroidScheme

#: Column layouts mirroring the real schemes: GM (mean + cov), diagonal
#: (mean + var), centroid/histogram-like single matrix, and a scalar
#: column exercising the ``shape=()`` degenerate case.
SPEC_VARIANTS = [
    [("cov", (2, 2)), ("mean", (2,))],
    [("mean", (3,)), ("var", (3,))],
    [("centroid", (2,))],
    [("weight", ())],
]


def _random_payload(rng: np.random.Generator, rows: int, column_specs):
    dest = rng.integers(0, 1 << 40, size=rows, dtype=np.int64)
    quanta = rng.integers(1, 1 << 30, size=rows, dtype=np.int64)
    columns = {
        name: rng.normal(size=(rows,) + tuple(shape))
        for name, shape in column_specs
    }
    return dest, quanta, columns


@settings(max_examples=60, deadline=None)
@given(
    spec_index=st.integers(0, len(SPEC_VARIANTS) - 1),
    capacity=st.integers(0, 24),
    data=st.data(),
)
def test_slab_round_trip(spec_index, capacity, data):
    column_specs = SPEC_VARIANTS[spec_index]
    rows = data.draw(st.integers(0, capacity))
    round_index = data.draw(st.integers(0, 1 << 40))
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dest, quanta, columns = _random_payload(rng, rows, column_specs)

    row_floats = sum(int(np.prod(shape)) if shape else 1 for _, shape in column_specs)
    offset = data.draw(st.sampled_from([0, slab_region_bytes(capacity, row_floats)]))
    buf = bytearray(offset + slab_region_bytes(capacity, row_floats))

    write_payload_slab(
        buf, offset, capacity, round_index, dest, quanta, columns, column_specs
    )
    for copy in (False, True):
        got_round, got_rows, got_dest, got_quanta, got_columns = read_payload_slab(
            buf, offset, capacity, column_specs, copy=copy
        )
        assert got_round == round_index
        assert got_rows == rows
        np.testing.assert_array_equal(got_dest, dest)
        np.testing.assert_array_equal(got_quanta, quanta)
        assert set(got_columns) == {name for name, _ in column_specs}
        for name, shape in column_specs:
            assert got_columns[name].shape == (rows,) + tuple(shape)
            np.testing.assert_array_equal(got_columns[name], columns[name])


def test_slab_max_fill_and_overflow():
    column_specs = [("mean", (2,))]
    capacity = 8
    buf = bytearray(slab_region_bytes(capacity, 2))
    rng = np.random.default_rng(0)

    dest, quanta, columns = _random_payload(rng, capacity, column_specs)
    write_payload_slab(buf, 0, capacity, 3, dest, quanta, columns, column_specs)
    got_round, got_rows, got_dest, _, _ = read_payload_slab(
        buf, 0, capacity, column_specs
    )
    assert (got_round, got_rows) == (3, capacity)
    np.testing.assert_array_equal(got_dest, dest)

    dest, quanta, columns = _random_payload(rng, capacity + 1, column_specs)
    with pytest.raises(ValueError, match="slab overflow"):
        write_payload_slab(buf, 0, capacity, 4, dest, quanta, columns, column_specs)


def test_corrupt_header_rejected():
    column_specs = [("mean", (2,))]
    capacity = 4
    buf = bytearray(slab_region_bytes(capacity, 2))
    np.frombuffer(buf, dtype=np.int64, count=2)[0] = capacity + 7
    with pytest.raises(ValueError, match="corrupt slab header"):
        read_payload_slab(buf, 0, capacity, column_specs)


def _spec(shards: int = 3, shard_size: int = 5) -> SlabExchangeSpec:
    bounds = np.arange(shards + 1, dtype=np.int64) * shard_size
    return SlabExchangeSpec(bounds, 3, {"mean": (2,), "cov": (2, 2)}, "testtoken")


def test_spec_geometry():
    spec = _spec()
    assert spec.row_floats == 6
    assert spec.capacity(0) == 15
    assert spec.region_bytes(0) == SLAB_HEADER_BYTES + 15 * 8 * 8
    assert spec.segment_bytes(0) == 2 * spec.region_bytes(0)
    # Region indices skip the source's own slot.
    assert spec.region_offset(0, 1) == 0
    assert spec.region_offset(0, 2) == spec.region_bytes(0)
    assert spec.region_offset(2, 0) == 0
    assert spec.region_offset(2, 1) == spec.region_bytes(2)
    with pytest.raises(ValueError, match="no outbox region for itself"):
        spec.region_offset(1, 1)
    assert len(spec.segment_names()) == 2 * spec.shards


def test_exchange_double_buffer_round_trip():
    spec = _spec(shards=2, shard_size=4)
    exchange = SlabExchange(spec, create=True)
    try:
        rng = np.random.default_rng(7)
        # Two consecutive rounds land in opposite parities; writing
        # round r+1 must not disturb the still-readable round r.
        payloads = {}
        for round_index in (6, 7):
            dest, quanta, columns = _random_payload(rng, 3, spec.column_specs)
            payloads[round_index] = (dest, quanta, columns)
            exchange.write(0, round_index & 1, 1, round_index, dest, quanta, columns)
        for round_index in (6, 7):
            dest, quanta, columns = payloads[round_index]
            got_dest, got_quanta, got_columns = exchange.read(
                0, round_index & 1, 1, round_index, 3, copy=True
            )
            np.testing.assert_array_equal(got_dest, dest)
            np.testing.assert_array_equal(got_quanta, quanta)
            for name in got_columns:
                np.testing.assert_array_equal(got_columns[name], columns[name])
        with pytest.raises(RuntimeError, match="protocol violation"):
            exchange.read(0, 0, 1, round_index=99, rows=3)
    finally:
        exchange.destroy()
    for name in spec.segment_names():
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def _assert_unlinked(names):
    assert names, "engine reported no segments — the leak guard is vacuous"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


def test_engine_close_releases_segments():
    values = np.random.default_rng(0).normal(size=(30, 2))
    engine = ShardedArenaEngine(values, CentroidScheme(), 3, seed=0, shards=3, use_shm=True)
    names = list(engine.segment_names)
    engine.run(3)
    engine.close()
    _assert_unlinked(names)


def test_single_shard_creates_no_segment():
    values = np.random.default_rng(3).normal(size=(30, 2))
    with ShardedArenaEngine(values, CentroidScheme(), 3, seed=0, shards=1) as engine:
        assert engine.segment_names == []
        engine.run(2)
        engine.collect()


def test_engine_collect_and_context_exit_release_segments():
    values = np.random.default_rng(1).normal(size=(30, 2))
    with ShardedArenaEngine(
        values, CentroidScheme(), 3, seed=0, shards=2, use_shm=True
    ) as engine:
        names = list(engine.segment_names)
        engine.run(2)
        engine.collect()
    _assert_unlinked(names)


def test_engine_init_failure_leaves_no_segments(monkeypatch):
    values = np.random.default_rng(2).normal(size=(30, 2))
    created = []
    original = SlabExchange.__init__

    def tracking_init(self, spec, create):
        original(self, spec, create)
        if create:
            created.extend(self.segment_names)

    monkeypatch.setattr(SlabExchange, "__init__", tracking_init)
    monkeypatch.setattr(
        ShardedArenaEngine,
        "_spawn",
        lambda self, shard: (_ for _ in ()).throw(OSError("spawn failed")),
    )
    with pytest.raises(OSError, match="spawn failed"):
        ShardedArenaEngine(values, CentroidScheme(), 3, seed=0, shards=2, use_shm=True)
    _assert_unlinked(created)
