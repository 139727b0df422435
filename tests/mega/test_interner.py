"""The block interner against a one-at-a-time dict, and the arena's compaction.

``SummaryInterner.intern_rows`` names a whole block of packed rows with
one hash-table probe.  The reference here is the interner it replaced: a
bytes-keyed dict that takes the rows one at a time and mints an id for
each row it has not seen.  Both must assign the same ids, in every block
and across blocks, down to the last bit of every word: ``0.0`` and
``-0.0``, NaNs with different payloads and rows one mantissa bit apart
are different rows.

Compaction renumbers the live ids densely once dead ones outnumber them;
what a cell holds (its key bytes, digest and quanta) must not change.
"""

from __future__ import annotations

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import MISSING
from repro.data import make_dataset
from repro.mega import ArenaEngine
from repro.mega.arena import SummaryInterner
from repro.schemes.centroid import CentroidScheme
from repro.schemes.gm import GaussianMixtureScheme

#: Column specs of the two row layouts: GM (``cov`` then ``mean``) and centroid.
SPECS = {
    "gm": (lambda: GaussianMixtureScheme(seed=0), {"mean": (2,), "cov": (2, 2)}),
    "centroid": (lambda: CentroidScheme(), {"position": (3,)}),
}


def _bits(value: float) -> int:
    return struct.unpack("<Q", struct.pack("<d", value))[0]


_BASE = [0.0, 1.0, 8.0, -8.0, 0.5, 1e-300, 3.141592653589793]
#: Word bit patterns that differ from one another in as few bits as
#: possible: each base value, its lowest mantissa bit flipped and its sign
#: flipped (so 0.0 and -0.0), plus quiet and signalling NaNs of several
#: payloads and both signs.
WORDS = sorted(
    {bits for value in _BASE for bits in (_bits(value), _bits(value) ^ 1, _bits(value) ^ 1 << 63)}
    | {0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001}
)


class DictInterner:
    """The reference: one ``tobytes`` and one dict lookup per row."""

    def __init__(self, names):
        self.names = sorted(names)
        self.ids = {}

    def key(self, columns, row):
        return b"".join(np.ascontiguousarray(columns[name][row]).tobytes() for name in self.names)

    def intern_rows(self, columns, count):
        return [self.ids.setdefault(self.key(columns, row), len(self.ids)) for row in range(count)]


def _columns(specs, words):
    """The packed columns whose rows hold ``words`` (one tuple of uint64 patterns per row)."""
    flat = np.array(words, dtype=np.uint64).reshape(len(words), -1).view(np.float64)
    columns, offset = {}, 0
    for name in sorted(specs):
        length = int(np.prod(specs[name]))
        columns[name] = flat[:, offset : offset + length].reshape((len(words),) + specs[name]).copy()
        offset += length
    return columns


@st.composite
def block_sequences(draw):
    """(layout, blocks): blocks of rows drawn, with repeats, from a pool of near-identical rows."""
    layout = draw(st.sampled_from(sorted(SPECS)))
    width = sum(int(np.prod(shape)) for shape in SPECS[layout][1].values())
    row = st.tuples(*[st.sampled_from(WORDS)] * width)
    pool = draw(st.lists(row, min_size=1, max_size=160, unique=True))
    picks = st.lists(st.integers(0, len(pool) - 1), max_size=300)
    blocks = draw(st.lists(picks, min_size=1, max_size=4))
    return layout, [[pool[index] for index in block] for block in blocks]


@given(block_sequences())
@settings(max_examples=60, deadline=None)
def test_intern_rows_mints_the_dict_loops_ids(case):
    layout, blocks = case
    make_scheme, specs = SPECS[layout]
    interner = SummaryInterner(make_scheme(), specs)
    reference = DictInterner(specs)
    for block in blocks:
        columns = _columns(specs, block) if block else {
            name: np.zeros((0,) + shape) for name, shape in specs.items()
        }
        ids = interner.intern_rows(columns, len(block))
        expected = reference.intern_rows(columns, len(block))
        assert ids.dtype == np.int64
        assert ids.tolist() == expected
        assert len(interner) == len(reference.ids)
        for row, summary_id in enumerate(expected):
            assert interner.key_bytes(summary_id) == reference.key(columns, row)
        if block:
            # One row at a time names it as the block did.
            last = len(block) - 1
            assert interner.intern_row(columns, last) == expected[last]


def test_intern_row_mints_what_intern_rows_mints():
    scheme, specs = SPECS["gm"][0](), SPECS["gm"][1]
    rows = _columns(specs, [(WORDS[index],) * 6 for index in range(20)])
    one, block = SummaryInterner(scheme, specs), SummaryInterner(scheme, specs)
    block_ids = block.intern_rows(rows, 20).tolist()
    assert [one.intern_row(rows, row) for row in range(20)] == block_ids
    assert [one.key_bytes(i) for i in range(20)] == [block.key_bytes(i) for i in range(20)]


@pytest.mark.parametrize("sizes", [[1, 7, 100, 900], [5000], [63, 1, 64, 65, 2000]])
def test_growing_blocks_of_random_rows(sizes):
    rng = np.random.default_rng(len(sizes))
    specs = SPECS["gm"][1]
    interner, reference = SummaryInterner(SPECS["gm"][0](), specs), DictInterner(specs)
    seen = {name: np.zeros((0,) + shape) for name, shape in specs.items()}
    for size in sizes:
        # Half fresh rows, half rows of earlier blocks, shuffled together.
        fresh = {name: rng.normal(size=(size,) + shape) for name, shape in specs.items()}
        pool = {name: np.concatenate([seen[name], fresh[name]]) for name in specs}
        picks = rng.integers(0, len(pool["mean"]), size)
        block = {name: column[picks] for name, column in pool.items()}
        assert interner.intern_rows(block, size).tolist() == reference.intern_rows(block, size)
        seen = pool
    assert len(interner) == len(reference.ids)


@pytest.mark.parametrize("method", ["key_bytes", "row_arrays", "summary", "digest"])
def test_ids_outside_the_table_raise(method):
    scheme, specs = SPECS["centroid"][0](), SPECS["centroid"][1]
    interner = SummaryInterner(scheme, specs)
    interner.intern_rows({"position": np.arange(6.0).reshape(2, 3)}, 2)
    decode = getattr(interner, method)
    decode(1)
    for outside in (-1, 2, 10**6):
        with pytest.raises(IndexError):
            decode(outside)


def _cells(arena):
    """Every cell holding a collection: (node, slot) -> (key bytes, digest, quanta)."""
    interner = arena.interner
    return {
        (node, slot): (
            interner.key_bytes(int(arena.ids[node, slot])),
            interner.digest(int(arena.ids[node, slot])),
            int(arena.quanta[node, slot]),
        )
        for node in range(arena.n)
        for slot in range(int(arena.counts[node]))
    }


def test_compaction_renumbers_live_ids_and_keeps_every_cell():
    n, k = 60, 3
    engine = ArenaEngine(make_dataset("centers", n, 4), GaussianMixtureScheme(seed=0), k, seed=4)
    engine.run(12)
    arena, cache = engine.arena, engine.merge_cache
    assert arena.compactions == 0 and len(arena.interner) <= 2 * n * k
    plans = list(cache._plans)
    assert plans, "no no-op plan to drop: the test is vacuous"
    # Dead rows, never held by a cell, push the interner past 2·n·k.
    rng = np.random.default_rng(0)
    dead = {"mean": rng.normal(size=(2 * n * k, 2)), "cov": np.zeros((2 * n * k, 2, 2))}
    arena.interner.intern_rows(dead, 2 * n * k)
    before = _cells(arena)
    engine.solver.compact()
    assert arena.compactions == 1
    live = np.unique(arena.ids[np.arange(k) < arena.counts[:, None]])
    assert len(arena.interner) == len(live)
    assert live.tolist() == list(range(len(live)))
    assert _cells(arena) == before
    assert all(cache.lookup(key) is MISSING for key in plans)
    # A dead row's bytes come back under a fresh id.
    size = len(arena.interner)
    assert arena.interner.intern_rows({name: column[:1] for name, column in dead.items()}, 1)[0] == size
    # Within the bound nothing happens.
    engine.solver.compact()
    assert arena.compactions == 1


def test_noisy_rounds_keep_the_interner_within_its_bound():
    n, k = 60, 3
    engine = ArenaEngine(make_dataset("paper", n, 2), GaussianMixtureScheme(seed=0), k, seed=2)
    for _ in range(16):
        engine.run_round()
        assert len(engine.arena.interner) <= 2 * n * k
    stats = engine.arena.interner_stats()
    assert stats["compactions"] >= 2
    assert stats["nodes"] == n and stats["interned"] == len(engine.arena.interner)
    assert stats["live_ids"] <= stats["interned"]
