"""Property suite: pack → shard → exchange → unpack is lossless and order-stable.

The sharded engine moves classification state through three byte-level
transformations — packing values into columns, slicing slabs across
shard boundaries, and re-interning rows that crossed a process boundary
(the checkpoint/assembly path uses exactly the same machinery).  For
arbitrary finite inputs, every one of those trips must return byte-for-
byte identical summaries in the original order, for all four schemes;
any drift would silently break the engine's parity contract.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.weights import Quantization
from repro.mega.arena import NetworkArena, SummaryInterner
from repro.mega.shard import _arena_from_slabs
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e6, max_value=1e6
)

SCHEME_FACTORIES = {
    "gm": (lambda: GaussianMixtureScheme(seed=0), 2),
    "centroid": (lambda: CentroidScheme(), 2),
    "diagonal": (lambda: DiagonalGaussianScheme(seed=0), 2),
    "histogram": (lambda: HistogramScheme(low=-1e6, high=1e6, bins=16), 1),
}


@st.composite
def value_sets(draw):
    """(scheme name, values array) with scheme-appropriate dimension."""
    name = draw(st.sampled_from(sorted(SCHEME_FACTORIES)))
    _, dimension = SCHEME_FACTORIES[name]
    count = draw(st.integers(min_value=2, max_value=24))
    rows = draw(
        st.lists(
            st.tuples(*([finite_floats] * dimension)),
            min_size=count,
            max_size=count,
        )
    )
    return name, np.asarray(rows, dtype=float)


@given(value_sets())
@settings(max_examples=40, deadline=None)
def test_pack_values_matches_scalar_packing(case):
    """Batch packing must be byte-identical to the per-summary path."""
    name, values = case
    scheme = SCHEME_FACTORIES[name][0]()
    batch = scheme.pack_values(values)
    scalar = scheme.pack_summaries([scheme.val_to_summary(value) for value in values])
    assert sorted(batch) == sorted(scalar)
    for column in batch:
        np.testing.assert_array_equal(batch[column], scalar[column])


@given(value_sets())
@settings(max_examples=40, deadline=None)
def test_pack_unpack_roundtrip_is_lossless(case):
    """unpack_summary(pack_values(v))[i] repacks to the same bytes, per row."""
    name, values = case
    scheme = SCHEME_FACTORIES[name][0]()
    packed = scheme.pack_values(values)
    for row in range(len(values)):
        summary = scheme.unpack_summary(packed, row)
        repacked = scheme.pack_summaries([summary])
        for column in packed:
            assert repacked[column][0].tobytes() == packed[column][row].tobytes()


@given(value_sets(), st.integers(min_value=1, max_value=5))
@settings(max_examples=40, deadline=None)
def test_shard_slice_and_reassemble_preserves_state(case, shards):
    """Shard slices, slab concat, re-intern: original state, original order."""
    name, values = case
    scheme = SCHEME_FACTORIES[name][0]()
    arena = NetworkArena.from_values(values, scheme, k=3)
    shards = min(shards, arena.n)
    boundaries = np.concatenate(
        [[0], np.cumsum([len(chunk) for chunk in np.array_split(np.arange(arena.n), shards)])]
    )
    cuts = [slice(int(boundaries[i]), int(boundaries[i + 1])) for i in range(shards)]
    # The exchange: each slice's slabs cross a process boundary as bare
    # bytes and are re-interned on the far side (shard.py's assembly path).
    rebuilt = _arena_from_slabs(
        scheme,
        arena.k,
        Quantization(),
        np.concatenate([arena.counts[cut] for cut in cuts]),
        np.concatenate([arena.quanta[cut] for cut in cuts]),
        {
            name_: np.concatenate([column[cut] for cut in cuts])
            for name_, column in arena.columns.items()
        },
    )
    assert rebuilt.n == arena.n
    for node in range(arena.n):
        assert rebuilt.state_digests(node) == arena.state_digests(node)


@given(value_sets())
@settings(max_examples=40, deadline=None)
def test_intern_rows_is_injective_on_content(case):
    """Same bytes ⟺ same id; distinct bytes ⟺ distinct ids — and the
    decode returns the exact bytes, so interning crosses process
    boundaries losslessly."""
    name, values = case
    scheme = SCHEME_FACTORIES[name][0]()
    packed = scheme.pack_values(values)
    interner = SummaryInterner(scheme, {k: v.shape[1:] for k, v in packed.items()})
    ids = interner.intern_rows(packed, len(values))
    again = interner.intern_rows(packed, len(values))
    np.testing.assert_array_equal(ids, again)
    keys = {}
    for row, summary_id in enumerate(ids.tolist()):
        key = b"".join(
            np.ascontiguousarray(packed[name_][row]).tobytes()
            for name_ in sorted(packed)
        )
        if key in keys:
            assert summary_id == keys[key]
        else:
            keys[key] = summary_id
    assert len(set(keys.values())) == len(keys)
    for summary_id in set(ids.tolist()):
        decoded = interner.row_arrays(summary_id)
        assert interner.intern_rows(
            {k: v[None, ...] for k, v in decoded.items()}, 1
        )[0] == summary_id
