"""The receive core's certified no-op against its own full solve.

``repro.core.receive.certified_noop`` answers a receive whose incoming
rows are all local ones with quanta arithmetic alone.  Whenever it does,
the partition and merge it skips must give the same output: the same row
order, quanta, group sizes and row bytes.  The blocks below mix tight,
unit and wide spreads (tight ones fail the margin test), locations on a
grid (equidistant seeds tie), one-quantum rows (conformance rule 2) and
lopsided weights, so both the acceptances and the refusals get tested.
``sweep_noops`` decides many receives of one block at once; it may
accept only what ``certified_noop`` accepts, with the same rows.

A receive's outcome lives for the round that computed it and no longer:
neither engine keeps outcomes across rounds.
"""

from __future__ import annotations

import gc

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.core.fingerprint import MergeCache
from repro.core.packed import PackedState
from repro.core.receive import (
    ReceiveRows,
    certified_noop,
    merge_pooled,
    partition_pooled,
    sweep_noops,
)
from repro.core.weights import Quantization
from repro.mega import ArenaEngine
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

QUANTIZATION = Quantization()

#: (scheme factory, input dimension, tight/unit/wide spreads).  A
#: histogram location is one 0.75-wide bin, so its "tight" is one bin.
SCHEMES = [
    pytest.param(lambda: GaussianMixtureScheme(seed=0), 2, (1e-3, 1.0, 8.0), id="gm"),
    pytest.param(lambda: CentroidScheme(), 2, (1e-3, 1.0, 8.0), id="centroid"),
    pytest.param(lambda: DiagonalGaussianScheme(seed=0), 2, (1e-3, 1.0, 8.0), id="diagonal"),
    pytest.param(
        lambda: HistogramScheme(low=-12.0, high=12.0, bins=32), 1, (0.75, 1.5, 5.0), id="histogram"
    ),
]

#: Weights that tie often, a one-quantum row, and a lopsided pair.
WEIGHTS = st.one_of(
    st.sampled_from([1, 2, 3, 8, 2**20, 2**40]), st.integers(min_value=2, max_value=2**41)
)


def _block(scheme, points, spread):
    """The local rows for grid ``points`` scaled by ``spread``, with their digests."""
    columns = scheme.pack_values(np.asarray(points, dtype=float) * spread)
    tokens = tuple(scheme.digest_row(columns, row) for row in range(len(points)))
    return columns, tokens


#: A row token no block holds.
FOREIGN = b"\xff" * 16


def _resolver(scheme, columns):
    return lambda token, position: (token, scheme.unpack_summary(columns, position))


def _incoming_tokens(tokens, incoming):
    return tuple(FOREIGN if position < 0 else tokens[position] for position, _ in incoming)


def _noop(scheme, k, columns, tokens, local_quanta, incoming):
    """The core's certified no-op of one receive, or None."""
    return certified_noop(
        MergeCache(),
        scheme,
        k,
        QUANTIZATION,
        tokens,
        np.asarray(local_quanta, dtype=np.int64),
        _incoming_tokens(tokens, incoming),
        np.asarray([weight for _, weight in incoming], dtype=np.int64),
        columns,
        _resolver(scheme, columns),
    )


def _swept(scheme, k, columns, tokens, receives):
    """``sweep_noops`` over every ``(local_quanta, incoming)`` receive of
    one block at once: each receive's rows, or None where it is left."""
    out = [None] * len(receives)
    in_tokens = [token for _, rows in receives for token in _incoming_tokens(tokens, rows)]
    for accepted, out_tokens, quanta, sizes, out_columns in sweep_noops(
        MergeCache(),
        scheme,
        k,
        QUANTIZATION,
        tokens,
        columns,
        np.asarray([local for local, _ in receives], dtype=np.int64),
        np.array(in_tokens),
        np.asarray([weight for _, incoming in receives for _, weight in incoming], dtype=np.int64),
        np.asarray([len(incoming) for _, incoming in receives]),
        _resolver(scheme, columns),
    ):
        for index, row_quanta, row_sizes in zip(accepted.tolist(), quanta, sizes.tolist()):
            assert out[index] is None
            out[index] = ReceiveRows(out_tokens, row_quanta, out_columns, tuple(row_sizes))
    return out


def _noop_and_full_solve(scheme, k, columns, tokens, local_quanta, incoming):
    """The core's no-op (or None) and its full solve of the same pooled rows."""
    positions = [position for position, _ in incoming]
    in_tokens = tuple(tokens[position] for position in positions)
    in_quanta = [weight for _, weight in incoming]
    noop = _noop(scheme, k, columns, tokens, local_quanta, incoming)
    take = np.asarray(list(range(len(tokens))) + positions, dtype=np.intp)
    pooled = PackedState(
        quanta=np.asarray(local_quanta + in_quanta, dtype=np.int64),
        columns={name: column[take] for name, column in columns.items()},
        row_digests=tokens + in_tokens,
    )
    bounds = [0, len(pooled)]
    members, sizes = partition_pooled(scheme, pooled, bounds, k, QUANTIZATION)
    tokens = np.array(pooled.row_digests, dtype=object)
    solved = merge_pooled(scheme, pooled, bounds, members, sizes, tokens, scheme.digest_rows)
    return noop, ReceiveRows(*solved.problem(0))


def _assert_same_rows(noop, full):
    assert noop.tokens == full.tokens
    assert noop.quanta.tolist() == full.quanta.tolist()
    assert noop.group_sizes == full.group_sizes
    assert noop.columns.keys() == full.columns.keys()
    for name, column in noop.columns.items():
        assert column.tobytes() == full.columns[name].tobytes()


@st.composite
def receives(draw, dimension, spreads):
    """A block, one receive on it, and more receives on it for the sweep;
    position -1 names a row the block does not hold."""
    k = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=1, max_value=k))
    grid = st.tuples(*[st.integers(min_value=-2, max_value=2)] * dimension)
    points = draw(st.lists(grid, min_size=m, max_size=m, unique=True))
    spread = draw(st.sampled_from(spreads))

    def receive(positions):
        local_quanta = draw(st.lists(WEIGHTS, min_size=m, max_size=m))
        # Incoming rows as heavy as a local one tie for the heaviest location.
        weights = st.one_of(WEIGHTS, st.sampled_from(local_quanta))
        incoming = draw(st.lists(st.tuples(positions, weights), min_size=1, max_size=6))
        return local_quanta, incoming

    local_quanta, incoming = receive(st.integers(min_value=0, max_value=m - 1))
    others = [
        receive(st.integers(min_value=-1, max_value=m - 1))
        for _ in range(draw(st.integers(min_value=0, max_value=4)))
    ]
    return k, points, spread, local_quanta, incoming, others


@pytest.mark.parametrize("make_scheme, dimension, spreads", SCHEMES)
def test_certified_noop_equals_full_solve(make_scheme, dimension, spreads):
    scheme = make_scheme()

    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.filter_too_much, HealthCheck.too_slow],
    )
    @given(receives(dimension, spreads))
    def check(receive):
        k, points, spread, local_quanta, incoming, others = receive
        columns, tokens = _block(scheme, points, spread)
        assume(len(set(tokens)) == len(tokens))
        noop, full = _noop_and_full_solve(scheme, k, columns, tokens, local_quanta, incoming)
        if noop is not None:
            _assert_same_rows(noop, full)
        receives = [(local_quanta, incoming)] + others
        for (local, rows), swept in zip(receives, _swept(scheme, k, columns, tokens, receives)):
            if swept is not None:
                noop = _noop(scheme, k, columns, tokens, local, rows)
                assert noop is not None
                _assert_same_rows(swept, noop)

    check()


@pytest.mark.parametrize("make_scheme, dimension, spreads", SCHEMES)
def test_balanced_separated_block_certifies(make_scheme, dimension, spreads):
    """k = 3 far-apart locations of equal weight, each sent back once."""
    scheme = make_scheme()
    points = [(-1,) * dimension, (0,) * dimension, (1,) * dimension]
    columns, tokens = _block(scheme, points, spreads[-1])
    unit = 2**20
    noop, full = _noop_and_full_solve(
        scheme, 3, columns, tokens, [unit] * 3, [(2, unit), (0, unit), (1, unit)]
    )
    assert noop is not None
    assert noop.group_sizes == (2, 2, 2)
    _assert_same_rows(noop, full)


def _gossip(engine):
    """Five rounds of a 64-node GM network on normal values, merge cache on."""
    values = np.random.default_rng(5).normal(size=(64, 2))
    if engine == "arena":
        arena = ArenaEngine(values, GaussianMixtureScheme(seed=0), 3, seed=2, use_cache=True)
        arena.run(5)
        return arena
    kernel, nodes = build_classification_network(
        values,
        GaussianMixtureScheme(seed=0),
        3,
        graph=complete(64),
        seed=2,
        engine=engine,
        merge_cache=True,
    )
    kernel.run(5)
    return kernel, nodes


@pytest.mark.parametrize("engine", ["rounds", "async", "arena"])
def test_no_receive_outcome_outlives_its_round(engine):
    """Once its rounds are done, a run holds no receive outcome, the
    engine and its merge cache still alive.  The receive is a pure
    function of the pooled rows and their quanta, and every round
    re-pools halved quanta, so a kept outcome would almost never be
    asked for again."""
    gc.collect()
    earlier = [obj for obj in gc.get_objects() if isinstance(obj, ReceiveRows)]
    seen = {id(obj) for obj in earlier}
    run = _gossip(engine)
    gc.collect()
    kept = [
        obj for obj in gc.get_objects() if isinstance(obj, ReceiveRows) and id(obj) not in seen
    ]
    assert len(kept) == 0, f"{len(kept)} receive outcomes outlived their round"
    del run  # alive, with its merge cache, until the check is done
