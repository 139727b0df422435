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

``receive_round`` answers a whole round at once: its sweep, round memo,
fast path, no-op and block solve must give every receiver what the same
receive gives when posed alone, with digests as the kernel holds them and
interned ids as the arena does.

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
from repro.core.node import ClassifierNode
from repro.core.packed import PackedPayload, PackedState
from repro.core.receive import (
    FAST,
    NOOP,
    SOLVED,
    SWEEP_MIN_BLOCK,
    SWEPT,
    ReceiveBatch,
    ReceiveRows,
    ReceiveSlab,
    RoundReceives,
    SolvedBlock,
    certified_noop,
    receive_round,
    solve_block,
    sweep_noops,
)
from repro.core.weights import Quantization
from repro.mega import ArenaEngine
from repro.mega.arena import SummaryInterner
from repro.obs.events import RingBufferSink
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
    tokens = np.array(pooled.row_digests, dtype=object)
    solved = solve_block(scheme, k, QUANTIZATION, pooled, [0, len(pooled)], tokens, scheme.digest_rows)
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
    per_round = (ReceiveRows, SolvedBlock, RoundReceives, ReceiveSlab, ReceiveBatch)
    gc.collect()
    earlier = [obj for obj in gc.get_objects() if isinstance(obj, per_round)]
    seen = {id(obj) for obj in earlier}
    run = _gossip(engine)
    gc.collect()
    kept = [
        obj for obj in gc.get_objects() if isinstance(obj, per_round) and id(obj) not in seen
    ]
    assert len(kept) == 0, f"{len(kept)} per-round receive objects outlived their round"
    del run  # alive, with its merge cache, until the check is done


# ----------------------------------------------------------------------
# A round through the driver against its receives posed alone
# ----------------------------------------------------------------------
ROUND_SCHEMES = [
    pytest.param(lambda: GaussianMixtureScheme(seed=0), id="gm"),
    pytest.param(CentroidScheme, id="centroid"),
]

#: Far-apart grid locations, so blocks certify unless weights are lopsided.
SPREAD = 8.0


def _nul_point(scheme):
    """A grid point whose row digest ends in a NUL byte (about 1 value in 256)."""
    for x in range(-40, 41):
        for y in range(-40, 41):
            columns = scheme.pack_values(np.array([[x, y]], dtype=float) * SPREAD)
            if scheme.digest_row(columns, 0)[-1] == 0:
                return (x, y)
    raise AssertionError("no grid point has a digest ending in NUL")


@st.composite
def rounds(draw, nul):
    """Locations (the first one's digest ends in NUL) and a round of 1-40
    receives on them: many on one shared ``k``-row block (a sweep block
    when 16 or more), others on blocks of 1 to ``k`` rows, all-local or
    not, with fast paths and one-quantum rows among them, and twins: the
    same receive again, or again with one incoming quantum changed."""
    k = draw(st.integers(min_value=2, max_value=3))
    grid = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 2).filter(lambda p: p != nul)
    locations = [nul] + draw(st.lists(grid, min_size=k + 1, max_size=k + 1, unique=True))

    def block(m):
        return tuple(draw(st.permutations(range(len(locations))))[:m])

    def receive(local):
        local_quanta = draw(st.lists(WEIGHTS, min_size=len(local), max_size=len(local)))
        sources = st.sampled_from(local) if draw(st.booleans()) else st.sampled_from(range(k + 2))
        width = draw(st.sampled_from([1, 2, 6]))
        incoming = draw(st.lists(st.tuples(sources, WEIGHTS), min_size=1, max_size=width))
        return local, local_quanta, incoming

    shared = block(k)
    if draw(st.booleans()):  # a round the sweep runs on (32 receivers or more)
        on_shared = draw(st.integers(min_value=SWEEP_MIN_BLOCK, max_value=20))
        others = draw(st.integers(min_value=32 - on_shared, max_value=36 - on_shared))
    else:
        on_shared = draw(st.integers(min_value=0, max_value=8))
        others = draw(st.integers(min_value=0, max_value=8))
    receives = [receive(shared) for _ in range(on_shared)]
    receives += [
        receive(block(draw(st.integers(min_value=1, max_value=k)))) for _ in range(others)
    ]
    assume(receives)
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        local, local_quanta, incoming = draw(st.sampled_from(receives))
        if draw(st.booleans()):
            at = draw(st.integers(min_value=0, max_value=len(incoming) - 1))
            incoming = incoming[:at] + [(incoming[at][0], draw(WEIGHTS))] + incoming[at + 1 :]
        receives.append((local, local_quanta, incoming))
    return k, locations, draw(st.permutations(receives))


def _rows(columns, positions):
    take = np.asarray(positions, dtype=np.intp)
    return {name: column[take] for name, column in columns.items()}


def _assert_same_outcome(got, alone):
    (tokens, quanta, columns, sizes), (tokens_alone, quanta_alone, columns_alone, sizes_alone) = (
        got, alone
    )
    assert tuple(tokens) == tuple(tokens_alone)
    assert quanta.tolist() == quanta_alone.tolist()
    assert tuple(sizes) == tuple(sizes_alone)
    for name, column in columns.items():
        assert column.tobytes() == columns_alone[name].tobytes()


def _kind(kind):
    return NOOP if kind == SWEPT else kind


def _check_minimum_weight(kind, local_quanta, incoming):
    """A pooled set with a one-quantum row never takes the fast path."""
    if 1 in local_quanta or 1 in [weight for _, weight in incoming]:
        assert kind != FAST


def _digest_round(scheme, k, locations, receives, seen):
    """The round as a kernel poses it, on ClassifierNodes through a
    ReceiveBatch, against ``ClassifierNode.receive_packed`` on a twin."""
    columns = scheme.pack_values(np.asarray(locations, dtype=float) * SPREAD)
    caches = MergeCache(), MergeCache()

    def node(cache, local, local_quanta):
        sink = RingBufferSink()
        node = ClassifierNode(0, locations[0], scheme, k, merge_cache=cache, validate=True,
                              event_sink=sink)
        node._packed = PackedState(np.asarray(local_quanta, dtype=np.int64), _rows(columns, local))
        return node, sink

    def payloads(incoming):
        parts = [incoming[at : at + 2] for at in range(0, len(incoming), 2)]
        return [
            PackedPayload(
                scheme,
                np.asarray([weight for _, weight in part], dtype=np.int64),
                _rows(columns, [position for position, _ in part]),
            )
            for part in parts
        ]

    batch = ReceiveBatch()
    nodes = [node(caches[0], local, quanta) for local, quanta, _ in receives]
    completions = [
        node.defer_receive(payloads(incoming), batch)
        for (node, _), (_, _, incoming) in zip(nodes, receives)
    ]
    batch.solve()
    answers = []
    for index in range(len(receives)):
        result, position, _ = batch.answer(index)
        kind, *outcome = result.outcome(position)
        answers.append((kind, outcome))
        if result.memo[position]:
            seen.add("memo")
    for complete in completions:
        complete()
    for (got, sink), (kind, outcome), (local, local_quanta, incoming) in zip(
        nodes, answers, receives
    ):
        twin, twin_sink = node(caches[1], local, local_quanta)
        twin.receive_packed(payloads(incoming))
        stats = twin.stats
        alone = FAST if stats.fastpath_hits else NOOP if stats.cache_noop_hits else SOLVED
        assert _kind(kind) == alone
        _check_minimum_weight(kind, local_quanta, incoming)
        state = twin._packed
        tokens, quanta, out_columns, sizes = outcome
        for packed in (got._packed, state):
            _assert_same_outcome(
                (packed.row_digests, packed.quanta, packed.columns, sizes),
                (tokens, quanta, out_columns, sizes),
            )
        # Tokens name their rows: every digest, a trailing NUL byte included.
        assert list(state.row_digests) == scheme.digest_rows(state.columns)
        sizes = outcome[3]
        assert [size for size in sizes if size > 1] == [
            event.items for event in twin_sink.of_kind("merge")
        ]
        assert len(sizes) == len(state.quanta)
        assert sum(sizes) == len(local) + len(incoming)
        assert got.stats == twin.stats
        assert [event.to_json_dict() for event in sink.events] == [
            event.to_json_dict() for event in twin_sink.events
        ]
        seen.add(kind)
        seen.update("nul" for token in state.row_digests if token[-1] == 0)
    assert caches[0].counters() == caches[1].counters()


def _id_round(scheme, k, locations, receives, seen):
    """The round as the arena poses it, over ``(n, k)`` arrays indexed by
    receiver and interned ids, its incoming rows read by reference from
    the location table, against each receive as a round of one with its
    incoming rows gathered."""
    columns = scheme.pack_values(np.asarray(locations, dtype=float) * SPREAD)
    interner = SummaryInterner(scheme, {name: column.shape[1:] for name, column in columns.items()})
    ids = interner.intern_rows(columns, len(locations))
    count = len(receives)
    receivers = 2 * np.arange(count) + 1  # every other arena row receives
    counts = np.zeros(2 * count + 1, dtype=np.int64)
    local_ids = np.zeros((2 * count + 1, k), dtype=np.int64)
    local_quanta = np.zeros((2 * count + 1, k), dtype=np.int64)
    local_columns = {
        name: np.zeros((2 * count + 1, k) + column.shape[1:]) for name, column in columns.items()
    }
    for row, (local, quanta, _) in zip(receivers.tolist(), receives):
        counts[row] = len(local)
        local_ids[row, : len(local)] = ids[list(local)]
        local_quanta[row, : len(local)] = quanta
        for name, column in local_columns.items():
            column[row, : len(local)] = columns[name][list(local)]
    flat = [position for _, _, incoming in receives for position, _ in incoming]
    in_quanta = np.asarray(
        [weight for _, _, incoming in receives for _, weight in incoming], dtype=np.int64
    )
    bounds = np.zeros(count + 1, dtype=np.intp)
    np.cumsum([len(incoming) for _, _, incoming in receives], out=bounds[1:])

    def intern(merged):
        return [interner.intern_row(merged, row) for row in range(len(next(iter(merged.values()))))]

    def solve(first, last, sources=None):
        """Receivers ``first:last`` as one round: their incoming rows
        gathered, or read by reference from the location table through
        ``sources``."""
        low, high = bounds[first], bounds[last]
        slab = ReceiveSlab(
            receivers[first:last], counts, local_ids, local_quanta, local_columns,
            bounds[first : last + 1] - low, ids[flat][low:high], in_quanta[low:high],
            _rows(columns, flat[low:high]) if sources is None else columns, sources,
        )
        return receive_round(
            scheme, k, QUANTIZATION, slab, MergeCache(), intern, interner.digest, True
        )

    result = solve(0, count, np.asarray(flat, dtype=np.intp))
    for r, (local, held, incoming) in enumerate(receives):
        alone = solve(r, r + 1)
        kind, *outcome = result.outcome(r)
        kind_alone, *outcome_alone = alone.outcome(0)
        assert _kind(kind) == _kind(kind_alone)
        _check_minimum_weight(kind, held, incoming)
        _assert_same_outcome(outcome, outcome_alone)
        tokens, _, out_columns, sizes = outcome
        assert list(tokens) == intern(out_columns)
        assert sum(sizes) == len(local) + len(incoming)
        seen.add(kind)
    if result.memo.any():
        seen.add("memo")


@pytest.mark.parametrize("tokens", ["digests", "ids"])
@pytest.mark.parametrize("make_scheme", ROUND_SCHEMES)
def test_round_equals_its_receives_posed_alone(make_scheme, tokens):
    scheme = make_scheme()
    nul = _nul_point(scheme)
    seen = set()

    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[
            HealthCheck.filter_too_much, HealthCheck.too_slow, HealthCheck.data_too_large
        ],
    )
    @given(rounds(nul))
    def check(round_):
        k, locations, receives = round_
        if tokens == "digests":
            _digest_round(scheme, k, locations, receives, seen)
        else:
            _id_round(scheme, k, locations, receives, seen)

    check()
    # Every layer answered some receive: the sweep needs EM-style
    # certificates, so it runs on GM only.
    expected = {FAST, NOOP, SOLVED} | ({SWEPT} if isinstance(scheme, GaussianMixtureScheme) else set())
    assert expected <= seen, seen
    assert {"memo", "nul"} - seen <= ({"nul"} if tokens == "ids" else set()), seen
