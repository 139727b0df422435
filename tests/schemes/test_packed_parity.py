"""The node's packed pipeline vs the object-level oracle: byte-identical classifications.

Every :class:`~repro.core.node.ClassifierNode` receives through
``partition_packed`` / ``merge_groups_columns`` on packed rows
(``docs/performance.md``).  That is a pure representation change: it must
produce *bit-for-bit* the same classifications as the test-side
Algorithm 1 oracle (``tests/oracle.py``), which calls the object-level
``partition`` / ``merge_set``, because both feed identical float values
through the same shared numeric kernels and replicate the same
accumulation order.  These tests pin that contract per scheme, pin the
``identity_below_k`` fast-path declaration against the scheme's actual
``partition``, and pin the default packed entry points that let a scheme
implementing only the object contract run on any node.  A block of many
receive problems, partitioned and merged in one call each, must give
every problem the groups (member order included) and rows it gets alone.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracle import OracleNode, oracle_nodes, state_bytes, summary_bytes

from repro.core.collection import Collection
from repro.core.node import ClassifierNode
from repro.core.packed import PackedState, flatten_groups, split_groups
from repro.core.receive import solve_block
from repro.core.scheme import SummaryScheme, validate_partition
from repro.core.weights import Quantization
from repro.mega import NetworkArena
from repro.network.topology import ring
from repro.protocols.classification import build_classification_network
from repro.schemes import greedy_closest_pair_partition
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

QUANT = Quantization(16)


def _make_scheme(name: str):
    if name == "centroid":
        return CentroidScheme()
    if name == "gm":
        return GaussianMixtureScheme(seed=0)
    if name == "diagonal":
        return DiagonalGaussianScheme(seed=0)
    if name == "histogram":
        return HistogramScheme(low=-10.0, high=10.0, bins=16)
    raise AssertionError(name)


def _make_value(name: str, rng: np.random.Generator):
    if name == "histogram":
        return float(rng.normal(0.0, 3.0))
    return rng.normal(0.0, 3.0, size=2)


SCHEME_NAMES = ["centroid", "gm", "diagonal", "histogram"]


def _ping_pong(name: str, node_class, rounds: int = 8, k: int = 3):
    """A deterministic two-node gossip; returns per-round classifications."""
    rng = np.random.default_rng(42)
    scheme = _make_scheme(name)
    nodes = [
        node_class(
            i,
            _make_value(name, rng),
            scheme,
            k=k,
            quantization=QUANT,
            validate=True,
        )
        for i in range(2)
    ]
    history = []
    for _ in range(rounds):
        payload = nodes[0].make_message()
        if payload:
            nodes[1].receive(payload)
        payload = nodes[1].make_message()
        if payload:
            nodes[0].receive(payload)
        history.append([state_bytes(node) for node in nodes])
    return history, nodes


class TestPackedObjectParity:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_ping_pong_classifications_byte_identical(self, name):
        packed_history, _ = _ping_pong(name, ClassifierNode)
        object_history, _ = _ping_pong(name, OracleNode)
        assert packed_history == object_history

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_stats_counters_identical(self, name):
        _, packed_nodes = _ping_pong(name, ClassifierNode)
        _, object_nodes = _ping_pong(name, OracleNode)
        for packed_node, object_node in zip(packed_nodes, object_nodes):
            packed_stats = packed_node.stats.as_dict()
            object_stats = object_node.stats.as_dict()
            # The oracle partitions every receipt; the node skips the ones
            # its fast path proves are the identity.
            packed_stats["partition_calls"] += packed_stats.pop("fastpath_hits")
            packed_stats.pop("fastpath_misses")
            object_stats.pop("fastpath_hits")
            object_stats.pop("fastpath_misses")
            assert packed_stats == object_stats

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_packed_state_mirrors_collections(self, name):
        """After arbitrary receive/split traffic the node's packed rows
        must equal a fresh packing of the oracle's collection list."""
        _, nodes = _ping_pong(name, ClassifierNode)
        _, oracles = _ping_pong(name, OracleNode)
        for node, oracle in zip(nodes, oracles):
            fresh = node.scheme.pack_summaries([c.summary for c in oracle.collections])
            assert node._packed.quanta.tolist() == [c.quanta for c in oracle.collections]
            assert set(fresh) == set(node._packed.columns)
            for key, column in fresh.items():
                assert column.tobytes() == node._packed.columns[key].tobytes()


class TestIdentityBelowK:
    """The fast-path declaration must match the scheme's real partition."""

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_partition_is_identity_without_minimums(self, name, size):
        rng = np.random.default_rng(size)
        scheme = _make_scheme(name)
        assert scheme.identity_below_k
        collections = [
            Collection(
                summary=scheme.val_to_summary(_make_value(name, rng)),
                quanta=int(rng.integers(2, QUANT.unit + 1)),
            )
            for _ in range(size)
        ]
        groups = scheme.partition(collections, k=size, quantization=QUANT)
        assert groups == [[index] for index in range(size)]

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_fastpath_result_passes_validation(self, name):
        rng = np.random.default_rng(7)
        scheme = _make_scheme(name)
        node = ClassifierNode(
            0,
            _make_value(name, rng),
            scheme,
            k=4,
            quantization=QUANT,
            validate=True,  # validate_partition runs on the identity groups
        )
        incoming = [
            Collection(summary=scheme.val_to_summary(_make_value(name, rng)), quanta=8)
            for _ in range(2)
        ]
        node.receive(incoming)
        assert node.stats.fastpath_hits == 1
        assert node.stats.partition_calls == 0
        # The pooled set is adopted unchanged, in index order.
        assert len(node.classification) == 3
        assert [row[1] for row in state_bytes(node)[1:]] == [
            summary_bytes(collection.summary) for collection in incoming
        ]

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_minimum_weight_forces_real_partition(self, name):
        """With a lone one-quantum collection the identity partition could
        violate conformance rule 2, so the fast path must decline and the
        scheme's own partition must still return a valid grouping."""
        rng = np.random.default_rng(11)
        scheme = _make_scheme(name)
        node = ClassifierNode(
            0,
            _make_value(name, rng),
            scheme,
            k=4,
            quantization=QUANT,
            validate=True,
        )
        node.receive(
            [Collection(summary=scheme.val_to_summary(_make_value(name, rng)), quanta=1)]
        )
        assert node.stats.fastpath_hits == 0
        assert node.stats.partition_calls == 1

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_partition_with_minimums_stays_conformant(self, name):
        rng = np.random.default_rng(13)
        scheme = _make_scheme(name)
        collections = [
            Collection(
                summary=scheme.val_to_summary(_make_value(name, rng)),
                quanta=1 if index % 2 else QUANT.unit,
            )
            for index in range(4)
        ]
        groups = scheme.partition(collections, k=4, quantization=QUANT)
        validate_partition(groups, collections, 4, QUANT)


def _mixed_groups(rng: np.random.Generator, n: int, pinned: list[int]) -> list[list[int]]:
    """A random partition of ``range(n)``: ``pinned`` is one group, and the
    rest are cut into a singleton and then groups of 1 to 4 members."""
    rest = [index for index in rng.permutation(n).tolist() if index not in pinned]
    groups = [list(pinned), rest[:1]]
    rest = rest[1:]
    while rest:
        size = int(rng.integers(1, 5))
        groups.append(rest[:size])
        rest = rest[size:]
    order = rng.permutation(len(groups)).tolist()
    return [groups[index] for index in order]


class TestBatchedMerge:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_matches_contract_default(self, name):
        """Every shipped scheme's ``merge_groups_columns`` (the GM and centroid
        kernels, the diagonal scheme's projected override, the histogram's
        inherited centroid merge) equals the contract's default, ``merge_set``
        per group over the unpacked rows, byte for byte."""
        scheme = _make_scheme(name)
        for seed in range(20):
            rng = np.random.default_rng(seed)
            n = 12
            values = [_make_value(name, rng) for _ in range(4 * n)]
            quanta = rng.integers(2, 1 << 12, size=4 * n, dtype=np.int64)
            singles = PackedState(quanta=quanta, columns=scheme.pack_values(values))
            # One merge round first: each row summarises four values, so the
            # Gaussian schemes' covariances are not zero and histogram rows
            # share bins.
            merged = scheme.merge_groups_columns(
                singles, *flatten_groups([[list(range(4 * i, 4 * i + 4)) for i in range(n)]], [0])
            )
            # Row n copies row 0, so one group holds byte-identical rows.
            packed = PackedState(
                quanta=np.concatenate(
                    [quanta.reshape(n, 4).sum(axis=1), rng.integers(2, 1 << 12, size=1)]
                ),
                columns={
                    key: np.concatenate([column, column[:1]]) for key, column in merged.items()
                },
            )
            groups = flatten_groups([_mixed_groups(rng, n + 1, pinned=[0, n])], [0])
            batched = scheme.merge_groups_columns(packed, *groups)
            reference = SummaryScheme.merge_groups_columns(scheme, packed, *groups)
            assert set(batched) == set(reference)
            for key, rows in reference.items():
                assert batched[key].shape == rows.shape, (seed, key)
                assert batched[key].tobytes() == rows.tobytes(), (seed, key)


class BoundingBoxScheme(SummaryScheme):
    """Axis-aligned boxes: the object-only scheme of ``examples/custom_scheme.py``."""

    def val_to_summary(self, value):
        point = np.atleast_1d(np.asarray(value, dtype=float))
        return (point.copy(), point.copy())

    def merge_set(self, items):
        lowers = np.stack([low for (low, _), _ in items])
        uppers = np.stack([high for (_, high), _ in items])
        return (lowers.min(axis=0), uppers.max(axis=0))

    def distance(self, a, b):
        return float(np.linalg.norm(a[0] - b[0]) + np.linalg.norm(a[1] - b[1]))

    def partition(self, collections, k, quantization):
        centers = np.stack([(c.summary[0] + c.summary[1]) / 2.0 for c in collections])
        weights = np.array([float(c.quanta) for c in collections])
        quanta = [c.quanta for c in collections]
        return greedy_closest_pair_partition(centers, weights, quanta, k, quantization)


class TestPackedDefault:
    """The default packed entry points run schemes that implement only the
    object contract (no numeric columns, no ``supports_packed``)."""

    def test_unsupported_scheme_falls_back(self):
        """Without ``supports_packed`` a scheme still runs on a node, on its
        own numeric columns here; only the arena engines refuse it."""

        class ObjectOnly(CentroidScheme):
            supports_packed = False

        node = ClassifierNode(0, np.zeros(2), ObjectOnly(), k=2, quantization=QUANT)
        node.receive([Collection(summary=np.ones(2), quanta=8)])
        assert len(node.classification) == 2
        with pytest.raises(ValueError, match="packed"):
            NetworkArena.from_values(np.zeros((4, 2)), ObjectOnly(), k=2)

    def test_default_packing_is_one_object_column(self):
        scheme = BoundingBoxScheme()
        summaries = [scheme.val_to_summary(np.full(2, float(i))) for i in range(3)]
        columns = scheme.pack_summaries(summaries)
        assert list(columns) == ["summary"]
        assert columns["summary"].shape == (3,)
        assert all(scheme.unpack_summary(columns, i) is summaries[i] for i in range(3))

    @pytest.mark.parametrize("engine", ["rounds", "async"])
    def test_object_only_scheme_matches_oracle(self, engine):
        values = np.random.default_rng(33).normal(size=(12, 2))
        values[6:] += 12.0

        def run():
            kernel, nodes = build_classification_network(
                values, BoundingBoxScheme(), k=2, graph=ring(12), seed=33,
                engine=engine, validate=True,
            )
            kernel.run(10)
            return [state_bytes(node) for node in nodes]

        packed = run()
        with oracle_nodes():
            plain = run()
        assert packed == plain
        assert any(len(state) == 2 for state in packed)

    def test_arena_rejects_object_only_scheme(self):
        with pytest.raises(ValueError, match="arena engine requires it"):
            NetworkArena.from_values(np.zeros((4, 2)), BoundingBoxScheme(), k=2)


BLOCK_SCHEMES = SCHEME_NAMES + ["box"]


def _block_scheme(name: str):
    return BoundingBoxScheme() if name == "box" else _make_scheme(name)


@st.composite
def receive_blocks(draw, dimension: int):
    """``k`` and a block of 2-12 pooled sets of mixed sizes (some at or
    below ``k``): grid values, and quanta where a one-quantum row is
    common, some problems holding exactly one (conformance rule 2)."""
    k = draw(st.integers(min_value=1, max_value=4))
    problems = []
    for _ in range(draw(st.integers(min_value=2, max_value=12))):
        size = draw(st.integers(min_value=1, max_value=k + 4))
        grid = st.tuples(*[st.integers(min_value=-2, max_value=2)] * dimension)
        points = draw(st.lists(grid, min_size=size, max_size=size))
        spread = draw(st.sampled_from([0.25, 1.0, 4.0]))
        quanta = draw(
            st.lists(
                st.one_of(st.sampled_from([1, 2, 3, 8]), st.integers(2, 2**41)),
                min_size=size,
                max_size=size,
            )
        )
        if draw(st.booleans()):  # exactly one lone one-quantum row
            lone = draw(st.integers(min_value=0, max_value=size - 1))
            quanta = [1 if row == lone else max(2, weight) for row, weight in enumerate(quanta)]
        problems.append((np.asarray(points, dtype=float) * spread, quanta))
    return k, problems


def _column_bytes(column: np.ndarray) -> list:
    """Per-row bytes of a packed column; an object column holds box tuples."""
    if column.dtype == object:
        return [b"".join(np.asarray(part).tobytes() for part in row) for row in column]
    return [row.tobytes() for row in column]


class TestBlockSolve:
    """A block's flat grouping and output rows, problem by problem, against
    each problem solved alone (the scalar ``partition_packed`` path)."""

    @pytest.mark.parametrize("name", BLOCK_SCHEMES)
    def test_each_problem_solves_as_alone(self, name):
        scheme = _block_scheme(name)
        dimension = 1 if name == "histogram" else 2
        named = scheme.supports_fingerprints

        def rows_of(values, quanta):
            columns = (
                scheme.pack_values(values[:, 0])
                if name == "histogram"
                else scheme.pack_summaries([scheme.val_to_summary(v) for v in values])
            )
            packed = PackedState(quanta=np.asarray(quanta, dtype=np.int64), columns=columns)
            if named:
                packed.row_digests = tuple(scheme.digest_rows(columns))
            return packed

        def solve(pooled, bounds, k):
            tokens = np.array(pooled.row_digests, dtype=object) if named else None
            return solve_block(scheme, k, QUANT, pooled, bounds, tokens, scheme.digest_rows)

        @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(receive_blocks(dimension))
        def check(block):
            k, problems = block
            parts = [rows_of(values, quanta) for values, quanta in problems]
            bounds = np.cumsum([0] + [len(part) for part in parts]).tolist()
            pooled = PackedState.concat_many(parts)
            members, sizes = scheme.partition_packed_batch(pooled, bounds, k, QUANT)
            assert split_groups(members, sizes, bounds) == [
                scheme.partition_packed(part, k, QUANT) for part in parts
            ]
            solved = solve(pooled, bounds, k)
            for p, part in enumerate(parts):
                tokens, quanta, columns, group_sizes = solved.problem(p)
                alone = solve(part, [0, len(part)], k).problem(0)
                assert tokens == alone[0]
                assert quanta.tolist() == alone[1].tolist()
                assert group_sizes == alone[3]
                for key, column in columns.items():
                    assert _column_bytes(column) == _column_bytes(alone[2][key])

        check()

    def test_repair_appends_the_lone_row(self):
        """Rule 2 folds a lone one-quantum row into its nearest group, last."""
        scheme = GaussianMixtureScheme(seed=0)
        values = np.array([[0.1, 0.0], [0.0, 0.0], [9.0, 9.0]])
        packed = PackedState(quanta=np.array([1, 5, 7]), columns=scheme.pack_values(values))
        assert scheme.partition_packed(packed, 3, QUANT) == [[1, 0], [2]]
        pooled = PackedState.concat_many([packed, packed])
        members, sizes = scheme.partition_packed_batch(pooled, [0, 3, 6], 3, QUANT)
        assert (members.tolist(), sizes.tolist()) == ([1, 0, 2, 4, 3, 5], [2, 1, 2, 1])


@pytest.mark.parametrize("name", SCHEME_NAMES)
def test_digest_rows_equals_digest_row_per_row(name):
    """``digest_rows`` is ``digest_row`` of every row, on merged rows, on
    non-contiguous column views and on zero rows."""
    scheme = _make_scheme(name)
    rng = np.random.default_rng(11)
    values = [_make_value(name, rng) for _ in range(8)]
    singles = PackedState(
        quanta=rng.integers(2, 1 << 12, size=8, dtype=np.int64), columns=scheme.pack_values(values)
    )
    merged = scheme.merge_groups_columns(
        singles, *flatten_groups([[[0, 1], [2, 3, 4], [5], [6, 7]]], [0])
    )
    for columns in (
        merged,
        {key: column[::2] for key, column in merged.items()},
        {key: column[:0] for key, column in merged.items()},
    ):
        count = len(next(iter(columns.values())))
        assert scheme.digest_rows(columns) == [
            scheme.digest_row(columns, index) for index in range(count)
        ]
