"""The arena engine: one gossip round as batched array operations.

A :class:`~repro.network.kernel.SimulationKernel` round is a Python loop:
each live node draws a peer, splits its collections into a message, the
transport queues it, and every receiver runs the node-level receive
pipeline.  :class:`ArenaEngine` executes the *same* round over a
:class:`~repro.mega.arena.NetworkArena`:

1. **Pairing** — one vectorised draw via
   :meth:`~repro.network.simulator.NeighborSelector.choose_batch`
   (stream-equivalent to the kernel's per-node ``choose`` calls; scalar
   fallback otherwise).
2. **Split** — ``sent = quanta // 2`` over the whole ``(n, k)`` matrix;
   the payload rows, in row-major order, are exactly the concatenation
   of every node's ``make_message`` payload, each named by its sender's
   cell: a split halves weights only, so no summary column is copied.
3. **Routing** — :func:`route` sorts one unique integer key per row,
   destination then arrival position: the in-memory transport's
   delivery order (destinations ascending, and within a destination
   payloads in ascending sender order).
4. **Receive** — :class:`ReceiveSolver` hands the round to
   :func:`repro.core.receive.receive_round`, the driver the per-node
   kernel's rounds run too, with interned ids as row tokens: a round
   memo (receivers that pose one problem share its outcome), the same
   fast path, certified no-op and full solve, and one partition call and
   one merge call for the round's distinct problems left.

Byte-parity with the per-node kernel (same seeds, same schemes, same
classifications down to collection order) is the contract; the scalar
draws, delivery order, tie-breaks and float accumulation orders are all
mirrored, and ``tests/mega/`` pins them.

Only the paper's default ``push`` gossip variant is supported: pull and
push-pull interleave per-node splits with deliveries inside one round,
which defeats whole-network batching.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np

from repro.core.fingerprint import MergeCache, merge_cache_default
from repro.core.receive import FAST, NOOP, SOLVED, SWEPT, ReceiveSlab, ragged_slots, receive_round
from repro.core.weights import Quantization
from repro.mega.arena import NetworkArena
from repro.network.simulator import NeighborSelector, RandomSelector
from repro.network.topology import make_topology, neighbors_map, validate_topology
from repro.obs.profiling import current_registry

__all__ = ["ArenaEngine", "ArenaStats", "GossipPairing", "ReceiveSolver", "check_route", "route"]

#: Bits of a routing key below its destination: the row's arrival position.
ROUTE_SHIFT = 32


def check_route(nodes: int, rows: int) -> None:
    """Refuse a round whose routing keys, destination above arrival position, would wrap."""
    if nodes > 1 << 63 - ROUTE_SHIFT or rows > 1 << ROUTE_SHIFT:
        raise ValueError(
            f"cannot route {rows} rows to {nodes} nodes: the routing key holds at most "
            "2**31 nodes and 2**32 rows"
        )


def route(dest: np.ndarray, n: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(order, receivers, bounds)``: receiver ``receivers[p]`` (ascending) of
    ``range(n)`` gets rows ``order[bounds[p]:bounds[p+1]]`` of ``dest``, in
    arrival order.  The keys are unique, so their one sort is the stable
    sort by destination, and their low bits are the order."""
    check_route(n, len(dest))
    keys = np.left_shift(dest, ROUTE_SHIFT, dtype=np.int64) | np.arange(len(dest))
    held = np.bincount(dest, minlength=n)
    receivers = np.flatnonzero(held)
    order = np.sort(keys) & (1 << ROUTE_SHIFT) - 1
    return order, receivers, np.append(0, np.cumsum(held[receivers]))


class GossipPairing:
    """The round pairing draw, separable from any one arena.

    Owns the seeded generator and the topology's neighbour structure and
    yields one peers vector per round.  Shard workers each hold a full
    replica (same seed, same selector) and draw identical vectors — that
    replication *is* the deterministic cross-shard exchange: no pairing
    coordination crosses process boundaries, only payload rows do.
    """

    def __init__(
        self,
        n: int,
        topology: Union[str, nx.Graph],
        selector: NeighborSelector,
        seed: int,
    ) -> None:
        if n < 2:
            raise ValueError("arena gossip needs at least 2 nodes")
        self.n = n
        self.rng = np.random.default_rng(seed)
        self.selector = selector
        self._complete = False
        self._neighbor_matrix: Optional[np.ndarray] = None
        self._degrees: Optional[np.ndarray] = None
        self._uniform_degree: Optional[int] = None
        if isinstance(topology, str):
            if topology == "complete":
                # The kernel's neighbour list for node i on the complete
                # graph is sorted(range(n) - {i}), so a drawn index maps
                # to peer = index + (index >= i) — no adjacency storage.
                self._complete = True
                self._uniform_degree = n - 1
                return
            graph = make_topology(topology, n, seed)
        else:
            graph = validate_topology(topology)
        if graph.number_of_nodes() != n:
            raise ValueError(f"topology has {graph.number_of_nodes()} nodes, arena has {n}")
        neighbors = neighbors_map(graph)
        degrees = np.asarray([len(neighbors[i]) for i in range(n)], dtype=np.int64)
        width = int(degrees.max())
        matrix = np.full((n, width), -1, dtype=np.int64)
        for node in range(n):
            matrix[node, : degrees[node]] = neighbors[node]
        self._neighbor_matrix = matrix
        self._degrees = degrees
        if int(degrees.min()) == width:
            self._uniform_degree = width

    def _neighbors_of(self, node: int) -> List[int]:
        if self._complete:
            return list(range(node)) + list(range(node + 1, self.n))
        assert self._neighbor_matrix is not None and self._degrees is not None
        degree = int(self._degrees[node])
        return [int(peer) for peer in self._neighbor_matrix[node, :degree]]

    def draw(self) -> np.ndarray:
        """The next round's peers vector (``peers[i]`` = node ``i``'s target)."""
        n = self.n
        if self._uniform_degree is not None:
            index = self.selector.choose_batch(n, self._uniform_degree, self.rng)
            if index is not None:
                index = np.asarray(index, dtype=np.int64)
                if self._complete:
                    return index + (index >= np.arange(n, dtype=np.int64))
                assert self._neighbor_matrix is not None
                return self._neighbor_matrix[np.arange(n), index]
        # Scalar fallback: the kernel's per-node loop, verbatim — same
        # selector calls against the same stream, in ascending node order.
        peers = np.empty(n, dtype=np.int64)
        choose = self.selector.choose
        rng = self.rng
        for node in range(n):
            peers[node] = choose(node, self._neighbors_of(node), rng)
        return peers


@dataclass
class ArenaStats:
    """Cumulative instrumentation for one arena run (observational only).

    ``memo_lru_hits`` always reads 0: no receive outcome outlives its
    round.  The field stays because the end-to-end benchmark's arena
    workloads read it.
    """

    rounds: int = 0
    messages: int = 0
    receivers: int = 0
    fastpath_hits: int = 0
    memo_round_hits: int = 0
    memo_lru_hits: int = 0
    noop_hits: int = 0
    noop_sweep_hits: int = 0
    full_solves: int = 0
    merges: int = 0

    def as_dict(self) -> Dict[str, int]:
        return asdict(self)


class ReceiveSolver:
    """The receive step of :mod:`repro.core.receive` over a payload slab.

    Shared by :class:`ArenaEngine` and the shard workers: both hand it a
    round's payload rows (ids and quanta, their summaries by reference
    into a column table); it routes them and updates the arena in place.
    Rows are named by interned id, the core's row token here.  The core's
    round driver (:func:`~repro.core.receive.receive_round`) answers the
    receives; the solver's own work is the routing, interning, stats and
    the scatter.
    """

    def __init__(
        self,
        arena: NetworkArena,
        merge_cache: Optional[MergeCache] = None,
        stats: Optional[ArenaStats] = None,
    ) -> None:
        self.arena = arena
        self.merge_cache = merge_cache if arena.scheme.supports_fingerprints else None
        self.stats = stats if stats is not None else ArenaStats()

    # ------------------------------------------------------------------
    # Batch entry points
    # ------------------------------------------------------------------
    def deliver(
        self,
        dest: np.ndarray,
        ids: np.ndarray,
        quanta: np.ndarray,
        columns: Dict[str, np.ndarray],
        sources: Optional[np.ndarray] = None,
    ) -> None:
        """Route one round's payload rows to their receivers and apply them.

        ``dest`` holds each row's arena-local receiver; rows come in
        ascending-sender order, which :func:`route` keeps within each
        receiver: the in-memory transport's batch order that byte parity
        rests on.  Row ``i``'s summary is row ``sources[i]`` of
        ``columns`` (row ``i`` without ``sources``), read by reference.
        """
        if len(dest):
            order, dests, bounds = route(dest, self.arena.n)
            sources = order if sources is None else sources[order]
            self.receive_slab(dests, bounds, ids[order], quanta[order], columns, sources)

    def receive_slab(
        self,
        dests: np.ndarray,
        bounds: np.ndarray,
        ids: np.ndarray,
        quanta: np.ndarray,
        columns: Dict[str, np.ndarray],
        sources: np.ndarray,
    ) -> None:
        """Apply one round's receives.

        ``dests`` lists the receiving (arena-local) node indices,
        ascending; payload rows ``bounds[p]:bounds[p+1]`` of ``ids`` /
        ``quanta`` belong to ``dests[p]``, in ascending-sender order — the
        in-memory transport's batch order.  Row ``i``'s summary is row
        ``sources[i]`` of ``columns``.

        The core's round driver answers every receive over the arena's
        own arrays, interning new summaries in its queue order (a
        one-at-a-time loop's, so ids match it); then the scatter, the
        only step that writes the arena, so a round that raises leaves
        every receiver's rows as they were.  Receivers are distinct, so
        no receiver reads another's new rows.
        """
        arena = self.arena
        stats = self.stats
        a_counts = arena.counts
        a_ids = arena.ids
        a_quanta = arena.quanta
        a_columns = arena.columns
        intern_row = arena.interner.intern_row

        def intern(merged: Dict[str, np.ndarray]) -> List[int]:
            return [intern_row(merged, row) for row in range(len(next(iter(merged.values()))))]

        # merge_groups_columns is contractually byte-identical to packing
        # merge_set's summary per group; the summary object behind each
        # new id materialises lazily in the interner when a certificate
        # needs it.
        result = receive_round(
            arena.scheme, arena.k, arena.quantization,
            ReceiveSlab(
                dests, a_counts, a_ids, a_quanta, a_columns, bounds, ids, quanta, columns, sources
            ),
            self.merge_cache, intern, arena.interner.digest,
        )
        kinds, fresh, block = result.kinds, ~result.memo, result.block
        swept = int((kinds == SWEPT).sum())
        stats.receivers += len(dests)
        stats.memo_round_hits += len(dests) - int(fresh.sum())
        stats.fastpath_hits += int((fresh & (kinds == FAST)).sum())
        stats.noop_hits += swept + int((fresh & (kinds == NOOP)).sum())
        stats.noop_sweep_hits += swept
        stats.full_solves += 0 if block is None else len(block.bounds) - 1
        k = arena.k
        for accepted, tokens, out_quanta, sizes, out_columns in result.swept:
            out = dests[accepted]
            stats.merges += int((sizes > 1).sum())
            a_counts[out] = k
            a_ids[out, :k] = tokens
            a_quanta[out, :k] = out_quanta
            a_quanta[out, k:] = 0
            for name, column in a_columns.items():
                column[out, :k] = out_columns[name][None]
        for position in np.flatnonzero((kinds == FAST) | (kinds == NOOP)).tolist():
            outcome = result.rows[result.at[position]]
            receiver = int(dests[position])
            stats.merges += len(outcome.group_sizes) - outcome.group_sizes.count(1)
            width = len(outcome.quanta)
            a_counts[receiver] = width
            a_ids[receiver, :width] = outcome.tokens
            a_quanta[receiver, :width] = outcome.quanta
            a_quanta[receiver, width:] = 0
            for name, column in a_columns.items():
                column[receiver, :width] = outcome.columns[name]
        if block is not None:
            # Every solved receiver at once: its problem's output rows.
            solved = np.flatnonzero(kinds == SOLVED)
            receivers, problems = dests[solved], result.at[solved]
            cuts = np.asarray(block.cuts)
            widths = cuts[problems + 1] - cuts[problems]
            owner, slot = ragged_slots(widths)
            rows = cuts[problems][owner] + slot
            at = receivers[owner]
            stats.merges += int((block.sizes[rows] > 1).sum())
            a_counts[receivers] = widths
            a_ids[at, slot] = block.tokens[rows]
            a_quanta[receivers] = 0
            a_quanta[at, slot] = block.quanta[rows]
            for name, column in a_columns.items():
                column[at, slot] = block.columns[name][rows]


class ArenaEngine:
    """Single-process whole-network gossip over one arena.

    Parameters
    ----------
    values:
        One input value per node (any sequence the scheme's
        ``pack_values`` accepts).
    scheme, k, quantization:
        As for :class:`~repro.core.node.ClassifierNode`; the scheme must
        declare ``supports_packed``.
    seed:
        Seeds the pairing RNG — the same ``default_rng(seed)`` stream the
        per-node kernel consumes, which is what makes byte-parity (and
        the deterministic cross-shard exchange) possible.
    topology:
        ``"complete"`` (the default; never materialised as a graph, so
        million-node arenas stay O(n)), another
        :data:`repro.network.topology.TOPOLOGIES` name (random families
        drawn from ``seed``) or a ``networkx`` graph, one node per value.
    selector:
        Pairing strategy; vectorised when it implements ``choose_batch``
        and the topology is degree-uniform, scalar fallback otherwise
        (O(n) Python calls per round — fine for parity runs, not for
        mega-scale).
    use_cache:
        Enables the certified no-op layer (and its shared
        :class:`~repro.core.fingerprint.MergeCache`); ``None`` defers to
        ``REPRO_MERGE_CACHE``.  The round memo stays on regardless:
        receivers of one round that pose one problem share its outcome,
        a byte-identical replay by key construction.
    """

    def __init__(
        self,
        values: Sequence[Any],
        scheme: Any,
        k: int,
        *,
        seed: int = 0,
        topology: Union[str, nx.Graph] = "complete",
        quantization: Optional[Quantization] = None,
        selector: Optional[NeighborSelector] = None,
        variant: str = "push",
        use_cache: Optional[bool] = None,
    ) -> None:
        if variant != "push":
            raise ValueError(
                f"the arena engine implements the paper's push gossip only, got {variant!r}: "
                "pull/push-pull interleave splits with deliveries inside a round, "
                "which defeats whole-network batching — use the per-node kernel"
            )
        self.arena = NetworkArena.from_values(values, scheme, k, quantization)
        n = self.arena.n
        if n < 2:
            raise ValueError("arena gossip needs at least 2 nodes")
        self.selector = selector if selector is not None else RandomSelector()
        self.pairing = GossipPairing(n, topology, self.selector, seed)
        self.rng = self.pairing.rng
        if use_cache is None:
            use_cache = merge_cache_default()
        self.merge_cache: Optional[MergeCache] = (
            MergeCache() if (use_cache and scheme.supports_fingerprints) else None
        )
        self.stats = ArenaStats()
        self.solver = ReceiveSolver(self.arena, merge_cache=self.merge_cache, stats=self.stats)
        self.round_index = 0
        self.quiescent_at: Optional[int] = None
        self._quiescent_streak = 0
        self._gauge_prev = (0, 0, 0)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_round(self) -> int:
        """Execute one synchronous round; returns the message count.

        A round whose receives raise leaves the arena as it was before
        the round: the split's halved quanta are a new array, which is
        dropped for the old one, and the solver writes no row before its
        batch has solved.  The pairing draw is not taken back.
        """
        arena = self.arena
        peers = self.pairing.draw()
        held = arena.quanta
        messages, sender, cells, quanta, ids = arena.split()
        try:
            self.solver.deliver(peers[sender], ids, quanta, arena.cell_columns(), cells)
        except BaseException:
            arena.quanta = held
            raise
        self.round_index += 1
        self.stats.rounds += 1
        self.stats.messages += messages
        self._publish_gauges(messages)
        return messages

    def run(
        self,
        rounds: int,
        stop_on_quiescence: bool = False,
        quiescence_patience: int = 3,
    ) -> int:
        """Run up to ``rounds`` rounds; returns the number executed.

        Quiescence mirrors the kernel's probe: stop once every node has
        held the same summary-id multiset for ``quiescence_patience``
        consecutive rounds (between synchronous rounds nothing is in
        flight, so the id test is the whole condition).
        """
        executed = 0
        for _ in range(rounds):
            self.run_round()
            executed += 1
            if stop_on_quiescence:
                if self.arena.structurally_converged():
                    self._quiescent_streak += 1
                    if self._quiescent_streak >= quiescence_patience:
                        if self.quiescent_at is None:
                            self.quiescent_at = executed
                        break
                else:
                    self._quiescent_streak = 0
        return executed

    @property
    def quiescent(self) -> bool:
        return self.quiescent_at is not None

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def classifications(self) -> List[List[Any]]:
        return self.arena.classifications()

    def state_digests(self, node: int) -> Tuple[Tuple[bytes, int], ...]:
        return self.arena.state_digests(node)

    def _publish_gauges(self, messages: int) -> None:
        stats = self.stats
        hits = stats.memo_round_hits + stats.noop_hits
        previous_receivers, previous_hits, previous_merges = self._gauge_prev
        delta_receivers = stats.receivers - previous_receivers
        delta_hits = hits - previous_hits
        delta_merges = stats.merges - previous_merges
        self._gauge_prev = (stats.receivers, hits, stats.merges)
        registry = current_registry()
        if registry is None:
            return
        registry.inc("mega.rounds")
        registry.inc("mega.messages", messages)
        registry.set_gauge("mega.receivers_round", delta_receivers)
        registry.set_gauge("mega.nodes_merged_round", delta_merges)
        registry.set_gauge(
            "mega.cache_hit_rate",
            delta_hits / delta_receivers if delta_receivers else 1.0,
        )
