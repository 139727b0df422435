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
   the payload rows, in ``np.nonzero`` row-major order, are exactly the
   concatenation of every node's ``make_message`` payload.
3. **Routing** — a stable argsort by destination reproduces the
   in-memory transport's delivery order (destinations ascending, and
   within a destination payloads in ascending sender order).
4. **Receive** — :class:`ReceiveSolver` runs the receive step per
   *distinct problem* of a round, not per receiver: a receive is keyed
   by its local and incoming ``(summary id, quanta)`` bytes, so
   receivers of one round that pose one problem share its outcome.
   Distinct problems are decided by :mod:`repro.core.receive`,
   the code :meth:`repro.core.node.ClassifierNode.receive_packed` runs,
   with interned ids as row tokens: the same fast path, certified no-op
   and full solve; the problems left for the full solve are solved
   together, in one partition call and one merge call per round.

Byte-parity with the per-node kernel (same seeds, same schemes, same
classifications down to collection order) is the contract; the scalar
draws, delivery order, tie-breaks and float accumulation orders are all
mirrored, and ``tests/mega/`` pins them.

Only the paper's default ``push`` gossip variant is supported: pull and
push-pull interleave per-node splits with deliveries inside one round,
which defeats whole-network batching.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import networkx as nx
import numpy as np

from repro.core.fingerprint import MergeCache, merge_cache_default
from repro.core.packed import PackedState
from repro.core.receive import (
    SWEEP_MIN_BLOCK,
    ReceiveRows,
    SolvedBlock,
    certified_noop,
    solve_block,
    sweep_noops,
    takes_fast_path,
)
from repro.core.weights import Quantization
from repro.mega.arena import NetworkArena
from repro.network.simulator import NeighborSelector, RandomSelector
from repro.network.topology import make_topology, neighbors_map, validate_topology
from repro.obs.profiling import current_registry

__all__ = ["ArenaEngine", "ArenaStats", "GossipPairing", "ReceiveSolver"]


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
        return {
            "rounds": self.rounds,
            "messages": self.messages,
            "receivers": self.receivers,
            "fastpath_hits": self.fastpath_hits,
            "memo_round_hits": self.memo_round_hits,
            "memo_lru_hits": self.memo_lru_hits,
            "noop_hits": self.noop_hits,
            "noop_sweep_hits": self.noop_sweep_hits,
            "full_solves": self.full_solves,
            "merges": self.merges,
        }


#: One group of swept no-op receives, for the scatter pass: the receivers,
#: their ordered tokens and quanta rows, and the block's reordered columns.
_Swept = Tuple[np.ndarray, Tuple[Any, ...], np.ndarray, Dict[str, np.ndarray]]


def _ragged(lengths: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten ragged ranges: each element's entry and its index in ``range(lengths[entry])``."""
    owner = np.repeat(np.arange(len(lengths)), lengths)
    slot = np.arange(len(owner)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return owner, slot


class ReceiveSolver:
    """The receive step of :mod:`repro.core.receive`, deduplicated over a payload slab.

    Shared by :class:`ArenaEngine` and the shard workers: both hand it
    per-destination payload slabs (ids/quanta/columns sorted by receiver)
    and it updates the arena in place.  Rows are named by interned id,
    the core's row token here.  Layers, cheapest first:

    - the round memo, keyed by the exact ``(local state, incoming)``
      bytes: a receiver that poses a problem another receiver of the
      same round posed shares its outcome, which is byte-identical
      because the receive is a deterministic pure function of that key.
      It lives for one :meth:`receive_slab` call: every round halves
      and re-pools the quanta, so an exact key almost never comes back
      in a later round;
    - the core's identity fast path and certified no-op, the no-op also
      as the core's sweep (:func:`~repro.core.receive.sweep_noops`) over
      receivers that share a local block;
    - the core's full solve, batched over the round: one partition call
      for every problem left, then one ``merge_groups_columns`` call for
      every multi-member group.

    The solver's own work is the round memo, the sweep, the gathers that
    pool each problem's rows out of the slabs, interning and the scatter.
    """

    def __init__(
        self,
        arena: NetworkArena,
        merge_cache: Optional[MergeCache] = None,
        stats: Optional[ArenaStats] = None,
    ) -> None:
        self.arena = arena
        self.scheme = arena.scheme
        self.k = arena.k
        self.quantization = arena.quantization
        self.merge_cache = merge_cache if arena.scheme.supports_fingerprints else None
        self.stats = stats if stats is not None else ArenaStats()
        interner = arena.interner
        # The core's resolve: a local id's digest and summary.
        self._resolve = lambda summary_id, position: (
            interner.digest(summary_id),
            interner.summary(summary_id),
        )

    # ------------------------------------------------------------------
    # Batch entry points
    # ------------------------------------------------------------------
    def deliver(
        self,
        dest: np.ndarray,
        ids: np.ndarray,
        quanta: np.ndarray,
        columns: Dict[str, np.ndarray],
    ) -> None:
        """Route one round's payload rows to their receivers and apply them.

        ``dest`` holds each row's arena-local receiver; rows come in
        ascending-sender order.  The stable sort by destination keeps
        that order within each receiver, which is the in-memory
        transport's batch order that byte parity rests on.
        """
        if not len(dest):
            return
        order = np.argsort(dest, kind="stable")
        sorted_dest = dest[order]
        dests, starts = np.unique(sorted_dest, return_index=True)
        self.receive_slab(
            dests,
            np.append(starts, len(sorted_dest)),
            ids[order],
            quanta[order],
            {name: rows[order] for name, rows in columns.items()},
        )

    def receive_slab(
        self,
        dests: np.ndarray,
        bounds: np.ndarray,
        ids: np.ndarray,
        quanta: np.ndarray,
        columns: Dict[str, np.ndarray],
    ) -> None:
        """Apply one round's receives.

        ``dests`` lists the receiving (arena-local) node indices,
        ascending; payload rows ``bounds[p]:bounds[p+1]`` of
        ``ids`` / ``quanta`` / ``columns`` belong to ``dests[p]``, in
        ascending-sender order — the in-memory transport's batch order.

        Three passes.  The first resolves every receiver in order from
        the swept no-ops (:meth:`_sweep`), the round memo, the fast path
        or a certified no-op, and queues the rest as distinct problems.
        The second solves the queue in one batch (:meth:`_solve_queued`),
        interning new summaries in queue order.
        The third scatters, and is the only pass that writes the arena,
        so a batch that raises leaves every receiver's rows as they were.
        Receivers are distinct, so no receiver reads another's new rows.
        """
        arena = self.arena
        stats = self.stats
        a_counts = arena.counts
        a_ids = arena.ids
        a_quanta = arena.quanta
        a_columns = arena.columns
        handled: Optional[np.ndarray] = None
        swept: List[_Swept] = []
        if self.merge_cache is not None and len(dests) >= 32:
            handled, swept = self._sweep(dests, bounds, ids, quanta)
        # key -> the receive's rows, or its problem's index in the queue
        round_memo: Dict[Any, Union[ReceiveRows, int]] = {}
        resolved: List[Tuple[int, ReceiveRows]] = []
        solved: List[Tuple[int, int]] = []
        queued: List[Tuple[int, int, int, int]] = []
        for position in range(len(dests)):
            if handled is not None and handled[position]:
                continue
            receiver = int(dests[position])
            start = int(bounds[position])
            stop = int(bounds[position + 1])
            count = int(a_counts[receiver])
            local_ids = a_ids[receiver, :count]
            local_quanta = a_quanta[receiver, :count]
            key = (
                count,
                local_ids.tobytes(),
                local_quanta.tobytes(),
                ids[start:stop].tobytes(),
                quanta[start:stop].tobytes(),
            )
            outcome = round_memo.get(key)
            if outcome is not None:
                stats.memo_round_hits += 1
            else:
                outcome = self._shortcut(
                    receiver, count, local_ids, local_quanta, start, stop, ids, quanta, columns
                )
                if outcome is None:
                    outcome = len(queued)
                    queued.append((receiver, count, start, stop))
                    stats.full_solves += 1
                round_memo[key] = outcome
            if isinstance(outcome, int):
                solved.append((receiver, outcome))
            else:
                resolved.append((receiver, outcome))
        block = self._solve_queued(queued, ids, quanta, columns) if queued else None
        k = self.k
        for out, tokens, out_quanta, out_columns in swept:
            a_counts[out] = k
            a_ids[out, :k] = tokens
            a_quanta[out, :k] = out_quanta
            a_quanta[out, k:] = 0
            for name, column in a_columns.items():
                column[out, :k] = out_columns[name][None]
        for receiver, outcome in resolved:
            stats.receivers += 1
            stats.merges += outcome.merges
            width = len(outcome.quanta)
            a_counts[receiver] = width
            a_ids[receiver, :width] = outcome.tokens
            a_quanta[receiver, :width] = outcome.quanta
            a_quanta[receiver, width:] = 0
            for name, column in a_columns.items():
                column[receiver, :width] = outcome.columns[name]
        if block is not None:
            # Every solved receiver at once: its problem's output rows.
            receivers, problems = np.array(solved, dtype=np.intp).T
            cuts = np.asarray(block.cuts)
            widths = cuts[problems + 1] - cuts[problems]
            owner, slot = _ragged(widths)
            rows = cuts[problems][owner] + slot
            at = receivers[owner]
            stats.receivers += len(receivers)
            stats.merges += int((block.sizes[rows] > 1).sum())
            a_counts[receivers] = widths
            a_ids[at, slot] = block.tokens[rows]
            a_quanta[receivers] = 0
            a_quanta[at, slot] = block.quanta[rows]
            for name, column in a_columns.items():
                column[at, slot] = block.columns[name][rows]

    # ------------------------------------------------------------------
    # Batched certified no-ops
    # ------------------------------------------------------------------
    def _sweep(
        self, dests: np.ndarray, bounds: np.ndarray, ids: np.ndarray, quanta: np.ndarray
    ) -> Tuple[np.ndarray, List[_Swept]]:
        """Decide certified no-op receives in bulk: a handled mask, and the
        groups :meth:`receive_slab`'s scatter pass writes.  Receivers holding
        ``k`` rows are grouped by local id block with one stable sort; each
        block of ``SWEEP_MIN_BLOCK`` or more is one core ``sweep_noops`` call.
        """
        swept: List[_Swept] = []
        arena = self.arena
        cache = self.merge_cache
        assert cache is not None
        k = self.k
        stats = self.stats
        handled = np.zeros(len(dests), dtype=bool)
        candidates = np.flatnonzero(arena.counts[dests] == k)
        local_ids = arena.ids[dests[candidates], :k]
        order = np.lexsort(local_ids.T[::-1])
        ordered = local_ids[order]
        starts = np.flatnonzero(np.append(True, (ordered[1:] != ordered[:-1]).any(axis=1)))
        widths = np.diff(bounds)
        for start, size in zip(starts.tolist(), np.diff(starts, append=len(order)).tolist()):
            if size < SWEEP_MIN_BLOCK:
                continue
            at = candidates[order[start : start + size]]
            receivers = dests[at]
            owner, slot = _ragged(widths[at])
            rows = bounds[at][owner] + slot
            block = {name: column[receivers[0], :k] for name, column in arena.columns.items()}
            for accepted, tokens, out_quanta, sizes, columns in sweep_noops(
                cache, self.scheme, k, self.quantization, tuple(ordered[start].tolist()), block,
                arena.quanta[receivers, :k], ids[rows], quanta[rows], widths[at], self._resolve,
            ):
                swept.append((receivers[accepted], tokens, out_quanta, columns))
                handled[at[accepted]] = True
                stats.receivers += len(accepted)
                stats.noop_hits += len(accepted)
                stats.noop_sweep_hits += len(accepted)
                stats.merges += int((sizes > 1).sum())
        return handled, swept

    # ------------------------------------------------------------------
    # One distinct receive problem
    # ------------------------------------------------------------------
    def _shortcut(
        self,
        receiver: int,
        count: int,
        local_ids: np.ndarray,
        local_quanta: np.ndarray,
        start: int,
        stop: int,
        ids: np.ndarray,
        quanta: np.ndarray,
        columns: Dict[str, np.ndarray],
    ) -> Optional[ReceiveRows]:
        """The core's identity fast path or certified no-op, when one applies."""
        scheme = self.scheme
        local_columns = {
            name: column[receiver, :count] for name, column in self.arena.columns.items()
        }
        incoming_ids = ids[start:stop]
        incoming_quanta = quanta[start:stop]
        if takes_fast_path(scheme, self.k, self.quantization, local_quanta, incoming_quanta):
            self.stats.fastpath_hits += 1
            return ReceiveRows(
                np.concatenate([local_ids, incoming_ids]),
                np.concatenate([local_quanta, incoming_quanta]),
                {
                    name: np.concatenate([local, columns[name][start:stop]])
                    for name, local in local_columns.items()
                },
                (1,) * (count + stop - start),
            )
        cache = self.merge_cache
        if cache is None:
            return None
        outcome = certified_noop(
            cache,
            scheme,
            self.k,
            self.quantization,
            local_ids.tolist(),
            local_quanta,
            incoming_ids.tolist(),
            incoming_quanta,
            local_columns,
            self._resolve,
        )
        if outcome is not None:
            self.stats.noop_hits += 1
        return outcome

    def _solve_queued(
        self,
        queued: List[Tuple[int, int, int, int]],
        ids: np.ndarray,
        quanta: np.ndarray,
        columns: Dict[str, np.ndarray],
    ) -> SolvedBlock:
        """Solve a round's queued problems together.

        Each queued ``(receiver, count, start, stop)`` pools the
        receiver's local rows with payload rows ``start:stop``.  Every
        pooled set of the round is gathered into one block for the core's
        :func:`~repro.core.receive.solve_block`.  New summaries are
        interned one row at a time in the order the core names merged
        rows, which is a one-at-a-time loop's, so ids match it.
        """
        arena = self.arena
        receivers, counts, starts, stops = np.array(queued, dtype=np.intp).T
        widths = stops - starts
        offsets = np.zeros(len(queued) + 1, dtype=np.intp)
        np.cumsum(counts + widths, out=offsets[1:])
        total = int(offsets[-1])
        # Problem p's pooled rows are offsets[p]:offsets[p+1]: its local
        # block, then its payload rows in delivery order.
        owner, local_slot = _ragged(counts)
        local_at = offsets[owner] + local_slot
        local_node = receivers[owner]
        owner, incoming_slot = _ragged(widths)
        incoming_at = offsets[owner] + counts[owner] + incoming_slot
        incoming_rows = starts[owner] + incoming_slot

        def pool(local: np.ndarray, incoming: np.ndarray) -> np.ndarray:
            rows = np.empty((total,) + incoming.shape[1:], dtype=incoming.dtype)
            rows[local_at] = local[local_node, local_slot]
            rows[incoming_at] = incoming[incoming_rows]
            return rows

        pooled = PackedState(
            quanta=pool(arena.quanta, quanta),
            columns={name: pool(column, columns[name]) for name, column in arena.columns.items()},
        )
        intern_row = arena.interner.intern_row

        def intern(merged: Dict[str, np.ndarray]) -> List[int]:
            return [intern_row(merged, row) for row in range(len(next(iter(merged.values()))))]

        # merge_groups_columns is contractually byte-identical to packing
        # merge_set's summary per group; the summary object behind each
        # new id materialises lazily in the interner when a certificate
        # needs it.
        return solve_block(
            self.scheme, self.k, self.quantization, pooled, offsets.tolist(),
            pool(arena.ids, ids), intern,
        )


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
        messages, sender, quanta, ids, columns = arena.split()
        try:
            self.solver.deliver(peers[sender], ids, quanta, columns)
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
