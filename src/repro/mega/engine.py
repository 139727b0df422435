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
    ReceiveRows,
    certified_noop,
    noop_plan,
    solve_block,
    takes_fast_path,
)
from repro.core.weights import Quantization
from repro.mega.arena import NetworkArena
from repro.network.simulator import NeighborSelector, RandomSelector
from repro.network.topology import TOPOLOGY_BUILDERS, neighbors_map, validate_topology
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
            builder = TOPOLOGY_BUILDERS.get(topology)
            if builder is None:
                raise ValueError(
                    f"unknown topology {topology!r}; "
                    f"expected 'complete', one of {sorted(TOPOLOGY_BUILDERS)}, or a graph"
                )
            graph = builder(n)
        else:
            graph = validate_topology(topology)
            if graph.number_of_nodes() != n:
                raise ValueError(
                    f"topology has {graph.number_of_nodes()} nodes, arena has {n}"
                )
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
      as a vectorised sweep over receivers that share a local block;
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
        the swept no-ops (:meth:`_noop_sweep`), the round memo, the fast
        path or a certified no-op, and queues the rest as distinct
        problems.  The second solves the queue in one batch
        (:meth:`_solve_queued`), interning new summaries in queue order.
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
            handled = self._noop_sweep(dests, bounds, ids, quanta, swept)
        round_memo: Dict[Any, ReceiveRows] = {}
        resolved: List[Tuple[int, ReceiveRows]] = []
        queued: List[Tuple[int, int, int, int, ReceiveRows]] = []
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
                    outcome = ReceiveRows.unsolved()
                    queued.append((receiver, count, start, stop, outcome))
                    stats.full_solves += 1
                round_memo[key] = outcome
            resolved.append((receiver, outcome))
        if queued:
            self._solve_queued(queued, ids, quanta, columns)
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

    # ------------------------------------------------------------------
    # Batched certified no-ops
    # ------------------------------------------------------------------
    def _noop_sweep(
        self,
        dests: np.ndarray,
        bounds: np.ndarray,
        ids: np.ndarray,
        quanta: np.ndarray,
        swept: List[_Swept],
    ) -> Optional[np.ndarray]:
        """Decide certified no-op receives in bulk; returns a handled mask.

        Post-convergence almost every receiver holds the same ``k``
        interned summaries and every incoming id matches one of them, so
        the scalar no-op check repeats identical id-dependent work per
        receiver.  This pass groups receivers by their local id block,
        reads the block's :class:`~repro.core.receive.NoopPlan` (the one
        the scalar check uses), and runs the quanta-dependent checks
        (minimum weights, membership, heaviest location, margin test) as
        array operations.  Each accepted group's outcome — receivers,
        ordered tokens, quanta, and the block's reordered columns — is
        appended to ``swept`` for :meth:`receive_slab`'s scatter pass to
        write in one broadcast per order; the sweep itself writes no row.

        Only receivers that *pass* every check are marked handled; any
        rejection simply leaves the receiver to the scalar path, whose
        ``math.log``-based margin decision stays authoritative.  The
        vector margin test is tightened by a relative epsilon so a
        borderline acceptance can never disagree with the scalar check
        beyond log rounding — and even then a certified no-op is byte
        identical to the full pipeline by construction, so which path
        computes the state never changes the state.
        """
        if type(self.quantization) is not Quantization:
            return None  # exotic lattice: is_minimum semantics unknown
        arena = self.arena
        cache = self.merge_cache
        assert cache is not None
        k = self.k
        n_pos = len(dests)
        handled = np.zeros(n_pos, dtype=bool)
        counts_d = arena.counts[dests]
        candidate = counts_d == k
        if not candidate.any():
            return handled
        widths = np.diff(bounds)
        pos_idx = np.flatnonzero(candidate)
        receivers = dests[pos_idx]
        local_ids = np.ascontiguousarray(arena.ids[receivers, :k])
        local_quanta = arena.quanta[receivers, :k]
        blocks = local_ids.view([("v", f"V{k * 8}")]).ravel()
        unique_blocks, inverse = np.unique(blocks, return_inverse=True)
        a_columns = arena.columns
        stats = self.stats
        for block_index in range(len(unique_blocks)):
            members_mask = inverse == block_index
            if int(members_mask.sum()) < 16:
                continue  # scalar path amortises better on small groups
            sub = np.flatnonzero(members_mask)
            block_ids = local_ids[sub[0]]
            block_tokens = tuple(block_ids.tolist())
            plan = noop_plan(cache, self.scheme, k, block_tokens, self._resolve)
            if plan is None or not plan.style_em:
                continue
            tight = plan.tight_thresholds
            if tight is None:
                thresholds = plan.certificate.margin_threshold_matrix()
                if thresholds is None:
                    continue
                tight = thresholds.copy()
                finite = np.isfinite(tight)
                tight[finite] -= 1e-12 * (1.0 + np.abs(tight[finite]))
                plan.tight_thresholds = tight
            sub_pos = pos_idx[sub]
            starts = bounds[sub_pos]
            w = widths[sub_pos]
            r_count = len(sub)
            total_rows = int(w.sum())
            # Ragged gather: payload row ranges per receiver, flattened.
            seg = np.repeat(np.arange(r_count), w)
            rows = np.repeat(starts - (np.cumsum(w) - w), w) + np.arange(total_rows)
            in_ids = ids[rows]
            in_quanta = quanta[rows]
            # Map incoming ids to local positions via the sorted block.
            sort_order = np.argsort(block_ids, kind="stable")
            sorted_ids = block_ids[sort_order]
            found = np.searchsorted(sorted_ids, in_ids)
            found = np.minimum(found, k - 1)
            row_ok = (sorted_ids[found] == in_ids) & (in_quanta != 1)
            in_pos = sort_order[found]
            sub_quanta = local_quanta[sub]
            ok = (sub_quanta != 1).all(axis=1)
            np.logical_and.at(ok, seg, row_ok)
            if not ok.any():
                continue
            # Pooled totals and per-position incoming counts.
            totals = sub_quanta.copy()
            hits = np.zeros((r_count, k), dtype=np.int64)
            np.add.at(totals, (seg, in_pos), in_quanta)
            np.add.at(hits, (seg, in_pos), 1)
            # Heaviest location: locals in position order, then incoming
            # rows in delivery order, strict > (first-max ties).
            best_pos = sub_quanta.argmax(axis=1)
            best_q = np.take_along_axis(sub_quanta, best_pos[:, None], axis=1)[:, 0]
            for j in range(int(w.max())):
                has = np.flatnonzero(w > j)
                if not len(has):
                    break
                row_j = starts[has] + j
                iq = quanta[row_j]
                ip_found = np.minimum(np.searchsorted(sorted_ids, ids[row_j]), k - 1)
                beat = np.flatnonzero(iq > best_q[has])
                target = has[beat]
                best_q[target] = iq[beat]
                best_pos[target] = sort_order[ip_found[beat]]
            # Margin test, tightened so only clear passes are accepted.
            log_totals = np.log(totals)
            cert_totals = np.empty_like(log_totals)
            cert_totals[:, plan.cert_of_pos] = log_totals
            diffs = cert_totals[:, None, :] - cert_totals[:, :, None]
            ok &= (diffs < tight[None]).all(axis=(1, 2))
            if not ok.any():
                continue
            for b in np.unique(best_pos[ok]).tolist():
                accepted = np.flatnonzero(ok & (best_pos == b))
                out = receivers[sub[accepted]]
                # The block's columns, as any of its receivers holds them.
                entry = plan.order_for(
                    b,
                    block_tokens,
                    {name: column[out[0], :k] for name, column in a_columns.items()},
                )
                if entry is None:
                    continue  # the scalar path rejects identically
                order, out_tokens, out_columns = entry
                swept.append((out, out_tokens, totals[accepted][:, order], out_columns))
                handled[sub_pos[accepted]] = True
                hit_count = len(accepted)
                stats.receivers += hit_count
                stats.noop_hits += hit_count
                stats.noop_sweep_hits += hit_count
                stats.merges += int((hits[accepted] > 0).sum())
        return handled

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
        queued: List[Tuple[int, int, int, int, ReceiveRows]],
        ids: np.ndarray,
        quanta: np.ndarray,
        columns: Dict[str, np.ndarray],
    ) -> None:
        """Solve a round's queued problems together and fill their outcomes.

        Each queued ``(receiver, count, start, stop, outcome)`` pools the
        receiver's local rows with payload rows ``start:stop``.  Every
        pooled set of the round is gathered into one block and the core's
        :func:`~repro.core.receive.solve_block` solves them all: one
        partition call, one merge call.  New
        summaries are interned in the order the core names merged rows —
        problem by problem, group by group, the order a one-at-a-time
        loop interns them — so ids match it.
        """
        arena = self.arena
        receivers = np.array([entry[0] for entry in queued], dtype=np.intp)
        counts = np.array([entry[1] for entry in queued], dtype=np.intp)
        starts = np.array([entry[2] for entry in queued], dtype=np.intp)
        widths = np.array([entry[3] for entry in queued], dtype=np.intp) - starts
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
        # merge_groups_columns is contractually byte-identical to packing
        # merge_set's summary per group; the summary object behind each
        # new id materialises lazily in the interner when a certificate
        # needs it.
        solve_block(
            self.scheme,
            self.k,
            self.quantization,
            pooled,
            offsets.tolist(),
            [entry[4] for entry in queued],
            pool(arena.ids, ids).tolist(),
            arena.interner.intern_row,
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
        million-node arenas stay O(n)), a name from
        :data:`repro.network.topology.TOPOLOGY_BUILDERS`, or an explicit
        ``networkx`` graph.
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
