"""The sharded arena: one gossip population split across worker processes.

:class:`ShardedArenaEngine` partitions the node range into contiguous
shards (``np.array_split`` boundaries), gives each worker process an
owned :class:`~repro.mega.arena.NetworkArena` slice plus a *full*
replica of the :class:`~repro.mega.engine.GossipPairing` draw, and runs
each round as a two-phase barrier protocol:

1. **split** — every worker draws the whole population's peers vector
   from the shared seed (identical across workers: same stream, same
   selector), splits its own rows with the arena's
   :meth:`~repro.mega.arena.NetworkArena.split`, and writes the payload
   rows bound for *other* shards into double-buffered
   :mod:`multiprocessing.shared_memory` outbox slabs
   (:mod:`repro.mega.shm`).  The portion addressed to its own shard
   never leaves the process.
2. **deliver** — each worker reads its inbound rows as zero-copy slab
   views and applies them through the shared
   :meth:`~repro.mega.engine.ReceiveSolver.deliver`, assembling rows in
   ascending source-shard order so the concatenation reproduces the
   in-memory transport's ascending-sender delivery order exactly.

Only tiny ``(target, rows)`` control tuples cross the pipes; nothing is
pickled on the data path.  The parent posts all of a phase's messages
before draining any reply and collects replies concurrently
(``multiprocessing.connection.wait``), so a round costs the *slowest*
worker, not the sum of workers.

Because pairing is replicated rather than communicated, the exchange is
deterministic and byte-parity with the single-process
:class:`~repro.mega.engine.ArenaEngine` (and hence with the per-node
kernel) holds shard-count-independently; ``tests/mega/`` pins
``shards=1`` against ``shards=4`` against the unsharded engine.

Fault tolerance reuses the sweep runner's worker-pool discipline
(:mod:`repro.sweep.runner`): rounds are atomic — the parent distributes
nothing until every worker's ``sent`` reply is in — so a worker death
only ever loses state the parent can reconstruct.  Workers piggyback
checkpoint slabs (counts/quanta/columns; ids are re-interned on load)
every ``checkpoint_every`` rounds, the parent buffers each shard's
inbound bundles since its last checkpoint (snapshotting the slab
contents before the double buffer is reused), and a
respawned worker rebuilds its arena, re-attaches to the shm segments,
fast-forwards the pairing stream by discarding draws, and replays the
buffered rounds — regenerating its own splits, which cost nothing to
recompute and were already routed (replay never writes the slabs: the
pre-crash content other shards may still be reading is byte-identical
by determinism, and the history copy is authoritative).  Deterministic
crash injection for tests mirrors ``REPRO_SWEEP_CRASH_TASK``:
``REPRO_MEGA_CRASH_SHARD="<shard>:<round>"`` (split phase) or
``"<shard>:<round>:deliver"`` plus a ``REPRO_MEGA_CRASH_FLAG`` path
make exactly one worker ``os._exit`` at the matching point.
"""

from __future__ import annotations

import hashlib
import os
import time
import uuid
from dataclasses import dataclass, fields
from multiprocessing import connection as mp_connection
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

import networkx as nx
import numpy as np

from repro.core.fingerprint import MergeCache, merge_cache_default
from repro.core.weights import Quantization
from repro.mega.arena import NetworkArena, SummaryInterner
from repro.mega.engine import ArenaStats, GossipPairing, ReceiveSolver
from repro.mega.shm import SlabExchange, SlabExchangeSpec
from repro.network.simulator import NeighborSelector, RandomSelector
from repro.obs.profiling import current_registry
from repro.sweep.runner import _pool_context

__all__ = [
    "ShardedArenaEngine",
    "CRASH_FLAG_ENV",
    "CRASH_SHARD_ENV",
]

#: ``"<shard>:<round>"`` (split) or ``"<shard>:<round>:deliver"`` —
#: which worker crashes, and at which protocol point.
CRASH_SHARD_ENV = "REPRO_MEGA_CRASH_SHARD"
#: Flag-file path; ``O_EXCL`` creation makes the crash once-only.
CRASH_FLAG_ENV = "REPRO_MEGA_CRASH_FLAG"

#: Exit code of an injected worker crash (visible in worker exitcodes).
_CRASH_EXIT = 23


def _maybe_inject_crash(shard: int, round_index: int, phase: str = "split") -> None:
    """Deterministic once-only hard crash, driven by environment knobs."""
    needle = os.environ.get(CRASH_SHARD_ENV)
    if not needle:
        return
    parts = needle.split(":")
    wanted_phase = parts[2] if len(parts) > 2 else "split"
    if parts[:2] != [str(shard), str(round_index)] or phase != wanted_phase:
        return
    flag = os.environ.get(CRASH_FLAG_ENV)
    if not flag:
        return
    try:
        handle = os.open(flag, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return
    os.close(handle)
    os._exit(_CRASH_EXIT)


def _arena_from_slabs(
    scheme: Any,
    k: int,
    quantization: Quantization,
    counts: np.ndarray,
    quanta: np.ndarray,
    columns: Dict[str, np.ndarray],
) -> NetworkArena:
    """Rebuild an arena (fresh interner) from bare checkpoint slabs.

    Ids are interner-local, so checkpoints carry only the float slabs;
    the used rows are re-interned in bulk here.  Shared by worker
    respawn and the parent's final assembly.
    """
    n = len(counts)
    interner = SummaryInterner(scheme, {name: col.shape[2:] for name, col in columns.items()})
    ids = np.full((n, k), -1, dtype=np.int64)
    node_idx, slot_idx = np.nonzero(np.arange(k)[None, :] < counts[:, None])
    if len(node_idx):
        gathered = {name: col[node_idx, slot_idx] for name, col in columns.items()}
        ids[node_idx, slot_idx] = interner.intern_rows(gathered, len(node_idx))
    return NetworkArena(scheme, k, quantization, counts, quanta, ids, columns, interner)


@dataclass
class _ShardConfig:
    """Everything a worker needs to (re)build itself, picklable."""

    shard: int
    shards: int
    bounds: np.ndarray  # (shards + 1,) node-range boundaries
    n: int
    scheme: Any
    k: int
    quantization: Quantization
    selector: NeighborSelector
    seed: int
    topology: Union[str, nx.Graph]
    use_cache: bool
    checkpoint_every: int
    exchange: SlabExchangeSpec

    @property
    def lo(self) -> int:
        return int(self.bounds[self.shard])

    @property
    def hi(self) -> int:
        return int(self.bounds[self.shard + 1])


class _ShardState:
    """One worker's half of the protocol: its arena slice + full pairing."""

    def __init__(
        self,
        config: _ShardConfig,
        values: Optional[Sequence[Any]],
        checkpoint: Optional[Dict[str, Any]],
    ) -> None:
        self.config = config
        scheme = config.scheme
        if checkpoint is None:
            assert values is not None
            self.arena = NetworkArena.from_values(values, scheme, config.k, config.quantization)
            self.rounds_done = 0
        else:
            self.arena = _arena_from_slabs(
                scheme,
                config.k,
                config.quantization,
                checkpoint["counts"],
                checkpoint["quanta"],
                checkpoint["columns"],
            )
            self.rounds_done = int(checkpoint["rounds_done"])
        self.pairing = GossipPairing(config.n, config.topology, config.selector, config.seed)
        # Fast-forward the shared pairing stream to the resume point.
        for _ in range(self.rounds_done):
            self.pairing.draw()
        self.stats = ArenaStats()
        cache = MergeCache() if (config.use_cache and scheme.supports_fingerprints) else None
        self.solver = ReceiveSolver(self.arena, merge_cache=cache, stats=self.stats)
        self._pending_internal: Optional[Tuple[Any, ...]] = None

    # ------------------------------------------------------------------
    # Round phases
    # ------------------------------------------------------------------
    def split_round(
        self,
    ) -> Tuple[List[Tuple[int, np.ndarray, np.ndarray, Dict[str, np.ndarray]]], int]:
        """Draw, split own rows, bucket payloads by destination shard.

        Returns the external bundles ``(dest_shard, dest_global, quanta,
        columns)`` — rows in ascending (sender, slot) order within each
        bundle — and the shard's message count (distinct senders, the
        kernel's metric).  The own-shard portion is parked for
        :meth:`apply_round`, ids included: they stay valid in this
        interner.
        """
        config = self.config
        peers = self.pairing.draw()
        messages, sender, quanta, ids, columns = self.arena.split()
        dest = peers[sender + config.lo]
        dest_shard = np.searchsorted(config.bounds, dest, side="right") - 1

        def bundle(mask: np.ndarray) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
            return dest[mask], quanta[mask], {name: rows[mask] for name, rows in columns.items()}

        own = dest_shard == config.shard
        own_dest, own_quanta, own_columns = bundle(own)
        self._pending_internal = (own_dest, ids[own], own_quanta, own_columns)
        outgoing = [
            (int(target), *bundle(dest_shard == target))
            for target in np.unique(dest_shard[~own])
        ]
        return outgoing, messages

    def apply_round(
        self, external: List[Tuple[int, np.ndarray, np.ndarray, Dict[str, np.ndarray]]]
    ) -> None:
        """Apply one round's inbound payloads (plus the parked internal).

        ``external`` holds ``(source_shard, dest_global, quanta,
        columns)`` bundles.  Parts are concatenated in ascending
        source-shard order — each internally in ascending sender order —
        so the stable sort by destination reproduces the transport's
        global delivery order.
        """
        config = self.config
        interner = self.arena.interner
        internal, self._pending_internal = self._pending_internal, None
        assert internal is not None, "apply_round runs after split_round"
        inbound = {int(source): bundle for source, *bundle in external}
        parts: List[Tuple[Any, ...]] = []
        for source in range(config.shards):
            if source == config.shard:
                parts.append(internal)
            elif source in inbound:
                dest, quanta, columns = inbound[source]
                parts.append((dest, interner.intern_rows(columns, len(dest)), quanta, columns))
        self.solver.deliver(
            np.concatenate([part[0] for part in parts]) - config.lo,
            np.concatenate([part[1] for part in parts]),
            np.concatenate([part[2] for part in parts]),
            {
                name: np.concatenate([part[3][name] for part in parts])
                for name in self.arena.columns
            },
        )
        self.rounds_done += 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def probe(self) -> Tuple[bool, bytes]:
        """Local quiescence: (all rows structurally equal, content hash).

        The hash is over the *intern key bytes* of the first node's
        sorted summary multiset — content-stable across interners, so
        the parent declares global quiescence iff every shard is
        internally equal and all hashes agree.
        """
        arena = self.arena
        if not arena.structurally_converged():
            return False, b""
        first = int(arena.counts[0])
        interner = arena.interner
        digest = hashlib.blake2b(digest_size=16)
        digest.update(first.to_bytes(8, "little"))
        for key in sorted(interner.key_bytes(int(sid)) for sid in arena.ids[0, :first]):
            digest.update(key)
        return True, digest.digest()

    def checkpoint_payload(self) -> Dict[str, Any]:
        arena = self.arena
        return {
            "rounds_done": self.rounds_done,
            "counts": arena.counts.copy(),
            "quanta": arena.quanta.copy(),
            "columns": {name: column.copy() for name, column in arena.columns.items()},
        }

    def final_payload(self) -> Dict[str, Any]:
        payload = self.checkpoint_payload()
        payload["stats"] = self.stats.as_dict()
        return payload


def _shard_worker_main(
    conn: Any,
    config: _ShardConfig,
    values: Optional[Sequence[Any]],
    checkpoint: Optional[Dict[str, Any]],
    replay: List[Tuple[int, List[Any]]],
) -> None:
    """Worker entry point: rebuild, replay, then serve the round protocol."""
    exchange = SlabExchange(config.exchange, create=False)
    try:
        state = _ShardState(config, values, checkpoint)
        for _, external in replay:
            # Regenerate own splits (already routed by the parent — the
            # draw both advances the stream and recreates the quanta
            # halving) and re-apply the buffered inbound bundles.  The
            # outgoing bundles are discarded, *not* written to the
            # slabs: other shards may still be reading this worker's
            # pre-crash round content, which determinism makes
            # byte-identical to what a rewrite would produce.
            state.split_round()
            state.apply_round(external)
        conn.send(("ready", state.rounds_done, state.probe(), state.stats.as_dict()))
        while True:
            message = conn.recv()
            kind = message[0]
            if kind == "split":
                round_index = message[1]
                _maybe_inject_crash(config.shard, round_index, "split")
                outgoing, messages = state.split_round()
                # Data rows go straight into the outbox slabs; the pipe
                # carries only (target, rows) control tuples.
                parity = round_index & 1
                for target, dest, quanta, columns in outgoing:
                    exchange.write(
                        config.shard, parity, target, round_index, dest, quanta, columns
                    )
                counts = [(target, len(dest)) for target, dest, _, _ in outgoing]
                conn.send(("sent", round_index, counts, messages))
            elif kind == "deliver":
                round_index, inbound, want_probe = message[1], message[2], message[3]
                _maybe_inject_crash(config.shard, round_index, "deliver")
                # Zero-copy views into the source shards' outboxes;
                # consumed (and copied where needed) inside apply_round,
                # before the buffers can be reused.
                parity = round_index & 1
                external = [
                    (source,) + exchange.read(source, parity, config.shard, round_index, rows)
                    for source, rows in inbound
                ]
                state.apply_round(external)
                # Drop the slab views before replying: the buffers may
                # be rewritten two rounds on, and lingering exports
                # would make the final segment close a BufferError.
                external = None
                probe = state.probe() if want_probe else None
                snapshot = None
                if (
                    config.checkpoint_every > 0
                    and state.rounds_done % config.checkpoint_every == 0
                ):
                    snapshot = state.checkpoint_payload()
                conn.send(("done", round_index, probe, state.stats.as_dict(), snapshot))
            elif kind == "finish":
                conn.send(("final", state.final_payload()))
                conn.close()
                return
            else:  # pragma: no cover - protocol misuse
                raise RuntimeError(f"unknown message {kind!r}")
    except (EOFError, KeyboardInterrupt, BrokenPipeError):  # pragma: no cover
        pass
    finally:
        exchange.close()


class _WorkerHandle:
    __slots__ = ("process", "conn")

    def __init__(self, process: Any, conn: Any) -> None:
        self.process = process
        self.conn = conn


class ShardedArenaEngine:
    """Multi-process arena gossip with the :class:`ArenaEngine` API.

    Parameters mirror :class:`~repro.mega.engine.ArenaEngine`, plus:

    shards:
        Worker-process count; each owns a contiguous node range (the
        ``np.array_split`` partition of ``range(n)``).
    use_shm:
        Payload rows always cross shards through the shared-memory slab
        exchange (:mod:`repro.mega.shm`); only ``True``, the default, is
        accepted.  With one shard no payload crosses processes and no
        segment is created.
    checkpoint_every:
        Rounds between piggybacked worker checkpoints.  Bounds both the
        replay a respawn performs and the bundle history the parent
        buffers; ``0`` disables checkpoints (respawns rebuild from the
        initial values and replay from round zero).
    max_restarts:
        Total worker respawns tolerated before the run raises.
    worker_timeout:
        Seconds to wait for any one worker reply before declaring the
        worker hung, killing and respawning it.

    After a respawn, aggregate stats count the replayed receives from
    the worker's restored checkpoint onward — instrumentation is
    observational, classification state is exact.
    """

    def __init__(
        self,
        values: Sequence[Any],
        scheme: Any,
        k: int,
        *,
        shards: int = 2,
        seed: int = 0,
        topology: Union[str, nx.Graph] = "complete",
        quantization: Optional[Quantization] = None,
        selector: Optional[NeighborSelector] = None,
        variant: str = "push",
        use_cache: Optional[bool] = None,
        use_shm: bool = True,
        checkpoint_every: int = 4,
        max_restarts: int = 3,
        worker_timeout: float = 600.0,
    ) -> None:
        if variant != "push":
            raise ValueError(
                f"the arena engine implements the paper's push gossip only, got {variant!r}"
            )
        n = len(values)
        if n < 2:
            raise ValueError("arena gossip needs at least 2 nodes")
        if shards < 1:
            raise ValueError(f"shards must be at least 1, got {shards}")
        if shards > n:
            raise ValueError(f"cannot split {n} nodes across {shards} shards")
        if not use_shm:
            raise ValueError(
                "use_shm must be True: payload rows cross shards only through "
                "the shared-memory slab exchange"
            )
        if not scheme.supports_packed:
            raise ValueError(
                f"{type(scheme).__name__} does not implement the packed hot "
                "path; the arena engine requires it"
            )
        self.values = values
        self.scheme = scheme
        self.k = k
        self.quantization = quantization or Quantization()
        # Each shard only sees its own slice: check the whole network here,
        # before any worker or shared-memory segment exists.
        self.quantization.check_population(n)
        self.shards = shards
        self.max_restarts = max_restarts
        self.worker_timeout = worker_timeout
        if use_cache is None:
            use_cache = merge_cache_default()
        selector = selector if selector is not None else RandomSelector()
        # Validate the topology/selector combination eagerly, in-process.
        GossipPairing(n, topology, selector, seed)
        sizes = [len(chunk) for chunk in np.array_split(np.arange(n), shards)]
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        # Region sizes need the scheme's packed column shapes; one probe
        # row is enough (pack_values is shape-stable in n).
        probe = scheme.pack_values(values[:1])
        column_specs = {name: array.shape[1:] for name, array in probe.items()}
        spec = SlabExchangeSpec(bounds, k, column_specs, uuid.uuid4().hex[:16])
        self._slabs: Optional[SlabExchange] = SlabExchange(spec, create=True)
        self._segment_names = list(self._slabs.segment_names)
        self._configs = [
            _ShardConfig(
                shard=shard,
                shards=shards,
                bounds=bounds,
                n=n,
                scheme=scheme,
                k=k,
                quantization=self.quantization,
                selector=selector,
                seed=seed,
                topology=topology,
                use_cache=bool(use_cache and scheme.supports_fingerprints),
                checkpoint_every=checkpoint_every,
                exchange=spec,
            )
            for shard in range(shards)
        ]
        self._ctx = _pool_context()
        self._workers: List[Optional[_WorkerHandle]] = [None] * shards
        self._checkpoints: List[Optional[Dict[str, Any]]] = [None] * shards
        self._history: List[List[Tuple[int, List[Any]]]] = [[] for _ in range(shards)]
        self._shard_stats: List[Dict[str, int]] = [ArenaStats().as_dict() for _ in range(shards)]
        self._receivers_prev = [0] * shards
        self._restarts = 0
        self.round_index = 0
        self.quiescent_at: Optional[int] = None
        self._quiescent_streak = 0
        self._messages = 0
        self._arena: Optional[NetworkArena] = None
        self._closed = False
        #: Cumulative parent-side wall time per exchange phase (seconds).
        self.phase_seconds: Dict[str, float] = {"split": 0.0, "route": 0.0, "deliver": 0.0}
        self._phase_last: Dict[str, float] = dict(self.phase_seconds)
        try:
            for shard in range(shards):
                self._spawn(shard)
        except BaseException:
            self.close()
            raise

    @property
    def segment_names(self) -> List[str]:
        """Names of this engine's shared-memory segments (empty with one
        shard).  The list is a creation-time snapshot, so it stays
        readable after ``collect()``/``close()`` unlink the segments —
        reporting and leak-guard tests both want the names then.
        """
        return list(self._segment_names)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, shard: int) -> Tuple[bool, bytes]:
        """(Re)start one worker; returns its post-replay quiescence probe."""
        config = self._configs[shard]
        checkpoint = self._checkpoints[shard]
        values = None if checkpoint is not None else self.values[config.lo : config.hi]
        replay = list(self._history[shard])
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=_shard_worker_main,
            args=(child_conn, config, values, checkpoint, replay),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._workers[shard] = _WorkerHandle(process, parent_conn)
        if not parent_conn.poll(self.worker_timeout):
            raise RuntimeError(f"shard {shard} failed to come up")
        reply = parent_conn.recv()
        kind, rounds_done, probe, stats = reply
        assert kind == "ready", reply
        expected = (checkpoint["rounds_done"] if checkpoint else 0) + len(replay)
        if rounds_done != expected:  # pragma: no cover - protocol invariant
            raise RuntimeError(
                f"shard {shard} resumed at round {rounds_done}, expected {expected}"
            )
        self._shard_stats[shard] = stats
        return probe

    def _kill(self, shard: int) -> None:
        handle = self._workers[shard]
        if handle is None:
            return
        try:
            handle.conn.close()
        except OSError:  # pragma: no cover
            pass
        if handle.process.is_alive():
            handle.process.terminate()
        handle.process.join(timeout=10.0)
        self._workers[shard] = None

    def _respawn(self, shard: int) -> Tuple[bool, bytes]:
        self._restarts += 1
        if self._restarts > self.max_restarts:
            raise RuntimeError(
                f"shard {shard} died and the restart budget ({self.max_restarts}) is spent"
            )
        self._kill(shard)
        return self._spawn(shard)

    def _exchange(self, shard: int, message: Tuple[Any, ...]) -> Optional[Tuple[Any, ...]]:
        """One send/recv with a worker; ``None`` means the worker is gone."""
        handle = self._workers[shard]
        assert handle is not None
        try:
            handle.conn.send(message)
            if handle.conn.poll(self.worker_timeout):
                return handle.conn.recv()
        except (BrokenPipeError, ConnectionResetError, EOFError, OSError):
            return None
        # Hung worker: treat like a death (the respawn path recovers it).
        handle.process.terminate()
        return None

    def _collect_replies(self, pending: Set[int]) -> List[Optional[Tuple[Any, ...]]]:
        """Drain one reply from every pending worker, concurrently.

        ``connection.wait`` over all pending pipes replaces the old
        in-order per-worker ``poll``: a slow shard 0 no longer delays
        reading shard 3's already-queued reply, and a full phase costs
        the slowest worker rather than the recv order.  A worker whose
        pipe errors (death) or that stays silent past ``worker_timeout``
        while every other reply is in yields ``None`` — the caller's
        respawn path recovers it.
        """
        replies: List[Optional[Tuple[Any, ...]]] = [None] * self.shards
        pending = set(pending)
        while pending:
            conn_of = {}
            for shard in pending:
                handle = self._workers[shard]
                assert handle is not None
                conn_of[handle.conn] = shard
            ready = mp_connection.wait(list(conn_of), timeout=self.worker_timeout)
            if not ready:
                # Everything still pending is hung: treat as dead.
                for shard in pending:
                    handle = self._workers[shard]
                    assert handle is not None
                    handle.process.terminate()
                break
            for conn in ready:
                shard = conn_of[conn]
                try:
                    replies[shard] = conn.recv()
                except (EOFError, ConnectionResetError, OSError):
                    replies[shard] = None
                pending.discard(shard)
        return replies

    def _broadcast_collect(
        self, messages: List[Tuple[Any, ...]]
    ) -> List[Optional[Tuple[Any, ...]]]:
        """Post every message before draining any reply, then collect."""
        pending: Set[int] = set()
        for shard in range(self.shards):
            handle = self._workers[shard]
            assert handle is not None
            try:
                handle.conn.send(messages[shard])
                pending.add(shard)
            except (BrokenPipeError, OSError):
                pass  # stays None; the caller respawns
        return self._collect_replies(pending)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run_round(self, want_probe: bool = False) -> Tuple[int, bool]:
        """One synchronous round; returns (messages, globally quiescent)."""
        if self._closed:
            raise RuntimeError("engine already collected/closed")
        slabs = self._slabs
        assert slabs is not None
        round_index = self.round_index
        parity = round_index & 1
        t_start = time.perf_counter()
        # Phase 1: split.  Broadcast first so workers compute in
        # parallel; the replies are (target, rows) tuples and the
        # payload rows are already sitting in the outbox slabs.
        replies = self._broadcast_collect(
            [("split", round_index)] * self.shards
        )
        outgoing_by_shard: List[List[Tuple[int, int]]] = [[] for _ in range(self.shards)]
        messages = 0
        for shard in range(self.shards):
            reply = replies[shard]
            while reply is None:
                # Death before its bundles were routed: the respawn
                # rebuilds to the end of the previous round, then this
                # shard redoes the split solo (rewriting its own outbox
                # slabs, which no reader has touched yet this round).
                self._respawn(shard)
                reply = self._exchange(shard, ("split", round_index))
            kind, echoed, outgoing, shard_messages = reply
            assert kind == "sent" and echoed == round_index, reply
            outgoing_by_shard[shard] = outgoing
            messages += shard_messages
        t_split = time.perf_counter()
        # Route: destination shard <- (source, rows) descriptors in
        # ascending source order (the global ascending-sender order).
        inbound: List[List[Tuple[int, int]]] = [[] for _ in range(self.shards)]
        for source in range(self.shards):
            for target, rows in outgoing_by_shard[source]:
                inbound[int(target)].append((source, int(rows)))
        # Phase 2: deliver.  Post every notification before draining any
        # done reply — the notifications are tiny, so the broadcast
        # cannot block on pipe backpressure and all workers apply
        # concurrently.
        for shard in range(self.shards):
            handle = self._workers[shard]
            assert handle is not None
            try:
                handle.conn.send(("deliver", round_index, inbound[shard], want_probe))
            except (BrokenPipeError, OSError):
                pass  # detected at the reply collection below
        # Snapshot this round's slab contents into the replay history
        # while the workers apply: buffer ``parity`` is rewritten at
        # round + 2, and a respawn during this deliver phase replays
        # *through* this round from the history.
        for target in range(self.shards):
            bundles = [
                (source,) + slabs.read(source, parity, target, round_index, rows, copy=True)
                for source, rows in inbound[target]
            ]
            self._history[target].append((round_index, bundles))
        t_route = time.perf_counter()
        done = self._collect_replies(set(range(self.shards)))
        probes: List[Optional[Tuple[bool, bytes]]] = [None] * self.shards
        for shard in range(self.shards):
            reply = done[shard]
            if reply is None:
                # Death mid-apply: this round's bundles are already in
                # the history, so the respawn replays *through* this
                # round; its ready message stands in for the done reply.
                probes[shard] = self._respawn(shard)
                continue
            kind, echoed, probe, stats, snapshot = reply
            assert kind == "done" and echoed == round_index, reply
            probes[shard] = probe
            self._shard_stats[shard] = stats
            if snapshot is not None:
                self._checkpoints[shard] = snapshot
                resumed = int(snapshot["rounds_done"])
                self._history[shard] = [
                    entry for entry in self._history[shard] if entry[0] >= resumed
                ]
        t_deliver = time.perf_counter()
        self.round_index += 1
        self._messages += messages
        quiescent = False
        if want_probe:
            gathered = [probe for probe in probes if probe is not None]
            quiescent = (
                len(gathered) == self.shards
                and all(flag for flag, _ in gathered)
                and len({fingerprint for _, fingerprint in gathered}) == 1
            )
        self._phase_last = {
            "split": t_split - t_start,
            "route": t_route - t_split,
            "deliver": t_deliver - t_route,
        }
        for name, value in self._phase_last.items():
            self.phase_seconds[name] += value
        self._publish_gauges(messages)
        return messages, quiescent

    def run(
        self,
        rounds: int,
        stop_on_quiescence: bool = False,
        quiescence_patience: int = 3,
    ) -> int:
        """Run up to ``rounds`` rounds; returns the number executed."""
        executed = 0
        for _ in range(rounds):
            _, quiescent = self.run_round(want_probe=stop_on_quiescence)
            executed += 1
            if stop_on_quiescence:
                if quiescent:
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

    @property
    def stats(self) -> ArenaStats:
        """Aggregate worker stats (see the respawn caveat in the class doc).

        ``rounds``/``messages`` are the parent's own counts; every other
        field is the sum of the workers' per-receive counters, taken over
        all of ``ArenaStats``' fields so a counter added later is summed too.
        """
        total = ArenaStats(rounds=self.round_index, messages=self._messages)
        for field in fields(ArenaStats):
            if field.name not in ("rounds", "messages"):
                setattr(
                    total,
                    field.name,
                    sum(stats[field.name] for stats in self._shard_stats),
                )
        return total

    # ------------------------------------------------------------------
    # Collection / teardown
    # ------------------------------------------------------------------
    def collect(self) -> NetworkArena:
        """Gather every shard's final slabs into one assembled arena.

        Finishes the workers — the engine cannot run further rounds
        afterwards; read classifications off the returned arena.
        """
        if self._arena is not None:
            return self._arena
        if self._closed:
            raise RuntimeError("engine already closed")
        payloads: List[Optional[Dict[str, Any]]] = [None] * self.shards
        for shard in range(self.shards):
            reply = self._exchange(shard, ("finish",))
            while reply is None:
                self._respawn(shard)
                reply = self._exchange(shard, ("finish",))
            kind, payload = reply
            assert kind == "final", reply
            payloads[shard] = payload
            self._shard_stats[shard] = payload["stats"]
        self.close()
        assert all(payload is not None for payload in payloads)
        counts = np.concatenate([payload["counts"] for payload in payloads])
        quanta = np.concatenate([payload["quanta"] for payload in payloads])
        columns = {
            name: np.concatenate([payload["columns"][name] for payload in payloads])
            for name in payloads[0]["columns"]
        }
        self._arena = _arena_from_slabs(
            self.scheme, self.k, self.quantization, counts, quanta, columns
        )
        return self._arena

    def close(self) -> None:
        """Tear down workers and release every shm segment (idempotent)."""
        for shard in range(self.shards):
            self._kill(shard)
        if self._slabs is not None:
            self._slabs.destroy()
            self._slabs = None
        self._closed = True

    def __enter__(self) -> "ShardedArenaEngine":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------
    def classifications(self) -> List[List[Any]]:
        return self.collect().classifications()

    def state_digests(self, node: int) -> Tuple[Tuple[bytes, int], ...]:
        return self.collect().state_digests(node)

    def shard_solver_stats(self) -> List[Dict[str, Any]]:
        """Per-shard ReceiveSolver cache effectiveness, for reporting.

        Each shard's round memo and no-op plans are private, so a problem
        distinct shards both see is solved once *per shard* — the
        sharded full-solve total exceeds the single-process engine's by
        exactly the cross-shard duplicates (see docs/performance.md,
        "Sharded exchange").  ``solver_hit_rate`` is cumulative:
        ``1 - full_solves / receivers``.
        """
        out: List[Dict[str, Any]] = []
        for shard, stats in enumerate(self._shard_stats):
            receivers = stats["receivers"]
            hits = receivers - stats["full_solves"]
            out.append(
                {
                    "shard": shard,
                    "receivers": receivers,
                    "full_solves": stats["full_solves"],
                    "cache_hits": hits,
                    "solver_hit_rate": (hits / receivers) if receivers else 1.0,
                }
            )
        return out

    def _publish_gauges(self, messages: int) -> None:
        deltas = []
        for shard in range(self.shards):
            receivers = self._shard_stats[shard]["receivers"]
            deltas.append(max(0, receivers - self._receivers_prev[shard]))
            self._receivers_prev[shard] = receivers
        registry = current_registry()
        if registry is None:
            return
        registry.inc("mega.rounds")
        registry.inc("mega.messages", messages)
        mean = sum(deltas) / len(deltas) if deltas else 0.0
        registry.set_gauge(
            "mega.shard_imbalance", (max(deltas) / mean) if mean > 0 else 1.0
        )
        # Exchange cost per phase, parent-side wall clock for the round
        # just completed (split: broadcast -> last sent reply; route:
        # descriptor build + history snapshot; deliver: post -> last
        # done reply).
        for name, value in self._phase_last.items():
            registry.set_gauge(f"mega.exchange.{name}_s", value)
        # Per-shard solver-cache effectiveness (cumulative rates): the
        # caches are shard-private, so comparing these against the
        # single-process run makes the dedup gap visible.
        for entry in self.shard_solver_stats():
            shard = entry["shard"]
            registry.set_gauge(
                f"mega.shard{shard}.solver_hit_rate", entry["solver_hit_rate"]
            )
            registry.set_gauge(
                f"mega.shard{shard}.solver_full_solves", entry["full_solves"]
            )
