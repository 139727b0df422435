"""repro.mega — the whole-network arena engine for 100k–1M node runs.

The per-node simulation stack (:mod:`repro.network.kernel` driving one
:class:`~repro.core.node.ClassifierNode` object per node) reproduces the
paper's experiments faithfully but tops out around a few thousand nodes:
a round is a Python loop over node objects, each receipt re-packs numpy
arrays out of summary objects, and every node carries its own caches.

This package holds *all* nodes' packed classification state in one
contiguous structure-of-arrays arena (:mod:`repro.mega.arena`) and
executes a gossip round as batched numpy operations
(:mod:`repro.mega.engine`): one vectorised pairing draw, one batched
split, one sort of an integer key routing every payload row to its
receiver (by reference: a row names its sender's cell, and no summary
column is copied), and a content-addressed receive solver that collapses
the post-convergence tail into dictionary lookups across the whole
population.  For runs that outgrow one process, :mod:`repro.mega.shard`
splits the arena across worker processes with a deterministic,
seed-keyed cross-shard exchange: payload rows travel through
double-buffered shared-memory slabs (:mod:`repro.mega.shm`), and both
engines run the same round body (the arena's split, the solver's routed
delivery, the structural-quiescence test).

The correctness contract is byte-parity: at overlapping sizes and equal
seeds an arena run produces exactly the per-node kernel's classifications
(same summary bytes, same quanta, same collection order) — see
``tests/mega/`` and the selection matrix in ``docs/architecture.md``.
"""

from repro.mega.arena import NetworkArena, SummaryInterner
from repro.mega.engine import ArenaEngine, ArenaStats
from repro.mega.shard import ShardedArenaEngine
from repro.mega.shm import SlabExchange, SlabExchangeSpec

__all__ = [
    "ArenaEngine",
    "ArenaStats",
    "NetworkArena",
    "ShardedArenaEngine",
    "SlabExchange",
    "SlabExchangeSpec",
    "SummaryInterner",
]
