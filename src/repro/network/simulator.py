"""Neighbour selection: Algorithm 1 line 4 as a strategy.

The simulation kernel (:mod:`repro.network.kernel`) asks its selector
which neighbour a node sends to, under the round schedule and the
event-driven schedule alike (:mod:`repro.network.schedulers`), and the
arena engine asks it for a whole round's draws at once.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

__all__ = ["NeighborSelector", "RandomSelector", "RoundRobinSelector"]


class NeighborSelector(abc.ABC):
    """Strategy for Algorithm 1 line 4: "Choose j in neighbors_i".

    The convergence proof requires *fairness*: in an infinite run every
    neighbour must be chosen infinitely often.  Round-robin guarantees it
    deterministically; uniform random choice guarantees it with
    probability 1 and is the classic gossip discipline the paper's
    simulations use.
    """

    @abc.abstractmethod
    def choose(self, node: int, neighbors: Sequence[int], rng: np.random.Generator) -> int:
        """Pick the destination for this node's next message."""

    def choose_batch(
        self, count: int, degree: int, rng: np.random.Generator
    ) -> np.ndarray | None:
        """Neighbour-index draws for ``count`` nodes of uniform ``degree``.

        The arena engine asks the selector for all of a round's pairing
        draws at once.  A selector may only implement this when the
        batched draw consumes the generator stream exactly as ``count``
        scalar :meth:`choose` calls would (so arena runs stay
        byte-parity-identical to the per-node kernel); returning ``None``
        — the default — makes the engine fall back to scalar calls.
        """
        return None


class RandomSelector(NeighborSelector):
    """Uniform random neighbour — gossip-style, fair with probability 1."""

    def choose(self, node: int, neighbors: Sequence[int], rng: np.random.Generator) -> int:
        return int(neighbors[rng.integers(len(neighbors))])

    def choose_batch(
        self, count: int, degree: int, rng: np.random.Generator
    ) -> np.ndarray:
        # One sized draw with a constant bound consumes the PCG64 stream
        # exactly like `count` scalar integers() calls (each bounded draw
        # uses one 64-bit word per accepted sample, and the vectorised
        # path applies the same Lemire rejection per element), so this is
        # stream-equivalent to the loop the kernel runs.
        return rng.integers(degree, size=count)


class RoundRobinSelector(NeighborSelector):
    """Cycle through each node's neighbour list — deterministically fair."""

    def __init__(self) -> None:
        self._pointers: dict[int, int] = {}

    def choose(self, node: int, neighbors: Sequence[int], rng: np.random.Generator) -> int:
        pointer = self._pointers.get(node, 0)
        self._pointers[node] = (pointer + 1) % len(neighbors)
        return int(neighbors[pointer % len(neighbors)])
