"""Quantised weight arithmetic for the generic classification algorithm.

The paper (Section 4.1) quantises all collection weights to multiples of a
system parameter ``q`` in order to rule out executions in which a finite
amount of weight is transferred through infinitely many infinitesimal
messages (a Zeno effect), which would break the convergence proof.

This module represents weights *exactly* as integer counts of quanta.  A
whole input value has weight ``1``, i.e. ``quanta_per_unit`` quanta.  All
split and merge operations are closed over the integers, so system-wide
weight conservation — the invariant every lemma in Section 6 leans on — is
exact rather than approximate, no matter how many messages are exchanged.

The paper's ``half`` function returns "the multiple of q which is closest
to alpha/2".  For an integer quantum count ``w`` the two closest multiples
are ``floor(w/2)`` and ``ceil(w/2)``; when ``w`` is odd they are equally
close and the tie is broken in favour of the *kept* share (``ceil``), so a
collection holding a single quantum keeps it instead of evaporating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

__all__ = ["Quantization", "WeightError", "DEFAULT_QUANTA_PER_UNIT", "MAX_TOTAL_QUANTA"]

#: Default resolution: one input value = 2**40 quanta (q ~ 1e-12, the
#: paper's "q is set by floating point accuracy").  Deep enough that a
#: node can halve its weight every round for dozens of rounds — as
#: happens under heavy crash rates, when most gossip targets are dead —
#: without any collection being forced onto the one-quantum floor, where
#: conformance rule 2 would force-merge it and contaminate its summary.
#: Still exact up to :meth:`Quantization.check_population`'s bound of
#: 8,388,607 nodes (2**23 - 1) at this unit.
DEFAULT_QUANTA_PER_UNIT = 1 << 40

#: The largest total weight, in quanta, the packed ``int64`` columns
#: hold: the whole network's ``n * unit`` must not exceed it.
MAX_TOTAL_QUANTA = (1 << 63) - 1


class WeightError(ValueError):
    """Raised when a weight is invalid (non-positive or off-lattice)."""


@dataclass(frozen=True, slots=True)
class Quantization:
    """The weight lattice: all weights are multiples of ``1/quanta_per_unit``.

    Parameters
    ----------
    quanta_per_unit:
        Number of quanta making up the weight of one whole input value.
        Must be a positive integer.  The paper's ``q`` equals
        ``1 / quanta_per_unit``.

    Examples
    --------
    >>> lattice = Quantization(quanta_per_unit=4)
    >>> lattice.quantum
    0.25
    >>> lattice.split(5)
    (3, 2)
    >>> lattice.to_float(3)
    0.75
    """

    quanta_per_unit: int = DEFAULT_QUANTA_PER_UNIT

    def __post_init__(self) -> None:
        if not isinstance(self.quanta_per_unit, int) or self.quanta_per_unit < 1:
            raise WeightError(
                f"quanta_per_unit must be a positive integer, got {self.quanta_per_unit!r}"
            )

    @property
    def quantum(self) -> float:
        """The paper's ``q``: the smallest representable weight."""
        return 1.0 / self.quanta_per_unit

    @property
    def unit(self) -> int:
        """Quanta held by one whole input value (weight 1)."""
        return self.quanta_per_unit

    def check_population(self, n: int) -> int:
        """Validate a network size against the lattice, returning it unchanged.

        The ``n`` nodes' total weight, ``n * unit`` quanta, is conserved
        exactly and summed in ``int64``, so it must fit 2**63 - 1.  Every
        engine builder calls this before allocating anything.

        Raises
        ------
        WeightError
            If ``n * unit`` exceeds 2**63 - 1; the message names the
            largest ``n`` this unit allows.
        """
        if n * self.quanta_per_unit > MAX_TOTAL_QUANTA:
            raise WeightError(
                f"n = {n} nodes of {self.quanta_per_unit} quanta each exceed the "
                f"int64 total weight 2**63 - 1; this unit allows at most "
                f"n = {MAX_TOTAL_QUANTA // self.quanta_per_unit} (a smaller "
                "quanta_per_unit allows more)"
            )
        return n

    def to_float(self, quanta: int) -> float:
        """Convert an integer quantum count to its real-valued weight."""
        return quanta / self.quanta_per_unit

    def from_float(self, weight: float) -> int:
        """Snap a real-valued weight onto the lattice (nearest multiple)."""
        if weight < 0:
            raise WeightError(f"weight must be non-negative, got {weight}")
        return round(weight * self.quanta_per_unit)

    def check(self, quanta: int) -> int:
        """Validate a quantum count, returning it unchanged.

        Raises
        ------
        WeightError
            If ``quanta`` is not a positive integer (weight 0 collections
            must never exist: every collection describes at least one
            quantum of some input value).
        """
        if not isinstance(quanta, int):
            raise WeightError(f"weight must be an integer quantum count, got {quanta!r}")
        if quanta <= 0:
            raise WeightError(f"weight must be positive, got {quanta} quanta")
        return quanta

    def split(self, quanta: int) -> tuple[int, int]:
        """Split a weight per the paper's ``half`` function.

        Returns ``(kept, sent)`` with ``kept + sent == quanta`` and both
        being the multiples of ``q`` closest to ``quanta / 2`` (ties give
        the extra quantum to the kept share).  ``sent`` may be 0 when
        ``quanta == 1``; callers must then skip sending that collection.
        """
        self.check(quanta)
        sent = quanta // 2
        kept = quanta - sent
        return kept, sent

    def is_minimum(self, quanta: Any) -> Any:
        """True when this weight is exactly one quantum (the paper's ``q``).

        Takes an int or an integer array; on an array the test is
        elementwise and returns a boolean array of the same shape.
        Collections at the minimum weight receive special treatment in
        ``partition``: they must be merged with at least one other
        collection (Section 4.1's conformance rule 2).
        """
        return quanta == 1
