"""The protocol contract every gossip participant implements.

The simulation kernel (:mod:`repro.network.kernel`), under either
schedule, is protocol-agnostic: it moves opaque payloads between per-node
protocol objects.  Both the classification protocol and the push-sum
baseline implement this interface, which is what lets the Figure 3/4
benchmarks run the paper's algorithm and its "regular aggregation"
comparator under byte-identical network conditions.  The classification
protocol poses its receives (:meth:`GossipProtocol.defer_receive`) to the
one round driver, :func:`repro.core.receive.receive_round`.
"""

from __future__ import annotations

import abc
from functools import partial
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.receive import ReceiveBatch

__all__ = ["GossipProtocol"]


class GossipProtocol(abc.ABC):
    """Per-node protocol behaviour under gossip scheduling.

    A protocol object owns one node's state.  Engines call
    :meth:`make_payload` when the node is scheduled to transmit and
    :meth:`receive_batch` when messages are delivered.  Payloads are
    opaque to the engine and must be self-contained (they may cross the
    network long after the sender's state has moved on).
    """

    @abc.abstractmethod
    def make_payload(self) -> Optional[Any]:
        """Produce the payload for one outgoing message.

        May mutate local state (the classification protocol halves its
        weights here).  Returning ``None`` means the node has nothing it
        can legally send this time; the engine skips the transmission.
        """

    @abc.abstractmethod
    def receive_batch(self, payloads: Sequence[Any]) -> None:
        """Process one or more delivered payloads atomically.

        Round engines batch every payload delivered to a node within a
        round into a single call, matching the paper's methodology
        ("accumulate all the received collections and run EM once for the
        entire set"); asynchronous engines call with singleton batches.
        """

    def defer_receive(
        self, payloads: Sequence[Any], batch: "ReceiveBatch"
    ) -> Callable[[], None]:
        """Pose a delivered batch's receive; return the call that completes it.

        The kernel's receive phase runs in three passes: every receiver
        poses its receive on ``batch`` (this hook), the kernel answers
        ``batch``, then, in destination order, the kernel records each
        receiver's deliveries and runs the returned call.  The default
        defers :meth:`receive_batch` to that last pass, so a protocol
        that solves nothing jointly need not know about it.
        """
        return partial(self.receive_batch, payloads)
