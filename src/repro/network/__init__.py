"""Network substrate: topologies, channels, kernel, schedulers, failures.

The model is the paper's Section 3.1: ``n`` nodes on a static connected
topology joined by reliable asynchronous channels.  One simulation kernel
(:class:`~repro.network.kernel.SimulationKernel`) owns the network
state, its in-memory transport, and the delivery, failure and
observability machinery; a pluggable scheduler decides *when* it runs —
:class:`~repro.network.schedulers.SynchronousRoundScheduler` reproduces
the paper's round-counted simulations, and
:class:`~repro.network.schedulers.PoissonScheduler` realises the fully
asynchronous executions of the convergence proof
(:func:`~repro.network.schedulers.make_scheduler` picks one by name).
"""

from repro.network.channel import Channel, InFlightMessage
from repro.network.events import EventQueue
from repro.network.failures import (
    BernoulliCrashes,
    FailureModel,
    NoFailures,
    ScheduledCrashes,
)
from repro.network.frames import Frame, FrameDecoder, FrameError
from repro.network.kernel import GOSSIP_VARIANTS, Scheduler, SimulationKernel
from repro.network.links import AlwaysUp, LinkSchedule, WindowedOutage, cut_edges
from repro.network.membership import MembershipView, PeerInfo
from repro.network.metrics import NetworkMetrics
from repro.network.process_transport import ProcessTransport
from repro.network.runtime import NodeRuntime
from repro.network.schedulers import (
    ENGINES,
    PoissonScheduler,
    SynchronousRoundScheduler,
    make_scheduler,
)
from repro.network.tcp_transport import AsyncioTCPTransport
from repro.network.trace import RoundRecord, RunTracer
from repro.network.transport import (
    FrameTransport,
    InMemoryTransport,
    Transport,
    TransportStats,
    TRANSPORT_NAMES,
)
from repro.network.webapi import NodeWebAPI
from repro.network.simulator import (
    NeighborSelector,
    RandomSelector,
    RoundRobinSelector,
)
from repro.network import topology

__all__ = [
    "AlwaysUp",
    "AsyncioTCPTransport",
    "BernoulliCrashes",
    "Channel",
    "ENGINES",
    "EventQueue",
    "FailureModel",
    "Frame",
    "FrameDecoder",
    "FrameError",
    "FrameTransport",
    "GOSSIP_VARIANTS",
    "InFlightMessage",
    "InMemoryTransport",
    "LinkSchedule",
    "MembershipView",
    "NeighborSelector",
    "NetworkMetrics",
    "NoFailures",
    "NodeRuntime",
    "NodeWebAPI",
    "PeerInfo",
    "PoissonScheduler",
    "ProcessTransport",
    "RandomSelector",
    "RoundRecord",
    "RoundRobinSelector",
    "RunTracer",
    "ScheduledCrashes",
    "Scheduler",
    "SimulationKernel",
    "SynchronousRoundScheduler",
    "TRANSPORT_NAMES",
    "Transport",
    "TransportStats",
    "WindowedOutage",
    "cut_edges",
    "make_scheduler",
    "topology",
]
