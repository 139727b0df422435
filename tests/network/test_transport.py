"""The kernel's own in-memory transport, stats mirroring, frame transports."""

import gc
import weakref

import networkx as nx
import numpy as np
import pytest

from repro.network import frames, topology
from repro.network.frames import encode_frame
from repro.network.kernel import SimulationKernel
from repro.network.membership import PeerInfo
from repro.network.process_transport import ProcessTransport
from repro.network.schedulers import ENGINES, SynchronousRoundScheduler, make_scheduler
from repro.network.tcp_transport import AsyncioTCPTransport
from repro.network.transport import InMemoryTransport, TRANSPORT_NAMES
from repro.obs.events import RingBufferSink
from repro.protocols.classification import build_classification_network
from repro.schemes.centroid import CentroidScheme


def _values(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, 2))


def _protocols(n, seed=0):
    from repro.core.node import ClassifierNode

    values = _values(n, seed)
    return {
        i: ClassifierNode(i, values[i], CentroidScheme(), k=2) for i in range(n)
    }


class TestInMemorySeam:
    def test_kernel_defaults_to_in_memory_transport(self):
        kernel, _ = build_classification_network(
            _values(6), CentroidScheme(), k=2, graph=topology.complete(6)
        )
        assert isinstance(kernel.transport, InMemoryTransport)
        assert kernel.transport.kernel is kernel
        assert kernel.transport.name == "memory"
        assert "memory" in TRANSPORT_NAMES

    def test_factory_threads_explicit_transport_through(self):
        """Each engine's kernel holds its own transport, bound to it."""
        transports = []
        for engine_name in ENGINES:
            engine = SimulationKernel(
                topology.complete(4), _protocols(4), make_scheduler(engine_name)
            )
            assert isinstance(engine.transport, InMemoryTransport)
            assert engine.transport.kernel is engine
            transports.append(engine.transport)
        assert len({id(transport) for transport in transports}) == len(ENGINES)

    def test_channels_property_delegates_to_transport(self):
        kernel, _ = build_classification_network(
            _values(6), CentroidScheme(), k=2, graph=topology.complete(6)
        )
        kernel.run(2)
        # A channel is held only while a message is in flight on it, and
        # a synchronous round delivers everything it sent.
        assert kernel.transport.channels == {}
        assert kernel.in_flight_payloads() == []

    def test_stats_are_mirrored_into_metrics(self):
        sink = RingBufferSink()
        kernel, _ = build_classification_network(
            _values(8), CentroidScheme(), k=2, graph=topology.complete(8), event_sink=sink
        )
        kernel.run(5)
        stats = kernel.transport.stats
        # One in-memory frame per message sent, and per message delivered.
        assert stats.frames_sent == kernel.metrics.messages_sent
        assert stats.frames_received == kernel.metrics.messages_delivered
        assert stats.bytes_sent == 0  # objects, never serialised
        assert kernel.metrics.frames_sent == stats.frames_sent
        assert kernel.metrics.frames_received == stats.frames_received
        # peer_count: distinct directed edges used, counted from the sends.
        used_edges = {(event.node, event.peer) for event in sink.of_kind("send")}
        assert kernel.metrics.peer_count == len(used_edges) > 0
        snapshot = kernel.metrics.as_dict()
        for key in ("frames_sent", "frames_received", "bytes_sent", "reconnects"):
            assert key in snapshot

    @pytest.mark.parametrize(
        "build, edge, non_edge",
        [(topology.ring, (0, 5), (0, 3)), (topology.star, (4, 0), (1, 2))],
        ids=["ring", "star"],
    )
    def test_non_edge_is_refused(self, build, edge, non_edge):
        kernel, nodes = build_classification_network(
            _values(6), CentroidScheme(), k=2, graph=build(6)
        )
        source_quanta = nodes[non_edge[0]].total_quanta
        network_quanta = sum(node.total_quanta for node in nodes)
        with pytest.raises(KeyError, match="no edge"):
            kernel.transport.channel(*non_edge)
        with pytest.raises(KeyError, match="no edge"):
            kernel.transmit(*non_edge)
        # The refused send changed no state: no weight left the source.
        assert nodes[non_edge[0]].total_quanta == source_quanta
        assert sum(node.total_quanta for node in nodes) == network_quanta
        assert kernel.in_flight_payloads() == []
        channel = kernel.transport.channel(*edge)
        assert (channel.source, channel.destination) == edge
        assert kernel.transmit(*edge) == 1
        assert kernel.in_flight_payloads() != []
        kernel.transport.flush_deliveries()
        assert kernel.metrics.messages_delivered == 1

    def test_kernel_keeps_no_reference_to_its_graph(self):
        graph = nx.complete_graph(6)
        kernel, _ = build_classification_network(_values(6), CentroidScheme(), k=2, graph=graph)
        dropped = weakref.ref(graph)
        del graph
        gc.collect()
        assert dropped() is None
        kernel.run(2)
        assert kernel.metrics.messages_delivered == 12

    def test_frame_transport_is_rejected_by_the_kernel(self):
        """The kernel builds its own transport and takes none: frame
        transports are driven by :mod:`repro.network.runtime`."""
        transport = ProcessTransport(0, {0: _FakeQueue()})
        with pytest.raises(TypeError, match="transport"):
            SimulationKernel(
                topology.complete(4),
                _protocols(4),
                SynchronousRoundScheduler(),
                transport=transport,  # type: ignore[arg-type]
            )


class _FakeQueue:
    """Minimal stand-in for multiprocessing.Queue in single-process tests."""

    def __init__(self):
        import queue

        self._q = queue.Queue()

    def put(self, item):
        self._q.put(item)

    def get(self, timeout=None):
        import queue as _queue

        try:
            return self._q.get(timeout=timeout if timeout else 0.001)
        except _queue.Empty:
            raise _queue.Empty from None


class TestProcessTransport:
    def _pair(self):
        inboxes = {0: _FakeQueue(), 1: _FakeQueue()}
        return (
            ProcessTransport(0, inboxes),
            ProcessTransport(1, inboxes),
        )

    def test_frames_cross_and_are_verified(self):
        a, b = self._pair()
        frame = encode_frame(frames.DATA, 0, b"payload")
        assert a.send_frame(PeerInfo(1, "process", 1), frame)
        got = b.poll(timeout=0.5)
        assert got is not None and got.body == b"payload" and got.sender == 0
        assert a.stats.frames_sent == 1 and a.stats.bytes_sent == len(frame)
        assert b.stats.frames_received == 1 and b.stats.bytes_received == len(frame)

    def test_corrupt_item_is_dropped_and_counted(self):
        a, b = self._pair()
        frame = bytearray(encode_frame(frames.DATA, 0, b"payload"))
        frame[-1] ^= 0xFF
        assert a.send_frame(PeerInfo(1, "process", 1), bytes(frame))
        assert b.poll(timeout=0.5) is None
        assert b.frames_rejected == 1
        assert b.stats.frames_received == 0

    def test_forget_peer_makes_it_unreachable(self):
        a, _ = self._pair()
        peer = PeerInfo(1, "process", 1)
        a.forget_peer(peer)
        assert not a.send_frame(peer, encode_frame(frames.HEARTBEAT, 0))

    def test_closed_transport_refuses_traffic(self):
        a, _ = self._pair()
        a.close()
        assert not a.send_frame(PeerInfo(1, "process", 1), encode_frame(frames.HEARTBEAT, 0))
        assert a.poll(timeout=0.01) is None

    def test_missing_own_inbox_is_an_error(self):
        with pytest.raises(ValueError, match="no queue"):
            ProcessTransport(7, {0: _FakeQueue()})

    def test_drain_sweeps_queued_backlog_in_order(self):
        a, b = self._pair()
        peer = PeerInfo(1, "process", 1)
        for body in (b"one", b"two", b"three"):
            assert a.send_frame(peer, encode_frame(frames.DATA, 0, body))
        batch = b.drain(timeout=0.5)
        assert [frame.body for frame in batch] == [b"one", b"two", b"three"]
        assert b.stats.frames_received == 3
        # Backlog exhausted: a further drain times out empty.
        assert b.drain(timeout=0.01) == []

    def test_drain_times_out_empty(self):
        _, b = self._pair()
        assert b.drain(timeout=0.01) == []


class TestTcpTransport:
    def test_loopback_roundtrip_and_stats(self):
        a = AsyncioTCPTransport(0)
        b = AsyncioTCPTransport(1)
        a.start()
        b.start()
        try:
            peer = PeerInfo(1, "127.0.0.1", b.bound_port)
            frame = encode_frame(frames.DATA, 0, b"over tcp")
            assert a.send_frame(peer, frame)
            got = b.poll(timeout=5.0)
            assert got is not None
            assert got.kind == frames.DATA and got.body == b"over tcp"
            assert b.stats.frames_received == 1
            assert b.stats.bytes_received >= len(frame)
        finally:
            a.close()
            b.close()

    def test_ephemeral_port_is_reported(self):
        transport = AsyncioTCPTransport(3)
        transport.start()
        try:
            assert transport.bound_port and transport.bound_port > 0
            assert transport.describe()["transport"] == "tcp"
        finally:
            transport.close()

    def test_send_after_close_is_refused(self):
        transport = AsyncioTCPTransport(4)
        transport.start()
        transport.close()
        assert not transport.send_frame(
            PeerInfo(9, "127.0.0.1", 1), encode_frame(frames.HEARTBEAT, 4)
        )
