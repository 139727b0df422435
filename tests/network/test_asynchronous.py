"""The kernel under the Poisson scheduler (the Section 6 setting)."""

import numpy as np
import pytest

from repro.network.kernel import SimulationKernel
from repro.network.schedulers import PoissonScheduler
from repro.network.topology import complete, ring
from repro.protocols.base import GossipProtocol
from repro.protocols.push_sum import PushSumProtocol


class CountingProtocol(GossipProtocol):
    def __init__(self):
        self.sent = 0
        self.received = 0

    def make_payload(self):
        self.sent += 1
        return "tick"

    def receive_batch(self, payloads):
        self.received += len(payloads)


def build(n=4, graph=None, protocol_factory=CountingProtocol, scheduler=None, **kwargs):
    graph = graph if graph is not None else complete(n)
    protocols = {i: protocol_factory() for i in range(graph.number_of_nodes())}
    engine = SimulationKernel(graph, protocols, scheduler or PoissonScheduler(), **kwargs)
    return engine, protocols


def run_until(engine, time):
    """Process every event before ``time`` (the Poisson scheduler's drive)."""
    engine.scheduler.run_until(engine, time)


class TestConstruction:
    def test_rejects_nonpositive_interval(self):
        with pytest.raises(ValueError):
            build(3, scheduler=PoissonScheduler(mean_interval=0.0))

    def test_rejects_invalid_delay_range(self):
        with pytest.raises(ValueError):
            build(3, scheduler=PoissonScheduler(delay_range=(2.0, 1.0)))


class TestEventProcessing:
    def test_time_advances_monotonically(self):
        engine, _ = build(4, seed=1)
        times = []
        for _ in range(50):
            engine.run_steps(1)
            times.append(engine.scheduler.now)
        assert times == sorted(times)

    def test_every_node_eventually_sends_and_receives(self):
        engine, protocols = build(4, seed=1)
        engine.run_steps(400)
        assert all(p.sent > 0 for p in protocols.values())
        assert all(p.received > 0 for p in protocols.values())

    def test_run_until_processes_all_earlier_events(self):
        engine, _ = build(4, seed=1)
        run_until(engine, 20.0)
        assert engine.scheduler.now >= 20.0

    def test_run_events_stop_condition(self):
        engine, _ = build(4, seed=1)
        executed = engine.run_steps(1000, stop_condition=lambda e: e.metrics.events >= 10)
        assert executed == 10

    def test_crashed_node_goes_silent(self):
        engine, protocols = build(4, seed=1)
        run_until(engine, 5.0)
        engine.crash(0)
        sent_before = protocols[0].sent
        received_before = protocols[0].received
        run_until(engine, 50.0)
        # Fail-stop: the crashed node neither sends nor processes again;
        # in-flight messages addressed to it are dropped on arrival.
        assert protocols[0].sent == sent_before
        assert protocols[0].received == received_before
        assert engine.metrics.messages_dropped > 0

    def test_in_flight_payloads_visible(self):
        engine, _ = build(6, seed=2, scheduler=PoissonScheduler(delay_range=(5.0, 10.0)))
        run_until(engine, 3.0)  # sends happened, nothing delivered yet
        assert len(engine.in_flight_payloads()) > 0


class TestReliability:
    def test_push_sum_mass_conserved_through_channels(self):
        """Total (s, w) over nodes + in-flight messages never changes."""
        values = np.arange(6, dtype=float)[:, None]
        graph = ring(6)
        protocols = {i: PushSumProtocol(values[i]) for i in range(6)}
        engine = SimulationKernel(
            graph, protocols, PoissonScheduler(delay_range=(0.5, 4.0)), seed=3
        )
        for checkpoint in [5.0, 20.0, 60.0]:
            run_until(engine, checkpoint)
            total_s = sum(p.s[0] for p in protocols.values())
            total_w = sum(p.w for p in protocols.values())
            for payload in engine.in_flight_payloads():
                s, w = payload
                total_s += s[0]
                total_w += w
            assert total_s == pytest.approx(15.0, rel=1e-9)
            assert total_w == pytest.approx(6.0, rel=1e-9)

    def test_push_sum_converges_asynchronously(self):
        values = np.arange(8, dtype=float)[:, None]
        graph = complete(8)
        protocols = {i: PushSumProtocol(values[i]) for i in range(8)}
        engine = SimulationKernel(graph, protocols, PoissonScheduler(), seed=4)
        run_until(engine, 200.0)
        for protocol in protocols.values():
            assert protocol.estimate[0] == pytest.approx(3.5, abs=0.05)


class TestFifoMode:
    def test_fifo_engine_runs(self):
        engine, protocols = build(4, seed=5, fifo=True)
        engine.run_steps(200)
        assert all(p.received > 0 for p in protocols.values())
