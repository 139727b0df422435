"""Push-sum average aggregation (the "regular aggregation" baseline)."""

import numpy as np
import pytest

from repro.core.weights import Quantization
from repro.network.topology import complete, ring
from repro.protocols.classification import build_classification_network
from repro.protocols.push_sum import PushSumProtocol, build_push_sum_network
from repro.schemes.centroid import CentroidScheme


class TestProtocolMechanics:
    def test_split_halves_state(self):
        protocol = PushSumProtocol(np.array([4.0]))
        s, w = protocol.make_payload()
        assert s[0] == 2.0 and w == 0.5
        assert protocol.s[0] == 2.0 and protocol.w == 0.5

    def test_receive_accumulates(self):
        protocol = PushSumProtocol(np.array([1.0]))
        protocol.receive_batch([(np.array([3.0]), 1.0), (np.array([2.0]), 0.5)])
        assert protocol.s[0] == 6.0
        assert protocol.w == 2.5

    def test_estimate(self):
        protocol = PushSumProtocol(np.array([4.0, 8.0]))
        assert np.allclose(protocol.estimate, [4.0, 8.0])

    def test_estimate_requires_mass(self):
        protocol = PushSumProtocol(np.array([1.0]))
        protocol.w = 0.0
        with pytest.raises(RuntimeError):
            protocol.estimate


class TestConvergence:
    def test_converges_to_true_mean_on_complete_graph(self):
        values = np.arange(20, dtype=float)[:, None]
        engine, protocols = build_push_sum_network(values, complete(20), seed=0)
        engine.run(40)
        for protocol in protocols:
            assert protocol.estimate[0] == pytest.approx(9.5, abs=0.01)

    def test_converges_on_ring(self):
        values = np.arange(8, dtype=float)[:, None]
        engine, protocols = build_push_sum_network(values, ring(8), seed=0)
        engine.run(400)
        for protocol in protocols:
            assert protocol.estimate[0] == pytest.approx(3.5, abs=0.05)

    def test_mass_conservation_between_rounds(self):
        values = np.arange(10, dtype=float)[:, None]
        engine, protocols = build_push_sum_network(values, complete(10), seed=0)
        for _ in range(10):
            engine.run(1)
            total_s = sum(p.s[0] for p in protocols)
            total_w = sum(p.w for p in protocols)
            assert total_s == pytest.approx(45.0, rel=1e-12)
            assert total_w == pytest.approx(10.0, rel=1e-12)

    def test_builder_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_push_sum_network(np.zeros((3, 1)), complete(4))


class TestEquivalenceWithK1Centroids:
    def test_push_sum_equals_k1_centroid_gossip(self):
        """The k=1 centroid instantiation *is* weight-diffusion averaging.

        Both protocols, run under identical engines/seeds, must converge
        to the same value — the input average.
        """
        values = np.linspace(-5, 5, 16)[:, None]
        push_engine, push_protocols = build_push_sum_network(values, complete(16), seed=7)
        push_engine.run(40)
        cls_engine, nodes = build_classification_network(
            values, CentroidScheme(), k=1, graph=complete(16), seed=7
        )
        cls_engine.run(40)
        truth = float(values.mean())
        for protocol, node in zip(push_protocols, nodes):
            assert protocol.estimate[0] == pytest.approx(truth, abs=1e-6)
            assert node.classification[0].summary[0] == pytest.approx(truth, abs=1e-6)
