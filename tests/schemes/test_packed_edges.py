"""Packed-state edge cases: minimum weights, ``k=1``, empty batches.

The node's receive pipeline runs on shared column arrays, so its
degenerate shapes — everything at one quantum, a single allowed
collection, nothing delivered — deserve their own pins alongside the
randomized parity suites.  Each case runs through the public
``pack_values`` / ``unpack_summary`` seam or the node receive path, the
latter checked against the test-side Algorithm 1 oracle.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracle import OracleNode, summary_bytes

from repro.core.collection import Collection
from repro.core.node import ClassifierNode
from repro.core.weights import Quantization
from repro.schemes.centroid import CentroidScheme
from repro.schemes.diagonal import DiagonalGaussianScheme
from repro.schemes.gm import GaussianMixtureScheme
from repro.schemes.histogram import HistogramScheme

QUANT = Quantization(16)
SCHEME_NAMES = ["centroid", "gm", "diagonal", "histogram"]


def _scheme(name: str):
    if name == "centroid":
        return CentroidScheme()
    if name == "gm":
        return GaussianMixtureScheme(seed=0)
    if name == "diagonal":
        return DiagonalGaussianScheme(seed=0)
    return HistogramScheme(-10.0, 10.0, bins=8)


def _value(name: str, rng: np.random.Generator):
    return float(rng.normal()) if name == "histogram" else rng.normal(size=2)


def _state(node) -> list[tuple[int, bytes]]:
    return [(c.quanta, summary_bytes(c.summary)) for c in node.classification]


class TestPackValuesRoundTrip:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_unpack_recovers_value_summaries(self, name):
        rng = np.random.default_rng(3)
        scheme = _scheme(name)
        values = [_value(name, rng) for _ in range(5)]
        columns = scheme.pack_values(values)
        for index, value in enumerate(values):
            unpacked = scheme.unpack_summary(columns, index)
            reference = scheme.val_to_summary(value)
            assert summary_bytes(unpacked) == summary_bytes(reference)

    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_single_value_pack(self, name):
        """A one-row pack (the smallest node) survives the round trip."""
        rng = np.random.default_rng(4)
        scheme = _scheme(name)
        value = _value(name, rng)
        columns = scheme.pack_values([value])
        assert summary_bytes(scheme.unpack_summary(columns, 0)) == summary_bytes(
            scheme.val_to_summary(value)
        )


class TestEmptyIncoming:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    @pytest.mark.parametrize("track_aux", [True, False])
    def test_empty_receive_is_a_noop(self, name, track_aux):
        rng = np.random.default_rng(5)
        node = ClassifierNode(
            0, _value(name, rng), _scheme(name), k=3, quantization=QUANT,
            track_aux=track_aux, n_inputs=1,
        )
        before = _state(node)
        node.receive([])
        assert _state(node) == before
        assert node.stats.partition_calls == 0
        assert (node.classification[0].aux is not None) == track_aux

    def test_empty_packed_batch_is_a_noop(self):
        rng = np.random.default_rng(6)
        node = ClassifierNode(0, _value("gm", rng), _scheme("gm"), k=3, quantization=QUANT)
        before = _state(node)
        node.receive_packed([])
        assert _state(node) == before

    def test_one_quantum_node_sends_nothing(self):
        """At the lattice minimum nothing is splittable: the message is
        empty (falsy), which the protocol converts into no send at all."""
        rng = np.random.default_rng(7)
        node = ClassifierNode(
            0,
            _value("gm", rng),
            _scheme("gm"),
            k=3,
            quantization=Quantization(1),
        )
        payload = node.make_message()
        assert not payload
        assert _state(node) == [(1, _state(node)[0][1])]  # nothing was split away


class TestOneQuantumCollections:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_minimum_weight_receive_parity(self, name):
        """All-minimum pools force rule-2 merging; the node and the
        oracle must agree byte for byte on the merged result."""
        rng = np.random.default_rng(8)
        value = _value(name, rng)
        incoming_values = [_value(name, rng) for _ in range(4)]
        states = []
        for node_class in (ClassifierNode, OracleNode):
            scheme = _scheme(name)
            node = node_class(0, value, scheme, k=3, quantization=QUANT, validate=True)
            incoming = [
                Collection(summary=scheme.val_to_summary(v), quanta=1)
                for v in incoming_values
            ]
            node.receive(incoming)
            states.append(_state(node))
            # Rule 2: one-quantum collections can never survive alone when
            # anything else is present to merge with.
            assert len(node.classification) <= 3
        assert states[0] == states[1]


class TestKEqualsOne:
    @pytest.mark.parametrize("name", SCHEME_NAMES)
    def test_everything_merges_to_one_collection(self, name):
        rng = np.random.default_rng(9)
        value = _value(name, rng)
        incoming_values = [_value(name, rng) for _ in range(3)]
        states = []
        for node_class in (ClassifierNode, OracleNode):
            scheme = _scheme(name)
            node = node_class(0, value, scheme, k=1, quantization=QUANT, validate=True)
            incoming = [
                Collection(summary=scheme.val_to_summary(v), quanta=int(QUANT.unit))
                for v in incoming_values
            ]
            node.receive(incoming)
            states.append(_state(node))
            assert len(node.classification) == 1
            total = QUANT.unit * (1 + len(incoming_values))
            assert node.classification[0].quanta == total
        assert states[0] == states[1]

    def test_k_one_gossip_stays_single(self):
        """Two k=1 nodes exchanging messages always hold one collection."""
        rng = np.random.default_rng(10)
        scheme = GaussianMixtureScheme(seed=0)
        nodes = [
            ClassifierNode(i, rng.normal(size=2), scheme, k=1, quantization=QUANT)
            for i in range(2)
        ]
        for _ in range(6):
            payload = nodes[0].make_message()
            if payload:
                nodes[1].receive(payload)
            payload = nodes[1].make_message()
            if payload:
                nodes[0].receive(payload)
            assert all(len(node.classification) == 1 for node in nodes)
