"""The generic algorithm node: split, receive/merge, bookkeeping."""

import numpy as np
import pytest

from repro.core.collection import Collection
from repro.core.fingerprint import MergeCache
from repro.core.node import ClassifierNode
from repro.core.packed import PackedPayload
from repro.core.scheme import PartitionError
from repro.core.weights import Quantization
from repro.schemes.centroid import CentroidScheme
from repro.schemes.gm import GaussianMixtureScheme


def make_node(value, k=3, quantization=None, **kwargs):
    return ClassifierNode(
        node_id=0,
        value=np.asarray(value, dtype=float),
        scheme=CentroidScheme(),
        k=k,
        quantization=quantization or Quantization(16),
        **kwargs,
    )


class TestInitialisation:
    def test_initial_classification_is_own_value(self):
        node = make_node([1.0, 2.0])
        classification = node.classification
        assert len(classification) == 1
        assert classification[0].quanta == 16
        assert np.allclose(classification[0].summary, [1.0, 2.0])

    def test_rejects_k_below_one(self):
        with pytest.raises(ValueError):
            make_node([1.0], k=0)

    def test_track_aux_requires_n_inputs(self):
        with pytest.raises(ValueError, match="n_inputs"):
            make_node([1.0], track_aux=True)

    def test_aux_initialised_to_unit_vector(self):
        node = ClassifierNode(
            node_id=2,
            value=np.array([1.0]),
            scheme=CentroidScheme(),
            k=2,
            quantization=Quantization(16),
            track_aux=True,
            n_inputs=4,
        )
        aux = node.classification[0].aux
        assert aux.components.tolist() == [0, 0, 16, 0]


class TestSplit:
    def test_make_message_halves_weight(self):
        node = make_node([1.0])
        payload = node.make_message()
        assert len(payload) == 1
        assert payload[0].quanta == 8
        assert node.total_quanta == 8

    def test_split_conserves_total_weight(self):
        node = make_node([1.0])
        total = node.total_quanta
        for _ in range(5):
            payload = node.make_message()
            total_sent = sum(c.quanta for c in payload)
            assert node.total_quanta + total_sent == total
            total = node.total_quanta

    @pytest.mark.parametrize(
        "unit, incoming, held, sent",
        [
            (1, [], [1], []),
            # Rows at 2 and 4 quanta split once into 1 and 2: the next
            # message carries the heavier row alone, with its digest.
            (2, [4], [1, 2], [([5.0], 1)]),
        ],
        ids=["one-row", "mixed-rows"],
    )
    def test_single_quantum_collections_produce_empty_message(self, unit, incoming, held, sent):
        node = make_node([1.0], quantization=Quantization(unit))
        node.receive([Collection(summary=np.array([5.0]), quanta=q) for q in incoming])
        if incoming:
            node.make_message()
        assert [c.quanta for c in node.classification] == held
        digests = node.summary_digests()
        payload = node.make_message()
        assert [(c.summary.tolist(), c.quanta) for c in payload] == sent
        assert payload.row_digests == tuple(d for d, q in zip(digests, held) if q > 1)
        assert [c.quanta for c in node.classification] == [q - q // 2 for q in held]
        assert node.stats.messages_made == len(incoming) + bool(sent)

    def test_stats_track_splits(self):
        node = make_node([1.0])
        node.make_message()
        node.make_message()
        assert node.stats.splits == 2
        assert node.stats.messages_made == 2


class TestReceive:
    def test_merge_respects_k(self):
        node = make_node([0.0, 0.0], k=2)
        incoming = [
            Collection(summary=np.array([10.0, 10.0]), quanta=16),
            Collection(summary=np.array([10.5, 10.0]), quanta=16),
            Collection(summary=np.array([0.5, 0.0]), quanta=16),
        ]
        node.receive(incoming)
        assert len(node.classification) <= 2

    def test_merge_conserves_weight(self):
        node = make_node([0.0], k=2)
        incoming = [Collection(summary=np.array([5.0]), quanta=16)]
        node.receive(incoming)
        assert node.total_quanta == 32

    def test_merged_centroid_is_weighted_average(self):
        node = make_node([0.0], k=1)
        node.receive([Collection(summary=np.array([6.0]), quanta=32)])
        classification = node.classification
        assert len(classification) == 1
        # (0 * 16 + 6 * 32) / 48 = 4
        assert np.allclose(classification[0].summary, [4.0])

    def test_empty_receive_is_noop(self):
        node = make_node([1.0])
        before = node.classification
        node.receive([])
        assert node.classification.collections == before.collections

    def test_batched_receive_runs_one_partition(self):
        node = make_node([0.0], k=2)
        incoming = [
            Collection(summary=np.array([1.0]), quanta=16),
            Collection(summary=np.array([2.0]), quanta=16),
        ]
        node.receive(incoming)
        assert node.stats.partition_calls == 1
        assert node.stats.collections_received == 2

    def test_singleton_groups_keep_summary_bytes(self):
        """Merging a singleton group is the identity (no new arithmetic)."""
        node = make_node([0.0, 0.0], k=4)
        far = Collection(summary=np.array([100.0, 100.0]), quanta=16)
        node.receive([far])
        assert any(
            c.summary.tobytes() == far.summary.tobytes() and c.quanta == far.quanta
            for c in node.classification
        )

    def test_aux_merged_by_summation(self):
        node = ClassifierNode(
            node_id=0,
            value=np.array([0.0]),
            scheme=CentroidScheme(),
            k=1,
            quantization=Quantization(16),
            track_aux=True,
            n_inputs=2,
        )
        other = ClassifierNode(
            node_id=1,
            value=np.array([2.0]),
            scheme=CentroidScheme(),
            k=1,
            quantization=Quantization(16),
            track_aux=True,
            n_inputs=2,
        )
        node.receive(other.make_message())
        aux = node.classification[0].aux
        assert np.allclose(aux.components, [16.0, 8.0])

    def test_aux_survives_a_collection_list(self):
        """A collection list (a decoded frame, a test's input) is packed
        with its aux vectors: the result equals receiving the payload."""
        nodes = [
            ClassifierNode(
                node_id=i,
                value=np.array([2.0 * i]),
                scheme=CentroidScheme(),
                k=1,
                quantization=Quantization(16),
                track_aux=True,
                n_inputs=2,
            )
            for i in range(2)
        ]
        nodes[0].receive(list(nodes[1].make_message()))
        assert nodes[0].classification[0].aux.components.tolist() == [16.0, 8.0]

    def test_aux_node_rejects_collections_without_aux(self):
        node = ClassifierNode(
            node_id=0,
            value=np.array([0.0]),
            scheme=CentroidScheme(),
            k=1,
            quantization=Quantization(16),
            track_aux=True,
            n_inputs=2,
        )
        with pytest.raises(ValueError, match="aux"):
            node.receive([Collection(summary=np.array([1.0]), quanta=16)])

    def test_validation_flag_accepts_correct_scheme(self):
        node = make_node([0.0], k=2, validate=True)
        node.receive([Collection(summary=np.array([1.0]), quanta=16)])
        assert node.total_quanta == 32


def _payload(scheme, values, quanta):
    """A message carrying one row per value, with the given quanta."""
    return PackedPayload(
        scheme=scheme,
        quanta=np.asarray(quanta, dtype=np.int64),
        columns=scheme.pack_summaries(
            [scheme.val_to_summary(np.asarray(value, dtype=float)) for value in values]
        ),
    )


class TestMemoKey:
    """Receives that pose different problems never share a memo entry.

    Every node below ends with the pooled rows ``a``, ``b``, ``c`` (in
    some order and split) against ``k = 2``, so each receive is a full
    solve that stores its outcome in the one shared cache.
    """

    a, b, c = [0.0], [1.0], [5.0]

    def _node(self, scheme, cache, value):
        return ClassifierNode(
            0, np.asarray(value), scheme, k=2, quantization=Quantization(16), merge_cache=cache
        )

    def _local_a_b(self, scheme, cache):
        """A node whose local rows are ``a`` (16 quanta) then ``b`` (8)."""
        node = self._node(scheme, cache, self.a)
        node.receive_packed([_payload(scheme, [self.b], [8])])
        return node

    def test_same_problem_shares_the_entry(self):
        scheme, cache = CentroidScheme(), MergeCache()
        first = self._local_a_b(scheme, cache)
        first.receive_packed([_payload(scheme, [self.c], [4])])
        again = self._local_a_b(scheme, cache)
        again.receive_packed([_payload(scheme, [self.c], [4])])
        assert (first.stats.cache_misses, again.stats.cache_memo_hits) == (1, 1)

    def test_rows_split_differently_do_not_share(self):
        scheme, cache = CentroidScheme(), MergeCache()
        first = self._local_a_b(scheme, cache)
        first.receive_packed([_payload(scheme, [self.c], [4])])
        second = self._node(scheme, cache, self.a)
        second.receive_packed([_payload(scheme, [self.b, self.c], [8, 4])])
        assert second.stats.cache_misses == 1
        assert second.stats.cache_memo_hits == 0
        assert cache.hits == 0 and len(cache) == 2

    def test_rows_in_another_order_do_not_share(self):
        scheme, cache = CentroidScheme(), MergeCache()
        first = self._local_a_b(scheme, cache)
        first.receive_packed([_payload(scheme, [self.c], [4])])
        second = self._node(scheme, cache, self.b)
        second.make_message()  # b keeps 8 of its 16 quanta
        second.receive_packed([_payload(scheme, [self.a], [16])])
        assert [c.quanta for c in second.classification] == [8, 16]
        second.receive_packed([_payload(scheme, [self.c], [4])])
        assert second.stats.cache_misses == 1
        assert second.stats.cache_memo_hits == 0
        assert cache.hits == 0 and len(cache) == 2


class TestFailedSolve:
    def test_failed_solve_gives_its_memo_slot_back(self, monkeypatch):
        """A solve that raises leaves no entry for a later receive to replay."""
        scheme, cache = GaussianMixtureScheme(seed=0), MergeCache()
        sender, first, second = (
            ClassifierNode(node, np.asarray(value), scheme, k=1, merge_cache=cache)
            for node, value in ((0, [5.0, 5.0]), (1, [0.0, 0.0]), (2, [0.0, 0.0]))
        )
        payload = sender.make_message()
        original = GaussianMixtureScheme.partition_packed

        def fail_once(self, *args, **kwargs):
            monkeypatch.setattr(GaussianMixtureScheme, "partition_packed", original)
            raise PartitionError("injected")

        monkeypatch.setattr(GaussianMixtureScheme, "partition_packed", fail_once)
        with pytest.raises(PartitionError, match="injected"):
            first.receive_packed([payload])
        assert len(cache) == 0
        second.receive_packed([payload])
        assert second.stats.cache_memo_hits == 0
        assert second.stats.cache_misses == 1
        unit = second.quantization.unit
        assert [c.quanta for c in second.classification] == [unit + unit // 2]
