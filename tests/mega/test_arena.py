"""Arena and interner mechanics: construction, interning, slicing.

The arena's whole design rests on one bijection — within an interner, a
dense id ⟺ a packed-row byte pattern ⟺ a content digest — so these
tests pin the byte-exactness of interning round trips and the
conservation invariants (`counts` bounded by ``k``, row quanta summing
to the unit).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.weights import Quantization
from repro.mega.arena import NetworkArena, SummaryInterner
from repro.schemes.centroid import CentroidScheme
from repro.schemes.gm import GaussianMixtureScheme


@pytest.fixture
def values() -> np.ndarray:
    return np.random.default_rng(5).normal(size=(20, 2))


def test_from_values_shapes_and_invariants(values):
    scheme = GaussianMixtureScheme(seed=0)
    arena = NetworkArena.from_values(values, scheme, k=3)
    assert arena.n == 20
    assert arena.counts.tolist() == [1] * 20
    assert arena.quanta.shape == (20, 3)
    assert arena.ids.shape == (20, 3)
    assert arena.columns["mean"].shape == (20, 3, 2)
    assert arena.columns["cov"].shape == (20, 3, 2, 2)
    unit = Quantization().unit
    assert arena.total_quanta() == 20 * unit
    assert bool(np.all(arena.quanta[:, 0] == unit))


def test_from_values_initial_summaries_roundtrip(values):
    scheme = GaussianMixtureScheme(seed=0)
    arena = NetworkArena.from_values(values, scheme, k=3)
    for node in range(arena.n):
        (collection,) = arena.node_collections(node)
        np.testing.assert_array_equal(collection.summary.mean, values[node])
        np.testing.assert_array_equal(collection.summary.cov, np.zeros((2, 2)))
        assert collection.digest == scheme.summary_digest(collection.summary)


def test_duplicate_values_share_ids():
    values = np.array([[1.0, 2.0], [3.0, 4.0], [1.0, 2.0], [1.0, 2.0]])
    arena = NetworkArena.from_values(values, CentroidScheme(), k=2)
    ids = arena.ids[:, 0]
    assert ids[0] == ids[2] == ids[3]
    assert ids[0] != ids[1]
    assert len(arena.interner) == 2


def test_interner_roundtrip_bytes_exact():
    scheme = GaussianMixtureScheme(seed=0)
    rng = np.random.default_rng(9)
    packed = {
        "mean": rng.normal(size=(6, 2)),
        "cov": rng.normal(size=(6, 2, 2)),
    }
    interner = SummaryInterner(scheme, {"mean": (2,), "cov": (2, 2)})
    ids = interner.intern_rows(packed, 6)
    for row, summary_id in enumerate(ids):
        decoded = interner.row_arrays(int(summary_id))
        np.testing.assert_array_equal(decoded["mean"], packed["mean"][row])
        np.testing.assert_array_equal(decoded["cov"], packed["cov"][row])
        # The intern key is the sorted-column byte concatenation.
        expected = (
            np.ascontiguousarray(packed["cov"][row]).tobytes()
            + np.ascontiguousarray(packed["mean"][row]).tobytes()
        )
        assert interner.key_bytes(int(summary_id)) == expected


def test_interner_single_row_matches_bulk():
    scheme = CentroidScheme()
    rng = np.random.default_rng(2)
    packed = {"position": rng.normal(size=(4, 3))}
    bulk = SummaryInterner(scheme, {"position": (3,)})
    bulk_ids = bulk.intern_rows(packed, 4)
    single = SummaryInterner(scheme, {"position": (3,)})
    single_ids = [single.intern_row(packed, row) for row in range(4)]
    assert bulk_ids.tolist() == single_ids
    for a, b in zip(bulk_ids, single_ids):
        assert bulk.key_bytes(int(a)) == single.key_bytes(int(b))


def test_interner_shape_mismatch_rejected():
    interner = SummaryInterner(CentroidScheme(), {"position": (3,)})
    with pytest.raises(ValueError, match="shape"):
        interner.intern_rows({"position": np.zeros((4, 2))}, 4)


def test_unsupported_scheme_rejected():
    class NoPacked(CentroidScheme):
        @property
        def supports_packed(self) -> bool:
            return False

    with pytest.raises(ValueError, match="packed"):
        NetworkArena.from_values(np.zeros((4, 2)), NoPacked(), k=2)


def test_zero_values_rejected():
    with pytest.raises(ValueError, match="zero values"):
        NetworkArena.from_values(np.zeros((0, 2)), CentroidScheme(), k=2)
