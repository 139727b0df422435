"""Routing a round's payload rows, and the split that names them.

:func:`repro.mega.engine.route` sorts one unique integer key per row
(destination, then arrival position), so it must give exactly the
stable sort by destination that the in-memory transport's delivery
order rests on, with each receiver's rows bounded as ``np.unique``
bounds them.  The key's two halves bound the node and row counts; a
round past either is refused before anything of its size is built.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.mega.arena import NetworkArena
from repro.mega.engine import check_route, route
from repro.schemes.gm import GaussianMixtureScheme


def _stable(dest):
    """The routing by a stable argsort and ``np.unique``."""
    order = np.argsort(dest, kind="stable")
    receivers, starts = np.unique(dest[order], return_index=True)
    return order, receivers, np.append(starts, len(dest))


def _assert_routes_as_stable_sort(dest, n):
    dest = np.asarray(dest, dtype=np.int64)
    for got, want in zip(route(dest, n), _stable(dest)):
        assert got.tolist() == want.tolist()


@pytest.mark.parametrize("seed", range(5))
def test_random_destinations_route_as_the_stable_sort(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 200))
    _assert_routes_as_stable_sort(rng.integers(0, n, size=int(rng.integers(1, 600))), n)


def test_empty_round_routes_nothing():
    order, receivers, bounds = route(np.zeros(0, dtype=np.int64), 7)
    assert order.tolist() == [] and receivers.tolist() == [] and bounds.tolist() == [0]


def test_one_receiver_and_everyone_to_one_node():
    _assert_routes_as_stable_sort([3], 5)
    _assert_routes_as_stable_sort([4] * 9, 10)


def test_a_senders_rows_to_one_destination_keep_their_slot_order():
    # Each of 50 senders sends its k = 3 rows to one peer, as a split does.
    peers = np.random.default_rng(9).integers(0, 50, size=50)
    _assert_routes_as_stable_sort(np.repeat(peers, 3), 50)


def test_routing_key_limits():
    check_route(1 << 31, 1 << 32)
    with pytest.raises(ValueError, match=r"2\*\*31 nodes"):
        check_route((1 << 31) + 1, 10)
    with pytest.raises(ValueError, match=r"2\*\*32 rows"):
        check_route(10, (1 << 32) + 1)


def test_split_names_each_rows_cell_in_its_senders_row():
    values = np.random.default_rng(4).normal(size=(30, 2))
    arena = NetworkArena.from_values(values, GaussianMixtureScheme(seed=0), 3)
    # A second collection on every node (its neighbour's), one quantum on
    # node 7, which sends nothing from it.
    arena.counts[:] = 2
    arena.quanta[:, 1] = arena.quanta[:, 0] // 3
    arena.quanta[7, 1] = 1
    arena.quanta[:, 0] -= arena.quanta[:, 1]
    arena.ids[:, 1] = np.roll(arena.ids[:, 0], 1)
    for column in arena.columns.values():
        column[:, 1] = np.roll(column[:, 0], 1, axis=0)
    held = arena.quanta.copy()
    messages, sender, cells, quanta, ids = arena.split()
    expected_sender, slot = np.nonzero(held // 2)
    assert messages == 30 and len(cells) == 59
    assert sender.tolist() == expected_sender.tolist()
    assert cells.tolist() == (expected_sender * 3 + slot).tolist()
    assert quanta.tolist() == (held // 2)[expected_sender, slot].tolist()
    assert ids.tolist() == arena.ids[expected_sender, slot].tolist()
    for name, rows in arena.cell_columns().items():
        assert np.shares_memory(rows, arena.columns[name])
        assert rows[cells].tobytes() == arena.columns[name][expected_sender, slot].tobytes()
