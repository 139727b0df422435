"""Every engine builder refuses a network its weight lattice cannot hold.

``Quantization(1 << 62)`` with two nodes overflows ``int64`` (2 * 2**62 =
2**63), so each builder must raise before allocating anything; the
default unit's bound (8,388,607 nodes) is covered in ``test_weights``.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core.weights import Quantization, WeightError
from repro.deploy.cluster import run_cluster
from repro.mega.arena import NetworkArena
from repro.mega.engine import ArenaEngine
from repro.mega.shard import ShardedArenaEngine
from repro.network.topology import complete
from repro.protocols.classification import build_classification_network
from repro.schemes.gm import GaussianMixtureScheme

COARSE = Quantization(1 << 62)
VALUES = np.array([[0.0, 0.0], [8.0, 8.0]])


def test_kernel_builder_rejects_an_overflowing_network():
    with pytest.raises(WeightError, match="at most n = 1 "):
        build_classification_network(
            VALUES, GaussianMixtureScheme(seed=0), k=2, graph=complete(2), quantization=COARSE
        )


def test_arena_rejects_an_overflowing_network():
    with pytest.raises(WeightError, match="at most n = 1 "):
        NetworkArena.from_values(VALUES, GaussianMixtureScheme(seed=0), 2, COARSE)
    with pytest.raises(WeightError, match="at most n = 1 "):
        ArenaEngine(VALUES, GaussianMixtureScheme(seed=0), 2, quantization=COARSE)


def test_sharded_engine_rejects_before_any_worker_starts():
    with pytest.raises(WeightError, match="at most n = 1 "):
        ShardedArenaEngine(
            VALUES, GaussianMixtureScheme(seed=0), 2, shards=2, quantization=COARSE
        )
    assert multiprocessing.active_children() == []


def test_cluster_rejects_before_building_the_workload():
    # 2**23 nodes at the default unit: refused before any workload row
    # or node process exists.
    with pytest.raises(WeightError, match="at most n = 8388607 "):
        run_cluster(n_nodes=1 << 23, transport="process")
