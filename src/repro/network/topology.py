"""Topology builders for the simulated sensor network.

The convergence theorem (Section 6) holds over *any* static connected
topology; the experiments exercise several.  All builders return an
undirected :class:`networkx.Graph` over nodes ``0..n-1`` — message
channels are instantiated in both directions by the engines — and every
builder guarantees connectivity (retrying or densifying if a random draw
comes out disconnected).
"""

from __future__ import annotations

import math
from typing import Callable

import networkx as nx
import numpy as np

__all__ = [
    "complete",
    "ring",
    "grid",
    "torus",
    "star",
    "line",
    "balanced_tree",
    "random_geometric",
    "erdos_renyi",
    "watts_strogatz",
    "neighbors_map",
    "validate_topology",
    "TOPOLOGIES",
    "make_topology",
]


def _relabel(graph: nx.Graph) -> nx.Graph:
    """Canonicalise node labels to ``0..n-1`` integers."""
    return nx.convert_node_labels_to_integers(graph, ordering="sorted")


def validate_topology(graph: nx.Graph) -> nx.Graph:
    """Assert the invariants every engine relies on; returns the graph."""
    if graph.number_of_nodes() == 0:
        raise ValueError("topology must have at least one node")
    if graph.number_of_nodes() > 1 and not nx.is_connected(graph):
        raise ValueError("topology must be connected")
    if any(graph.has_edge(node, node) for node in graph.nodes):
        raise ValueError("topology must not contain self-loops")
    expected = set(range(graph.number_of_nodes()))
    if set(graph.nodes) != expected:
        raise ValueError("topology nodes must be labelled 0..n-1")
    return graph


def complete(n: int) -> nx.Graph:
    """Fully connected network — the paper's simulation topology."""
    return validate_topology(nx.complete_graph(n))


def ring(n: int) -> nx.Graph:
    """Cycle over n nodes; the sparsest 2-regular connected topology."""
    if n < 3:
        raise ValueError("a ring needs at least 3 nodes")
    return validate_topology(nx.cycle_graph(n))


def line(n: int) -> nx.Graph:
    """Path graph: the worst case for gossip diameter."""
    if n < 2:
        raise ValueError("a line needs at least 2 nodes")
    return validate_topology(nx.path_graph(n))


def grid(rows: int, cols: int) -> nx.Graph:
    """2-D lattice, the canonical planar sensor deployment."""
    return validate_topology(_relabel(nx.grid_2d_graph(rows, cols)))


def torus(rows: int, cols: int) -> nx.Graph:
    """2-D lattice with wrap-around edges."""
    return validate_topology(_relabel(nx.grid_2d_graph(rows, cols, periodic=True)))


def star(n: int) -> nx.Graph:
    """One hub connected to n-1 leaves (a base-station deployment)."""
    if n < 2:
        raise ValueError("a star needs at least 2 nodes")
    return validate_topology(nx.star_graph(n - 1))


def balanced_tree(branching: int, height: int) -> nx.Graph:
    """Balanced tree: hierarchical aggregation infrastructure."""
    return validate_topology(_relabel(nx.balanced_tree(branching, height)))


def random_geometric(n: int, radius: float | None = None, seed: int = 0) -> nx.Graph:
    """Random geometric graph: sensors scattered in the unit square.

    Nodes connect when within ``radius``; the default radius is slightly
    above the connectivity threshold ``sqrt(log n / (pi n))`` and is grown
    geometrically until the draw is connected, so the function always
    returns a connected deployment.
    """
    if n < 2:
        raise ValueError("need at least 2 sensors")
    rng = np.random.default_rng(seed)
    if radius is None:
        radius = 1.5 * math.sqrt(math.log(max(n, 2)) / (math.pi * n))
    positions = {i: (rng.uniform(), rng.uniform()) for i in range(n)}
    for _ in range(32):
        graph = nx.random_geometric_graph(n, radius, pos=positions)
        if nx.is_connected(graph):
            return validate_topology(graph)
        radius *= 1.25
    raise RuntimeError("failed to build a connected geometric graph")


def erdos_renyi(n: int, probability: float | None = None, seed: int = 0) -> nx.Graph:
    """Erdős–Rényi random graph, re-drawn until connected."""
    if n < 2:
        raise ValueError("need at least 2 nodes")
    if probability is None:
        probability = min(1.0, 2.0 * math.log(max(n, 2)) / n)
    for attempt in range(64):
        graph = nx.gnp_random_graph(n, probability, seed=seed + attempt)
        if nx.is_connected(graph):
            return validate_topology(graph)
        probability = min(1.0, probability * 1.25)
    raise RuntimeError("failed to build a connected Erdős–Rényi graph")


def watts_strogatz(n: int, k: int = 4, rewire: float = 0.2, seed: int = 0) -> nx.Graph:
    """Small-world graph (connected Watts-Strogatz)."""
    return validate_topology(nx.connected_watts_strogatz_graph(n, k, rewire, seed=seed))


def neighbors_map(graph: nx.Graph) -> dict[int, tuple[int, ...]]:
    """Sorted adjacency tuples, the form engines and nodes consume.

    A selector picks a neighbour by its position here, so the order is
    part of every run's bytes.  Tuples of ints leave the collector's
    tracking after its first pass over them, so a long run's full
    collections do not walk the topology again.
    """
    return {node: tuple(sorted(graph.neighbors(node))) for node in graph.nodes}


def _square_grid(n: int) -> nx.Graph:
    """The squarest lattice of whole rows that fits in ``n`` nodes."""
    side = max(1, math.isqrt(n))
    return grid(side, n // side)


#: The graph families by name, each built from a node count and a seed
#: that only the random families read.  A family may build fewer than
#: ``n`` nodes (``grid`` keeps whole rows), never more.
TOPOLOGIES: dict[str, Callable[[int, int], nx.Graph]] = {
    "complete": lambda n, seed: complete(n),
    "ring": lambda n, seed: ring(n),
    "line": lambda n, seed: line(n),
    "star": lambda n, seed: star(n),
    "grid": lambda n, seed: _square_grid(n),
    "geometric": lambda n, seed: random_geometric(n, seed=seed),
    "small_world": lambda n, seed: watts_strogatz(n, k=4, rewire=0.2, seed=seed),
    "erdos_renyi": lambda n, seed: erdos_renyi(n, seed=seed),
}


def make_topology(name: str, n: int, seed: int = 0) -> nx.Graph:
    """The :data:`TOPOLOGIES` graph ``name`` over at most ``n`` nodes."""
    try:
        build = TOPOLOGIES[name]
    except KeyError:
        raise ValueError(f"unknown topology {name!r}; choose from {sorted(TOPOLOGIES)}") from None
    return build(n, seed)
