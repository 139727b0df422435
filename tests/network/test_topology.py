"""Topology builders: connectivity, labelling, validation."""

import networkx as nx
import pytest

from repro.network import topology


ALL_BUILDERS = [
    ("complete", lambda: topology.complete(12)),
    ("ring", lambda: topology.ring(12)),
    ("line", lambda: topology.line(12)),
    ("grid", lambda: topology.grid(3, 4)),
    ("torus", lambda: topology.torus(3, 4)),
    ("star", lambda: topology.star(12)),
    ("tree", lambda: topology.balanced_tree(2, 3)),
    ("geometric", lambda: topology.random_geometric(12, seed=1)),
    ("erdos_renyi", lambda: topology.erdos_renyi(12, seed=1)),
    ("small_world", lambda: topology.watts_strogatz(12, k=4, seed=1)),
]


@pytest.mark.parametrize("name,builder", ALL_BUILDERS)
class TestAllBuilders:
    def test_connected(self, name, builder):
        assert nx.is_connected(builder())

    def test_labels_are_zero_to_n(self, name, builder):
        graph = builder()
        assert set(graph.nodes) == set(range(graph.number_of_nodes()))

    def test_no_self_loops(self, name, builder):
        graph = builder()
        assert all(not graph.has_edge(node, node) for node in graph.nodes)


class TestShapes:
    def test_complete_edge_count(self):
        assert topology.complete(10).number_of_edges() == 45

    def test_ring_degree_two(self):
        graph = topology.ring(8)
        assert all(graph.degree(node) == 2 for node in graph.nodes)

    def test_line_has_two_endpoints(self):
        graph = topology.line(8)
        degrees = sorted(graph.degree(node) for node in graph.nodes)
        assert degrees[:2] == [1, 1]

    def test_grid_node_count(self):
        assert topology.grid(3, 5).number_of_nodes() == 15

    def test_torus_regular_degree(self):
        graph = topology.torus(4, 4)
        assert all(graph.degree(node) == 4 for node in graph.nodes)

    def test_star_hub(self):
        graph = topology.star(9)
        degrees = sorted((graph.degree(node) for node in graph.nodes), reverse=True)
        assert degrees[0] == 8


class TestValidationErrors:
    def test_small_ring_rejected(self):
        with pytest.raises(ValueError):
            topology.ring(2)

    def test_small_star_rejected(self):
        with pytest.raises(ValueError):
            topology.star(1)

    def test_small_line_rejected(self):
        with pytest.raises(ValueError):
            topology.line(1)

    def test_small_geometric_rejected(self):
        with pytest.raises(ValueError):
            topology.random_geometric(1)

    def test_disconnected_graph_rejected(self):
        graph = nx.Graph()
        graph.add_nodes_from([0, 1, 2, 3])
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        with pytest.raises(ValueError, match="connected"):
            topology.validate_topology(graph)

    def test_self_loop_rejected(self):
        graph = nx.complete_graph(3)
        graph.add_edge(1, 1)
        with pytest.raises(ValueError, match="self-loops"):
            topology.validate_topology(graph)

    def test_bad_labels_rejected(self):
        graph = nx.Graph()
        graph.add_edge("a", "b")
        with pytest.raises(ValueError, match="labelled"):
            topology.validate_topology(graph)

    def test_empty_graph_rejected(self):
        with pytest.raises(ValueError):
            topology.validate_topology(nx.Graph())


class TestNeighborsMap:
    def test_sorted_adjacency(self):
        mapping = topology.neighbors_map(topology.ring(5))
        assert mapping[0] == (1, 4)
        assert mapping[2] == (1, 3)

    def test_covers_all_nodes(self):
        mapping = topology.neighbors_map(topology.complete(6))
        assert set(mapping) == set(range(6))
        assert all(len(neighbors) == 5 for neighbors in mapping.values())


class TestGeometricGrowth:
    def test_tiny_radius_still_connected(self):
        """The builder grows the radius until the draw connects."""
        graph = topology.random_geometric(30, radius=0.01, seed=3)
        assert nx.is_connected(graph)


class TestNamedTopologies:
    @pytest.mark.parametrize("name", sorted(topology.TOPOLOGIES))
    def test_builds_connected_within_n(self, name):
        graph = topology.make_topology(name, 10, seed=4)
        assert 2 <= graph.number_of_nodes() <= 10
        assert nx.is_connected(graph)
        again = topology.make_topology(name, 10, seed=4)
        assert topology.neighbors_map(again) == topology.neighbors_map(graph)

    def test_unknown_name_lists_the_table(self):
        with pytest.raises(ValueError, match="unknown topology 'torus'") as error:
            topology.make_topology("torus", 10)
        assert all(repr(name) in str(error.value) for name in topology.TOPOLOGIES)
