"""Graph construction, line graphs, incidence identities, bridges, Euler trails."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurwalk import (
    Graph,
    WeightedGraph,
    adjacency_matrix,
    bridges,
    complete_bipartite_graph,
    complete_graph,
    connected_components,
    cycle_graph,
    eulerian_trail,
    figure_eight_graph,
    format_edge_list,
    incidence_matrix,
    line_graph,
    parse_edge_list,
    path_graph,
)
from schurwalk.acceptance import random_connected_graph
from schurwalk.errors import OddDegreeVertex, ParseError, SchurWalkError
from schurwalk.treecount import weighted_laplacian


def test_edges_are_canonicalized():
    g = Graph(3, ((2, 1), (1, 0)))
    assert g.edges == ((0, 1), (1, 2))


def test_graph_rejects_self_loops_duplicates_and_range():
    with pytest.raises(ValueError):
        Graph(3, ((1, 1),))
    with pytest.raises(ValueError):
        Graph(3, ((0, 1), (1, 0)))
    with pytest.raises(ValueError):
        Graph(2, ((0, 2),))


def test_weighted_graph_rejects_bad_weights():
    p3 = path_graph(3)
    for bad in ([np.nan, 1.0], [1.0, np.inf], [-np.inf, 1.0], [-0.5, 1.0]):
        with pytest.raises(ValueError, match="weights must be"):
            WeightedGraph(p3, np.array(bad))
    with pytest.raises(ValueError, match="expected 2 weights"):
        WeightedGraph(p3, np.ones(3))
    assert WeightedGraph(Graph(2, ()), np.array([])).weights.shape == (0,)


def test_adjacency_examples():
    assert (adjacency_matrix(complete_graph(3)) == np.ones((3, 3)) - np.eye(3)).all()
    a = adjacency_matrix(path_graph(3))
    assert a[0, 1] == a[1, 2] == 1 and a[0, 2] == 0
    assert not adjacency_matrix(Graph(2, ())).any()


def test_laplacian_examples():
    def unit_laplacian(g):
        return weighted_laplacian(WeightedGraph(g, np.ones(g.n_edges)))

    evals = np.linalg.eigvalsh(unit_laplacian(complete_graph(3)))
    assert np.allclose(evals, [0, 3, 3])
    assert (unit_laplacian(Graph(2, ((0, 1),))) == [[1, -1], [-1, 1]]).all()
    evals = np.linalg.eigvalsh(unit_laplacian(cycle_graph(4)))
    assert np.allclose(evals, [0, 2, 2, 4])


def test_line_graph_reference_pairs():
    assert line_graph(complete_bipartite_graph(1, 3)) == complete_graph(3)
    assert line_graph(complete_graph(3)) == complete_graph(3)
    assert line_graph(path_graph(4)) == path_graph(3)


def test_line_graph_of_single_edge_is_a_point():
    assert line_graph(Graph(2, ((0, 1),))) == Graph(1, ())


def test_builders_on_graphs_without_edges():
    for n in (0, 1, 4):
        g = Graph(n, ())
        assert line_graph(g) == Graph(0, ())
        assert adjacency_matrix(g).shape == (n, n) and not adjacency_matrix(g).any()
        assert incidence_matrix(g).shape == (n, 0)
        assert g.degrees().shape == (n,) and not g.degrees().any()


def test_builders_with_isolated_vertices():
    g = Graph(6, ((1, 3), (3, 4)))  # vertices 0, 2 and 5 are isolated
    assert g.degrees().tolist() == [0, 1, 0, 2, 1, 0]
    assert incidence_matrix(g).tolist() == [[0, 0], [1, 0], [0, 0], [1, 1], [0, 1], [0, 0]]
    assert adjacency_matrix(g)[[0, 2, 5]].sum() == 0
    assert line_graph(g) == Graph(2, ((0, 1),))


def test_line_graph_of_complete_graphs():
    for n in range(2, 8):
        lg = line_graph(complete_graph(n))
        # the triangular graph: C(n, 2) vertices, each of degree 2(n - 2)
        assert lg.n_vertices == n * (n - 1) // 2
        assert (lg.degrees() == 2 * (n - 2)).all()
        assert lg.n_edges == lg.n_vertices * (n - 2)


def test_line_graph_matches_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        density = rng.uniform(0.05, 0.8)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = Graph(n, tuple(pairs))
        index = {frozenset(edge): p for p, edge in enumerate(g.edges)}
        reference = nx.line_graph(nx.Graph(g.edges))
        expected = sorted(
            tuple(sorted((index[frozenset(a)], index[frozenset(b)]))) for a, b in reference.edges
        )
        assert line_graph(g) == Graph(g.n_edges, tuple(expected))


@st.composite
def simple_graphs(draw, max_vertices: int = 9) -> Graph:
    """Any simple graph on up to ``max_vertices`` vertices, the empty one included."""
    n = draw(st.integers(0, max_vertices))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, tuple(pair for pair, kept in zip(pairs, keep) if kept))


@settings(max_examples=80, deadline=None)
@given(simple_graphs())
def test_builders_match_plain_loops(g):
    n, m = g.n_vertices, g.n_edges
    adjacency = np.zeros((n, n), dtype=int)
    incidence = np.zeros((n, m), dtype=int)
    degrees = np.zeros(n, dtype=int)
    for idx, (u, v) in enumerate(g.edges):
        adjacency[u, v] = adjacency[v, u] = 1
        incidence[u, idx] = incidence[v, idx] = 1
        degrees[u] += 1
        degrees[v] += 1
    assert (adjacency_matrix(g) == adjacency).all() and adjacency_matrix(g).shape == (n, n)
    assert (incidence_matrix(g) == incidence).all() and incidence_matrix(g).shape == (n, m)
    assert (g.degrees() == degrees).all() and g.degrees().shape == (n,)
    gram = incidence.T @ incidence - 2 * np.eye(m, dtype=int)
    assert (adjacency_matrix(line_graph(g)) == gram).all()


def test_incidence_small_examples():
    b = incidence_matrix(path_graph(3))
    assert (b == np.array([[1, 0], [1, 1], [0, 1]])).all()
    k3 = complete_graph(3)
    bbt = incidence_matrix(k3) @ incidence_matrix(k3).T
    assert (np.diag(bbt) == 2).all()
    assert (bbt - np.diag(np.diag(bbt)) == adjacency_matrix(k3)).all()


def test_incidence_identities_exact_on_random_graphs():
    rng = np.random.default_rng(42)
    for _ in range(25):
        g = random_connected_graph(rng, 2, 8)
        b = incidence_matrix(g)
        assert (b.sum(axis=0) == 2).all()
        assert (b.sum(axis=1) == g.degrees()).all()
        assert (b @ b.T == np.diag(g.degrees()) + adjacency_matrix(g)).all()
        lhs = b.T @ b - 2 * np.eye(g.n_edges, dtype=int)
        assert (lhs == adjacency_matrix(line_graph(g))).all()


def test_line_graph_degree_law():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_connected_graph(rng, 2, 8)
        deg = g.degrees()
        line_deg = line_graph(g).degrees()
        for idx, (u, v) in enumerate(g.edges):
            assert line_deg[idx] == deg[u] + deg[v] - 2


def test_bridges():
    assert bridges(path_graph(4)) == [0, 1, 2]
    assert bridges(cycle_graph(4)) == []
    assert bridges(figure_eight_graph()) == []


def test_bridges_match_networkx_on_random_graphs():
    nx = pytest.importorskip("networkx")
    rng = np.random.default_rng(17)
    for _ in range(300):
        n = int(rng.integers(1, 13))
        density = rng.uniform(0.05, 0.6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density]
        g = Graph(n, tuple(pairs))
        reference = nx.Graph()
        reference.add_nodes_from(range(n))
        reference.add_edges_from(g.edges)
        expected = sorted(g.edges.index((min(a, b), max(a, b))) for a, b in nx.bridges(reference))
        assert bridges(g) == expected


def test_bridges_on_a_long_path_needs_no_recursion():
    assert bridges(path_graph(5000)) == list(range(4999))


def _check_closed_trail(g: Graph, trail: list[int]) -> None:
    assert sorted(trail) == list(range(g.n_edges))
    start = g.edges[trail[0]][0]
    current = start
    for idx in trail:
        u, v = g.edges[idx]
        assert current in (u, v)
        current = v if current == u else u
    assert current == start


def test_eulerian_trail_examples():
    c4 = cycle_graph(4)
    trail = eulerian_trail(c4)
    _check_closed_trail(c4, trail)

    fig8 = figure_eight_graph()
    trail = eulerian_trail(fig8)
    _check_closed_trail(fig8, trail)
    # the shared vertex is entered twice
    visits = sum(1 for idx in trail if 0 in fig8.edges[idx])
    assert visits == 4

    with pytest.raises(OddDegreeVertex):
        eulerian_trail(path_graph(3))
    with pytest.raises(SchurWalkError, match="graph has no edges"):
        eulerian_trail(Graph(1, ()))
    two_triangles = Graph(6, ((0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)))
    with pytest.raises(SchurWalkError, match="graph is not connected"):
        eulerian_trail(two_triangles)


def test_eulerian_trail_on_larger_even_graphs():
    for g in (complete_graph(5), cycle_graph(6), complete_graph(7)):
        _check_closed_trail(g, eulerian_trail(g))


def test_eulerian_trail_is_deterministic():
    assert eulerian_trail(figure_eight_graph()) == [0, 4, 5, 1, 2, 6, 7, 3]


def test_connected_components():
    assert connected_components(cycle_graph(4)) == [[0, 1, 2, 3]]
    # two disjoint edges, which is also P4 minus its middle edge
    assert connected_components(Graph(4, ((0, 1), (2, 3)))) == [[0, 1], [2, 3]]
    assert connected_components(Graph(3, ())) == [[0], [1], [2]]


def test_edge_list_round_trip():
    g = figure_eight_graph()
    assert parse_edge_list(format_edge_list(g)) == g
    text = format_edge_list(g, comments=["a note"])
    assert text.startswith("# a note\n")
    assert parse_edge_list(text) == g


def test_edge_list_parse_errors():
    with pytest.raises(ParseError):
        parse_edge_list("")
    with pytest.raises(ParseError):
        parse_edge_list("2 1\n1 0\n")  # u >= v
    with pytest.raises(ParseError):
        parse_edge_list("2 2\n0 1\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_edge_list("3 2\n1 2\n0 1\n")  # unsorted
    with pytest.raises(ParseError):
        parse_edge_list("3 x\n")


def test_edge_list_ignores_blank_lines_and_comments():
    g = parse_edge_list("# header\n\n3 2\n# middle\n0 1\n\n1 2\n")
    assert g == path_graph(3)
