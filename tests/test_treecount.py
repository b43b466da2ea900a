"""Tree counts: determinant vs enumeration, the averaged-graph identity, bridges."""

from __future__ import annotations

import gc
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurwalk import (
    Graph,
    WeightedGraph,
    average_mixing,
    basis_state,
    bridge_factorization_check,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    decompose,
    figure_eight_graph,
    flat_band_state,
    line_graph_spectrum,
    main_theorem_check,
    path_graph,
    pure_state_tree_count,
    spanning_trees,
    tree_count_det,
    tree_count_enum,
    tree_count_exact,
    uniform_state,
)
from schurwalk.acceptance import random_connected_graph, uniform_optimality_scan
from schurwalk.errors import SchurWalkError
from schurwalk.graphs import is_connected
from schurwalk.mixing import averaged_induced
from schurwalk.treecount import log_tree_count, scaled_unit_identity, weighted_laplacian
from spectra import connected_graphs, even_connected_graphs


def _eigen_product_count(wg):
    """Reference: product of the nonzero Laplacian eigenvalues over n."""
    evals = np.linalg.eigvalsh(weighted_laplacian(wg))
    return float(np.prod(evals[1:]) / wg.graph.n_vertices)


def _subset_filter_trees(g):
    """Reference: every (n-1)-edge subset in lexicographic order, kept when acyclic."""
    n = g.n_vertices
    trees = []
    for subset in itertools.combinations(range(g.n_edges), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        joins = 0
        for idx in subset:
            u, v = g.edges[idx]
            ru, rv = find(u), find(v)
            if ru == rv:
                break
            parent[ru] = rv
            joins += 1
        if joins == n - 1:
            trees.append(subset)
    return trees


def _product_sum(trees, weights):
    """Reference: the sum over trees of the weight products, one numpy scalar at a time."""
    total = 0.0
    for tree in trees:
        product = 1.0
        for idx in tree:
            product *= weights[idx]
        total += product
    return total


def test_reference_counts():
    k3 = WeightedGraph(complete_graph(3), np.ones(3))
    assert abs(tree_count_det(k3).value - 3.0) < 1e-12
    assert tree_count_enum(k3).value == 3.0

    c4 = WeightedGraph(cycle_graph(4), np.full(4, 0.25))
    assert abs(tree_count_det(c4).value - 1 / 16) < 1e-15
    assert abs(tree_count_enum(c4).value - 1 / 16) < 1e-15

    k4 = WeightedGraph(complete_graph(4), np.ones(6))
    assert abs(tree_count_det(k4).value - 16.0) < 1e-9
    assert tree_count_enum(k4).value == 16.0

    disconnected = WeightedGraph(Graph(4, ((0, 1), (2, 3))), np.ones(2))
    assert abs(tree_count_det(disconnected).value) < 1e-12
    assert tree_count_enum(disconnected).value == 0.0


def test_path_and_triangle_closed_forms():
    rng = np.random.default_rng(12)
    for n in (2, 4, 6):
        w = rng.uniform(0.1, 1.0, size=n - 1)
        wg = WeightedGraph(path_graph(n), w)
        assert abs(tree_count_det(wg).value - np.prod(w)) < 1e-12
    a, b, c = 0.3, 0.5, 0.9
    wg = WeightedGraph(complete_graph(3), np.array([a, b, c]))
    expected = a * b + b * c + c * a
    assert abs(tree_count_det(wg).value - expected) < 1e-12
    assert abs(tree_count_enum(wg).value - expected) < 1e-12


def test_single_vertex_counts_one():
    wg = WeightedGraph(Graph(1, ()), np.array([]))
    assert tree_count_det(wg).value == 1.0
    assert tree_count_enum(wg).value == 1.0
    with pytest.raises(SchurWalkError, match="graph has no vertices"):
        tree_count_det(WeightedGraph(Graph(0, ()), np.array([])))


def test_enumeration_cap():
    big = complete_graph(8)  # 28 edges
    with pytest.raises(SchurWalkError, match="28 edges exceeds the enumeration cap 24"):
        spanning_trees(big)


def test_exact_count_reference_values():
    assert tree_count_exact(WeightedGraph(complete_graph(8), np.ones(28))).value == 8.0**6
    assert tree_count_exact(WeightedGraph(Graph(1, ()), np.array([]))).value == 1.0
    two_edges = Graph(4, ((0, 1), (2, 3)))
    assert tree_count_exact(WeightedGraph(two_edges, np.ones(2))).value == 0.0
    # zero weights on both edges at vertex 1 (a zero pivot), then at vertex 0
    c5 = WeightedGraph(cycle_graph(5), np.array([0.0, 1.0, 0.0, 1.0, 1.0]))
    assert tree_count_exact(c5).value == 0.0
    c5 = WeightedGraph(cycle_graph(5), np.array([0.0, 0.0, 1.0, 1.0, 1.0]))
    assert tree_count_exact(c5).value == 0.0
    with pytest.raises(SchurWalkError, match="graph has no vertices"):
        tree_count_exact(WeightedGraph(Graph(0, ()), np.array([])))
    with pytest.raises(ValueError, match="weights must be finite"):
        tree_count_exact(WeightedGraph(cycle_graph(3), np.array([1.0, np.inf, 1.0])))


def test_exact_count_matches_enumeration():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 40:
        g = random_connected_graph(rng, 2, 8)
        if g.n_edges > 14:
            continue
        wg = WeightedGraph(g, rng.uniform(1e-3, 3.0, size=g.n_edges))
        exact = tree_count_exact(wg).value
        enum = tree_count_enum(wg).value
        assert abs(exact - enum) <= 1e-12 * enum
        checked += 1


def test_methods_agree_and_deletion_is_irrelevant():
    rng = np.random.default_rng(77)
    for _ in range(15):
        g = random_connected_graph(rng, 2, 6)
        w = rng.uniform(0.05, 1.0, size=g.n_edges)
        wg = WeightedGraph(g, w)
        enum = tree_count_enum(wg).value
        lap = weighted_laplacian(wg)
        minors = [np.delete(np.delete(lap, i, 0), i, 1) for i in range(g.n_vertices)]
        values = [tree_count_det(wg).value] + [float(np.linalg.det(x)) for x in minors]
        assert max(values) - min(values) < 1e-10
        assert abs(values[0] - enum) <= 1e-9 * max(1.0, enum)
        assert abs(_eigen_product_count(wg) - enum) <= 1e-8 * max(1.0, enum)


def test_main_theorem_reference_cases():
    c4 = cycle_graph(4)
    report = main_theorem_check(c4, uniform_state(4), line_graph_spectrum(c4))
    assert report["is_uniform_commutative"] and report["passed"]
    assert abs(report["lhs"] - 1 / 16) < 1e-9 and abs(report["rhs"] - 1 / 16) < 1e-15

    k4 = complete_graph(4)
    report = main_theorem_check(k4, uniform_state(6), line_graph_spectrum(k4))
    assert abs(report["lhs"] - 2 / 27) < 1e-9 and report["passed"]

    fig8 = figure_eight_graph()
    state = flat_band_state(fig8).normalized
    report = main_theorem_check(fig8, state, line_graph_spectrum(fig8))
    assert report["is_uniform_commutative"] and report["passed"]
    assert abs(report["rhs"] - 16 / 8**6) < 1e-18


def test_main_theorem_flags_noncommutative_states():
    g = path_graph(4)
    state = np.array([0.8, 0.36, 0.48], dtype=complex)
    state /= np.linalg.norm(state)
    report = main_theorem_check(g, state, line_graph_spectrum(g))
    assert not report["is_uniform_commutative"]


def test_main_theorem_preconditions():
    g = Graph(4, ((0, 1), (2, 3)))
    with pytest.raises(SchurWalkError, match="graph is not connected"):
        main_theorem_check(g, uniform_state(2), decompose(np.zeros((2, 2))))
    p4 = path_graph(4)
    with pytest.raises(SchurWalkError, match="state amplitude vanishes on some edge"):
        main_theorem_check(p4, basis_state(3, 1), line_graph_spectrum(p4))


def test_main_theorem_compares_tiny_counts_relatively():
    # On C_12 both counts are about 1e-11, far below an absolute 1e-9, yet a
    # non-uniform full-support state makes them differ by tens of percent.
    g = cycle_graph(12)
    rng = np.random.default_rng(12)
    state = rng.uniform(0.5, 1.5, 12) * np.exp(1j * rng.uniform(0, 2 * np.pi, 12))
    report = main_theorem_check(g, state / np.linalg.norm(state), line_graph_spectrum(g))
    assert report["rhs"] < 1e-9 and report["lhs"] < 1e-9
    assert abs(report["lhs"] - report["rhs"]) > 1e-3 * report["rhs"]
    assert report["passed"] is False


def test_scaled_unit_identity_is_relative_and_logarithmic():
    g = cycle_graph(12)
    lhs, rhs, passed = scaled_unit_identity(WeightedGraph(g, np.full(12, 1 / 12)))
    assert passed and abs(rhs - 12 / 12**11) <= 1e-15 * rhs and abs(lhs - rhs) <= 1e-12 * rhs
    skewed = np.full(12, 1 / 12)
    skewed[0] *= 1 + 1e-6
    assert not scaled_unit_identity(WeightedGraph(g, skewed))[2]
    # a count that vanishes never matches a positive target
    zeroed = np.full(12, 1 / 12)
    zeroed[:2] = 0.0
    lhs, _, passed = scaled_unit_identity(WeightedGraph(g, zeroed))
    assert lhs == 0.0 and not passed


def test_bridge_factorization_examples():
    p3 = WeightedGraph(path_graph(3), np.array([0.4, 0.7]))
    report = bridge_factorization_check(p3, 0)
    assert abs(report["whole"] - 0.28) < 1e-12
    assert abs(report["whole"] - report["product"]) < 1e-12

    bowtie = Graph(6, ((0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (3, 5), (4, 5)))
    wg = WeightedGraph(bowtie, np.ones(7))
    bridge_idx = bowtie.edges.index((2, 3))
    report = bridge_factorization_check(wg, bridge_idx)
    assert abs(report["whole"] - 9.0) < 1e-9
    assert abs(report["product"] - 9.0) < 1e-9

    rng = np.random.default_rng(31)
    tree = path_graph(5)
    w = rng.uniform(0.1, 1.0, size=4)
    for idx in range(4):
        report = bridge_factorization_check(WeightedGraph(tree, w), idx)
        assert abs(report["whole"] - np.prod(w)) < 1e-12
        assert abs(report["whole"] - report["product"]) < 1e-12

    with pytest.raises(SchurWalkError, match="edge 0 is not a bridge"):
        bridge_factorization_check(WeightedGraph(cycle_graph(4), np.ones(4)), 0)


def test_uniform_optimality_scan():
    report = uniform_optimality_scan(cycle_graph(4), samples=300, seed=5)
    assert report["all_within_bound"] and report["max_ratio"] <= 1.0 + 1e-12
    assert abs(report["uniform_value"] - 1 / 16) < 1e-15

    # weight concentrated on one edge disconnects the rest: count zero
    wg = WeightedGraph(cycle_graph(4), np.array([1.0, 0.0, 0.0, 0.0]))
    assert abs(tree_count_det(wg).value) < 1e-15

    with pytest.raises(SchurWalkError, match="graph is not connected"):
        uniform_optimality_scan(Graph(4, ((0, 1), (2, 3))), samples=5, seed=0)

    # Uniform weights are not optimal on every graph: on the paw (a triangle
    # with a pendant edge) (2/9, 2/9, 2/9, 1/3) beats them by 256/243.
    paw = Graph(4, ((0, 1), (0, 2), (1, 2), (2, 3)))
    best = tree_count_det(WeightedGraph(paw, np.array([2, 2, 2, 3]) / 9)).value
    uniform = tree_count_det(WeightedGraph(paw, np.full(4, 0.25))).value
    assert abs(best / uniform - 256 / 243) < 1e-12
    assert not uniform_optimality_scan(paw, samples=1000, seed=0)["all_within_bound"]


def test_pure_state_tree_counts_on_paths():
    g = path_graph(4)
    s = line_graph_spectrum(g)
    assert abs(pure_state_tree_count(g, 0, s).value - 9 / 256) < 1e-12
    assert abs(pure_state_tree_count(g, 1, s).value - 1 / 32) < 1e-12
    assert abs(pure_state_tree_count(g, 2, s).value - 9 / 256) < 1e-12


def test_pure_state_count_matches_enumeration():
    rng = np.random.default_rng(41)
    for _ in range(12):
        g = random_connected_graph(rng, 3, 7)
        s = line_graph_spectrum(g)
        mixed = average_mixing(s)
        for q in range(g.n_edges):
            oracle = tree_count_enum(WeightedGraph(g, mixed[:, q])).value
            value = pure_state_tree_count(g, q, s).value
            assert abs(value - oracle) <= 1e-9 * max(1.0, abs(oracle))


def test_pure_state_count_matches_phased_averaged_weights():
    g = path_graph(4)
    s = line_graph_spectrum(g)
    for alpha in (0.0, 1.1, -2.5):
        induced = averaged_induced(s, g, basis_state(3, 1, phase=alpha))
        minor = np.delete(np.delete(induced.laplacian, 0, axis=0), 0, axis=1)
        assert abs(np.linalg.det(minor) - pure_state_tree_count(g, 1, s).value) < 1e-12


def test_spanning_tree_enumeration_is_exhaustive():
    # Cayley's formula n**(n-2) on K_5 and K_7, a**(b-1) * b**(a-1) on K_{3,5},
    # and a direct cycle count
    assert len(spanning_trees(complete_graph(5))) == 125
    assert len(spanning_trees(complete_graph(7))) == 7**5
    assert len(spanning_trees(complete_bipartite_graph(3, 5))) == 3**4 * 5**2
    assert len(spanning_trees(cycle_graph(6))) == 6
    assert len(spanning_trees(figure_eight_graph())) == 16


@st.composite
def _small_graphs(draw):
    """At most 12 edges on 1-10 vertices: a tree half the time, else any edge set.

    Any edge set covers disconnected graphs, isolated vertices, n = 1 and
    fewer edges than a tree needs.
    """
    n = draw(st.integers(1, 10))
    if draw(st.booleans()):
        return Graph(n, tuple((draw(st.integers(0, v - 1)), v) for v in range(1, n)))
    pairs = [(u, v) for v in range(n) for u in range(v)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12)) if pairs else []
    return Graph(n, tuple(edges))


@settings(max_examples=300, deadline=None)
@given(_small_graphs(), st.data())
def test_spanning_trees_match_the_subset_filter(g, data):
    reference = _subset_filter_trees(g)
    assert spanning_trees(g) == reference
    weights = _weights(data, g.n_edges, low=0.01)
    assert tree_count_enum(WeightedGraph(g, weights)).value == _product_sum(reference, weights)
    nx = pytest.importorskip("networkx")
    other = nx.Graph()
    other.add_nodes_from(range(g.n_vertices))
    other.add_edges_from(g.edges)
    assert abs(len(reference) - nx.number_of_spanning_trees(other)) <= 1e-9 * max(1, len(reference))


def test_enumeration_leaves_no_reference_cycles():
    # Garbage in a reference cycle would keep the tree list alive until the
    # cyclic collector runs.
    g = complete_graph(6)
    gc.collect()
    gc.disable()
    try:
        spanning_trees(g)
        unreachable = gc.collect()
    finally:
        gc.enable()
    assert unreachable == 0


def test_enumeration_matches_determinant_on_all_small_graphs():
    rng = np.random.default_rng(99)
    possible = tuple(itertools.combinations(range(4), 2))
    for k in range(3, len(possible) + 1):
        for subset in itertools.combinations(possible, k):
            g = Graph(4, subset)
            if not is_connected(g):
                continue
            w = rng.uniform(0.1, 1.0, size=g.n_edges)
            wg = WeightedGraph(g, w)
            det_value = tree_count_det(wg).value
            enum_value = tree_count_enum(wg).value
            assert abs(det_value - enum_value) <= 1e-9 * max(1.0, enum_value)


# -- the Laplacian, relabelling, and the theorem on flat-band states ---------


def _loop_laplacian(wg):
    n = wg.graph.n_vertices
    lap = np.zeros((n, n))
    for (u, v), w in zip(wg.graph.edges, wg.weights):
        lap[u, v] -= w
        lap[v, u] -= w
        lap[u, u] += w
        lap[v, v] += w
    return lap


def _weights(data, m, low=0.0):
    return np.array(data.draw(st.lists(st.floats(low, 1e3), min_size=m, max_size=m)))


@settings(max_examples=100, deadline=None)
@given(connected_graphs(max_vertices=9), st.data())
def test_weighted_laplacian_equals_the_edge_loop(g, data):
    wg = WeightedGraph(g, _weights(data, g.n_edges))
    lap = weighted_laplacian(wg)
    assert lap.dtype == float and np.array_equal(lap, _loop_laplacian(wg))


def test_weighted_laplacian_without_edges():
    for n in (0, 1, 3):
        lap = weighted_laplacian(WeightedGraph(Graph(n, ()), np.zeros(0)))
        assert lap.dtype == float and np.array_equal(lap, np.zeros((n, n)))


@settings(max_examples=60, deadline=None)
@given(connected_graphs(max_vertices=7), st.data())
def test_tree_counts_are_invariant_under_relabelling(g, data):
    perm = data.draw(st.permutations(range(g.n_vertices)))
    weights = _weights(data, g.n_edges, low=0.01)
    h = Graph(g.n_vertices, tuple((perm[u], perm[v]) for u, v in g.edges))
    position = {edge: idx for idx, edge in enumerate(h.edges)}
    carried = np.empty(g.n_edges)
    for (u, v), w in zip(g.edges, weights):
        carried[position[tuple(sorted((perm[u], perm[v])))]] = w
    wg, wh = WeightedGraph(g, weights), WeightedGraph(h, carried)
    assert tree_count_exact(wg).value == tree_count_exact(wh).value
    det_g, det_h = tree_count_det(wg).value, tree_count_det(wh).value
    assert abs(det_g - det_h) <= 1e-9 * det_g
    assert abs(log_tree_count(wg) - log_tree_count(wh)) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(even_connected_graphs())
def test_flat_band_states_satisfy_the_main_theorem(h):
    report = main_theorem_check(h, flat_band_state(h).normalized, line_graph_spectrum(h))
    assert report["is_uniform_commutative"] and report["passed"]
