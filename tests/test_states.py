"""Schur states: construction, inner product, induced weights, Kronecker identities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schurwalk import (
    Graph,
    SchurState,
    basis_state,
    complete_graph,
    edge_state,
    evolve,
    induced_graph,
    line_graph_spectrum,
    path_graph,
    schur_inner,
    schur_state,
    uniform_state,
)
from schurwalk.acceptance import random_connected_graph, random_edge_state
from schurwalk.errors import SchurWalkError
from spectra import seeds


def test_edge_state_rejects_bad_input():
    with pytest.raises(SchurWalkError, match="squared norm is 2.0, expected 1"):
        edge_state(np.array([1.0, 1.0]))
    for bad in ([np.nan, 0, 0], [1.0, np.nan], [np.inf, 0]):
        with pytest.raises(SchurWalkError, match="expected 1"):
            edge_state(np.array(bad))
    with pytest.raises(SchurWalkError, match="expected a vector"):
        edge_state(np.eye(2))
    vec = edge_state(np.array([0.6, 0.8j]))
    assert vec.dtype == complex


def test_basis_and_uniform_states():
    vec = basis_state(4, 2, phase=np.pi / 3)
    assert abs(vec[2] - np.exp(1j * np.pi / 3)) < 1e-15
    assert abs(np.linalg.norm(uniform_state(7)) - 1.0) < 1e-12
    with pytest.raises(SchurWalkError, match="edge index 3 out of range for 3 edges"):
        basis_state(3, 3)


def test_schur_state_at_time_zero_places_single_entry():
    g = path_graph(4)
    s = line_graph_spectrum(g)
    state = schur_state(g, basis_state(3, 1), 0.0, s)
    expected_edge = g.edges[1]
    for u in range(4):
        for v in range(4):
            if (min(u, v), max(u, v)) == expected_edge:
                assert abs(state.entries[u, v] - 1.0) < 1e-12
            else:
                assert abs(state.entries[u, v]) < 1e-12


def test_schur_state_hermitian_and_supported_exactly():
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = random_connected_graph(rng, 2, 6)
        s = line_graph_spectrum(g)
        state = schur_state(g, random_edge_state(rng, g.n_edges), rng.uniform(0, 5), s)
        entries = state.entries
        edge_set = set(g.edges)
        for u in range(g.n_vertices):
            assert entries[u, u] == 0
            for v in range(u + 1, g.n_vertices):
                assert entries[v, u] == np.conj(entries[u, v])
                if (u, v) not in edge_set:
                    assert entries[u, v] == 0


def test_squared_norm_is_two():
    rng = np.random.default_rng(9)
    for _ in range(8):
        g = random_connected_graph(rng, 2, 7)
        s = line_graph_spectrum(g)
        state = schur_state(g, random_edge_state(rng, g.n_edges), rng.uniform(0, 10), s)
        assert abs(schur_inner(state, state) - 2.0) < 1e-9


def test_schur_state_is_linear_in_the_edge_state():
    # The walked amplitudes (upper triangle) are linear in the state; the
    # conjugate entries below the diagonal make the full matrix linear only
    # for real superposition coefficients.
    rng = np.random.default_rng(13)
    g = complete_graph(4)
    s = line_graph_spectrum(g)
    t = 1.3
    upper = np.triu_indices(g.n_vertices, k=1)

    amplitudes = random_edge_state(rng, g.n_edges)
    combined = schur_state(g, amplitudes, t, s)
    accumulated = np.zeros_like(combined.entries)
    for q in range(g.n_edges):
        accumulated += amplitudes[q] * schur_state(g, basis_state(g.n_edges, q), t, s).entries
    assert np.abs(combined.entries[upper] - accumulated[upper]).max() < 1e-12

    real_amplitudes = rng.standard_normal(g.n_edges)
    real_amplitudes /= np.linalg.norm(real_amplitudes)
    combined = schur_state(g, real_amplitudes.astype(complex), t, s)
    accumulated = np.zeros_like(combined.entries)
    for q in range(g.n_edges):
        accumulated += real_amplitudes[q] * schur_state(g, basis_state(g.n_edges, q), t, s).entries
    assert np.abs(combined.entries - accumulated).max() < 1e-12


@settings(max_examples=60, deadline=None)
@given(seeds, st.lists(st.floats(-20.0, 20.0), min_size=1, max_size=4))
def test_schur_state_walks_like_the_full_unitary(seed, times):
    rng = np.random.default_rng(seed)
    g = random_connected_graph(rng, 2, 8)
    s = line_graph_spectrum(g)
    e = random_edge_state(rng, g.n_edges)
    rows, cols = np.array(g.edges).T
    for t in times:
        entries = schur_state(g, e, t, s).entries
        amps = evolve(s, t) @ e
        assert np.abs(entries[rows, cols] - amps).max() < 1e-12
        assert np.abs(entries[cols, rows] - amps.conj()).max() < 1e-12


def test_trivial_walk_is_constant_in_time():
    g = Graph(2, ((0, 1),))  # line graph is a single vertex, so U(t) = [1]
    s = line_graph_spectrum(g)
    first = schur_state(g, basis_state(1, 0), 0.0, s)
    second = schur_state(g, basis_state(1, 0), 3.7, s)
    assert np.abs(first.entries - second.entries).max() < 1e-12


def test_schur_inner_examples():
    g = path_graph(3)
    entries = np.zeros((3, 3), dtype=complex)
    entries[0, 1] = 0.3 + 0.4j
    entries[1, 0] = np.conj(entries[0, 1])
    m = SchurState(entries, g)
    assert abs(schur_inner(m, m) - 2 * 0.25) < 1e-12

    s = line_graph_spectrum(g)
    a = schur_state(g, random_edge_state(np.random.default_rng(1), 2), 0.4, s)
    b = schur_state(g, random_edge_state(np.random.default_rng(2), 2), 1.1, s)
    assert abs(schur_inner(a, b) - np.conj(schur_inner(b, a))) < 1e-12

    other = SchurState(np.zeros((4, 4), dtype=complex), path_graph(4))
    with pytest.raises(SchurWalkError, match="different base graphs"):
        schur_inner(m, other)


def test_schur_inner_matches_the_all_ones_bilinear_form():
    # Tr(M^dag N) is the all-ones bilinear form over conj(M) * N, entrywise.
    rng = np.random.default_rng(23)
    for _ in range(8):
        g = random_connected_graph(rng, 2, 7)
        s = line_graph_spectrum(g)
        a = schur_state(g, random_edge_state(rng, g.n_edges), rng.uniform(0, 10), s)
        b = schur_state(g, random_edge_state(rng, g.n_edges), rng.uniform(0, 10), s)
        ones = np.ones(g.n_vertices)
        assert abs(schur_inner(a, b) - ones @ (np.conj(a.entries) * b.entries) @ ones) < 1e-12


def test_induced_graph_at_time_zero_and_total_weight():
    g = path_graph(4)
    s = line_graph_spectrum(g)
    state = schur_state(g, basis_state(3, 0), 0.0, s)
    induced = induced_graph(state)
    assert abs(induced.adjacency[0, 1] - 1.0) < 1e-12
    assert abs(induced.adjacency.sum() - 2.0) < 1e-12
    assert np.count_nonzero(induced.adjacency > 1e-12) == 2

    rng = np.random.default_rng(21)
    for t in rng.uniform(0, 10, size=5):
        walked = schur_state(g, random_edge_state(rng, 3), float(t), s)
        ig = induced_graph(walked)
        assert abs(ig.adjacency.sum() - 2.0) < 1e-9
        assert np.abs(ig.laplacian @ np.ones(4)).max() < 1e-12
        assert np.abs(ig.laplacian.T @ np.ones(4)).max() < 1e-12


def test_kronecker_schur_identity_is_exact():
    rng = np.random.default_rng(17)
    shapes = [(2, 3), (3, 2), (4, 4)]
    for (p, q) in shapes:
        a, c = (rng.standard_normal((p, p)) + 1j * rng.standard_normal((p, p)) for _ in "ac")
        b, d = (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)) for _ in "bd")
        lhs = np.kron(a, b) * np.kron(c, d)
        rhs = np.kron(a * c, b * d)
        assert np.abs(lhs - rhs).max() < 1e-12


def test_product_of_entrywise_products_differs_generically():
    # The claimed identity (A.B)(C.D) == (AC).(BD) fails for generic matrices;
    # only the summed entry formula on the left holds.  The bilinear-form
    # consequence tested below is what actually gets used.
    rng = np.random.default_rng(23)
    a, b, c, d = (
        rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) for _ in range(4)
    )
    lhs = (a * b) @ (c * d)
    rhs = (a @ c) * (b @ d)
    assert np.abs(lhs - rhs).max() > 1e-3
    manual = np.array(
        [
            [sum(a[i, k] * b[i, k] * c[k, j] * d[k, j] for k in range(4)) for j in range(4)]
            for i in range(4)
        ]
    )
    assert np.abs(lhs - manual).max() < 1e-12


def test_bilinear_form_factorizes_over_tensor_states():
    rng = np.random.default_rng(29)
    s = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    t = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    e = random_edge_state(rng, 3)
    f = random_edge_state(rng, 4)
    ef = np.kron(e, f)
    big = np.kron(s, t)
    lhs = ef.conj() @ (np.conj(big) * big) @ ef
    rhs = (e.conj() @ (np.conj(s) * s) @ e) * (f.conj() @ (np.conj(t) * t) @ f)
    assert abs(lhs - rhs) < 1e-12
