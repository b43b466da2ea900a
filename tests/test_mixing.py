"""Average mixing matrices and time-averaged densities and induced graphs."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from schurwalk import (
    Graph,
    WeightedGraph,
    adjacency_matrix,
    average_mixing,
    averaged_density,
    averaged_induced,
    averaged_weights,
    basis_state,
    cycle_graph,
    decompose,
    dephase,
    line_graph_spectrum,
    mixing_to_json,
    path_graph,
    uniform_state,
)
from schurwalk.acceptance import (
    numeric_time_average,
    path_mixing_closed_form,
    random_connected_graph,
    random_edge_state,
)
from schurwalk.errors import SchurWalkError
from schurwalk.treecount import weighted_laplacian
from spectra import SMALL_SPECTRA, random_state, reference_eigenspaces, seeds, symmetric_matrices


def test_path_mixing_reference_values():
    computed = average_mixing(line_graph_spectrum(path_graph(4)))
    expected = np.array([[3 / 8, 1 / 4, 3 / 8], [1 / 4, 1 / 2, 1 / 4], [3 / 8, 1 / 4, 3 / 8]])
    assert np.abs(computed - expected).max() < 1e-12
    assert np.abs(average_mixing(line_graph_spectrum(Graph(2, ((0, 1),)))) - [[1.0]]).max() == 0


def test_closed_form_matches_small_cases_and_is_stochastic():
    assert np.abs(path_mixing_closed_form(3) - 0.5).max() < 1e-15
    for n in range(3, 21):
        rows = path_mixing_closed_form(n).sum(axis=1)
        assert np.abs(rows - 1.0).max() < 1e-12
    for n in range(3, 11):
        mixed = average_mixing(line_graph_spectrum(path_graph(n)))
        assert np.abs(mixed - path_mixing_closed_form(n)).max() < 1e-9


def test_mixing_matrix_invariants_on_random_graphs():
    rng = np.random.default_rng(14)
    for _ in range(10):
        g = random_connected_graph(rng, 3, 7)
        mixed = average_mixing(line_graph_spectrum(g))
        assert np.abs(mixed - mixed.T).max() < 1e-12
        assert mixed.min() >= -1e-12
        assert np.abs(mixed.sum(axis=1) - 1.0).max() < 1e-9
        assert np.linalg.eigvalsh(mixed).min() >= -1e-9


def test_averaged_density_of_an_eigenvector_is_unchanged():
    g = cycle_graph(4)
    s = line_graph_spectrum(g)
    state = uniform_state(4)  # Perron eigenvector of the 2-regular line graph
    rho = averaged_density(s, state)
    assert np.abs(rho - np.outer(state, state.conj())).max() < 1e-12


def test_averaged_density_diagonal_is_a_mixing_column():
    g = path_graph(4)
    s = line_graph_spectrum(g)
    rho = averaged_density(s, basis_state(3, 0))
    assert np.allclose(rho.diagonal().real, [3 / 8, 1 / 4, 3 / 8], atol=1e-12)

    rng = np.random.default_rng(8)
    mixed = average_mixing(s)
    for q in range(3):
        rho_q = averaged_density(s, basis_state(3, q))
        assert np.abs(rho_q.diagonal().real - mixed[:, q]).max() < 1e-12


def test_averaged_density_is_a_density_and_a_fixed_point():
    rng = np.random.default_rng(19)
    g = random_connected_graph(rng, 3, 6)
    s = line_graph_spectrum(g)
    rho = averaged_density(s, random_edge_state(rng, g.n_edges))
    assert abs(np.trace(rho) - 1.0) < 1e-12
    assert np.linalg.eigvalsh(rho).min() >= -1e-9
    assert np.abs(dephase(s, rho) - rho).max() < 1e-9
    with pytest.raises(SchurWalkError, match="amplitudes, spectrum dimension is"):
        averaged_density(s, random_edge_state(rng, g.n_edges + 1))


def test_averaged_induced_uniform_state_on_cycle():
    g = cycle_graph(4)
    induced = averaged_induced(line_graph_spectrum(g), g, uniform_state(4))
    assert np.abs(induced.adjacency - adjacency_matrix(g) / 4).max() < 1e-9
    unit = weighted_laplacian(WeightedGraph(g, np.ones(4)))
    assert np.abs(induced.laplacian - unit / 4).max() < 1e-9


def test_averaged_induced_pure_state_weights_and_total():
    g = path_graph(4)
    s = line_graph_spectrum(g)
    mixed = average_mixing(s)
    for q in range(3):
        induced = averaged_induced(s, g, basis_state(3, q))
        for idx, (u, v) in enumerate(g.edges):
            assert abs(induced.adjacency[u, v] - mixed[idx, q]) < 1e-12
        assert abs(induced.adjacency.sum() - 2.0) < 1e-9


def test_averaged_outputs_ignore_global_phase():
    g = path_graph(4)
    s = line_graph_spectrum(g)
    for alpha in (0.0, 0.7, 2.0, -1.3):
        rho = averaged_density(s, basis_state(3, 1, phase=alpha))
        base = averaged_density(s, basis_state(3, 1))
        assert np.abs(rho - base).max() < 1e-12


def test_quadrature_agrees_with_averaged_density():
    g = path_graph(4)
    s = line_graph_spectrum(g)
    state = basis_state(3, 0)
    rho_hat = averaged_density(s, state)
    quad = numeric_time_average(s, np.outer(state, state.conj()), 1e4, 200_000)
    assert np.linalg.norm(quad - rho_hat) < 1e-2


def test_mixing_json_shape():
    text = mixing_to_json(path_mixing_closed_form(4))
    assert text.startswith('{"m": 3, "rows": [[0.375, ')


# -- properties of the streamed mixing matrix and the pure-state weights -------

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(symmetric_matrices, seeds)
def test_pure_state_weights_are_the_dephased_diagonal(a, seed):
    s = decompose(a)
    e = random_state(seed, s.dimension)
    diagonal = dephase(s, np.outer(e, e.conj())).diagonal()
    assert np.abs(averaged_weights(s, e) - diagonal).max() < 1e-12
    real = e.real / np.linalg.norm(e.real)
    diagonal = dephase(s, np.outer(real, real)).diagonal()
    assert np.abs(averaged_weights(s, real) - diagonal).max() < 1e-12


@PROPERTY_SETTINGS
@given(symmetric_matrices)
def test_mixing_columns_are_basis_state_weights_and_doubly_stochastic(a):
    s = decompose(a)
    m = s.dimension
    mixed = average_mixing(s)
    for q in range(m):
        assert np.abs(mixed[:, q] - averaged_weights(s, basis_state(m, q))).max() < 1e-12
    assert mixed.min() >= 0.0
    assert np.abs(mixed.sum(axis=0) - 1.0).max() < 1e-12
    assert np.abs(mixed.sum(axis=1) - 1.0).max() < 1e-12


def test_averaged_weights_rejects_a_wrong_size_state():
    s = line_graph_spectrum(path_graph(4))
    with pytest.raises(SchurWalkError, match="state has 4 amplitudes, spectrum dimension is 3"):
        averaged_weights(s, uniform_state(4))


@PROPERTY_SETTINGS
@given(symmetric_matrices, seeds)
def test_mixing_and_weights_equal_the_projector_sums(a, seed):
    s = decompose(a)
    spaces = reference_eigenspaces(a)
    assert np.abs(average_mixing(s) - sum(p * p for _, p in spaces)).max() < 1e-12
    e = random_state(seed, s.dimension)
    expected = sum(np.abs(p @ e) ** 2 for _, p in spaces)
    assert np.abs(averaged_weights(s, e) - expected).max() < 1e-12


@pytest.mark.parametrize("name", SMALL_SPECTRA)
def test_mixing_and_weights_on_small_spectra(name):
    a, _ = SMALL_SPECTRA[name]
    s = decompose(a)
    spaces = reference_eigenspaces(a)
    m = s.dimension
    mixed = average_mixing(s)
    expected = sum((p * p for _, p in spaces), np.zeros((m, m)))
    assert mixed.shape == (m, m)
    assert np.abs(mixed - expected).max(initial=0.0) < 1e-12
    if m:  # the empty spectrum has no unit vector
        e = random_state(5, m)
        expected = sum(np.abs(p @ e) ** 2 for _, p in spaces)
        assert np.abs(averaged_weights(s, e) - expected).max() < 1e-12
