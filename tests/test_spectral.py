"""Spectral decomposition, grouping, evolution, and the dephasing map."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from schurwalk import (
    Graph,
    Spectrum,
    adjacency_matrix,
    complete_graph,
    decompose,
    dephase,
    evolve,
    figure_eight_graph,
    incidence_matrix,
    line_graph,
    line_graph_spectrum,
    path_graph,
)
from schurwalk.acceptance import numeric_time_average, projectors
from schurwalk.errors import SchurWalkError
from schurwalk.spectral import DEFAULT_GROUPING_TOL
from spectra import (
    SMALL_SPECTRA,
    connected_graphs,
    random_matrix,
    reference_eigenspaces,
    seeds,
    symmetric_matrices,
)


def _random_symmetric(rng, n):
    raw = rng.standard_normal((n, n))
    return (raw + raw.T) / 2


def test_complete_graph_spectrum():
    s = decompose(adjacency_matrix(complete_graph(3)))
    assert np.allclose(s.distinct_eigenvalues, [-1.0, 2.0])
    assert np.allclose(projectors(s)[1], np.ones((3, 3)) / 3, atol=1e-12)
    assert round(np.trace(projectors(s)[0])) == 2  # rank of the -1 eigenspace


def test_zero_matrix_spectrum():
    s = decompose(np.zeros((4, 4)))
    assert np.allclose(s.distinct_eigenvalues, [0.0])
    assert np.allclose(projectors(s)[0], np.eye(4))


def test_flat_band_multiplicity_matches_incidence_kernel():
    h = figure_eight_graph()
    s = line_graph_spectrum(h)
    idx = int(np.argmin(np.abs(s.distinct_eigenvalues - (-2.0))))
    assert abs(s.distinct_eigenvalues[idx] + 2.0) < 1e-9
    multiplicity = round(np.trace(projectors(s)[idx]))
    kernel_dim = h.n_edges - np.linalg.matrix_rank(incidence_matrix(h))
    assert multiplicity == kernel_dim == 2


def test_spectrum_invariants_on_random_matrices():
    rng = np.random.default_rng(11)
    for n in range(2, 11):
        a = _random_symmetric(rng, n)
        s = decompose(a)
        resolution = sum(projectors(s))
        assert np.abs(resolution - np.eye(n)).max() < 1e-9
        reconstruction = sum(
            theta * proj for theta, proj in zip(s.distinct_eigenvalues, projectors(s))
        )
        assert np.abs(reconstruction - a).max() < 1e-9
        for i, pi in enumerate(projectors(s)):
            for j, pj in enumerate(projectors(s)):
                target = pi if i == j else 0.0
                assert np.abs(pi @ pj - target).max() < 1e-9
        gaps = np.diff(s.distinct_eigenvalues)
        scale = max(1.0, np.abs(s.distinct_eigenvalues).max())
        assert (gaps > 1e-8 * scale * 0.999).all()


def test_decompose_rejects_asymmetric_input():
    with pytest.raises(SchurWalkError, match="not symmetric within 1e-12"):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(SchurWalkError, match="not symmetric within 1e-12"):
        decompose(np.array([[0.0, np.nan], [np.nan, 0.0]]))
    with pytest.raises(SchurWalkError, match=r"expected a square matrix, got shape \(2, 3\)"):
        decompose(np.zeros((2, 3)))
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError):
            decompose(np.zeros((2, 2)), grouping_tol=tol)


def test_evolve_identity_and_unitarity():
    s = line_graph_spectrum(figure_eight_graph())
    assert np.abs(evolve(s, 0.0) - np.eye(8)).max() < 1e-12
    u = evolve(s, 1.7)
    assert np.abs(u @ u.conj().T - np.eye(8)).max() < 1e-9
    assert np.abs(evolve(s, 1.7) @ evolve(s, -1.7) - np.eye(8)).max() < 1e-9


def test_evolve_involution_closed_form():
    # For A with A^2 = I the walk is cos(t) I + i sin(t) A.
    a = np.array([[0.0, 1.0], [1.0, 0.0]])
    s = decompose(a)
    t = np.pi / 2
    expected = np.cos(t) * np.eye(2) + 1j * np.sin(t) * a
    assert np.abs(evolve(s, t) - expected).max() < 1e-12
    assert np.abs(evolve(s, t) - 1j * a).max() < 1e-12


def test_dephase_fixed_points_and_projection():
    rng = np.random.default_rng(5)
    a = adjacency_matrix(line_graph(path_graph(5))).astype(float)
    s = decompose(a)
    n = s.dimension
    assert np.abs(dephase(s, np.eye(n)) - np.eye(n)).max() < 1e-12
    assert np.abs(dephase(s, a.astype(complex)) - a).max() < 1e-9
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    once = dephase(s, x)
    assert np.abs(dephase(s, once) - once).max() < 1e-9
    assert np.abs(dephase(s, x).conj().T - dephase(s, x.conj().T)).max() < 1e-9
    with pytest.raises(SchurWalkError, match=f"expected a {n}x{n} matrix"):
        dephase(s, np.zeros((n + 1, n + 1)))


def test_numeric_time_average_preserves_trace_and_converges():
    s = line_graph_spectrum(path_graph(4))
    x = np.zeros((3, 3), dtype=complex)
    x[0, 0] = 1.0
    target = dephase(s, x)
    short = numeric_time_average(s, x, 1e3, 100_000)
    long = numeric_time_average(s, x, 1e4, 100_000)
    assert abs(np.trace(short) - 1.0) < 1e-9
    dev_short = np.linalg.norm(short - target)
    dev_long = np.linalg.norm(long - target)
    assert dev_short < 1e-2
    assert dev_long < dev_short


def test_numeric_time_average_validates_arguments():
    s = decompose(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        numeric_time_average(s, np.zeros((2, 2)), -1.0, 100)
    with pytest.raises(ValueError):
        numeric_time_average(s, np.zeros((2, 2)), 1.0, 1)
    with pytest.raises(SchurWalkError, match="expected a 2x2 matrix"):
        numeric_time_average(s, np.zeros((3, 3)), 1.0, 100)


# -- properties of the eigenbasis Spectrum, against projectors built from eigh --

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(symmetric_matrices, seeds)
def test_dephase_equals_the_projector_sum(a, seed):
    s = decompose(a)
    spaces = reference_eigenspaces(a)
    assert len(s.distinct_eigenvalues) == len(spaces)
    x = random_matrix(seed, s.dimension)
    expected = sum(p @ x @ p for _, p in spaces)
    assert np.abs(dephase(s, x) - expected).max() < 1e-12


@PROPERTY_SETTINGS
@given(symmetric_matrices, seeds)
def test_dephase_is_idempotent_and_trace_preserving(a, seed):
    s = decompose(a)
    x = random_matrix(seed, s.dimension)
    once = dephase(s, x)
    assert np.abs(dephase(s, once) - once).max() < 1e-12
    assert abs(np.trace(once) - np.trace(x)) < 1e-12


@PROPERTY_SETTINGS
@given(symmetric_matrices, st.floats(-20.0, 20.0))
def test_evolve_is_unitary_and_matches_the_eigenspaces(a, t):
    s = decompose(a)
    u = evolve(s, t)
    assert np.abs(u @ u.conj().T - np.eye(s.dimension)).max() < 1e-12
    expected = sum(np.exp(1j * t * theta) * p for theta, p in reference_eigenspaces(a))
    assert np.abs(u - expected).max() < 1e-12


# -- the dominant group and the complement forms built on it -----------------


@PROPERTY_SETTINGS
@given(symmetric_matrices)
def test_dominant_group_and_its_complement(a):
    s = decompose(a)
    spaces = reference_eigenspaces(a)
    ranks = [round(np.trace(p)) for _, p in spaces]
    assert s.dominant == ranks.index(max(ranks))  # lowest index on a tie
    assert s.rest_basis.shape == (s.dimension, s.dimension - max(ranks))
    complement = np.eye(s.dimension) - s.rest_basis @ s.rest_basis.T
    assert np.abs(complement - spaces[s.dominant][1]).max() < 1e-12
    assert len(projectors(s)) == len(spaces)
    for proj, (_, expected) in zip(projectors(s), spaces):
        assert np.abs(proj - expected).max() < 1e-12
    assert s.dominant not in s.rest_groups
    assert (s.rest_same_group == (s.rest_groups[:, None] == s.rest_groups)).all()


@pytest.mark.parametrize("name", SMALL_SPECTRA)
def test_complement_forms_on_small_spectra(name):
    a, dominant = SMALL_SPECTRA[name]
    s = decompose(a)
    spaces = reference_eigenspaces(a)
    assert s.dominant == dominant
    x = random_matrix(3, s.dimension) if s.dimension else np.zeros((0, 0))
    expected = sum((p @ x @ p for _, p in spaces), np.zeros_like(x))
    assert dephase(s, x).shape == x.shape
    assert np.abs(dephase(s, x) - expected).max(initial=0.0) < 1e-12
    unitary = sum((np.exp(0.7j * theta) * p for theta, p in spaces), np.zeros_like(x))
    assert evolve(s, 0.7).shape == x.shape
    assert np.abs(evolve(s, 0.7) - unitary).max(initial=0.0) < 1e-12


def _is_bipartite(g) -> bool:
    color = {0: 0}
    frontier = [0]
    neighbours = {v: [] for v in range(g.n_vertices)}
    for u, v in g.edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    while frontier:
        u = frontier.pop()
        for v in neighbours[u]:
            if v not in color:
                color[v] = 1 - color[u]
                frontier.append(v)
            elif color[v] == color[u]:
                return False
    return True


@PROPERTY_SETTINGS
@given(connected_graphs())
def test_line_graph_dominant_group_is_the_flat_band(g):
    # The -2 eigenspace of a line graph is the cycle space of the base graph,
    # of dimension m - n + c0 (c0 = 1 for a bipartite connected graph).  It
    # is the lowest group, so it is dominant as soon as no other is larger.
    n, m = g.n_vertices, g.n_edges
    c0 = int(_is_bipartite(g))
    a = adjacency_matrix(line_graph(g)).astype(float)
    s = decompose(a)
    ranks = {round(theta, 6): round(np.trace(p)) for theta, p in reference_eigenspaces(a)}
    flat = ranks.pop(-2.0, 0)
    assert flat == m - n + c0
    assume(flat > 0 and flat >= max(ranks.values(), default=0))
    assert abs(s.distinct_eigenvalues[s.dominant] + 2.0) < 1e-9
    assert s.rest_basis.shape == (m, n - c0)


# -- the one line-graph entry point, and the quadrature oracle ---------------

# Graphs beyond connected_graphs(): no edges, one edge, two components, one vertex.
SMALL_GRAPHS = [
    Graph(3, ()),
    Graph(2, ((0, 1),)),
    Graph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5))),
    Graph(1, ()),
]


@PROPERTY_SETTINGS
@given(
    st.one_of(connected_graphs(), st.sampled_from(SMALL_GRAPHS)),
    st.sampled_from([DEFAULT_GROUPING_TOL, 1e-3]),
)
def test_line_graph_spectrum_equals_decompose_of_the_line_graph(g, tol):
    got = line_graph_spectrum(g, tol)
    want = decompose(adjacency_matrix(line_graph(g)), tol)
    for field in dataclasses.fields(Spectrum):
        assert np.array_equal(getattr(got, field.name), getattr(want, field.name)), field.name


def full_basis_time_average(a, x, horizon, steps):
    """The quadrature average in the full eigenbasis ``V`` of ``eigh``, one sum over all steps.

    ``V (F[g_i, g_j] * V^T X V) V^T * dt / horizon``, where ``g_i`` is the
    eigenspace of column ``i`` (cut at every gap > 1e-6, as
    :func:`reference_eigenspaces` cuts) and ``F`` is the trapezoidal sum of
    ``exp(i t (theta_g - theta_h))``.
    """
    values, v = np.linalg.eigh(a)
    gap = 1e-6 * max(1.0, float(np.abs(values).max(initial=0.0)))
    ids = np.zeros(len(values), dtype=int)
    np.cumsum(np.diff(values) > gap, out=ids[1:])
    thetas = np.bincount(ids, weights=values) / np.bincount(ids)
    dt = horizon / steps
    weights = np.ones(steps + 1)
    weights[[0, -1]] = 0.5
    phases = np.exp(1j * np.outer(dt * np.arange(steps + 1), thetas))
    factors = (weights[:, None] * phases).T @ phases.conj()
    return v @ (factors[np.ix_(ids, ids)] * (v.T @ x @ v)) @ v.T * (dt / horizon)


@PROPERTY_SETTINGS
@given(symmetric_matrices, seeds, st.floats(0.5, 50.0), st.integers(2, 40))
def test_numeric_time_average_matches_the_full_basis_formula(a, seed, horizon, steps):
    s = decompose(a)
    x = random_matrix(seed, s.dimension)
    expected = full_basis_time_average(a, x, horizon, steps)
    assert np.abs(numeric_time_average(s, x, horizon, steps) - expected).max() < 1e-12


@pytest.mark.parametrize("name", SMALL_SPECTRA)
def test_numeric_time_average_on_small_spectra(name):
    a, _ = SMALL_SPECTRA[name]
    s = decompose(a)
    x = random_matrix(5, s.dimension) if s.dimension else np.zeros((0, 0))
    got = numeric_time_average(s, x, 3.7, 9)
    assert got.shape == x.shape
    assert np.abs(got - full_basis_time_average(a, x, 3.7, 9)).max(initial=0.0) < 1e-12
