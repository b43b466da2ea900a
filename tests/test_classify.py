"""Commutativity tests, the disorder classifier, and flat-band construction."""

from __future__ import annotations

import importlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from schurwalk import (
    Graph,
    adjacency_matrix,
    basis_state,
    classification_to_json,
    classify,
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    decompose,
    dephase,
    eulerian_trail,
    figure_eight_graph,
    flat_band_state,
    incidence_matrix,
    line_graph,
    line_graph_spectrum,
    path_graph,
    uniform_state,
)
from schurwalk.acceptance import commutator_norm, random_connected_graph, random_edge_state
from schurwalk.classify import (
    ANOMALY,
    NON_COMMUTATIVE,
    UNIFORM_COMMUTATIVE,
    WEIGHTED_COMMUTATIVE,
)
from schurwalk.errors import OddDegreeVertex, OddEdgeCount, SchurWalkError
from schurwalk.spectral import _diagonal_and_drift
from spectra import even_connected_graphs, random_matrix, seeds, symmetric_matrices


classify_module = importlib.import_module("schurwalk.classify")


def test_commutator_norm_examples():
    a = adjacency_matrix(line_graph(path_graph(4))).astype(float)
    assert commutator_norm(a, np.eye(3) / 3) == 0.0

    evals, evecs = np.linalg.eigh(a)
    v = evecs[:, 0]
    assert commutator_norm(a, np.outer(v, v.conj())) < 1e-10

    e0 = basis_state(3, 0)
    assert commutator_norm(a, np.outer(e0, e0.conj())) > 0.1

    with pytest.raises(SchurWalkError, match=r"incompatible shapes \(3, 3\) and \(4, 4\)"):
        commutator_norm(a, np.eye(4))


def rayleigh(a: np.ndarray, v: np.ndarray) -> tuple[float, float]:
    """Rayleigh quotient ``v^dag A v`` of a unit vector and the residual ``||Av - lam v||``."""
    lam = float(np.real(np.vdot(v, a @ v)))
    return lam, float(np.linalg.norm(a @ v - lam * v))


def test_is_eigenvector_examples():
    # uniform vector on the line graph of a k-regular graph: eigenvalue 2k - 2
    for g, k in ((cycle_graph(5), 2), (complete_graph(4), 3), (complete_graph(5), 4)):
        a = adjacency_matrix(line_graph(g)).astype(float)
        lam, residual = rayleigh(a, uniform_state(g.n_edges))
        assert residual < 1e-8 and abs(lam - (2 * k - 2)) < 1e-9

    a = adjacency_matrix(line_graph(path_graph(4))).astype(float)
    assert rayleigh(a, basis_state(3, 0))[1] >= 1e-8

    h = figure_eight_graph()
    a = adjacency_matrix(line_graph(h)).astype(float)
    lam, residual = rayleigh(a, flat_band_state(h).normalized)
    assert residual < 1e-8 and abs(lam + 2.0) < 1e-12


def test_eigenvector_test_matches_commutator_test():
    rng = np.random.default_rng(42)
    for _ in range(4):
        g = random_connected_graph(rng, 3, 6)
        a = adjacency_matrix(line_graph(g)).astype(float)
        m = g.n_edges
        evals, evecs = np.linalg.eigh(a)
        candidates = []
        for _ in range(100):
            candidates.append(random_edge_state(rng, m))
        for k in range(m):
            candidates.append(evecs[:, k].astype(complex))
        for vec in candidates:
            commutes = commutator_norm(a, np.outer(vec, vec.conj())) < 1e-10
            assert commutes == (rayleigh(a, vec)[1] < 1e-8)


def test_classifier_reference_verdicts():
    c4 = cycle_graph(4)
    u = uniform_state(4)
    verdict = classify(np.outer(u, u.conj()), c4, line_graph_spectrum(c4))
    assert verdict.verdict == UNIFORM_COMMUTATIVE

    p4 = path_graph(4)
    e0 = basis_state(3, 0)
    assert classify(np.outer(e0, e0.conj()), p4, line_graph_spectrum(p4)).verdict == NON_COMMUTATIVE

    k13 = complete_bipartite_graph(1, 3)
    vec = np.array([1.0, 1.0, -2.0]) / np.sqrt(6.0)
    verdict = classify(np.outer(vec, vec.conj()), k13, line_graph_spectrum(k13))
    assert verdict.verdict == WEIGHTED_COMMUTATIVE
    assert np.abs(verdict.weights - np.array([1 / 6, 1 / 6, 2 / 3])).max() < 1e-12
    assert abs(verdict.weights.sum() - 1.0) < 1e-9


def test_classifier_is_phase_invariant():
    c4 = cycle_graph(4)
    s = line_graph_spectrum(c4)
    for alpha in (0.0, 0.9, -2.2):
        state = uniform_state(4, phase=alpha)
        verdict = classify(np.outer(state, state.conj()), c4, s)
        assert verdict.verdict == UNIFORM_COMMUTATIVE
        assert np.abs(verdict.weights - 0.25).max() < 1e-12


def test_dephased_states_are_never_noncommutative():
    rng = np.random.default_rng(3)
    for _ in range(10):
        g = random_connected_graph(rng, 2, 6)
        s = line_graph_spectrum(g)
        state = random_edge_state(rng, g.n_edges)
        rho_hat = dephase(s, np.outer(state, state.conj()))
        assert classify(rho_hat, g, s).verdict != NON_COMMUTATIVE


def test_classifier_support_restriction():
    # Two disjoint edges: the line graph has no edges, so everything commutes.
    g = Graph(4, ((0, 1), (2, 3)))
    s = decompose(np.zeros((2, 2)))

    verdict = classify(np.diag([1.0, 0.0]).astype(complex), g, s)
    assert verdict.verdict == UNIFORM_COMMUTATIVE
    assert verdict.support_edges == (0,)
    assert verdict.support_size == 1 and verdict.support_vertices == 2

    verdict = classify(np.diag([0.9, 0.1]).astype(complex), g, s)
    assert verdict.verdict == WEIGHTED_COMMUTATIVE
    assert verdict.support_size == 2

    # a disconnected support: both tree counts vanish
    verdict = classify(np.eye(2, dtype=complex) / 2, g, s)
    assert verdict.verdict == UNIFORM_COMMUTATIVE
    assert verdict.support_size == 2 and verdict.support_vertices == 4


@pytest.mark.parametrize(
    "factor, expected",
    [
        (2.0, ANOMALY),
        (0.5, ANOMALY),
        (1 + 1e-5, UNIFORM_COMMUTATIVE),
        (1 - 1e-5, UNIFORM_COMMUTATIVE),
        (1 + 2e-5, ANOMALY),
        (1 - 2e-5, ANOMALY),
    ],
)
def test_uniform_cross_check_is_relative(monkeypatch, factor, expected):
    # On C_12 both tree counts are about 1e-12, far below epsilon, so an
    # absolute comparison passes a weighted count that is off by a factor of 2.
    # Weights within epsilon of 1/12 bound the ratio of the counts to
    # (1 +- 12 epsilon)**11 = 1 +- 1.32e-5.
    g = cycle_graph(12)
    state = flat_band_state(g).normalized
    rho = np.outer(state, state.conj())
    s = line_graph_spectrum(g)
    assert classify(rho, g, s).verdict == UNIFORM_COMMUTATIVE

    log_tree_count = classify_module.log_tree_count

    def scaled(wg):
        unit = bool((wg.weights == 1.0).all())
        return log_tree_count(wg) + (0.0 if unit else math.log(factor))

    monkeypatch.setattr(classify_module, "log_tree_count", scaled)
    verdict = classify(rho, g, s)
    assert verdict.verdict == expected
    assert f"relative residual {abs(factor - 1):.3e}" in verdict.detail


def test_uniform_cross_check_with_a_wide_epsilon():
    # Weights of 2/12 lie within epsilon = 0.1 of 1/12, so their count may be
    # anywhere below (1 + 1.2)**11 times the target: no lower bound exists.
    g = cycle_graph(12)
    state = flat_band_state(g).normalized
    verdict = classify(2 * np.outer(state, state.conj()), g, line_graph_spectrum(g), epsilon=0.1)
    assert verdict.verdict == UNIFORM_COMMUTATIVE
    assert "relative residual 2.047e+03" in verdict.detail


def test_classifier_rejects_bad_arguments():
    g = cycle_graph(4)
    s = line_graph_spectrum(g)
    rho = np.eye(4) / 4
    for epsilon in (0.0, np.nan, np.inf):
        with pytest.raises(SchurWalkError, match="epsilon must be positive and finite"):
            classify(rho, g, s, epsilon=epsilon)
    with pytest.raises(SchurWalkError, match="expected a 4x4 density matrix, got shape"):
        classify(np.eye(3) / 3, g, s)


def test_flat_band_figure_eight_matches_loop_alternation():
    h = figure_eight_graph()
    fb = flat_band_state(h)
    assert set(fb.signs.tolist()) == {1, -1}
    assert not (incidence_matrix(h) @ fb.signs).any()
    # around each 4-cycle the signs alternate
    for loop in ([(0, 1), (1, 2), (2, 3), (0, 3)], [(0, 4), (4, 5), (5, 6), (0, 6)]):
        idx = [h.edges.index(e) for e in loop]
        cycle_signs = fb.signs[idx]
        assert abs(cycle_signs.sum()) == 0
        assert (cycle_signs[:2] != cycle_signs[1:3]).all()


def test_flat_band_cycle_and_complete_graph():
    c4 = cycle_graph(4)
    fb = flat_band_state(c4)
    trail_order = [(0, 1), (1, 2), (2, 3), (0, 3)]
    along_cycle = fb.signs[[c4.edges.index(e) for e in trail_order]]
    assert along_cycle.tolist() == [1, -1, 1, -1]

    k5 = complete_graph(5)  # 4-regular with 10 edges
    fb = flat_band_state(k5)
    assert not (incidence_matrix(k5) @ fb.signs).any()
    image = adjacency_matrix(line_graph(k5)) @ fb.signs
    assert (image == -2 * fb.signs).all()


@settings(max_examples=80, deadline=None)
@given(even_connected_graphs())
def test_flat_band_state_on_even_graphs(h):
    trail = eulerian_trail(h)
    assert sorted(trail) == list(range(h.n_edges))
    start = current = h.edges[trail[0]][0]
    for idx in trail:
        u, v = h.edges[idx]
        assert current in (u, v)
        current = v if current == u else u
    assert current == start
    try:
        import networkx as nx
    except ImportError:
        pass
    else:
        assert nx.is_eulerian(nx.Graph(h.edges))

    signs = flat_band_state(h).signs
    assert (adjacency_matrix(line_graph(h)) @ signs == -2 * signs).all()


def test_flat_band_preconditions():
    with pytest.raises(OddDegreeVertex):
        flat_band_state(path_graph(4))
    with pytest.raises(OddEdgeCount):
        flat_band_state(complete_graph(3))
    two_squares = Graph(8, tuple((i, i + 1) for i in (0, 1, 2)) + ((0, 3),)
                        + tuple((i, i + 1) for i in (4, 5, 6)) + ((4, 7),))
    with pytest.raises(SchurWalkError, match="graph is not connected"):
        flat_band_state(two_squares)


def test_spectral_floor():
    rng = np.random.default_rng(10)
    for _ in range(10):
        g = random_connected_graph(rng, 2, 6)
        lg = line_graph(g)
        floor = decompose(adjacency_matrix(lg)).distinct_eigenvalues[0]
        assert floor >= -2.0 - 1e-9

    k24 = complete_bipartite_graph(2, 4)
    floor = decompose(adjacency_matrix(k24)).distinct_eigenvalues[0]
    assert abs(floor + np.sqrt(8.0)) < 1e-9

    k3 = complete_graph(3)
    assert abs(decompose(adjacency_matrix(k3)).distinct_eigenvalues[0] + 1.0) < 1e-12


def test_classification_json_fields():
    c4 = cycle_graph(4)
    u = uniform_state(4)
    verdict = classify(np.outer(u, u.conj()), c4, line_graph_spectrum(c4))
    data = json.loads(classification_to_json(verdict))
    assert set(data) == {"detail", "epsilon", "m_rho", "n_rho", "verdict", "weights"}
    assert data["verdict"] == UNIFORM_COMMUTATIVE
    assert data["m_rho"] == 4 and data["n_rho"] == 4


# -- the dephased diagonal and drift, without the dephased matrix ------------


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices, seeds)
def test_diagonal_and_drift_match_the_dephased_matrix(a, seed):
    s = decompose(a)
    x = random_matrix(seed, s.dimension)  # complex and not Hermitian
    for candidate in (x, x.real.astype(complex), x + x.conj().T):
        dephased = dephase(s, candidate)
        diagonal, drift = _diagonal_and_drift(s, candidate)
        assert np.abs(diagonal - dephased.diagonal().real).max() < 1e-12
        assert abs(drift - np.linalg.norm(dephased - candidate)) < 1e-12


def test_drift_of_a_dephased_state_stays_at_rounding_level():
    rng = np.random.default_rng(4)
    g = random_connected_graph(rng, 6, 8)
    s = line_graph_spectrum(g)
    e = random_edge_state(rng, g.n_edges)
    rho_hat = dephase(s, np.outer(e, e.conj()))
    assert _diagonal_and_drift(s, rho_hat)[1] < 1e-14


def test_diagonal_and_drift_on_the_smallest_spectra():
    diagonal, drift = _diagonal_and_drift(decompose(np.zeros((0, 0))), np.zeros((0, 0)))
    assert diagonal.shape == (0,) and drift == 0.0
    diagonal, drift = _diagonal_and_drift(decompose(np.array([[2.0]])), np.array([[0.5 + 1j]]))
    assert diagonal.tolist() == [0.5] and drift == 0.0
