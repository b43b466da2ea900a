"""Entropy values, composition laws, and the averaging inequality."""

from __future__ import annotations

import numpy as np
import pytest

from schurwalk import (
    adjacency_matrix,
    averaged_density,
    basis_state,
    binary_entropy,
    complete_graph,
    cycle_graph,
    decompose,
    evolve,
    induced_graph,
    line_graph,
    line_graph_spectrum,
    path_graph,
    schur_state,
    uniform_state,
    vertex_entropy,
    von_neumann_entropy,
)
from schurwalk.acceptance import (
    disjoint_union_entropy_check,
    random_connected_graph,
    random_density_matrix,
    random_edge_state,
)
from schurwalk.errors import SchurWalkError, ZeroLaplacian
from schurwalk.states import InducedWeightedGraph, induced_from_adjacency


def test_pure_state_entropy_is_zero():
    vec = random_edge_state(np.random.default_rng(0), 5)
    assert von_neumann_entropy(np.outer(vec, vec.conj())) == 0.0
    # The uniform state's density has the eigenvalue 1 + eps for m = 3, 6, 7;
    # rounding may leave a positive entropy of order eps, never a negative one.
    for m in range(2, 9):
        vec = uniform_state(m)
        value = von_neumann_entropy(np.outer(vec, vec.conj()))
        assert 0.0 <= value < 1e-14 and np.copysign(1.0, value) == 1.0


def test_maximally_mixed_entropy():
    for m in (2, 3, 4, 8):
        assert abs(von_neumann_entropy(np.eye(m) / m) - np.log2(m)) < 1e-12


def test_von_neumann_rejects_non_densities():
    with pytest.raises(SchurWalkError, match="trace is .*, expected 1"):
        von_neumann_entropy(np.eye(3))
    with pytest.raises(SchurWalkError, match="not Hermitian"):
        von_neumann_entropy(np.array([[0.5, 1.0], [0.0, 0.5]]))
    with pytest.raises(SchurWalkError, match="minimum eigenvalue .* is negative"):
        von_neumann_entropy(np.diag([1.5, -0.5]))
    with pytest.raises(SchurWalkError, match="not Hermitian"):
        von_neumann_entropy(np.full((2, 2), np.nan))


def test_tensor_additivity():
    rng = np.random.default_rng(4)
    for _ in range(10):
        r1 = random_density_matrix(rng, int(rng.integers(2, 5)))
        r2 = random_density_matrix(rng, int(rng.integers(2, 5)))
        lhs = von_neumann_entropy(np.kron(r1, r2))
        rhs = von_neumann_entropy(r1) + von_neumann_entropy(r2)
        assert abs(lhs - rhs) < 1e-9


def test_binary_entropy_values():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(0.25) - (2 - 0.75 * np.log2(3))) < 1e-12
    with pytest.raises(SchurWalkError, match=r"p = 1.1 is outside \[0, 1\]"):
        binary_entropy(1.1)


def test_disjoint_union_law():
    rng = np.random.default_rng(6)
    e1 = random_edge_state(rng, 3)
    e2 = random_edge_state(rng, 2)
    lhs, rhs = disjoint_union_entropy_check(
        np.outer(e1, e1.conj()), np.outer(e2, e2.conj()), 0.5
    )
    assert abs(lhs - 1.0) < 1e-12 and abs(rhs - 1.0) < 1e-12

    r2 = random_density_matrix(rng, 3)
    lhs, rhs = disjoint_union_entropy_check(random_density_matrix(rng, 4), r2, 0.0)
    assert abs(lhs - von_neumann_entropy(r2)) < 1e-9

    for _ in range(10):
        lhs, rhs = disjoint_union_entropy_check(
            random_density_matrix(rng, int(rng.integers(2, 5))),
            random_density_matrix(rng, int(rng.integers(2, 5))),
            0.3,
        )
        assert abs(lhs - rhs) < 1e-9


def test_averaging_never_lowers_entropy():
    rng = np.random.default_rng(44)
    for _ in range(60):
        g = random_connected_graph(rng, 2, 7)
        spectrum = line_graph_spectrum(g)
        state = random_edge_state(rng, g.n_edges)
        rho = np.outer(state, state.conj())
        before = von_neumann_entropy(rho)
        after = von_neumann_entropy(averaged_density(spectrum, state))
        assert after >= before - 1e-9


def test_equality_for_commuting_and_strictness_for_noncommuting():
    g = path_graph(4)
    lg_adj = adjacency_matrix(line_graph(g)).astype(float)
    spectrum = decompose(lg_adj)
    evals, evecs = np.linalg.eigh(lg_adj)
    for k in range(3):
        state = evecs[:, k].astype(complex)
        after = von_neumann_entropy(averaged_density(spectrum, state))
        assert abs(after - 0.0) < 1e-8

    state = basis_state(3, 0)
    rho = np.outer(state, state.conj())
    commutator = np.linalg.norm(lg_adj @ rho - rho @ lg_adj)
    assert commutator > 1e-3
    after = von_neumann_entropy(averaged_density(spectrum, state))
    assert after > 0.0


def test_entropy_is_invariant_under_evolution():
    rng = np.random.default_rng(55)
    g = complete_graph(4)
    spectrum = line_graph_spectrum(g)
    rho = random_density_matrix(rng, g.n_edges)
    base = von_neumann_entropy(rho)
    for t in (0.3, 1.7, 4.0):
        u = evolve(spectrum, t)
        assert abs(von_neumann_entropy(u @ rho @ u.conj().T) - base) < 1e-9


def test_vertex_entropy_reference_values():
    g = path_graph(4)
    s = line_graph_spectrum(g)
    walked = schur_state(g, basis_state(3, 0), 0.0, s)
    assert abs(vertex_entropy(induced_graph(walked))) < 1e-12

    for n in range(3, 9):
        adj = adjacency_matrix(complete_graph(n)).astype(float)
        assert abs(vertex_entropy(induced_from_adjacency(adj)) - np.log2(n - 1)) < 1e-9

    # uniform cycle: normalized Laplacian spectrum {0, 1/4, 1/4, 1/2}
    adj = adjacency_matrix(cycle_graph(4)).astype(float)
    assert abs(vertex_entropy(induced_from_adjacency(adj)) - 1.5) < 1e-12


def test_vertex_entropy_scale_invariance_and_zero_error():
    rng = np.random.default_rng(66)
    adj = adjacency_matrix(cycle_graph(4)) * rng.uniform(0.1, 2.0)
    a = vertex_entropy(induced_from_adjacency(adj))
    b = vertex_entropy(induced_from_adjacency(adj * 37.0))
    assert abs(a - b) < 1e-12
    with pytest.raises(ZeroLaplacian):
        vertex_entropy(InducedWeightedGraph(np.zeros((3, 3)), np.zeros((3, 3))))
