"""Edge states, Schur states, and the weighted graphs they induce.

An edge state is a unit vector of complex amplitudes over the edges of a
graph, i.e. over the vertices of its line graph.  Walking it for time ``t``
and folding the amplitudes back onto the base graph's vertex pairs gives a
Hermitian matrix supported on the edges with zero diagonal: the Schur state.
The entrywise modulus square of that matrix is a nonnegative edge weighting.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import SchurWalkError
from .graphs import Graph, _endpoints
from .spectral import Spectrum

NORM_TOL = 1e-12


def edge_state(amplitudes: np.ndarray) -> np.ndarray:
    """Validated copy of an amplitude vector; must already have unit norm.

    Non-normalized input is rejected rather than rescaled, so a caller bug
    cannot hide behind silent renormalization.
    """
    vec = np.asarray(amplitudes, dtype=complex).copy()
    if vec.ndim != 1:
        raise SchurWalkError(f"expected a vector, got shape {vec.shape}")
    norm_sq = float(np.sum(np.abs(vec) ** 2))
    if not abs(norm_sq - 1.0) <= NORM_TOL:  # also rejects NaN
        raise SchurWalkError(f"squared norm is {norm_sq!r}, expected 1")
    return vec


def basis_state(m: int, q: int, phase: float = 0.0) -> np.ndarray:
    """Pure state on edge ``q``, optionally carrying a global phase."""
    if not 0 <= q < m:
        raise SchurWalkError(f"edge index {q} out of range for {m} edges")
    vec = np.zeros(m, dtype=complex)
    vec[q] = np.exp(1j * phase)
    return vec


def uniform_state(m: int, phase: float = 0.0) -> np.ndarray:
    """Equal-amplitude superposition over all ``m`` edges."""
    if m < 1:
        raise SchurWalkError("need at least one edge")
    return np.full(m, np.exp(1j * phase) / np.sqrt(m), dtype=complex)


@dataclass(frozen=True, eq=False)
class SchurState:
    """Hermitian matrix of walk amplitudes, supported on the base graph's edges."""

    entries: np.ndarray
    base_graph: Graph


@dataclass(frozen=True, eq=False)
class InducedWeightedGraph:
    """Real-weighted adjacency and Laplacian extracted from a Schur state."""

    adjacency: np.ndarray
    laplacian: np.ndarray


def schur_state(g: Graph, e: np.ndarray, t: float, spectrum: Spectrum) -> SchurState:
    """Schur state of edge state ``e`` walked for time ``t`` on the line graph.

    ``spectrum`` must be that of the line graph of ``g``, as
    :func:`~schurwalk.spectral.line_graph_spectrum` gives it.
    For each edge ``{v, w}`` with ``v < w`` the walked amplitude on that edge
    is stored at ``[v, w]`` and its conjugate at ``[w, v]``; all other entries
    are zero.  The walk acts on the vector alone, as
    ``exp(i t theta_D) (e + V_R (expm1(i t (theta_R - theta_D)) * (V_R^T e)))``
    with ``theta_D`` the eigenvalue of the dominant eigenspace (see
    :func:`~schurwalk.spectral.evolve`): two ``m x r`` matrix-vector
    products, and the unitary ``exp(i t A)`` is never formed.
    """
    vec = edge_state(e)
    m = g.n_edges
    if vec.shape != (m,):
        raise SchurWalkError(f"state has {vec.shape[0]} amplitudes, graph has {m} edges")
    if spectrum.dimension != m:
        raise SchurWalkError(
            f"spectrum dimension {spectrum.dimension} does not match {m} edges"
        )
    v_r = spectrum.rest_basis
    shift = np.expm1(1j * t * spectrum.rest_offsets)
    amps = cmath.exp(1j * t * spectrum.dominant_eigenvalue) * (vec + v_r @ (shift * (v_r.T @ vec)))
    entries = np.zeros((g.n_vertices, g.n_vertices), dtype=complex)
    u, v = _endpoints(g).T
    entries[u, v] = amps
    entries[v, u] = amps.conj()
    return SchurState(entries, g)


def schur_inner(first: SchurState, second: SchurState) -> complex:
    """Inner product ``Tr(M^dag N)`` of two Schur states on the same graph."""
    if first.base_graph != second.base_graph:
        raise SchurWalkError("Schur states live on different base graphs")
    return complex(np.vdot(first.entries, second.entries))


def induced_from_adjacency(adjacency: np.ndarray) -> InducedWeightedGraph:
    """Weighted Laplacian companion of a symmetric nonnegative adjacency."""
    adj = np.asarray(adjacency, dtype=float)
    degrees = adj.sum(axis=1)
    return InducedWeightedGraph(adj, np.diag(degrees) - adj)


def induced_graph(state: SchurState) -> InducedWeightedGraph:
    """Entrywise modulus-squared weights of a Schur state, plus their Laplacian.

    The total weight over all ordered vertex pairs is 2 for a Schur state
    built from a normalized edge state, and the Laplacian rows sum to zero by
    construction.
    """
    return induced_from_adjacency(np.abs(state.entries) ** 2)
