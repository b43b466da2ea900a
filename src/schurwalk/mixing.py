"""Average mixing matrices and time-averaged states.

Everything here is an infinite-time average, computed exactly from the
eigenbasis of a :class:`~schurwalk.spectral.Spectrum` one eigenvalue group at
a time, with the dominant group taken as the complement of the others,
never from dense projectors held together and never by integrating;
the quadrature route exists only as a test oracle (see
:func:`schurwalk.acceptance.numeric_time_average`).  The averaged edge weights of
a pure state, which are also one column of the mixing matrix, need only
vectors: ``sum_g |V_g V_g^T e|^2`` with no m x m density.
"""

from __future__ import annotations

import json

import numpy as np

from .errors import SchurWalkError
from .graphs import Graph, _endpoints
from .spectral import Spectrum, dephase
from .states import InducedWeightedGraph, edge_state, induced_from_adjacency


def average_mixing(spectrum: Spectrum) -> np.ndarray:
    """Average mixing matrix: sum of the entrywise squares of the projectors.

    The dominant projector is ``P_D = I - V_R V_R^T``, from the basis columns
    outside it.  The other groups are streamed from ``V_R``, forming one
    projector ``V_g V_g^T`` at a time; the projector ``v v^T`` of a simple
    eigenvalue squares entrywise to ``(v*v)(v*v)^T``, so the simple
    eigenvalues together cost one product.  Real, symmetric, doubly
    stochastic, positive semidefinite, and entrywise nonnegative.
    """
    v_r, groups = spectrum.rest_basis, spectrum.rest_groups
    sizes = np.bincount(groups, minlength=len(spectrum.distinct_eigenvalues))
    dominant = -(v_r @ v_r.T)
    dominant.reshape(-1)[:: spectrum.dimension + 1] += 1.0
    out = dominant * dominant
    squares = v_r[:, sizes[groups] == 1] ** 2
    out += squares @ squares.T
    for g in np.flatnonzero(sizes > 1):
        v_g = v_r[:, groups == g]
        proj = v_g @ v_g.T
        out += proj * proj
    return out


def _checked_state(spectrum: Spectrum, e: np.ndarray) -> np.ndarray:
    vec = edge_state(e)
    if vec.shape != (spectrum.dimension,):
        raise SchurWalkError(
            f"state has {vec.shape[0]} amplitudes, spectrum dimension is {spectrum.dimension}"
        )
    return vec


def averaged_density(spectrum: Spectrum, e: np.ndarray) -> np.ndarray:
    """Time-averaged density matrix of the pure state ``|e><e|``."""
    vec = _checked_state(spectrum, e)
    return dephase(spectrum, np.outer(vec, vec.conj()))


def averaged_weights(spectrum: Spectrum, e: np.ndarray) -> np.ndarray:
    """Diagonal of the time-averaged density of ``|e><e|``, without forming it.

    Entry ``p`` is ``sum_g |(P_g e)_p|^2``.  Outside the dominant group,
    ``P_g e = V_g V_g^T e`` is column ``g`` of ``V_R C``, where ``C`` spreads
    the coefficients ``V_R^T e`` into one column per group.  Column ``D`` of
    ``C`` holds ``-V_R^T e``, so column ``D`` of ``V_R C`` plus ``e`` is
    ``P_D e = e - V_R V_R^T e``.  The cost is O(m r k).  For the basis state
    on edge ``q`` this is column ``q`` of :func:`average_mixing`.
    """
    vec = _checked_state(spectrum, e)
    v_r, groups = spectrum.rest_basis, spectrum.rest_groups
    rows = np.arange(len(groups))
    out = np.zeros(spectrum.dimension)
    # The projectors are real, so |P e|^2 = |P Re e|^2 + |P Im e|^2.
    for part in (vec.real, vec.imag):
        if part.any():
            coefficients = v_r.T @ part
            spread = np.zeros((len(groups), len(spectrum.distinct_eigenvalues)))
            spread[rows, groups] = coefficients
            spread[:, spectrum.dominant] = -coefficients
            projected = v_r @ spread
            projected[:, spectrum.dominant] += part
            out += (projected**2).sum(axis=1)
    return out


def averaged_induced(spectrum: Spectrum, g: Graph, e: np.ndarray) -> InducedWeightedGraph:
    """Time-averaged induced weighted graph of an edge state.

    The weight of edge ``{v, w}`` is the corresponding diagonal entry of the
    averaged density matrix, placed symmetrically; the Laplacian follows from
    the row sums.
    """
    if g.n_edges != spectrum.dimension:
        raise SchurWalkError(
            f"graph has {g.n_edges} edges, spectrum dimension is {spectrum.dimension}"
        )
    weights = averaged_weights(spectrum, e)
    adj = np.zeros((g.n_vertices, g.n_vertices))
    u, v = _endpoints(g).T
    adj[u, v] = weights
    adj[v, u] = weights
    return induced_from_adjacency(adj)


def mixing_to_json(matrix: np.ndarray) -> str:
    """Serialize a mixing matrix as ``{"m": ..., "rows": [[...], ...]}``."""
    arr = np.asarray(matrix, dtype=float)
    return json.dumps(
        {"m": int(arr.shape[0]), "rows": [[float(x) for x in row] for row in arr]},
        sort_keys=True,
    )
