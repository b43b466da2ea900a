"""The disorder classifier and flat-band state construction.

The classifier sorts a density matrix on the edge space into one of four
verdicts.  A state moved by dephasing is non-commutative.  A fixed point whose
averaged edge weights are all within tolerance of ``1/m`` is uniform
commutative, confirmed by a spanning-tree cross-check in the log domain,
relative at every size; if the cross-check fails the verdict is an explicit
anomaly rather than a silent retry.  Any other fixed point is weighted
commutative.

The flat-band constructor realizes uniform commutative states on non-regular
line graphs: alternating signs along a closed Eulerian trail of the base
graph lie in the kernel of the incidence matrix, hence form an eigenvector of
the line graph's adjacency with eigenvalue -2.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import OddDegreeVertex, OddEdgeCount, SchurWalkError
from .graphs import (
    Graph,
    WeightedGraph,
    edge_induced_subgraph,
    eulerian_trail,
    incidence_matrix,
    is_connected,
)
from .spectral import Spectrum, _diagonal_and_drift
from .treecount import IDENTITY_RTOL, log_tree_count

DEFAULT_EPSILON = 1e-7

NON_COMMUTATIVE = "NonCommutative"
WEIGHTED_COMMUTATIVE = "WeightedCommutative"
UNIFORM_COMMUTATIVE = "UniformCommutative"
ANOMALY = "Anomaly"


@dataclass(frozen=True, eq=False)
class Classification:
    verdict: str
    support_size: int
    support_vertices: int
    support_edges: tuple[int, ...]
    weights: np.ndarray
    epsilon: float
    detail: str


@dataclass(frozen=True, eq=False)
class FlatBandState:
    """Signed edge labeling in the incidence kernel, plus its normalized state."""

    signs: np.ndarray
    normalized: np.ndarray


def classify(
    rho: np.ndarray, g: Graph, spectrum: Spectrum, epsilon: float = DEFAULT_EPSILON
) -> Classification:
    """Disorder classification of a density matrix on the edge space of ``g``.

    The infinite-time average is computed in closed form via dephasing, so the
    test against the fixed-point condition is exact up to ``epsilon``.  Only
    its diagonal and its distance from ``rho`` are formed, never the averaged
    matrix itself.
    """
    if not 0 < epsilon < math.inf:
        raise SchurWalkError(f"epsilon must be positive and finite, got {epsilon!r}")
    mat = np.asarray(rho, dtype=complex)
    m = g.n_edges
    if mat.shape != (m, m):
        raise SchurWalkError(f"expected a {m}x{m} density matrix, got shape {mat.shape}")
    if spectrum.dimension != m:
        raise SchurWalkError(
            f"spectrum dimension {spectrum.dimension} does not match {m} edges"
        )

    all_weights, drift = _diagonal_and_drift(spectrum, mat)
    support = [idx for idx in range(m) if all_weights[idx] > epsilon]
    weights = all_weights[support]
    sub, _, edge_map = edge_induced_subgraph(g, support)
    m_rho = len(support)
    n_rho = sub.n_vertices

    def result(verdict: str, detail: str) -> Classification:
        return Classification(
            verdict, m_rho, n_rho, tuple(support), weights, epsilon, detail
        )

    if drift > epsilon:
        return result(
            NON_COMMUTATIVE,
            f"dephasing moved the state: drift {drift:.6e} exceeds epsilon",
        )
    if m_rho == 0:
        return result(ANOMALY, "support is empty at this epsilon")

    deviation = float(np.abs(weights - 1.0 / m_rho).max())
    if deviation < epsilon:
        # log(lhs / rhs) for lhs = tn(sub, weights), rhs = tn(sub) / m_rho**(n_rho - 1);
        # a disconnected support has no spanning tree, so both counts vanish.
        log_ratio = 0.0
        if is_connected(sub):
            log_lhs = log_tree_count(WeightedGraph(sub, all_weights[edge_map]))
            log_unit = log_tree_count(WeightedGraph(sub, np.ones(m_rho)))
            log_ratio = log_lhs - log_unit + (n_rho - 1) * math.log(m_rho)
        # Every weight lies within a factor 1 +- m_rho * epsilon of 1/m_rho and
        # the count is monotone and homogeneous of degree n_rho - 1 in them.
        spread = m_rho * epsilon
        upper = (n_rho - 1) * math.log1p(spread) + IDENTITY_RTOL
        lower = (n_rho - 1) * math.log1p(-spread) - IDENTITY_RTOL if spread < 1 else -math.inf
        residual = abs(math.expm1(log_ratio))
        if lower <= log_ratio <= upper:
            return result(
                UNIFORM_COMMUTATIVE,
                f"weight 1/{m_rho} on support {support}; "
                f"tree-count cross-check relative residual {residual:.3e}",
            )
        return result(
            ANOMALY,
            f"weights look uniform but the tree-count cross-check fails: "
            f"relative residual {residual:.3e}, log ratio {log_ratio:.3e} "
            f"outside [{lower:.3e}, {upper:.3e}]",
        )
    return result(
        WEIGHTED_COMMUTATIVE,
        f"weights vary on support {support}: max deviation {deviation:.6e} from 1/{m_rho}",
    )


def flat_band_state(h: Graph) -> FlatBandState:
    """Alternating-sign state along a closed Eulerian trail of ``h``.

    Requires ``h`` connected with every degree even and an even number of
    edges.  The signs sum to zero around every vertex, so they lie in the
    kernel of the incidence matrix ``B``; that is the one check made here.
    Since ``A(L(h)) = B^T B - 2 I``, they are then an exact integer
    eigenvector of the line graph's adjacency with eigenvalue -2, and
    dividing by ``sqrt(m)`` gives a uniform commutative state.
    """
    m = h.n_edges
    if m == 0:
        raise SchurWalkError("graph has no edges")
    odd = np.flatnonzero(h.degrees() % 2)
    if odd.size:
        raise OddDegreeVertex(f"vertices {odd.tolist()} have odd degree")
    if m % 2:
        raise OddEdgeCount(f"{m} edges; an even count is required")
    if not is_connected(h):
        raise SchurWalkError("graph is not connected")

    trail = eulerian_trail(h)
    signs = np.zeros(m, dtype=int)
    for position, edge_idx in enumerate(trail):
        signs[edge_idx] = 1 if position % 2 == 0 else -1

    vertex_sums = incidence_matrix(h) @ signs
    assert not vertex_sums.any(), "trail signs do not cancel at every vertex"

    return FlatBandState(signs, signs / np.sqrt(m) + 0j)


def classification_to_json(c: Classification) -> str:
    return json.dumps(
        {
            "detail": c.detail,
            "epsilon": float(c.epsilon),
            "m_rho": int(c.support_size),
            "n_rho": int(c.support_vertices),
            "verdict": c.verdict,
            "weights": [float(w) for w in c.weights],
        },
        sort_keys=True,
    )
