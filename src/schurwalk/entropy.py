"""Von Neumann entropy, vertex spectral entropy, and binary entropy.

All entropies are in bits (base-2 logarithms).  Base 2 is forced by the
disjoint-union law, which mixes matrix entropies with the binary entropy
``h(p)``; a different base would break that identity.
"""

from __future__ import annotations

import numpy as np

from .errors import SchurWalkError, ZeroLaplacian
from .states import InducedWeightedGraph

EIGENVALUE_CLIP = 1e-12
HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-9


def _entropy_bits(probabilities: np.ndarray) -> float:
    # 0 log 0 = 0: numerically-zero eigenvalues are dropped before the log.
    # An eigenvalue of 1 + eps gives a tiny negative sum; entropy is never
    # below 0, and max also turns -0.0 into 0.0.
    p = probabilities[probabilities > EIGENVALUE_CLIP]
    return max(0.0, float(-(p * np.log2(p)).sum()))


def density_eigenvalues(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a density matrix, validating its defining properties."""
    mat = np.asarray(rho, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise SchurWalkError(f"expected a square matrix, got shape {mat.shape}")
    # Written to fail on NaN as well, which then never reaches the trace test.
    if not np.abs(mat - mat.conj().T).max() <= HERMITIAN_TOL:
        raise SchurWalkError("matrix is not Hermitian within 1e-12")
    trace = complex(np.trace(mat))
    if abs(trace - 1.0) > TRACE_TOL:
        raise SchurWalkError(f"trace is {trace!r}, expected 1")
    evals = np.linalg.eigvalsh(mat)
    if evals.min() < -PSD_TOL:
        raise SchurWalkError(f"minimum eigenvalue {evals.min()!r} is negative")
    return evals


def von_neumann_entropy(rho: np.ndarray) -> float:
    """``-Tr(rho log2 rho)``; zero for pure states, ``log2 m`` for ``I/m``."""
    return _entropy_bits(density_eigenvalues(rho))


def vertex_entropy(induced: InducedWeightedGraph) -> float:
    """Shannon entropy of the eigenvalues of the trace-normalized Laplacian.

    Invariant under positive rescaling of all weights.  Zero iff the weight
    concentrates on a single edge.
    """
    lap = np.asarray(induced.laplacian, dtype=float)
    trace = float(np.trace(lap))
    if trace <= 1e-12:
        raise ZeroLaplacian("Laplacian trace is numerically zero")
    mu = np.linalg.eigvalsh(lap / trace)
    return _entropy_bits(mu)


def binary_entropy(p: float) -> float:
    """``h(p) = -p log2 p - (1-p) log2 (1-p)`` with ``h(0) = h(1) = 0``."""
    if not 0.0 <= p <= 1.0:
        raise SchurWalkError(f"p = {p!r} is outside [0, 1]")
    return _entropy_bits(np.array([p, 1.0 - p]))
