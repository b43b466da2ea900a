"""Eigendecomposition with eigenvalue grouping, unitary evolution, and dephasing.

The central object is :class:`Spectrum`: the distinct eigenvalues of a real
symmetric matrix, its largest eigenspace, and an orthonormal basis of the
complement of that eigenspace with a group label per column saying which
distinct eigenvalue it belongs to.  Every public output is
basis-independent: each is masked or summed by group, so only the
eigenspaces, never the vectors chosen inside a degenerate eigenspace, reach
the result.  No dense projector is formed.  Grouping nearly equal
eigenvalues into one eigenspace matters: a degenerate level split by
floating-point noise would otherwise dephase incorrectly.

The largest eigenspace is handled through its complement.  ``decompose``
records the *dominant* group (most columns, lowest index on ties) and keeps
only the ``m x r`` block ``V_R`` of the eigenbasis outside it; the ``d = m -
r`` columns of the dominant group are dropped.  The dominant projector is
``P_D = I - V_R V_R^T``, so :func:`dephase`, :func:`evolve`, the mixing
matrix and the averaged weights cost ``O(m^2 r)``.  On a line graph the
dominant group is usually the eigenvalue -2, whose multiplicity ``m - n +
c_0`` (``c_0`` bipartite components) grows with the cycle space, so ``r`` is
at most ``n``.  :func:`line_graph_spectrum` is the one place where the
spectrum of a line graph is formed.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import EigensolverFailure, SchurWalkError
from .graphs import Graph, incidence_matrix

DEFAULT_GROUPING_TOL = 1e-8
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Distinct eigenvalues (increasing), the dominant group, and the basis outside it.

    ``dominant`` is the group with the most eigenvalues, counted with
    multiplicity, the lowest index on a tie.  ``rest_basis`` holds the
    orthonormal eigenvectors of every other group, ``V_R`` (``m x r``), with
    each group a contiguous range of columns in increasing order;
    ``rest_groups`` labels them, ``rest_same_group`` is their ``r x r``
    same-group mask, 1.0 or 0.0, and ``rest_offsets`` their eigenvalues minus
    the dominant one.  The dominant eigenvectors are not stored: every form
    built on the spectrum treats the dominant projector as
    ``I - V_R V_R^T``.
    """

    distinct_eigenvalues: np.ndarray
    dominant: int
    rest_basis: np.ndarray
    rest_groups: np.ndarray
    rest_same_group: np.ndarray
    rest_offsets: np.ndarray

    @property
    def dimension(self) -> int:
        """Size ``m`` of the decomposed matrix."""
        return self.rest_basis.shape[0]

    @property
    def dominant_eigenvalue(self) -> float:
        """Eigenvalue of the dominant group; 0.0 for the empty spectrum."""
        return float(self.distinct_eigenvalues[self.dominant]) if self.dimension else 0.0


def decompose(matrix: np.ndarray, grouping_tol: float = DEFAULT_GROUPING_TOL) -> Spectrum:
    """Spectral decomposition of a real symmetric matrix.

    Consecutive sorted eigenvalues closer than
    ``grouping_tol * max(1, spectral_radius)`` are merged into a single
    eigenspace; the reported eigenvalue is the group mean.  The dominant
    group and the basis columns outside it are recorded once, here.
    ``grouping_tol`` must be positive and finite.
    """
    if not 0 < grouping_tol < math.inf:
        raise ValueError(f"grouping_tol must be positive and finite, got {grouping_tol!r}")
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise SchurWalkError(f"expected a square matrix, got shape {a.shape}")
    if a.size and not np.abs(a - a.T).max() <= SYMMETRY_TOL:  # also true for NaN entries
        raise SchurWalkError("matrix is not symmetric within 1e-12")
    sym = (a + a.T) / 2.0

    try:
        evals, evecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc

    n = a.shape[0]
    if n == 0:
        empty = np.zeros((0, 0))
        no_ids = np.zeros(0, dtype=int)
        return Spectrum(np.array([]), 0, empty, no_ids, empty, np.zeros(0))

    scale = max(1.0, -float(evals[0]), float(evals[-1]))
    group_ids = np.zeros(n, dtype=int)
    np.cumsum(np.diff(evals) >= grouping_tol * scale, out=group_ids[1:])
    sizes = np.bincount(group_ids)
    thetas = np.bincount(group_ids, weights=evals) / sizes
    dominant = int(sizes.argmax())
    rest = group_ids != dominant
    rest_groups = group_ids[rest]
    same = (rest_groups[:, None] == rest_groups).astype(float)
    offsets = thetas[rest_groups] - thetas[dominant]
    return Spectrum(thetas, dominant, evecs[:, rest], rest_groups, same, offsets)


def line_graph_spectrum(g: Graph, grouping_tol: float = DEFAULT_GROUPING_TOL) -> Spectrum:
    """:func:`decompose` of the adjacency matrix of the line graph of ``g``.

    The matrix is ``B^T B - 2 I`` for the incidence matrix ``B`` of ``g``.
    ``B`` is built in float so the product runs through BLAS; its entries
    are small integers, so the matrix equals
    ``adjacency_matrix(line_graph(g))`` exactly and the line graph itself is
    never built.
    """
    b = incidence_matrix(g).astype(float)
    a = b.T @ b
    a.reshape(-1)[:: g.n_edges + 1] -= 2.0
    return decompose(a, grouping_tol)


def evolve(spectrum: Spectrum, t: float) -> np.ndarray:
    """Unitary ``exp(i t A)`` reconstructed from the spectral decomposition.

    With ``z_D = exp(i t theta_D)`` this is
    ``z_D I + V_R diag(exp(i t theta_R) - z_D) V_R^T``: one real product of
    ``V_R`` with the complex ``r x m`` factor read as ``r x 2m`` reals.  The
    shift is ``z_D expm1(i t (theta_R - theta_D))``.
    """
    v_r = spectrum.rest_basis
    z_d = cmath.exp(1j * t * spectrum.dominant_eigenvalue)
    shift = z_d * np.expm1(1j * t * spectrum.rest_offsets)
    factor = np.multiply(shift[:, None], v_r.T, order="C")
    out = (v_r @ factor.view(float)).view(complex)
    out.reshape(-1)[:: spectrum.dimension + 1] += z_d
    return out


def _check_square(spectrum: Spectrum, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    n = spectrum.dimension
    if x.shape != (n, n):
        raise SchurWalkError(f"expected a {n}x{n} matrix, got shape {x.shape}")
    return x


def _blocks(spectrum: Spectrum, x: np.ndarray) -> tuple[np.ndarray, ...]:
    """The real parts of ``X``, then ``Z = X V_R``, ``W = V_R^T X`` and ``Y = W V_R`` of each.

    The parts are stacked on a leading axis, the imaginary part only when it
    is nonzero, so one product serves both and the real basis is never cast
    to complex.  In the eigenbasis, dephasing keeps the dominant block and
    the same-group entries of ``Y`` and clears the rest; the blocks between
    the dominant group and the others are ``P_D X V_R = Z - V_R Y`` and
    ``V_R^T X P_D = W - Y V_R^T``.
    """
    parts = np.array((x.real, x.imag)) if x.imag.any() else x.real[None]
    v_r = spectrum.rest_basis
    w = v_r.T @ parts
    return parts, parts @ v_r, w, w @ v_r


def dephase(spectrum: Spectrum, x: np.ndarray) -> np.ndarray:
    """Infinite-time average of ``exp(itA) X exp(-itA)``, in closed form.

    Equals the sum of ``P @ X @ P`` over the spectral projectors ``P``.  With
    ``P_D = I - V_R V_R^T`` and the blocks of :func:`_blocks` this is
    ``X - Z V_R^T - V_R (W - (Y + mask * Y) V_R^T)``, where ``mask`` is the
    same-group mask of ``V_R``, so the cost is ``O(m^2 r)``.  The real and
    imaginary parts of ``X`` are averaged apart.  The map is trace
    preserving, Hermiticity preserving, and idempotent.
    """
    x = _check_square(spectrum, x)
    v_r = spectrum.rest_basis
    parts, z, w, y = _blocks(spectrum, x)
    kept = y + y * spectrum.rest_same_group
    averaged = parts - z @ v_r.T - v_r @ (w - kept @ v_r.T)
    out = averaged[0].astype(complex)
    if len(averaged) > 1:
        out.imag = averaged[1]
    return out


def _diagonal_and_drift(spectrum: Spectrum, x: np.ndarray) -> tuple[np.ndarray, float]:
    """Real part of the diagonal of ``dephase(X)``, and ``||dephase(X) - X||``.

    Neither forms the dephased matrix.  In the eigenbasis dephasing clears
    three blocks: the off-group entries ``O`` of ``Y``, ``C = P_D X V_R =
    Z - V_R Y`` and ``E = V_R^T X P_D = W - Y V_R^T``.  The drift is the
    root of the sum of their squared norms, each block formed explicitly;
    ``||X||^2 - ||dephase(X)||^2`` would need fewer products but loses about
    half the digits to cancellation.  Mapped back, the cleared part is
    ``C V_R^T + V_R E + V_R O V_R^T``, whose diagonal is
    ``rowsum(V_R * (C + E^T + V_R O))``.  ``X`` need not be Hermitian; its
    real and imaginary parts contribute apart.
    """
    x = _check_square(spectrum, x)
    v_r = spectrum.rest_basis
    parts, z, w, y = _blocks(spectrum, x)
    off = y - y * spectrum.rest_same_group
    c, e = z - v_r @ y, w - y @ v_r.T
    drift = math.sqrt(np.vdot(off, off) + np.vdot(c, c) + np.vdot(e, e))
    cleared = (v_r * (c[0] + e[0].T + v_r @ off[0])).sum(axis=1)
    return parts[0].diagonal() - cleared, drift
