"""Eigendecomposition with eigenvalue grouping, unitary evolution, and dephasing.

The central object is :class:`Spectrum`: the orthonormal eigenbasis of a real
symmetric matrix, the distinct eigenvalues, and a group label per basis
column saying which distinct eigenvalue it belongs to.  The basis itself is
stored, but every public output is basis-independent: each is masked or
summed by group, so only the eigenspaces, never the vectors chosen inside a
degenerate eigenspace, reach the result.  No dense projector is formed.
Grouping nearly equal eigenvalues into one eigenspace matters: a degenerate
level split by floating-point noise would otherwise dephase incorrectly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EigensolverFailure, NotSymmetric

DEFAULT_GROUPING_TOL = 1e-8
SYMMETRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class Spectrum:
    """Distinct eigenvalues (increasing), eigenbasis, and the group of each column.

    Column ``j`` of ``basis`` is an eigenvector for
    ``distinct_eigenvalues[group_ids[j]]``.  ``group_ids`` is nondecreasing,
    so each group is a contiguous range of columns.
    """

    distinct_eigenvalues: np.ndarray
    basis: np.ndarray
    group_ids: np.ndarray
    dimension: int

    def group_columns(self) -> list[slice]:
        """Column range of each group, in the order of ``distinct_eigenvalues``."""
        cuts = np.searchsorted(self.group_ids, np.arange(len(self.distinct_eigenvalues) + 1))
        return [slice(int(lo), int(hi)) for lo, hi in zip(cuts, cuts[1:])]

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Dense orthogonal projector of each group, rebuilt on every access.

        For tests only: it costs one m x m matrix per distinct eigenvalue.
        """
        return tuple(
            self.basis[:, cols] @ self.basis[:, cols].T for cols in self.group_columns()
        )


def decompose(matrix: np.ndarray, grouping_tol: float = DEFAULT_GROUPING_TOL) -> Spectrum:
    """Spectral decomposition of a real symmetric matrix.

    Consecutive sorted eigenvalues closer than
    ``grouping_tol * max(1, spectral_radius)`` are merged into a single
    eigenspace; the reported eigenvalue is the group mean.
    """
    if grouping_tol <= 0:
        raise ValueError("grouping_tol must be positive")
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"expected a square matrix, got shape {a.shape}")
    if a.size and np.abs(a - a.T).max() > SYMMETRY_TOL:
        raise NotSymmetric("matrix is not symmetric within 1e-12")
    sym = (a + a.T) / 2.0

    try:
        evals, evecs = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise EigensolverFailure(str(exc)) from exc

    n = a.shape[0]
    if n == 0:
        return Spectrum(np.array([]), np.zeros((0, 0)), np.zeros(0, dtype=int), 0)

    scale = max(1.0, float(np.abs(evals).max()))
    threshold = grouping_tol * scale
    group_ids = np.concatenate(([0], np.cumsum(np.diff(evals) >= threshold)))
    thetas = np.bincount(group_ids, weights=evals) / np.bincount(group_ids)
    return Spectrum(thetas, evecs, group_ids, n)


def evolve(spectrum: Spectrum, t: float) -> np.ndarray:
    """Unitary ``exp(i t A)`` reconstructed from the spectral decomposition."""
    v = spectrum.basis
    angles = t * spectrum.distinct_eigenvalues[spectrum.group_ids]
    return (v * np.cos(angles)) @ v.T + 1j * ((v * np.sin(angles)) @ v.T)


def _check_square(spectrum: Spectrum, x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=complex)
    n = spectrum.dimension
    if x.shape != (n, n):
        raise DimensionMismatch(f"expected a {n}x{n} matrix, got shape {x.shape}")
    return x


def dephase(spectrum: Spectrum, x: np.ndarray) -> np.ndarray:
    """Infinite-time average of ``exp(itA) X exp(-itA)``, in closed form.

    Equals the sum of ``P @ X @ P`` over the spectral projectors ``P``,
    computed as ``V (same_group * V^T X V) V^T``.  The real and imaginary
    parts of ``X`` are averaged apart, so the real basis is never cast to
    complex.  The map is trace preserving, Hermiticity preserving, and
    idempotent.
    """
    x = _check_square(spectrum, x)
    v = spectrum.basis
    same_group = spectrum.group_ids[:, None] == spectrum.group_ids[None, :]

    def average(part: np.ndarray) -> np.ndarray:
        return v @ ((v.T @ part @ v) * same_group) @ v.T

    out = average(x.real).astype(complex)
    if x.imag.any():
        out += 1j * average(x.imag)
    return out


def numeric_time_average(
    spectrum: Spectrum, x: np.ndarray, horizon: float, steps: int
) -> np.ndarray:
    """Trapezoidal approximation of the finite-time average of U(t) X U(t)^dag.

    Averages over ``[0, horizon]`` with ``steps`` equal subintervals.  This is
    the brute-force quadrature oracle for :func:`dephase`; the deviation decays
    like ``1/horizon``.  In the eigenbasis ``Y = V^T X V``, the block of
    groups ``(g, h)`` is weighted by the quadrature sum of
    ``exp(i t (theta_g - theta_h))``, so each step costs k x k phases, not an
    m x m product.
    """
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    if steps < 2:
        raise ValueError("steps must be at least 2")
    x = _check_square(spectrum, x)

    thetas = spectrum.distinct_eigenvalues
    dt = horizon / steps
    factors = np.zeros((len(thetas), len(thetas)), dtype=complex)
    chunk = 65536
    for lo in range(0, steps + 1, chunk):
        ts = dt * np.arange(lo, min(lo + chunk, steps + 1))
        weights = np.ones(ts.shape)
        if lo == 0:
            weights[0] = 0.5
        if lo + chunk >= steps + 1:
            weights[-1] = 0.5
        phases = np.exp(1j * np.outer(ts, thetas))
        factors += (weights[:, None] * phases).T @ phases.conj()
    gids = spectrum.group_ids
    v = spectrum.basis
    return v @ (factors[np.ix_(gids, gids)] * (v.T @ x @ v)) @ v.T * (dt / horizon)
