"""Eigendecomposition with eigenvalue grouping, unitary evolution, and dephasing.

The central object is :class:`Spectrum`: the orthonormal eigenbasis of a real
symmetric matrix, the distinct eigenvalues, and a group label per basis
column saying which distinct eigenvalue it belongs to.  The basis itself is
stored, but every public output is basis-independent: each is masked or
summed by group, so only the eigenspaces, never the vectors chosen inside a
degenerate eigenspace, reach the result.  No dense projector is formed.
Grouping nearly equal eigenvalues into one eigenspace matters: a degenerate
level split by floating-point noise would otherwise dephase incorrectly.

The largest eigenspace is handled through its complement.  ``decompose``
records the *dominant* group (most columns, lowest index on ties) and the
``m x r`` block ``V_R`` of the basis columns outside it.  The dominant
projector is ``P_D = I - V_R V_R^T``, so :func:`dephase`, :func:`evolve`,
the mixing matrix and the averaged weights cost ``O(m^2 r)`` and never read
the ``d = m - r`` columns of ``P_D``.  On a line graph the dominant group is
usually the eigenvalue -2, whose multiplicity ``m - n + c_0`` (``c_0``
bipartite components) grows with the cycle space, so ``r`` is at most ``n``.
"""

from __future__ import annotations

import cmath
import math
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

    ``dominant`` is the group with the most columns, the lowest index on a
    tie.  ``rest_basis`` holds the other columns, ``V_R`` (``m x r``), in
    order; ``rest_groups`` labels them, ``rest_same_group`` is their
    ``r x r`` same-group mask, 1.0 or 0.0, and ``rest_offsets`` their
    eigenvalues minus the dominant one.  The forms built on them treat the
    dominant projector as ``I - V_R V_R^T`` and never read its columns of
    ``basis``; the full basis serves only the test references
    (:attr:`projectors` and :func:`numeric_time_average`).
    """

    distinct_eigenvalues: np.ndarray
    basis: np.ndarray
    group_ids: np.ndarray
    dimension: int
    dominant: int
    rest_basis: np.ndarray
    rest_groups: np.ndarray
    rest_same_group: np.ndarray
    rest_offsets: np.ndarray

    @property
    def dominant_eigenvalue(self) -> float:
        """Eigenvalue of the dominant group; 0.0 for the empty spectrum."""
        return float(self.distinct_eigenvalues[self.dominant]) if self.dimension else 0.0

    @property
    def projectors(self) -> tuple[np.ndarray, ...]:
        """Dense orthogonal projector of each group, rebuilt on every access.

        For tests only: it costs one m x m matrix per distinct eigenvalue.
        """
        cuts = np.searchsorted(self.group_ids, np.arange(len(self.distinct_eigenvalues) + 1))
        blocks = (self.basis[:, lo:hi] for lo, hi in zip(cuts, cuts[1:]))
        return tuple(v @ v.T for v in blocks)


def decompose(matrix: np.ndarray, grouping_tol: float = DEFAULT_GROUPING_TOL) -> Spectrum:
    """Spectral decomposition of a real symmetric matrix.

    Consecutive sorted eigenvalues closer than
    ``grouping_tol * max(1, spectral_radius)`` are merged into a single
    eigenspace; the reported eigenvalue is the group mean.  The dominant
    group and the basis columns outside it are recorded once, here.
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
        empty = np.zeros((0, 0))
        no_ids = np.zeros(0, dtype=int)
        return Spectrum(np.array([]), empty, no_ids, 0, 0, empty, no_ids, empty, np.zeros(0))

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
    return Spectrum(
        thetas, evecs, group_ids, n, dominant, evecs[:, rest], rest_groups, same, offsets
    )


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
        raise DimensionMismatch(f"expected a {n}x{n} matrix, got shape {x.shape}")
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
