"""Covariance featurization: Toeplitz-PSD projection, APS, covariance vectors.

The feature maps feeding the translation networks: an angular power
spectrum over DFT directions, the dominant-structure-preserving projection
onto the Toeplitz-Hermitian-PSD cone, which returns the first column
(covariance vector) of the Toeplitz matrix it fits, and the Hermitian
Toeplitz matrix rebuilt from such a column.  Also the linear map from
a covariance vector to its Toeplitz APS, which the covariance-vector loss
differentiates, and the Chebyshev attenuation of the windowed periodogram
that the eigenvector loss compares.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import SpatialCovariance
from .numerics import dft_matrix

# sidelobe attenuation of the eigenvector loss's periodogram window
APS_WINDOW_ATTENUATION_DB = 35.0

# Toeplitz-PSD projection: relative stopping tolerance and iteration cap
PROJECTION_TOL = 1e-8
PROJECTION_MAX_ITER = 200


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of the alternating-projections Toeplitz-PSD fit: the first
    column of the fitted Hermitian Toeplitz matrix, real at index 0."""

    col: np.ndarray
    converged: bool
    iterations: int


def _hermitian_toeplitz(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first column, matrix) of the Hermitian Toeplitz matrix whose first
    column is col, with the diagonal set to Re(col[0])."""
    n = len(col)
    col = np.array(col, dtype=complex)
    col[0] = col[0].real
    idx = np.subtract.outer(np.arange(n), np.arange(n))
    full = np.concatenate([np.conj(col[:0:-1]), col])
    return col, full[idx + n - 1]


def _toeplitz_average(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest Hermitian Toeplitz matrix, as (first column, matrix): average
    each diagonal."""
    n = x.shape[0]
    h = 0.5 * (x + x.conj().T)
    col = np.zeros(n, dtype=complex)
    for d in range(n):
        col[d] = np.mean(np.diagonal(h, offset=-d))
    return _hermitian_toeplitz(col)


def toeplitz_psd_project(
    r_hat: SpatialCovariance, noise_power_w: float = 0.0
) -> ProjectionResult:
    """Alternating projections of (R - sigma^2 I) onto the Toeplitz-PSD cone.

    Alternates per-diagonal averaging with eigenvalue clipping until the
    iterate stops moving and its Toeplitz form is PSD within PROJECTION_TOL.
    Each step eigendecomposes the (exactly Hermitian Toeplitz) iterate
    once: the smallest eigenvalue is the PSD test and the eigenpairs give
    the clipped matrix.  The iterate is exactly Toeplitz, so its first
    column is returned; converged is False if PROJECTION_MAX_ITER passes
    end without reaching the tolerance (best iterate still returned).
    """
    a = r_hat.matrix - noise_power_w * np.eye(r_hat.n)
    scale = max(float(np.linalg.norm(a)), 1e-300)
    col, x = _toeplitz_average(a)
    converged = False
    iterations = 0
    for iterations in range(1, PROJECTION_MAX_ITER + 1):
        vals, vecs = np.linalg.eigh(x)
        if vals[0] >= -PROJECTION_TOL * scale:
            converged = True
            break
        col, x_next = _toeplitz_average((vecs * np.maximum(vals, 0.0)) @ vecs.conj().T)
        moved = float(np.linalg.norm(x_next - x))
        x = x_next
        if moved <= PROJECTION_TOL * scale:
            # fixed point of the pair: test the final iterate's PSD-ness
            converged = float(np.linalg.eigvalsh(x)[0]) >= -PROJECTION_TOL * scale
            break
    # Zero-scale inputs (e.g. R = sigma^2 I exactly) are already done.
    if np.linalg.norm(x) == 0.0:
        converged = True
    return ProjectionResult(col=col, converged=converged, iterations=iterations)


def aps_diag(r: SpatialCovariance) -> np.ndarray:
    """Unclamped diag(F^H R F); may be negative for indefinite matrices."""
    f = dft_matrix(r.n)
    return np.real(np.einsum("ij,ik,kj->j", np.conj(f), r.matrix, f))


def aps_from_covariance(r: SpatialCovariance) -> np.ndarray:
    """Angular power spectrum diag(F^H R F) over the unitary DFT directions.

    Real by Hermitian symmetry; numerical negatives are clamped at 0.
    """
    return np.maximum(aps_diag(r), 0.0)


def reconstruct_toeplitz(r: np.ndarray) -> SpatialCovariance:
    """Hermitian Toeplitz matrix with first column r (PSD not enforced).

    The diagonal uses Re(r[0]) so the result is exactly Hermitian even for
    unconstrained network outputs.
    """
    r = np.asarray(r)
    if r.ndim != 1:
        raise ValueError(f"expected a vector, got shape {r.shape}")
    return SpatialCovariance(_hermitian_toeplitz(r)[1])


def toeplitz_aps_matrices(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Linear map from a covariance vector to its Toeplitz APS.

    diag(F^H T(r) F) = J_re @ Re(r) + J_im @ Im(r) for Hermitian Toeplitz
    T(r) with first column r; used for closed-form loss gradients.
    """
    k = np.arange(n)[:, np.newaxis]
    d = np.arange(n)[np.newaxis, :]
    weight = 2.0 * (n - d) / n
    ang = 2.0 * np.pi * k * d / n
    j_re = weight * np.cos(ang)
    j_im = weight * np.sin(ang)
    j_re[:, 0] = 1.0
    j_im[:, 0] = 0.0
    return j_re, j_im
