"""Covariance featurization: Toeplitz-PSD projection, APS, covariance vectors.

The feature maps feeding the translation networks: an angular power
spectrum over DFT directions, the dominant-structure-preserving projection
onto the Toeplitz-Hermitian-PSD cone, which returns the first column
(covariance vector) of the Toeplitz matrix it fits, and the Hermitian
Toeplitz matrix rebuilt from such a column.  Also the linear map from
a covariance vector to its Toeplitz APS, which the covariance-vector loss
differentiates, and the Chebyshev attenuation of the windowed periodogram
that the eigenvector loss compares.

The projection iterates on the first column c alone.  A Hermitian
Toeplitz matrix T(c) is centro-Hermitian (J T J = conj(T), J the exchange
matrix), so the fixed sparse unitary Q = [[I, iI], [J, -iJ]] / sqrt(2),
with a middle row e_m for odd n, makes S(c) = Q^H T(c) Q real symmetric
(Lee, "Centrohermitian and skew-centrohermitian matrices", Linear Algebra
Appl. 29, 1980).  S(c) has T(c)'s eigenvalues, and each of its entries is
a signed, sometimes sqrt(2)-scaled, entry of Re c or Im c, so it is built
by one gather per n.  Because Q is unitary, the diagonal means of Q R Q^H
are the scatter-add of R back through the same gather over the Toeplitz
weights, so the projection never forms a complex matrix.

The projection fits the matrix it is given.  One test follows each
eigendecomposition: the iterate is PSD, or the last step was small, within
PROJECTION_TOL relative to ||R||_F.  A closing lift of the diagonal by the
most negative eigenvalue leaves every result Toeplitz and PSD to rounding;
converged means the test stopped the loop before PROJECTION_MAX_ITER.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .covariance import SpatialCovariance
from .numerics import dft_matrix

# sidelobe attenuation of the eigenvector loss's periodogram window
APS_WINDOW_ATTENUATION_DB = 35.0

# Toeplitz-PSD projection: relative stopping tolerance and iteration cap
PROJECTION_TOL = 1e-5
PROJECTION_MAX_ITER = 200


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of the alternating-projections Toeplitz-PSD fit: the first
    column of the fitted Hermitian Toeplitz matrix, real at index 0, and
    the closing diagonal lift relative to ||R||_F (0 for R = 0)."""

    col: np.ndarray
    converged: bool
    iterations: int
    lift_rel: float


def _hermitian_toeplitz(col: np.ndarray) -> np.ndarray:
    """Hermitian Toeplitz matrix whose first column is col, with the
    diagonal set to Re(col[0])."""
    n = len(col)
    col = np.array(col, dtype=complex)
    col[0] = col[0].real
    idx = np.subtract.outer(np.arange(n), np.arange(n))
    full = np.concatenate([np.conj(col[:0:-1]), col])
    return full[idx + n - 1]


def _toeplitz_average(x: np.ndarray) -> np.ndarray:
    """First column of the nearest Hermitian Toeplitz matrix: each diagonal's
    mean, real at index 0 as the Hermitian part's diagonal is.

    Each diagonal is summed by the reduction np.mean runs and then divided
    by its length, so the bytes are np.mean's.
    """
    n = x.shape[0]
    h = 0.5 * (x + x.conj().T)
    return np.array([np.add.reduce(h.diagonal(-d)) for d in range(n)]) / np.arange(n, 0, -1)


@lru_cache(maxsize=16)
def _real_form_plan(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(gather, weights) of the real form S(c) = Q^H T(c) Q, read-only.

    S.ravel() = v[gather[0]] + v[gather[1]] for the (6n + 1)-vector
    v = [Re c, Im c, -Re c, -Im c, sqrt2 Re c, -sqrt2 Im c, 0].  With t the
    lag-indexed entries of T(c) (t_k = c_k, t_-k = conj(c_k)), A = T[:m, :m]
    and H = T[:m, n-m:] J, the blocks are S_uu = Re A + Re H,
    S_uw = Im H - Im A, S_wu = Im A + Im H and S_ww = Re A - Re H; for odd n
    the middle row and column are sqrt2 times Re and Im of T[:m, m], and the
    centre is Re c_0.  weights[d] = ||T(e_d)||_F^2: n, then 2(n - d).
    """
    m, odd = divmod(n, 2)
    re, im, neg_re, neg_im, re2, neg_im2, zero = (k * n for k in range(7))
    i, j = np.ogrid[:m, :m]
    d, h = i - j, i + j - (n - 1)  # lags of A[i, j] and H[i, j]; h < 0

    def im_at(k, pos, neg):  # Im t_k = sign(k) Im c_|k|
        return np.where(k >= 0, pos + k, neg - k)

    gather = np.full((2, n, n), zero)
    u, w = slice(0, m), slice(m + odd, n)
    gather[:, u, u] = re + np.abs(d), re - h
    gather[:, u, w] = neg_im - h, im_at(d, neg_im, im)
    gather[:, w, u] = im_at(d, im, neg_im), neg_im - h
    gather[:, w, w] = re + np.abs(d), neg_re - h
    if odd:
        lag = m - np.arange(m)  # T[i, m] = conj(c_(m - i))
        gather[0, u, m] = gather[0, m, u] = re2 + lag
        gather[0, w, m] = gather[0, m, w] = neg_im2 + lag
        gather[0, m, m] = re
    weights = 2.0 * np.arange(n, 0, -1)
    weights[0] = n
    gather = gather.reshape(2, -1)
    for a in (gather, weights):
        a.flags.writeable = False
    return gather, weights


def _real_form(col: np.ndarray) -> np.ndarray:
    """Real symmetric S = Q^H T(col) Q, for col with a real first entry."""
    n = len(col)
    re, im = col.real, col.imag
    v = np.concatenate((re, im, -re, -im, np.sqrt(2.0) * re, -np.sqrt(2.0) * im, [0.0]))
    gather, _ = _real_form_plan(n)
    return (v[gather[0]] + v[gather[1]]).reshape(n, n)


def _real_form_column(s: np.ndarray) -> np.ndarray:
    """First column of the Toeplitz average of Q s Q^H for real symmetric s.

    The adjoint of _real_form: every entry of s scattered back onto the
    slot of v it was gathered from, the slots of Re c_d and Im c_d
    combined with their signs and scales, then divided by the weights.
    Q being unitary, this is the least-squares Toeplitz column, so it
    equals the diagonal means of Q s Q^H.
    """
    n = s.shape[0]
    gather, weights = _real_form_plan(n)
    flat = s.ravel()
    slots = (np.bincount(gather[0], flat, 6 * n + 1) + np.bincount(gather[1], flat, 6 * n + 1))
    re, im, neg_re, neg_im, re2, neg_im2 = slots[: 6 * n].reshape(6, n)
    col_im = im - neg_im - np.sqrt(2.0) * neg_im2
    col_im[0] = 0.0
    return (re - neg_re + np.sqrt(2.0) * re2 + 1j * col_im) / weights


def toeplitz_psd_project(r_hat: SpatialCovariance) -> ProjectionResult:
    """Alternating projections of R onto the Toeplitz-PSD cone.

    Alternates per-diagonal averaging with eigenvalue clipping.  The
    iterate is the first column c of a Hermitian Toeplitz matrix T(c).
    Each step eigendecomposes T(c) once, through its real symmetric form
    S(c) = Q^H T(c) Q (Lee, 1980; see the module docstring), which has the
    same eigenvalues at the same size, and the clipped S-domain matrix
    W max(L, 0) W^T maps back to the next column through the Toeplitz
    average of Q (.) Q^H.  The step's movement ||T(c') - T(c)||_F is read
    from the column difference under the diagonal lengths' weights.

    The loop has one test, right after each eigendecomposition: it stops
    once the smallest eigenvalue is at least -PROJECTION_TOL ||R||_F or the
    last step moved at most PROJECTION_TOL ||R||_F.  The smallest
    eigenvalue then lifts the diagonal, c[0] += max(0, -lambda_min), so
    every result is Toeplitz and PSD to rounding; past PROJECTION_MAX_ITER
    steps that eigenvalue takes one more eigvalsh.  converged says only
    whether the test stopped the loop before that cap; lift_rel is the
    lift over ||R||_F.
    """
    scale = float(np.linalg.norm(r_hat.matrix))
    tol = PROJECTION_TOL * scale
    col = _toeplitz_average(r_hat.matrix)
    _, weights = _real_form_plan(r_hat.n)
    moved = np.inf
    converged = False
    for iterations in range(1, PROJECTION_MAX_ITER + 1):
        vals, vecs = np.linalg.eigh(_real_form(col))
        if vals[0] >= -tol or moved <= tol:
            converged = True
            break
        col_next = _real_form_column((vecs * np.maximum(vals, 0.0)) @ vecs.T)
        step = col_next - col
        moved = float(np.sqrt(weights @ (step.real**2 + step.imag**2)))
        col = col_next
    else:
        vals = np.linalg.eigvalsh(_real_form(col))
    lift = max(0.0, -float(vals[0]))
    col[0] += lift
    return ProjectionResult(
        col=col, converged=converged, iterations=iterations,
        lift_rel=lift / scale if scale else 0.0,
    )


def aps_diag(r: SpatialCovariance) -> np.ndarray:
    """Unclamped diag(F^H R F); may be negative for indefinite matrices."""
    f = dft_matrix(r.n)
    return np.real(np.sum(f.conj() * (r.matrix @ f), axis=0))


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
    return SpatialCovariance(_hermitian_toeplitz(r))


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
