"""Shared complex linear-algebra and DSP kernels.

Small, deterministic building blocks used across the radar and
communication pipeline: unitary DFT/steering matrices, Dolph-Chebyshev
windows, a dominant-eigenpair solver, and a linear-phase FIR lowpass.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.signal import fftconvolve, firwin
from scipy.signal.windows import chebwin


def dft_matrix(n: int) -> np.ndarray:
    """Unitary n-point DFT beamforming matrix.

    Column j is the steering/DFT vector with per-element phase increment
    2*pi*j/n, scaled so every column has unit norm and F^H F = I.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    idx = np.arange(n)
    return np.exp(2j * np.pi * np.outer(idx, idx) / n) / np.sqrt(n)


def chebyshev_window(n: int, attenuation_db: float) -> np.ndarray:
    """Length-n Dolph-Chebyshev window with the given sidelobe attenuation.

    Symmetric, peak normalized to 1.
    """
    if n < 2:
        raise ValueError(f"window length must be >= 2, got {n}")
    if attenuation_db <= 0:
        raise ValueError(f"attenuation_db must be > 0, got {attenuation_db}")
    with warnings.catch_warnings():
        # scipy warns about noise-bandwidth monotonicity below 45 dB; the
        # 35 dB design point is intentional here.
        warnings.simplefilter("ignore", UserWarning)
        w = chebwin(n, attenuation_db)
    return w / np.max(w)


def dominant_eigenvector(r: np.ndarray) -> tuple[np.ndarray, float]:
    """Dominant eigenpair of a Hermitian matrix by a full eigendecomposition.

    Returns the unit-norm eigenvector of the largest eigenvalue from
    np.linalg.eigh, exact to working precision even when the top
    eigenvalues are nearly equal, and that eigenvalue.  The vector's global
    phase is fixed so its first nonzero entry is real and nonnegative.
    R = 0 returns (e_0, 0.0).
    """
    r = np.asarray(r, dtype=complex)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {r.shape}")
    if not r.any():
        v = np.zeros(r.shape[0], dtype=complex)
        v[0] = 1.0
        return v, 0.0
    vals, vecs = np.linalg.eigh(r)
    return _fix_phase(vecs[:, -1]), float(vals[-1])


def _fix_phase(v: np.ndarray) -> np.ndarray:
    """Rotate v so its first entry of non-negligible magnitude is real >= 0."""
    thresh = 1e-12 * np.max(np.abs(v))
    for x in v:
        if abs(x) > thresh:
            return v * (np.conj(x) / abs(x))
    return v


def lowpass_taps(
    cutoff_hz: float,
    sample_rate_hz: float,
    n_taps: int,
) -> np.ndarray:
    """Windowed-sinc (Hamming) linear-phase lowpass taps, unit DC gain."""
    if not 0.0 < cutoff_hz < sample_rate_hz / 2.0:
        raise ValueError(
            f"cutoff must lie in (0, sample_rate/2): got {cutoff_hz} "
            f"at sample rate {sample_rate_hz}"
        )
    if n_taps < 3 or n_taps % 2 == 0:
        raise ValueError(f"n_taps must be odd and >= 3, got {n_taps}")
    return firwin(n_taps, cutoff_hz, window="hamming", fs=sample_rate_hz)


def fir_lowpass(
    x: np.ndarray,
    cutoff_hz: float,
    sample_rate_hz: float,
    n_taps: int,
) -> np.ndarray:
    """Filter each row of x with the same linear-phase FIR lowpass.

    Output length equals input length: the (n_taps-1)/2 group delay is
    compensated by centered trimming of the full convolution.
    """
    taps = lowpass_taps(cutoff_hz, sample_rate_hz, n_taps)
    x = np.atleast_2d(np.asarray(x))
    return fftconvolve(x, taps[np.newaxis, :], mode="same", axes=1)
