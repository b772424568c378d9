"""Reference implementations that only the tests use.

Each one is the plain textbook form of a quantity the library computes
another way (or not at all): the per-subcarrier channel matrices behind
beamtraining.gain_table, the delta-excited isolated covariance that the
mixing bank's output is compared with, and the windowed periodogram that
the eigenvector loss of neural is built on.
"""

import numpy as np

from radarlink.channel import WidebandChannel, steering_vector
from radarlink.covariance import SpatialCovariance
from radarlink.covfeatures import APS_WINDOW_ATTENUATION_DB
from radarlink.fmcw import CaptureConfig, RadarPathSet
from radarlink.numerics import chebyshev_window


def channel_freq(ch: WidebandChannel, k: int, k_total: int) -> np.ndarray:
    """Channel matrix at subcarrier k: sum_d taps[d] exp(-j 2 pi k d / K)."""
    if not 0 <= k < k_total:
        raise ValueError(f"subcarrier {k} outside [0, {k_total})")
    d = np.arange(ch.n_taps)
    phases = np.exp(-2j * np.pi * k * d / k_total)
    return np.tensordot(phases, ch.taps, axes=1)


def channel_freq_all(ch: WidebandChannel, k_total: int) -> np.ndarray:
    """All subcarrier responses at once, shape (K, N_rx, N_tx)."""
    if ch.n_taps > k_total:
        raise ValueError(
            f"{ch.n_taps} taps do not fit in {k_total} subcarriers"
        )
    return np.fft.fft(ch.taps, n=k_total, axis=0)


def ideal_isolated_covariance(
    paths: RadarPathSet,
    n: int,
    capture: CaptureConfig,
) -> SpatialCovariance:
    """Ground-truth covariance of one radar from a delta-excited channel.

    A unit-power impulse propagated along the paths yields one sample per
    delay bin carrying the path's gain and steering vector; paths landing
    in the same bin combine coherently, resolvable paths stay orthogonal.
    """
    bins: dict[int, np.ndarray] = {}
    for path in paths.paths:
        i = int(round(path.delay_s * capture.sample_rate_hz)) % capture.n_samples
        contrib = path.gain * steering_vector(n, path.aoa_rad)
        if i in bins:
            bins[i] = bins[i] + contrib
        else:
            bins[i] = contrib
    r = np.zeros((n, n), dtype=complex)
    for v in bins.values():
        r += np.outer(v, np.conj(v))
    return SpatialCovariance(r / capture.n_samples)


def aps_from_vector(v: np.ndarray, window: bool = True) -> np.ndarray:
    """Windowed periodogram |FFT(c .* v)|^2 of a length-N complex vector.

    c is the 35 dB Chebyshev window (peak 1); window=False uses c = 1.
    """
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1:
        raise ValueError(f"expected a vector, got shape {v.shape}")
    if window:
        c = chebyshev_window(len(v), APS_WINDOW_ATTENUATION_DB)
        v = c * v
    return np.abs(np.fft.fft(v)) ** 2
