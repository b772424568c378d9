"""The numpy signal kernels against the scipy routines they replace.

scipy stays a test dependency only: each kernel in radarlink.numerics must
return the same bytes as the scipy routine it repeats, and the CFAR in
radarlink.detection the same (lag, floor) pairs as one built on scipy's
running max, so the pipeline's outputs do not move.
"""

import warnings

import numpy as np
import pytest
import scipy.fft
from scipy.ndimage import maximum_filter1d
from scipy.signal import fftconvolve, firwin
from scipy.signal.windows import chebwin

from radarlink.detection import CfarConfig, cfar_detect
from radarlink.numerics import chebyshev_window, fir_lowpass, lowpass_taps, next_fast_len

FS = 100e6


def ring_max_oracle(p, inner, outer):
    """The ring max on maximum_filter1d, whose window centres at size // 2."""
    size = outer - inner + 1
    w = maximum_filter1d(p, size=size, mode="wrap")
    right = np.roll(w, -(inner + size // 2))
    left = np.roll(w, inner + (size - 1) // 2)
    return np.maximum(left, right)


def cfar_oracle(p, cfg):
    """The max-CFAR rule on every lag, its rings from ring_max_oracle:
    (lag, floor power) of each lag that passes."""
    p_guard = ring_max_oracle(p, 1, cfg.n_guard)
    p_floor = ring_max_oracle(p, cfg.n_guard + 1, cfg.n_guard + cfg.n_floor)
    hits = (p > p_guard) & (p > cfg.threshold_factor * p_floor)
    return [(int(lag), float(p_floor[lag])) for lag in np.flatnonzero(hits)]


class TestNextFastLen:
    # the library's only transforms are complex
    @pytest.mark.parametrize("real", [False])
    def test_matches_scipy(self, real):
        for n in range(1, 30000, 7):
            assert next_fast_len(n) == scipy.fft.next_fast_len(n, real), n

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            next_fast_len(0)


class TestCfarDefaultRings:
    @pytest.mark.parametrize("factor", [2.0, 10.0])
    def test_default_rings_equal_maximum_filter_cfar(self, factor):
        # the default guard and floor rings (window sizes 54 and 108) on
        # 12,500 random lags with 100 spikes of 0-30 dB, so that a few
        # dozen lags pass and over a thousand candidates fail the full rings
        cfg = CfarConfig(n_guard=54, n_floor=108, threshold_factor=factor)
        rng = np.random.default_rng(int(factor))
        p = rng.random(12500) ** 4
        p[rng.integers(0, 12500, 100)] = 10.0 ** rng.uniform(0, 3, 100)
        expected = cfar_oracle(p, cfg)
        assert len(expected) >= 10
        assert cfar_detect(p, cfg) == expected


class TestLowpassTaps:
    @pytest.mark.parametrize("n_taps", [3, 129, 257, 2049])
    @pytest.mark.parametrize("cutoff_hz,sample_rate_hz", [(1e6, 100e6), (5e6, 100e6), (2e6, 50e6)])
    def test_bytes_equal_firwin(self, n_taps, cutoff_hz, sample_rate_hz):
        expected = firwin(n_taps, cutoff_hz, window="hamming", fs=sample_rate_hz)
        assert lowpass_taps(cutoff_hz, sample_rate_hz, n_taps).tobytes() == expected.tobytes()


class TestChebyshevWindow:
    @pytest.mark.parametrize("n", [7, 8, 16, 64, 65])
    @pytest.mark.parametrize("attenuation_db", [35.0, 60.0])
    def test_bytes_equal_chebwin(self, n, attenuation_db):
        with warnings.catch_warnings():
            # chebwin warns below 45 dB; the 35 dB design point is the one in use
            warnings.simplefilter("ignore", UserWarning)
            expected = chebwin(n, attenuation_db)
        assert chebyshev_window(n, attenuation_db).tobytes() == expected.tobytes()


class TestFirLowpass:
    # isolate_covariance, the one caller, filters complex rows
    @pytest.mark.parametrize("complex_rows", [True])
    @pytest.mark.parametrize("shape,n_taps", [((64, 4096), 2049), ((1, 4096), 129), ((3, 1000), 257)])
    def test_bytes_equal_fftconvolve(self, complex_rows, shape, n_taps):
        """Rows times a unit tone, and times a unit-modulus tone (isolation's
        lag correction), which fir_lowpass applies inside its row kernel."""
        rng = np.random.default_rng(n_taps)
        x = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        tone = np.exp(1j * rng.uniform(-np.pi, np.pi, shape[1]))
        taps = firwin(n_taps, 1e6, window="hamming", fs=FS)
        for row_tone, rows in ((np.ones(shape[1]), x), (tone, x * tone)):
            got = fir_lowpass(x, 1e6, FS, n_taps, row_tone, np.empty(shape, dtype=complex))
            expected = fftconvolve(rows, taps[np.newaxis, :], mode="same", axes=1)
            assert got.dtype == expected.dtype
            assert got.tobytes() == expected.tobytes()
