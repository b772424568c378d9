"""FMCW radar synthesis at a passive uniform linear array.

Complex-baseband model of superimposed automotive chirps: each radar
transmits a periodic linear chirp; the capture at the array applies
per-path delays, carrier-consistent steering phases, and AWGN.  The array
is given by its element count, at half-wavelength spacing
(channel.ELEMENT_SPACING_WAVELENGTHS).  The capture is an in-memory
(antennas x samples) matrix that the mixing bank in detection reads
directly.  Its rows are synthesized a few at a time (numerics.ROW_CHUNK)
on the calling thread.

Each path's chirp is evaluated once, on the first element's time grid;
the other elements follow from an exact phase identity, with the direct
formula at the few samples where an element's chirp has already wrapped
(synthesize_rx).  The capture equals the direct per-element sum to
rounding: 8.4e-12 of the peak on 16 default scenes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ELEMENT_SPACING_WAVELENGTHS, steering_vector
from .numerics import ROW_CHUNK

# residual carrier after downconversion: every radar shares one ideal LO
# at the band edge
START_FREQ_HZ = 0.0


@dataclass(frozen=True)
class FmcwParams:
    """One radar's chirp: rate, bandwidth, timing/phase offsets, power.

    The chirp starts at START_FREQ_HZ.  The chirp period is bandwidth/rate.
    """

    chirp_rate_hz_per_s: float
    bandwidth_hz: float
    time_offset_s: float = 0.0
    phase_offset_rad: float = 0.0
    power_w: float = 1.0

    def __post_init__(self):
        if self.chirp_rate_hz_per_s <= 0:
            raise ValueError(f"chirp rate must be > 0, got {self.chirp_rate_hz_per_s}")
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth_hz}")
        if not 0 <= self.time_offset_s < self.chirp_period_s:
            raise ValueError(
                f"time offset {self.time_offset_s} outside [0, {self.chirp_period_s})"
            )
        if self.power_w <= 0:
            raise ValueError(f"power must be > 0, got {self.power_w}")

    @property
    def chirp_period_s(self) -> float:
        return self.bandwidth_hz / self.chirp_rate_hz_per_s


@dataclass(frozen=True)
class RadarPath:
    """One propagation path from a radar to the array."""

    gain: complex
    delay_s: float
    aoa_rad: float

    def __post_init__(self):
        if self.delay_s < 0:
            raise ValueError(f"negative path delay {self.delay_s}")


@dataclass(frozen=True)
class RadarPathSet:
    paths: tuple[RadarPath, ...]

    def __post_init__(self):
        if len(self.paths) == 0:
            raise ValueError("a radar needs at least one path")


@dataclass(frozen=True)
class CaptureConfig:
    """Sampling grid of the passive array capture."""

    sample_rate_hz: float
    n_samples: int
    carrier_hz: float = 76e9

    def __post_init__(self):
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample rate must be > 0, got {self.sample_rate_hz}")
        if self.n_samples < 1:
            raise ValueError(f"n_samples must be >= 1, got {self.n_samples}")


@dataclass(frozen=True)
class RxCapture:
    """Antenna-by-sample capture matrix plus its sampling rate."""

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=complex)
        if s.ndim != 2 or s.shape[1] < 1:
            raise ValueError(f"samples must be (antennas, I), got {s.shape}")
        if not np.all(np.isfinite(s.view(float))):
            raise ValueError("capture contains non-finite samples")
        s.setflags(write=False)
        object.__setattr__(self, "samples", s)

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


def _chirp_time(p: FmcwParams, t) -> np.ndarray:
    """Time since the chirp started, t' = (t - time_offset) mod chirp_period."""
    return np.mod(np.asarray(t, dtype=float) - p.time_offset_s, p.chirp_period_s)


def _chirp_at(p: FmcwParams, tp) -> np.ndarray:
    """Baseband chirp value(s) at chirp time(s) tp in [0, chirp_period):
    sqrt(P) * exp(j 2 pi (f_r tp + beta tp^2 / 2) + j phi), f_r =
    START_FREQ_HZ."""
    phase = (
        2.0 * np.pi * (START_FREQ_HZ * tp + 0.5 * p.chirp_rate_hz_per_s * tp * tp)
        + p.phase_offset_rad
    )
    return np.sqrt(p.power_w) * np.exp(1j * phase)


def fmcw_sample(p: FmcwParams, t) -> np.ndarray:
    """Baseband chirp value(s) at time t (scalar or array), periodic in T."""
    return _chirp_at(p, _chirp_time(p, t))


def element_delays(n_elements: int, angle_rad: float, carrier_hz: float) -> np.ndarray:
    """Inter-element propagation delays for a plane wave from angle_rad.

    sin(theta) * n / (2 f_c) for element n under half-wavelength spacing.
    """
    n = np.arange(n_elements)
    return (
        np.sin(angle_rad) * n * ELEMENT_SPACING_WAVELENGTHS / (0.5 * carrier_hz) * 0.5
    )


def _path_term(
    params: FmcwParams, path: RadarPath, t: np.ndarray, n_elements: int, carrier_hz: float
) -> tuple:
    """One path's share of synthesize_rx, (d, coef, e0, tone_arg, step,
    exact_cols, exact):

    - d: element_delays, d_r
    - coef: gain * steering * exp(j 2 pi (beta d_r^2 / 2 - f_r d_r)), per row
    - e0: row 0's chirp at t - delay, at chirp time tp0
    - tone_arg: -2 pi beta tp0, so row r's tone is exp(j d_r tone_arg)
    - step: exp(j d_1 tone_arg), the tone from one row to the next
    - exact_cols: the samples where some row's chirp wraps apart from row 0's
    - exact: every row's term at exact_cols by the direct formula
    """
    d = element_delays(n_elements, path.aoa_rad, carrier_hz)
    beta = params.chirp_rate_hz_per_s
    t0 = t - path.delay_s
    tp0 = _chirp_time(params, t0)
    tone_arg = -2.0 * np.pi * beta * tp0
    gain_steer = path.gain * steering_vector(n_elements, path.aoa_rad)
    # a row's chirp time tp0 - d_r stays in [0, T) unless tp0 is within the
    # array's delay spread of a wrap; the guard covers the rounding of the
    # direct formula's own wrap decision
    period = params.chirp_period_s
    guard = 16 * np.finfo(float).eps * (
        t[-1] + path.delay_s + params.time_offset_s + period + np.abs(d).max()
    )
    exact_cols = np.flatnonzero(
        (tp0 < d.max() + guard) | (tp0 >= period + d.min() - guard)
    )
    return (
        d,
        gain_steer * np.exp(2j * np.pi * (0.5 * beta * d * d - START_FREQ_HZ * d)),
        _chirp_at(params, tp0),
        tone_arg,
        np.exp(1j * (d[1] if n_elements > 1 else 0.0) * tone_arg),
        exact_cols,
        gain_steer[:, np.newaxis]
        * fmcw_sample(params, t0[exact_cols] - d[:, np.newaxis]),
    )


def synthesize_rx(
    radars: list[tuple[FmcwParams, RadarPathSet]],
    n_elements: int,
    capture: CaptureConfig,
    noise_power_w: float = 0.0,
    seed: int = 0,
) -> RxCapture:
    """Superimposed multi-radar reception on the array, plus AWGN.

    Per path: the envelope is the chirp delayed by the common path delay
    and the per-element delay d_r; the carrier enters as the steering phase
    (matched to steering_vector's sign convention so radar and
    communication covariances share a direction convention).  Noise is
    circular complex Gaussian with per-sample variance noise_power_w,
    reproducible from the seed.

    Each path's chirp is evaluated once, on row 0's grid (chirp time tp0,
    value e0).  Where row r's chirp time is tp0 - d_r, with no wrap between
    them, its phase is exactly

        phase_r = phase_0 - 2 pi beta d_r tp0 + 2 pi (beta d_r^2 / 2 - f_r d_r),

    so row r is e0 times a tone in tp0 and a per-row constant, which is
    folded into gain * steering.  Each ROW_CHUNK slice makes its first
    row's tone with one cos and one sin, and each next row's by one
    multiply with the path's step tone.  The samples where some row's
    wrap count floor((tp0 - d_r) / T) is not 0 (tp0 within the array's
    delay spread of a chirp boundary, plus a rounding guard) take the
    direct formula at every row, so the identity holds for every carrier,
    array size and chirp.  Against the direct evaluation at every row the
    capture differs by rounding only (CAPTURE_RTOL in tests/test_fmcw.py).

    The paths are summed numerics.ROW_CHUNK antenna rows at a time, every
    chunk adding every path in the same order into its own rows, on the
    calling thread: its row operations take microseconds each, too short
    for the bank's threads to pay for themselves.  The chunking, not the
    thread count, sets the bytes.  The noise is drawn for the whole array,
    real parts first, then imaginary.
    """
    if len(radars) == 0:
        raise ValueError("radar list is empty")
    if noise_power_w < 0:
        raise ValueError(f"negative noise power {noise_power_w}")
    t = np.arange(capture.n_samples) / capture.sample_rate_hz
    terms = [
        _path_term(params, path, t, n_elements, capture.carrier_hz)
        for params, path_set in radars
        for path in path_set.paths
        if path.gain != 0
    ]
    y = np.zeros((n_elements, capture.n_samples), dtype=complex)
    tone = np.empty(capture.n_samples, dtype=complex)
    out = np.empty_like(tone)
    for r0 in range(0, n_elements, ROW_CHUNK):
        rows = range(r0, min(r0 + ROW_CHUNK, n_elements))
        for d, coef, e0, tone_arg, step, exact_cols, exact in terms:
            phase = d[r0] * tone_arg
            np.cos(phase, out=tone.real)
            np.sin(phase, out=tone.imag)
            tone *= e0
            for r in rows:
                if r > r0:
                    tone *= step
                np.multiply(coef[r], tone, out=out)
                if exact_cols.size:
                    out[exact_cols] = exact[r]
                y[r] += out
    if noise_power_w > 0:
        rng = np.random.default_rng(seed)
        scale = np.sqrt(noise_power_w / 2.0)
        draw = np.empty(y.shape)
        for part in (y.real, y.imag):
            rng.standard_normal(out=draw)
            draw *= scale
            part += draw
    return RxCapture(samples=y, sample_rate_hz=capture.sample_rate_hz)
