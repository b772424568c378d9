"""FMCW radar synthesis at a passive uniform linear array.

Complex-baseband model of superimposed automotive chirps: each radar
transmits a periodic linear chirp; the capture at the array applies
per-path delays, carrier-consistent steering phases, and AWGN.  The array
is given by its element count, at half-wavelength spacing
(channel.ELEMENT_SPACING_WAVELENGTHS).  The capture is an in-memory
(antennas x samples) matrix that the mixing bank in detection reads
directly.  Its rows are synthesized a few at a time on the radar chain's
threads (numerics.thread_map).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ELEMENT_SPACING_WAVELENGTHS, steering_vector
from .numerics import map_rows

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
    def n_antennas(self) -> int:
        return self.samples.shape[0]

    @property
    def n_samples(self) -> int:
        return self.samples.shape[1]


def fmcw_sample(p: FmcwParams, t) -> np.ndarray:
    """Baseband chirp value(s) at time t (scalar or array), periodic in T.

    sqrt(P) * exp(j 2 pi (f_r t' + beta t'^2 / 2) + j phi) with
    f_r = START_FREQ_HZ and t' = (t - time_offset) mod chirp_period.
    """
    tp = np.mod(np.asarray(t, dtype=float) - p.time_offset_s, p.chirp_period_s)
    phase = (
        2.0 * np.pi * (START_FREQ_HZ * tp + 0.5 * p.chirp_rate_hz_per_s * tp * tp)
        + p.phase_offset_rad
    )
    return np.sqrt(p.power_w) * np.exp(1j * phase)


def element_delays(n_elements: int, angle_rad: float, carrier_hz: float) -> np.ndarray:
    """Inter-element propagation delays for a plane wave from angle_rad.

    sin(theta) * n / (2 f_c) for element n under half-wavelength spacing.
    """
    n = np.arange(n_elements)
    return (
        np.sin(angle_rad) * n * ELEMENT_SPACING_WAVELENGTHS / (0.5 * carrier_hz) * 0.5
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
    and the per-element delay; the carrier enters as the steering phase
    (matched to steering_vector's sign convention so radar and
    communication covariances share a direction convention).  Noise is
    circular complex Gaussian with per-sample variance noise_power_w,
    reproducible from the seed.

    The paths are summed numerics.ROW_CHUNK antenna rows at a time on the
    bank's threads, every chunk adding every path in the same order into
    its own rows, so the bytes do not depend on the thread count.  The
    noise is drawn for the whole array on the calling thread.
    """
    if len(radars) == 0:
        raise ValueError("radar list is empty")
    if noise_power_w < 0:
        raise ValueError(f"negative noise power {noise_power_w}")
    t = np.arange(capture.n_samples) / capture.sample_rate_hz
    terms = [
        (
            params,
            path,
            element_delays(n_elements, path.aoa_rad, capture.carrier_hz),
            steering_vector(n_elements, path.aoa_rad),
        )
        for params, path_set in radars
        for path in path_set.paths
        if path.gain != 0
    ]
    y = np.zeros((n_elements, capture.n_samples), dtype=complex)

    def add_paths(rows):
        for params, path, d_elem, steer in terms:
            # (antennas, samples) evaluation grid of the delayed envelope
            t_eff = t[np.newaxis, :] - path.delay_s - d_elem[rows, np.newaxis]
            y[rows] += path.gain * steer[rows, np.newaxis] * fmcw_sample(params, t_eff)

    map_rows(add_paths, n_elements)
    if noise_power_w > 0:
        rng = np.random.default_rng(seed)
        scale = np.sqrt(noise_power_w / 2.0)
        y += scale * (
            rng.standard_normal(y.shape) + 1j * rng.standard_normal(y.shape)
        )
    return RxCapture(samples=y, sample_rate_hz=capture.sample_rate_hz)

