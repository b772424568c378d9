"""FMCW mixing filter bank: dechirp, lag correlation, max CFAR, isolation.

Each bank block mixes the capture with a reference chirp at one candidate
rate, evaluates the lag-domain correlator over one chirp period, detects
peaks with a max-CFAR rule, and estimates the isolated spatial covariance
of every detection after a lag correction and lowpass.

The blocks are independent, so `run_bank` computes their antenna-max lag
powers (`block_power`) on the radar chain's threads
(`numerics.thread_map`), a few antenna rows at a time to keep the working
set small.  Each block's reference chirp and chirp-Z plan are built once
per process and reused by every later capture of the same length and
rate.  CFAR, the adjacent-block merge and the isolation of the surviving
detections run on the calling thread, which re-mixes only the blocks that
kept a detection; the isolation lowpass (`numerics.fir_lowpass`) filters
its rows on the same threads.  The transforms, windows and filters come
from `numerics`, on numpy alone.

The trial pipeline's parallelism is these threads inside the radar
chain's kernels: the bank's blocks, and the antenna rows of the capture
synthesis (`fmcw.synthesize_rx`) and of the isolation lowpass.  Each
kernel splits its work inside itself, so every function above a kernel,
the ones perfbench/tracer.py wraps among them, runs on the calling
thread.  The per-vehicle features (the Toeplitz projections' `eigh`) and
the beam tables stay serial.  `scenario.run_campaign` and
`scenario.generate_dataset` run OpenBLAS on one thread
(`numerics.blas_threads`): the pipeline's BLAS calls are array-sized
(64x64 at the defaults), too small to split, and a second OpenBLAS thread
only spins between them and takes CPU from the kernels.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import groupby

import numpy as np

from .covariance import SpatialCovariance
from .fmcw import RxCapture
from .numerics import (
    CZT,
    ROW_CHUNK,
    fir_lowpass,
    lowpass_taps,
    thread_map,
    wrapped_running_max,
)


@dataclass(frozen=True)
class MixingBlockConfig:
    """Reference chirp of one mixing block."""

    chirp_rate_hz_per_s: float
    bandwidth_hz: float

    def __post_init__(self):
        if self.chirp_rate_hz_per_s <= 0:
            raise ValueError(f"chirp rate must be > 0, got {self.chirp_rate_hz_per_s}")
        if self.bandwidth_hz <= 0:
            raise ValueError(f"bandwidth must be > 0, got {self.bandwidth_hz}")

    @property
    def chirp_period_s(self) -> float:
        return self.bandwidth_hz / self.chirp_rate_hz_per_s

    def n_lags(self, sample_rate_hz: float) -> int:
        return int(round(self.chirp_period_s * sample_rate_hz))


@dataclass(frozen=True)
class BankConfig:
    """Strictly increasing chirp-rate grid of mixing blocks."""

    blocks: tuple[MixingBlockConfig, ...]

    def __post_init__(self):
        if len(self.blocks) == 0:
            raise ValueError("bank needs at least one block")
        rates = [b.chirp_rate_hz_per_s for b in self.blocks]
        if any(r2 <= r1 for r1, r2 in zip(rates, rates[1:])):
            raise ValueError("block chirp rates must be strictly increasing")

    @classmethod
    def uniform(
        cls,
        rate_min_hz_per_s: float,
        rate_max_hz_per_s: float,
        bandwidth_hz: float,
        n_blocks: int,
    ) -> "BankConfig":
        rates = np.linspace(rate_min_hz_per_s, rate_max_hz_per_s, n_blocks)
        return cls(
            blocks=tuple(
                MixingBlockConfig(chirp_rate_hz_per_s=float(r), bandwidth_hz=bandwidth_hz)
                for r in rates
            )
        )

    @property
    def rates(self) -> np.ndarray:
        return np.array([b.chirp_rate_hz_per_s for b in self.blocks])

    def nearest_block(self, chirp_rate_hz_per_s: float) -> int:
        return int(np.argmin(np.abs(self.rates - chirp_rate_hz_per_s)))


@dataclass(frozen=True)
class CfarConfig:
    """Max-CFAR ring geometry and threshold (linear power ratio)."""

    n_guard: int
    n_floor: int
    threshold_factor: float

    def __post_init__(self):
        if self.n_guard < 1:
            raise ValueError(f"n_guard must be >= 1, got {self.n_guard}")
        if self.n_floor < 1:
            raise ValueError(f"n_floor must be >= 1, got {self.n_floor}")
        if self.threshold_factor <= 1:
            raise ValueError(
                f"threshold_factor must be > 1, got {self.threshold_factor}"
            )


@dataclass(frozen=True)
class Detection:
    """One CFAR detection with its isolated covariance estimate."""

    block_index: int
    lag_index: int
    peak_power_w: float
    floor_power_w: float
    isolated_covariance: SpatialCovariance


def reference_chirp(block: MixingBlockConfig, t: np.ndarray) -> np.ndarray:
    """Conjugate reference chirp exp(-j pi beta t'^2), periodic in T_mix."""
    tp = np.mod(np.asarray(t, dtype=float), block.chirp_period_s)
    return np.exp(-1j * np.pi * block.chirp_rate_hz_per_s * tp * tp)


def lag_correction(
    block: MixingBlockConfig, lag: int, sample_rate_hz: float, n_samples: int
) -> np.ndarray:
    """Per-sample correction tone for one lag.

    exp(j 2 pi beta (l T_r) (i T_r) + j pi beta (l T_r)^2): a tone at the
    reference chirp's frequency at the start of lag l, plus the constant
    phase accumulated up to that lag.
    """
    t_r = 1.0 / sample_rate_hz
    beta = block.chirp_rate_hz_per_s
    lag_t = lag * t_r
    i = np.arange(n_samples)
    return np.exp(
        1j * (2.0 * np.pi * beta * lag_t * i * t_r + np.pi * beta * lag_t * lag_t)
    )


@lru_cache(maxsize=128)
def _block_plan(
    n_samples: int, sample_rate_hz: float, block: MixingBlockConfig
) -> tuple[np.ndarray, CZT, np.ndarray]:
    """Reference chirp, lag-sum CZT and lag phase of one block at one capture
    shape, shared by every caller.  The 51 plans of the default bank hold
    about 16.5 MB."""
    n_lags = block.n_lags(sample_rate_hz)
    if n_lags < 2:
        raise ValueError(
            "block chirp period is not representable at the capture sample rate"
        )
    t_r = 1.0 / sample_rate_hz
    beta = block.chirp_rate_hz_per_s
    ref = reference_chirp(block, np.arange(n_samples) / sample_rate_hz)
    delta = 2.0 * np.pi * beta * t_r * t_r
    czt = CZT(n_samples, m=n_lags, w=np.exp(1j * delta))
    post = np.exp(1j * np.pi * beta * (np.arange(n_lags) * t_r) ** 2)
    ref.flags.writeable = post.flags.writeable = False
    return ref, czt, post


def mix(capture: RxCapture, block: MixingBlockConfig) -> RxCapture:
    """Multiply every antenna row by the sampled reference chirp."""
    ref = _block_plan(capture.n_samples, capture.sample_rate_hz, block)[0]
    return RxCapture(samples=capture.samples * ref, sample_rate_hz=capture.sample_rate_hz)


def block_power(capture: RxCapture, block: MixingBlockConfig) -> np.ndarray:
    """Antenna-max correlator power max_n |C[n, l]|^2 over one chirp period.

    C[n, l] = sum_i mixed[n, i] * correction[l, i] with mixed = mix(capture,
    block).  The lag sums form a uniform grid of complex tones, computed
    exactly with the chirp-Z transform (same values as the direct
    multiply-accumulate).  Rows are mixed and transformed ROW_CHUNK at a
    time; the max over antennas is exact under any grouping.
    """
    ref, czt, post = _block_plan(capture.n_samples, capture.sample_rate_hz, block)
    p = np.zeros(len(post))
    for r0 in range(0, capture.n_antennas, ROW_CHUNK):
        c = czt(capture.samples[r0 : r0 + ROW_CHUNK] * ref)
        c *= post
        np.maximum(p, np.max(np.abs(c) ** 2, axis=0), out=p)
    return p


def _ring_max(p: np.ndarray, inner: int, outer: int) -> np.ndarray:
    """Max of p over offsets inner <= |delta| <= outer from each index.

    Indices wrap modulo len(p).
    """
    # w[i] is the max over p[i .. i + outer - inner]
    w = wrapped_running_max(p, outer - inner + 1)
    return np.maximum(np.roll(w, outer), np.roll(w, -inner))


def cfar_floor(p: np.ndarray, cfg: CfarConfig) -> np.ndarray:
    """Floor-ring power of every lag: the max of p over offsets
    n_guard+1..n_guard+n_floor on both sides, wrapping modulo L."""
    n_lags = len(p)
    if n_lags <= 2 * (cfg.n_guard + cfg.n_floor):
        raise ValueError(
            f"{n_lags} lags cannot fit guard+floor rings of "
            f"{cfg.n_guard}+{cfg.n_floor} cells per side"
        )
    return _ring_max(p, cfg.n_guard + 1, cfg.n_guard + cfg.n_floor)


def cfar_detect(
    p: np.ndarray, cfg: CfarConfig, p_floor: np.ndarray | None = None
) -> list[int]:
    """Lags whose antenna-max power p beats the guard ring and the floor.

    A lag l is detected iff P_CUT > P_guard and P_CUT > factor * P_floor,
    with P_guard the max over offsets 1..n_guard (both sides, wrapping
    modulo L) and P_floor = cfar_floor(p, cfg), computed here if not given.
    """
    if p_floor is None:
        p_floor = cfar_floor(p, cfg)
    p_guard = _ring_max(p, 1, cfg.n_guard)
    hits = (p > p_guard) & (p > cfg.threshold_factor * p_floor)
    return [int(l) for l in np.nonzero(hits)[0]]


def isolate_covariance(
    mixed: RxCapture,
    lag: int,
    block: MixingBlockConfig,
    lowpass_bw_hz: float,
    lowpass_n_taps: int,
) -> SpatialCovariance:
    """Covariance of the lag-corrected, lowpass-filtered mixed signal.

    The lag correction parks the detected radar's multipath near DC; the
    lowpass then rejects the other radars' spread-out residual chirps.
    """
    n_lags = block.n_lags(mixed.sample_rate_hz)
    if not 0 <= lag < n_lags:
        raise ValueError(f"lag {lag} outside [0, {n_lags})")
    corr = lag_correction(block, lag, mixed.sample_rate_hz, mixed.n_samples)
    corrected = mixed.samples * corr[np.newaxis, :]
    filtered = fir_lowpass(
        corrected, lowpass_bw_hz, mixed.sample_rate_hz, n_taps=lowpass_n_taps
    )
    return SpatialCovariance.from_samples(filtered)


def lowpass_noise_gain(
    lowpass_bw_hz: float, sample_rate_hz: float, lowpass_n_taps: int
) -> float:
    """White-noise power gain of the isolation lowpass (sum of tap squares)."""
    taps = lowpass_taps(lowpass_bw_hz, sample_rate_hz, lowpass_n_taps)
    return float(np.sum(taps * taps))


def run_bank(
    capture: RxCapture,
    bank: BankConfig,
    cfar: CfarConfig,
    lowpass_bw_hz: float,
    lowpass_n_taps: int,
) -> list[Detection]:
    """Full bank sweep: mix, correlate, CFAR, then isolate survivors.

    Block powers are computed on the radar chain's threads and reach the
    CFAR in block order; everything else runs on the calling thread.
    Adjacent blocks often both respond to one radar whose rate falls
    between their grid points; candidates in adjacent blocks within a
    guard-width lag distance are merged, keeping the higher peak.
    """
    candidates: list[tuple[int, int, float, float]] = []
    for b_idx, p in enumerate(thread_map(partial(block_power, capture), bank.blocks)):
        p_floor = cfar_floor(p, cfar)
        for lag in cfar_detect(p, cfar, p_floor):
            candidates.append((b_idx, lag, float(p[lag]), float(p_floor[lag])))

    kept = _merge_adjacent(candidates, cfar.n_guard)

    detections = []
    for b_idx, group in groupby(kept, key=lambda cand: cand[0]):
        block = bank.blocks[b_idx]
        mixed = mix(capture, block)
        for _, lag, peak, floor in group:
            cov = isolate_covariance(
                mixed, lag, block, lowpass_bw_hz, lowpass_n_taps=lowpass_n_taps
            )
            detections.append(
                Detection(
                    block_index=b_idx,
                    lag_index=lag,
                    peak_power_w=peak,
                    floor_power_w=floor,
                    isolated_covariance=cov,
                )
            )
    return detections


def _merge_adjacent(
    candidates: list[tuple[int, int, float, float]], lag_window: int
) -> list[tuple[int, int, float, float]]:
    """Drop candidates dominated by a stronger peak in an adjacent block
    at (nearly) the same lag."""
    kept = []
    for cand in candidates:
        b, lag, peak, _ = cand
        dominated = False
        for other in candidates:
            ob, olag, opeak, _ = other
            if abs(ob - b) == 1 and abs(olag - lag) <= lag_window:
                if opeak > peak or (opeak == peak and ob < b):
                    dominated = True
                    break
        if not dominated:
            kept.append(cand)
    return kept


def dump_correlator_csv(path, capture: RxCapture, bank: BankConfig, header_lines=()) -> None:
    """Write per-block lag powers (dB) for correlator-output plots."""
    with open(path, "w", newline="") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        writer = csv.writer(f)
        writer.writerow(["block_index", "chirp_rate_hz_per_s", "lag", "power_db"])
        for b_idx, block in enumerate(bank.blocks):
            p = block_power(capture, block)
            p_db = 10.0 * np.log10(np.maximum(p, 1e-300))
            for lag in range(len(p)):
                writer.writerow(
                    [b_idx, f"{block.chirp_rate_hz_per_s:.6e}", lag, f"{p_db[lag]:.4f}"]
                )
