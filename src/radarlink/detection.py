"""FMCW mixing filter bank: dechirp, lag correlation, max CFAR, isolation.

Each bank block mixes the capture with a reference chirp at one candidate
rate, evaluates the lag-domain correlator over one chirp period, and
detects peaks with a max-CFAR rule (`run_bank`).  A detection is what the
CFAR found; `isolate_detections` estimates the spatial covariance of the
detections a caller reads, after a lag correction and lowpass.

The bank detects on a subarray: the first DETECTION_ROWS antenna rows
(`detection_rows`), or every row of a smaller array.  It asks the capture
only for each radar's timing and chirp rate, which every element sees at
about the same power, so its row-max statistic gains little from more
rows while its cost is linear in them.  Isolation, and everything after
it, reads every element.

`bank_powers` computes the blocks' antenna-max lag powers on the radar
chain's threads (`numerics.thread_map`), a few antenna rows at a time to
keep the working set small: a chirp-Z transform per block, as FFTs planned
once per capture shape and bank, with one forward FFT shared by the blocks
whose chirp period covers the capture.  `mix` caches each block's
reference chirp.  CFAR, the adjacent-block merge and isolation run on the
calling thread; isolation mixes each block that holds a detection once,
and its lowpass (`numerics.fir_lowpass`) filters rows on the same threads.
The transforms, windows and filters come from `numerics`, on numpy alone.

The trial pipeline's parallelism is these threads inside the radar
chain's kernels: the bank's block groups and the antenna rows of the
isolation lowpass.  Each kernel splits its work inside itself, so every
function above a kernel, the ones perfbench/tracer.py wraps among them,
runs on the calling thread.  The capture synthesis (`fmcw.synthesize_rx`),
the per-vehicle features (the Toeplitz projections' `eigh`) and the beam
tables stay serial.  `scenario.run_campaign` and
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
from typing import NamedTuple

import numpy as np

from .covariance import SpatialCovariance
from .fmcw import RxCapture
from .numerics import (
    ROW_CHUNK,
    fir_lowpass,
    next_fast_len,
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


class Detection(NamedTuple):
    """One CFAR detection: its block, its lag, and the powers of its peak
    and of its floor ring."""

    block_index: int
    lag_index: int
    peak_power_w: float
    floor_power_w: float


# Antenna rows the bank detects on (detection_rows).  On 1,000 default
# scenes the first 16 of 64 rows missed 151 of 4,000 radars, against 148
# with all 64 (tools/detection_counts.py); every 4th row missed 154, and
# the first 24 or 32 rows 149 and 153.  run_bank took 0.052 s a scene
# against 0.175 s (tools/stage_times.py 16, 2-core x86-64).
DETECTION_ROWS = 16


def detection_rows(capture: RxCapture) -> RxCapture:
    """The antenna rows the bank reads: a view of the capture's first
    DETECTION_ROWS rows, or all of them if it has no more."""
    return RxCapture(
        samples=capture.samples[:DETECTION_ROWS], sample_rate_hz=capture.sample_rate_hz
    )


def _n_lags(block: MixingBlockConfig, sample_rate_hz: float) -> int:
    """block.n_lags, rejecting a chirp period of fewer than two samples."""
    if (n_lags := block.n_lags(sample_rate_hz)) < 2:
        raise ValueError("block chirp period is not representable at the capture sample rate")
    return n_lags


@lru_cache(maxsize=128)
def reference_chirp(block: MixingBlockConfig, n_samples: int, sample_rate_hz: float) -> np.ndarray:
    """Conjugate reference chirp exp(-j pi beta t'^2), periodic in T_mix, at
    the capture's sample instants; read-only, shared by every caller."""
    _n_lags(block, sample_rate_hz)
    tp = np.mod(np.arange(n_samples) / sample_rate_hz, block.chirp_period_s)
    ref = np.exp(-1j * np.pi * block.chirp_rate_hz_per_s * tp * tp)
    ref.flags.writeable = False
    return ref


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


def mix(capture: RxCapture, block: MixingBlockConfig) -> RxCapture:
    """Multiply every antenna row by the sampled reference chirp."""
    ref = reference_chirp(block, capture.n_samples, capture.sample_rate_hz)
    return RxCapture(samples=capture.samples * ref, sample_rate_hz=capture.sample_rate_hz)


@lru_cache(maxsize=4)
def _bank_plan(n_samples: int, sample_rate_hz: float, bank: BankConfig) -> tuple:
    """The bank's blocks in groups that share a forward FFT, each group
    (pre-multiply, FFT length, ((block index, n_lags, kernel spectrum), ...)),
    read-only.  The default bank's plan holds about 9.6 MB.

    The kernel is Bluestein's chirp w^(-k^2/2), k = 1-n_samples .. n_lags-1,
    with w = exp(j 2 pi beta t_r^2) the lag sums' tone step.  The pre-multiply,
    the reference chirp times the pre-chirp w^(i^2/2), is exactly 1 over the
    first chirp period, so the blocks whose period covers the capture
    (n_lags >= n_samples) share one group with none; each other block is a
    group of its own.
    """
    n_lags = [_n_lags(b, sample_rate_hz) for b in bank.blocks]
    long = [i for i, m in enumerate(n_lags) if m >= n_samples]
    t = np.arange(n_samples) / sample_rate_hz

    def read_only(a):
        a.flags.writeable = False
        return a

    def entry(i, nfft):
        k = np.arange(1 - n_samples, n_lags[i], dtype=float)
        beta = bank.blocks[i].chirp_rate_hz_per_s
        chirp = np.exp(-1j * (np.pi * beta / sample_rate_hz**2) * (k * k))
        return i, n_lags[i], read_only(np.fft.fft(chirp, nfft))

    nfft = next_fast_len(n_samples + max([n_lags[i] for i in long], default=1) - 1)
    groups = [(1.0, nfft, tuple(entry(i, nfft) for i in long))] if long else []
    for i, block in enumerate(bank.blocks):
        if i not in long:
            tp = np.mod(t, block.chirp_period_s)
            pre = read_only(np.exp(1j * np.pi * block.chirp_rate_hz_per_s * (t * t - tp * tp)))
            nfft = next_fast_len(n_samples + n_lags[i] - 1)
            groups.append((pre, nfft, (entry(i, nfft),)))
    return tuple(groups)


def _group_powers(samples: np.ndarray, group: tuple) -> list[tuple[int, np.ndarray]]:
    """(block index, antenna-max lag power) of each block of one plan group.

    ROW_CHUNK antenna rows at a time: one forward FFT of the pre-multiplied
    rows, then for each block its kernel product, one inverse FFT and
    re^2 + im^2, folded into the block's running max over the rows.
    """
    pre, nfft, blocks = group
    n = samples.shape[1]
    powers = [np.zeros(n_lags) for _, n_lags, _ in blocks]
    spectrum = np.empty((min(ROW_CHUNK, len(samples)), nfft), dtype=complex)
    work = np.empty_like(spectrum)
    for r0 in range(0, len(samples), ROW_CHUNK):
        rows = samples[r0 : r0 + ROW_CHUNK]
        s, c = spectrum[: len(rows)], work[: len(rows)]
        np.multiply(rows, pre, out=s[:, :n])
        s[:, n:] = 0.0
        np.fft.fft(s, out=s)
        for p, (_, n_lags, kernel) in zip(powers, blocks):
            np.multiply(kernel, s, out=c)
            np.fft.ifft(c, out=c)
            lags = c[:, n - 1 : n - 1 + n_lags]
            np.maximum(p, np.max(lags.real**2 + lags.imag**2, axis=0), out=p)
    return [(b_idx, p) for (b_idx, _, _), p in zip(blocks, powers)]


def bank_powers(capture: RxCapture, bank: BankConfig):
    """Yield (block index, antenna-max lag power) once for every block,
    the long blocks first, each plan group computed on the radar chain's threads.

    The power of lag l is max_n |C[n, l]|^2 over one chirp period, with
    C[n, l] = sum_i mix(capture, block)[n, i] * lag_correction(l)[i]: a
    chirp-Z transform of the mixed rows (Bluestein's algorithm; Rabiner,
    Schafer & Rader, 1969).  Its output chirp and the lag phase have unit
    modulus, so the power is taken from the inverse FFT alone.
    """
    groups = _bank_plan(capture.n_samples, capture.sample_rate_hz, bank)
    for powers in thread_map(partial(_group_powers, capture.samples), groups):
        yield from powers


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


def run_bank(capture: RxCapture, bank: BankConfig, cfar: CfarConfig) -> list[Detection]:
    """Full bank sweep: correlate and CFAR every block, then merge.

    The bank reads the detection subarray, `detection_rows(capture)`: the
    other rows leave its detections bit for bit unchanged.  Block powers
    (`bank_powers`) are computed on the radar chain's threads;
    each is CFAR-tested on the calling thread as it arrives, and the
    detections are taken in block and lag order.  Adjacent blocks often
    both respond to one radar whose rate falls between their grid points;
    detections in adjacent blocks within a guard-width lag distance are
    merged, keeping the higher peak.
    """
    candidates = []
    for b_idx, p in bank_powers(detection_rows(capture), bank):
        p_floor = cfar_floor(p, cfar)
        candidates.extend(
            Detection(b_idx, lag, float(p[lag]), float(p_floor[lag]))
            for lag in cfar_detect(p, cfar, p_floor)
        )
    candidates.sort()
    return _merge_adjacent(candidates, cfar.n_guard)


def _merge_adjacent(candidates: list[Detection], lag_window: int) -> list[Detection]:
    """Drop candidates dominated by a stronger peak in an adjacent block
    at (nearly) the same lag; an equal peak in the lower block dominates."""

    def dominated(b, lag, peak, _floor):
        return any(
            abs(ob - b) == 1 and abs(olag - lag) <= lag_window
            and (opeak > peak or (opeak == peak and ob < b))
            for ob, olag, opeak, _ in candidates
        )

    return [cand for cand in candidates if not dominated(*cand)]


def isolate_detections(
    capture: RxCapture,
    bank: BankConfig,
    detections: list[Detection],
    lowpass_bw_hz: float,
    lowpass_n_taps: int,
) -> list[SpatialCovariance]:
    """Isolated covariance of each detection, in the order given; each
    block that holds a detection is mixed once."""
    covs = [None] * len(detections)
    order = sorted(range(len(detections)), key=lambda k: detections[k].block_index)
    for b_idx, group in groupby(order, key=lambda k: detections[k].block_index):
        block = bank.blocks[b_idx]
        mixed = mix(capture, block)
        for k in group:
            covs[k] = isolate_covariance(
                mixed, detections[k].lag_index, block, lowpass_bw_hz, lowpass_n_taps
            )
    return covs


def dump_correlator_csv(path, capture: RxCapture, bank: BankConfig, header_lines=()) -> None:
    """Write per-block lag powers (dB) for correlator-output plots: the
    powers run_bank's CFAR tests, on the detection subarray."""
    with open(path, "w", newline="") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        writer = csv.writer(f)
        writer.writerow(["block_index", "chirp_rate_hz_per_s", "lag", "power_db"])
        powers = sorted(bank_powers(detection_rows(capture), bank), key=lambda item: item[0])
        for b_idx, p in powers:
            rate = f"{bank.blocks[b_idx].chirp_rate_hz_per_s:.6e}"
            p_db = 10.0 * np.log10(np.maximum(p, 1e-300))
            writer.writerows([b_idx, rate, lag, f"{v:.4f}"] for lag, v in enumerate(p_db.tolist()))
