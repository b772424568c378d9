"""FMCW mixing filter bank: dechirp, lag correlation, max CFAR, isolation.

Each bank block mixes the capture with a reference chirp at one candidate
rate, evaluates the lag-domain correlator over one chirp period, and
detects peaks with a max-CFAR rule tested only at the lags that can pass
(`cfar_detect`, `run_bank`).  A detection is what the CFAR found;
`isolate_detections` estimates the spatial covariance of the detections a
caller reads, after a lag correction and lowpass.

The bank detects on a subarray: the first DETECTION_ROWS antenna rows
(`detection_rows`), or every row of a smaller array.  It asks the capture
only for each radar's timing and chirp rate, which every element sees at
about the same power, so its row-max statistic gains little from more
rows while its cost is linear in them.  Isolation, and everything after
it, reads every element.

Every call scans one way: a caller names the blocks whose detections it
reads (`run_bank`'s blocks, every block by default), and the bank scans
those and the ring of one block around them (`scan_blocks`) that the
adjacent-block merge compares them with, so its detections there are the
full bank's, bit for bit.  The pipeline names the blocks next to the chirp
rates of the vehicles it reads (`scenario.match_scope`): about 5 of the
default 51 for a sweep trial's initial user, 17 for a dataset scene.

`bank_powers` computes the scanned blocks' antenna-max lag powers on the
radar chain's threads (`numerics.thread_map`), a few antenna rows at a
time: a chirp-Z transform per block, with one forward FFT shared by the
blocks whose chirp period covers the capture (`_bank_plan`).  A block's
transform, like its reference chirp (`mix`), is cached per block and
capture shape, and built on the first scan that computes the block.
CFAR, the merge and isolation run on the calling thread.  Isolation mixes
each block that holds a detection once and filters every detection into
one buffer of the capture's shape: its lowpass (`numerics.fir_lowpass`)
applies the lag correction and the filter in one pass over a few rows at
a time, on the same threads.  The transforms, windows and filters come
from `numerics`, on numpy alone.

The trial pipeline's parallelism is these threads inside the radar
chain's kernels: the bank's block groups and the antenna rows of the
isolation lowpass.  Each kernel splits its work inside itself, so every
function above a kernel, the ones perfbench/tracer.py wraps among them,
runs on the calling thread.  The capture synthesis (`fmcw.synthesize_rx`),
the per-vehicle features (the Toeplitz projections' `eigh`) and the beam
tables stay serial.  `scenario.run_campaign`,
`scenario.generate_dataset` and `neural.train` run OpenBLAS on one thread
(`numerics.blas_threads`): the pipeline's BLAS calls are array-sized
(64x64 at the defaults) and training's batch-sized, too small to split,
and a second OpenBLAS thread only spins between them and takes CPU from
the kernels.
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
from .numerics import ROW_CHUNK, fir_lowpass, next_fast_len, thread_map


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

# scene.n_bank_blocks' upper bound, so that each block cache holds a whole bank
MAX_BANK_BLOCKS = 256


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


@lru_cache(maxsize=MAX_BANK_BLOCKS)
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
    """The bank's blocks at one capture shape, in groups that share a
    forward FFT, each (FFT length, block indices).

    The blocks whose chirp period covers the capture (n_lags >= n_samples)
    form one group, and each other block a group of its own.  A group's FFT
    length fits its longest block, whichever of its blocks are scanned.
    """
    n_lags = [_n_lags(b, sample_rate_hz) for b in bank.blocks]
    long = tuple(i for i, m in enumerate(n_lags) if m >= n_samples)
    groups = [(next_fast_len(n_samples + max(n_lags[i] for i in long) - 1), long)] if long else []
    groups += [(next_fast_len(n_samples + m - 1), (i,)) for i, m in enumerate(n_lags) if m < n_samples]
    return tuple(groups)


@lru_cache(maxsize=MAX_BANK_BLOCKS)
def _block_transform(
    block: MixingBlockConfig, n_samples: int, sample_rate_hz: float, nfft: int
) -> tuple:
    """(pre-multiply, kernel spectrum) of one block at FFT length nfft,
    read-only: 0.1-0.2 MB a block, 9.6 MB for the whole default bank.

    The kernel is Bluestein's chirp w^(-k^2/2), k = 1-n_samples .. n_lags-1,
    with w = exp(j 2 pi beta t_r^2) the lag sums' tone step.  The pre-multiply,
    the reference chirp times the pre-chirp w^(i^2/2), is exactly 1 over the
    first chirp period, so a block whose period covers the capture has the
    scalar 1.0, and the blocks of its group share one forward FFT.
    """
    n_lags = block.n_lags(sample_rate_hz)
    beta = block.chirp_rate_hz_per_s
    k = np.arange(1 - n_samples, n_lags, dtype=float)
    kernel = np.fft.fft(np.exp(-1j * (np.pi * beta / sample_rate_hz**2) * (k * k)), nfft)
    kernel.flags.writeable = False
    if n_lags >= n_samples:
        return 1.0, kernel
    t = np.arange(n_samples) / sample_rate_hz
    tp = np.mod(t, block.chirp_period_s)
    pre = np.exp(1j * np.pi * beta * (t * t - tp * tp))
    pre.flags.writeable = False
    return pre, kernel


def _group_powers(capture: RxCapture, bank: BankConfig, group: tuple) -> list:
    """(block index, antenna-max lag power) of each block of one plan group.

    ROW_CHUNK antenna rows at a time: one forward FFT of the pre-multiplied
    rows, then for each block its kernel product, one inverse FFT and
    re^2 + im^2, folded into the block's running max over the rows.
    """
    nfft, blocks = group
    samples, n, fs = capture.samples, capture.n_samples, capture.sample_rate_hz
    # each block is in one group, so no other thread of this scan builds it
    transforms = [_block_transform(bank.blocks[i], n, fs, nfft) for i in blocks]
    pre = transforms[0][0]  # the group's: one block's, or 1.0 for every long block
    n_lags = [bank.blocks[i].n_lags(fs) for i in blocks]
    powers = [np.zeros(m) for m in n_lags]
    spectrum = np.empty((min(ROW_CHUNK, len(samples)), nfft), dtype=complex)
    work = np.empty_like(spectrum)
    for r0 in range(0, len(samples), ROW_CHUNK):
        rows = samples[r0 : r0 + ROW_CHUNK]
        s, c = spectrum[: len(rows)], work[: len(rows)]
        np.multiply(rows, pre, out=s[:, :n])
        s[:, n:] = 0.0
        np.fft.fft(s, out=s)
        for p, m, (_, kernel) in zip(powers, n_lags, transforms):
            np.multiply(kernel, s, out=c)
            np.fft.ifft(c, out=c)
            lags = c[:, n - 1 : n - 1 + m]
            np.maximum(p, np.max(lags.real**2 + lags.imag**2, axis=0), out=p)
    return list(zip(blocks, powers))


def bank_powers(capture: RxCapture, bank: BankConfig, blocks=None):
    """Yield (block index, antenna-max lag power) once for every block in
    blocks (None: every block), the long blocks first: the plan's groups,
    cut down to blocks, computed on the radar chain's threads.  A group
    keeps its FFT length whichever of its blocks are asked for, so neither
    a block's powers nor its cached transform depend on blocks.

    The power of lag l is max_n |C[n, l]|^2 over one chirp period, with
    C[n, l] = sum_i mix(capture, block)[n, i] * lag_correction(l)[i]: a
    chirp-Z transform of the mixed rows (Bluestein's algorithm; Rabiner,
    Schafer & Rader, 1969).  Its output chirp and the lag phase have unit
    modulus, so the power is taken from the inverse FFT alone.
    """
    blocks = set(range(len(bank.blocks)) if blocks is None else blocks)
    plan = _bank_plan(capture.n_samples, capture.sample_rate_hz, bank)
    groups = [(nfft, kept) for nfft, indices in plan
              if (kept := tuple(i for i in indices if i in blocks))]
    for powers in thread_map(partial(_group_powers, capture, bank), groups):
        yield from powers


def cfar_detect(p: np.ndarray, cfg: CfarConfig) -> list[tuple[int, float]]:
    """(lag, floor power) of each lag of p that the max CFAR detects, in order.

    A lag is detected iff P_CUT > P_guard and P_CUT > factor * P_floor, the
    maxima of p over offsets 1..n_guard and n_guard+1..n_guard+n_floor on
    both sides, modulo L.  The floor ring holds the cells n_guard+1 away, so
    the rings are gathered only at lags beating factor times both (<= L/2).
    """
    n_lags = len(p)
    if n_lags <= 2 * (cfg.n_guard + cfg.n_floor):
        raise ValueError(
            f"{n_lags} lags cannot fit guard+floor rings of "
            f"{cfg.n_guard}+{cfg.n_floor} cells per side"
        )
    near = cfg.n_guard + 1
    scaled = cfg.threshold_factor * p
    lags = np.flatnonzero((p > np.roll(scaled, near)) & (p > np.roll(scaled, -near)))
    # p at offsets 1..n_guard+n_floor after and before each candidate
    offsets = np.arange(1, cfg.n_guard + cfg.n_floor + 1)
    rings = p[(lags[:, np.newaxis, np.newaxis] + np.stack([offsets, -offsets])) % n_lags]
    p_guard = rings[..., : cfg.n_guard].max(axis=(1, 2))
    p_floor = rings[..., cfg.n_guard :].max(axis=(1, 2))
    hits = (p[lags] > p_guard) & (p[lags] > cfg.threshold_factor * p_floor)
    return list(zip(lags[hits].tolist(), p_floor[hits].tolist()))


def isolate_covariance(
    mixed: RxCapture,
    lag: int,
    block: MixingBlockConfig,
    lowpass_bw_hz: float,
    lowpass_n_taps: int,
    out: np.ndarray,
) -> SpatialCovariance:
    """Covariance of the lag-corrected, lowpass-filtered mixed signal.

    The lag correction parks the detected radar's multipath near DC; the
    lowpass then rejects the other radars' spread-out residual chirps.
    `fir_lowpass` applies the correction tone chunk by chunk inside its
    row kernel and writes the filtered rows into out, a complex buffer of
    the mixed rows' shape that `isolate_detections` reuses across
    detections; the covariance is read from out before it returns.
    """
    n_lags = block.n_lags(mixed.sample_rate_hz)
    if not 0 <= lag < n_lags:
        raise ValueError(f"lag {lag} outside [0, {n_lags})")
    corr = lag_correction(block, lag, mixed.sample_rate_hz, mixed.n_samples)
    filtered = fir_lowpass(
        mixed.samples, lowpass_bw_hz, mixed.sample_rate_hz, lowpass_n_taps, corr, out
    )
    return SpatialCovariance.from_samples(filtered)


def scan_blocks(bank: BankConfig, blocks) -> list[int]:
    """The blocks run_bank computes to return the detections in blocks:
    each of them and its neighbours, the blocks the merge rule compares
    it with, in order."""
    n, blocks = len(bank.blocks), set(blocks)
    if any(not 0 <= b < n for b in blocks):
        raise ValueError(f"block indices must lie in [0, {n}), got {sorted(blocks)}")
    return sorted({j for b in blocks for j in (b - 1, b, b + 1) if 0 <= j < n})


def run_bank(
    capture: RxCapture, bank: BankConfig, cfar: CfarConfig, blocks=None
) -> list[Detection]:
    """The bank's detections in the given blocks (default: every block):
    correlate and CFAR, then merge.

    The bank reads the detection subarray, `detection_rows(capture)`: the
    other rows leave its detections bit for bit unchanged.  Block powers
    (`bank_powers`) are computed on the radar chain's threads; each is
    CFAR-tested at its candidate lags (`cfar_detect`) on the calling thread
    as it arrives, and the detections are taken in block and lag order.
    Adjacent blocks often both respond to one radar whose rate falls between
    their grid points; detections in adjacent blocks within a guard-width
    lag distance are merged, keeping the higher peak.

    A merge looks one block to either side, so the bank computes only
    `scan_blocks(bank, blocks)`, the given blocks and that ring, and
    returns the detections in blocks alone: the full bank's detections
    restricted to blocks, bit for bit.
    """
    blocks = set(range(len(bank.blocks)) if blocks is None else blocks)
    detections = _merge_adjacent(sorted(
        Detection(b_idx, lag, float(p[lag]), floor)
        for b_idx, p in bank_powers(detection_rows(capture), bank, scan_blocks(bank, blocks))
        for lag, floor in cfar_detect(p, cfar)
    ), cfar.n_guard)
    return [d for d in detections if d.block_index in blocks]


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
    block that holds a detection is mixed once, and every detection is
    filtered into one buffer."""
    covs = [None] * len(detections)
    filtered = np.empty(capture.samples.shape, dtype=complex)
    order = sorted(range(len(detections)), key=lambda k: detections[k].block_index)
    for b_idx, group in groupby(order, key=lambda k: detections[k].block_index):
        block = bank.blocks[b_idx]
        mixed = mix(capture, block)
        for k in group:
            covs[k] = isolate_covariance(
                mixed, detections[k].lag_index, block, lowpass_bw_hz, lowpass_n_taps, filtered
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
