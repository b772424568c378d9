"""Codebooks, assisted search spaces, beam selection, SINR/rate/overhead.

Phase-quantized DFT codebooks, construction of reduced beam search spaces
from predicted covariance features, exhaustive selection over precoder and
combiner pairs, multiuser SINR with the diagonal-baseband assumption, and
the training-overhead accounting that discounts the effective rate.

Each user's channel enters through beam_taps: the D_occ taps its rays
occupy, projected onto every beam pair, B[j] = conj(W) taps[j] F^T, plus
the (K x D_occ) phases that take a pair's taps to subcarrier amplitudes.
Selection reads one score table per user, pair_scores(B), built once per
trial: received power summed over the band, the RSRP ranking of beam
training.  The exhaustive and the assisted searches both take its argmax,
over all RSU beams or over an assisted search space.  sinr forms
per-subcarrier gains only for the pairs it serves; no per-subcarrier
channel matrix or gain table is ever formed.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .channel import WidebandChannel, steering_vector
from .covfeatures import reconstruct_toeplitz

# phase-shifter resolution of every codebook beam
CODEBOOK_PHASE_BITS = 2


@lru_cache(maxsize=16)
def build_codebook(n: int) -> np.ndarray:
    """DFT-direction codebook with 2^CODEBOOK_PHASE_BITS phase levels:
    complex (n, n), one unit-norm beam per row.

    Beam i (1-based) points at arcsin((2i - n - 1)/n); each entry keeps
    magnitude 1/sqrt(n) with its phase rounded to the nearest level, so
    every beam has exactly unit norm.  Built once per n and read-only, so
    every caller shares the one codebook.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    levels = 2**CODEBOOK_PHASE_BITS
    step = 2.0 * np.pi / levels
    beams = np.empty((n, n), dtype=complex)
    for i in range(1, n + 1):
        angle = np.arcsin((2.0 * i - n - 1.0) / n)
        a = steering_vector(n, angle)
        quantized = np.round(np.angle(a) / step) * step
        beams[i - 1] = np.exp(1j * quantized) / np.sqrt(n)
    beams.flags.writeable = False
    return beams


ASSISTED_SEARCH_SIZES = {"narrow": 4, "wide": 12}
PROTOCOLS = ("exhaustive", *ASSISTED_SEARCH_SIZES)

# downlink training-protocol bookkeeping: SS blocks sweep the initial-access
# search space, CSI-RS blocks track the connected users
SS_BLOCK_SYMBOLS = 4
BEAMS_PER_SS_BLOCK = 4
CSIRS_BLOCK_SYMBOLS = 1
CSIRS_SUBCARRIER_FRACTION = 0.25
CSIRS_BLOCKS_PER_COHERENCE = 4

# thermal noise density at room temperature (kT, 290 K)
THERMAL_NOISE_DBM_PER_HZ = -174.0


def ss_blocks(variant: str, n_ue: int, n_rsu: int) -> int:
    """SS blocks that sweep a protocol variant's RSU search space against
    every one of n_ue UE beams: all n_rsu beams for the exhaustive search,
    ASSISTED_SEARCH_SIZES[variant] for an assisted one."""
    sizes = {"exhaustive": n_rsu, **ASSISTED_SEARCH_SIZES}
    if variant not in sizes:
        raise ValueError(f"unknown protocol variant {variant!r}")
    size = sizes[variant]
    blocks, rem = divmod(size * n_ue, BEAMS_PER_SS_BLOCK)
    if rem:
        raise ValueError(
            f"search size {size} x {n_ue} UE beams does not "
            f"pack into blocks of {BEAMS_PER_SS_BLOCK}"
        )
    return blocks


def symbol_duration(k_subcarriers: int, subcarrier_spacing_hz: float, cp_samples: int) -> float:
    """OFDM symbol duration including the cyclic prefix."""
    return (k_subcarriers + cp_samples) / (k_subcarriers * subcarrier_spacing_hz)


def training_time(
    variant: str,
    n_ue: int,
    n_rsu: int,
    symbol_duration_s: float,
    n_tracked_users: int,
) -> float:
    """Effective training time per coherence interval.

    SS blocks sweep the initial-access search space (every block carries
    BEAMS_PER_SS_BLOCK beams, already counted in the block total); CSI-RS
    blocks track the connected users on a CSIRS_SUBCARRIER_FRACTION of the
    band, hence their subcarrier-averaged weight.
    """
    n_ss = ss_blocks(variant, n_ue, n_rsu)
    n_csirs = CSIRS_BLOCKS_PER_COHERENCE * n_tracked_users
    symbols = (
        n_ss * SS_BLOCK_SYMBOLS
        + CSIRS_SUBCARRIER_FRACTION * n_csirs * CSIRS_BLOCK_SYMBOLS
    )
    return symbol_duration_s * symbols


def effective_rate(
    spectral_efficiency: float,
    t_train_s: float,
    t_coh_s: float,
    subcarrier_spacing_hz: float,
) -> float:
    """Rate after discounting the training share of the coherence interval.

    Zero when training does not fit in one coherence interval.
    """
    if t_coh_s <= 0:
        raise ValueError(f"t_coh must be > 0, got {t_coh_s}")
    if t_train_s >= t_coh_s:
        return 0.0
    return (1.0 - t_train_s / t_coh_s) * subcarrier_spacing_hz * spectral_efficiency


def outage(rates_bps, r_min_bps: float) -> float:
    """Fraction of trials whose rate falls below the minimum supported rate."""
    rates = np.asarray(rates_bps, dtype=float)
    if rates.size == 0:
        raise ValueError("outage needs at least one trial")
    return float(np.mean(rates < r_min_bps))


def assisted_search_space(predicted, codebook: np.ndarray, k: int, kind: str) -> list[int]:
    """Top-k codebook beams ranked by a predicted covariance feature.

    kind "aps": each beam scored by the larger of its two adjacent DFT
    bins in the predicted APS.  "eigvec": beams scored by |b^H v|^2.
    "covvec": beams scored by the quadratic form b^H T(r) b.  Ties break
    toward the lower beam index.
    """
    n = len(codebook)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    pred = np.asarray(predicted)
    if kind == "aps":
        if np.iscomplexobj(pred) or pred.shape != (n,):
            raise ValueError("aps ranking expects a real vector of beam-count length")
        idx = np.arange(n)
        lower = (idx - n // 2) % n
        upper = (idx + 1 - n // 2) % n
        scores = np.maximum(pred[lower], pred[upper])
    elif kind == "eigvec":
        if not np.iscomplexobj(pred):
            raise ValueError("eigvec ranking expects a complex vector")
        scores = np.abs(codebook.conj() @ pred) ** 2
    elif kind == "covvec":
        if not np.iscomplexobj(pred):
            raise ValueError("covvec ranking expects a complex vector")
        t = reconstruct_toeplitz(pred).matrix
        scores = np.real(np.sum((codebook.conj() @ t) * codebook, axis=1))
    else:
        raise ValueError(f"unknown feature kind {kind!r}")
    order = np.argsort(-scores, kind="stable")
    return sorted(int(i) for i in order[:k])


def beam_taps(
    ch: WidebandChannel, codebook_rsu: np.ndarray, codebook_ue: np.ndarray, k_total: int
) -> tuple[np.ndarray, np.ndarray]:
    """One user's channel in the beam domain, on its occupied delay taps.

    ch.taps is (D_occ, N_ue, N_rsu) at lags d_j = ch.delays[j].  Returns
    (phases, B): B[j] = conj(W) taps[j] F^T, complex (D_occ, n_ue_beams,
    n_rsu_beams), and phases[k, j] = exp(-2 pi i k d_j / K), complex
    (K, D_occ), so that phases @ B[:, u, r] is w_u^H H[k] f_r on every
    subcarrier.  Exact when every d_j < K, which it checks.
    """
    ch.check_fits(k_total)
    b = codebook_ue.conj() @ ch.taps @ codebook_rsu.T
    # reduce k*d mod K in integers so the phase argument stays in [0, 2 pi)
    lags = np.outer(np.arange(k_total), ch.delays) % k_total
    return np.exp(-2j * np.pi * lags / k_total), b


def pair_scores(taps: np.ndarray) -> np.ndarray:
    """Received power of every beam pair, summed over the band.

    taps: one user's (D_occ, n_ue_beams, n_rsu_beams) B from beam_taps.
    Returns sum_d |B[d, u, r]|^2, (n_ue_beams, n_rsu_beams): by Parseval
    (delays < K) the mean over subcarriers of |w_u^H H[k] f_r|^2, a power
    ratio of unit-norm beams, and the table every search of the trial
    selects from.  Cost: D_occ multiply-adds per pair, no DFT.
    """
    return np.sum(taps.real**2 + taps.imag**2, axis=0)


def beam_select(scores: np.ndarray, rsu_space=None) -> tuple[int, int]:
    """(ue, rsu) beam pair of the argmax of one user's pair_scores table
    over every UE beam and the RSU beams in rsu_space (a sequence of beam
    indices; None for the whole codebook).

    Ties break toward the lower UE index, then the lower RSU index.
    """
    rsu_idx = np.arange(scores.shape[1]) if rsu_space is None else np.sort(list(rsu_space))
    if rsu_idx.size == 0:
        raise ValueError("the RSU search space must be non-empty")
    space = scores[:, rsu_idx]
    ue, col = np.unravel_index(int(np.argmax(space)), space.shape)
    return int(ue), int(rsu_idx[col])


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def noise_power_w(subcarrier_spacing_hz: float, noise_figure_db: float) -> float:
    """Per-subcarrier noise power from the thermal floor and noise figure."""
    dbm = THERMAL_NOISE_DBM_PER_HZ + noise_figure_db + 10.0 * np.log10(subcarrier_spacing_hz)
    return dbm_to_w(dbm)


def sinr(
    pairs: list[tuple[int, int]], taps: list, p_tx_per_subcarrier_w: float, p_noise_w: float
) -> np.ndarray:
    """Per-user per-subcarrier SINR for the selected beam pairs.

    pairs[l] = (ue_beam, rsu_beam) of stream l; taps[i] is user i's
    (phases, B) from beam_taps.  Every stream's gain through user i's
    channel comes from one (K x D_occ) @ (D_occ x n_streams) product; user
    i's signal is its own stream's gain, its interference the sum of the
    others'.  Powers in W per subcarrier; returns (n_users, K), a power
    ratio.
    """
    if len(pairs) != len(taps):
        raise ValueError("need one selection per user's beam taps")
    if not pairs:
        return np.empty((0, 0))
    ue, rsu = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    out = np.empty((len(pairs), taps[0][0].shape[0]))
    for i, (phases, b) in enumerate(taps):
        amp = phases @ b[:, ue, rsu]
        seen = (amp.real**2 + amp.imag**2).T  # (n_users, K): every stream's gain
        p_sig = seen[i] * p_tx_per_subcarrier_w
        p_int = (seen.sum(axis=0) - seen[i]) * p_tx_per_subcarrier_w
        out[i] = p_sig / (p_int + p_noise_w)
    return out


def spectral_efficiency(sinr_per_subcarrier: np.ndarray) -> np.ndarray:
    """Subcarrier-summed log2(1 + SINR) per user (bits/s/Hz units of one
    subcarrier spacing)."""
    return np.sum(np.log2(1.0 + np.asarray(sinr_per_subcarrier)), axis=-1)
