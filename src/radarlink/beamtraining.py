"""Codebooks, assisted search spaces, beam selection, SINR/rate/overhead.

Phase-quantized DFT codebooks, construction of reduced beam search spaces
from predicted covariance features, exhaustive selection over precoder and
combiner pairs, multiuser SINR with the diagonal-baseband assumption, and
the training-overhead accounting that discounts the effective rate.

Selection and SINR both index one beam-gain table per user, G[k, u, r] =
|w_u^H H[k] f_r|^2, which gain_table builds from the channel's occupied
delay taps; no per-subcarrier channel matrix is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import UlaConfig, WidebandChannel, steering_vector
from .covfeatures import reconstruct_toeplitz


@dataclass(frozen=True)
class Codebook:
    """Unit-norm phase-quantized beams, one per row."""

    beams: np.ndarray
    n_bits: int

    def __post_init__(self):
        b = np.asarray(self.beams, dtype=complex)
        b.setflags(write=False)
        object.__setattr__(self, "beams", b)

    @property
    def n_beams(self) -> int:
        return self.beams.shape[0]

    @property
    def n_elements(self) -> int:
        return self.beams.shape[1]


def build_codebook(n: int, n_bits: int = 2) -> Codebook:
    """DFT-direction codebook with 2^n_bits phase levels.

    Beam i (1-based) points at arcsin((2i - n - 1)/n); each entry keeps
    magnitude 1/sqrt(n) with its phase rounded to the nearest level, so
    every beam has exactly unit norm.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n_bits < 1:
        raise ValueError(f"n_bits must be >= 1, got {n_bits}")
    levels = 2**n_bits
    step = 2.0 * np.pi / levels
    array = UlaConfig(n)
    beams = np.empty((n, n), dtype=complex)
    for i in range(1, n + 1):
        angle = np.arcsin((2.0 * i - n - 1.0) / n)
        a = steering_vector(array, angle)
        quantized = np.round(np.angle(a) / step) * step
        beams[i - 1] = np.exp(1j * quantized) / np.sqrt(n)
    return Codebook(beams=beams, n_bits=n_bits)


ASSISTED_SEARCH_SIZES = {"narrow": 4, "wide": 12}

# thermal noise density at room temperature (kT, 290 K)
THERMAL_NOISE_DBM_PER_HZ = -174.0


@dataclass(frozen=True)
class ProtocolConfig:
    """Downlink training-protocol bookkeeping (SS and CSI-RS blocks)."""

    ss_block_symbols: int = 4
    csirs_block_symbols: int = 1
    csirs_subcarrier_fraction: float = 0.25
    csirs_blocks_per_coherence: int = 4
    beams_per_block: int = 4
    n_ue_beams: int = 16
    n_rsu_beams: int = 64

    @property
    def search_sizes(self) -> dict:
        """RSU beams each protocol variant sweeps against every UE beam."""
        return {"exhaustive": self.n_rsu_beams, **ASSISTED_SEARCH_SIZES}

    def ss_blocks(self, variant: str) -> int:
        """SS blocks to sweep search_size RSU beams against every UE beam."""
        size = self.search_sizes[variant]
        blocks, rem = divmod(size * self.n_ue_beams, self.beams_per_block)
        if rem:
            raise ValueError(
                f"search size {size} x {self.n_ue_beams} UE beams does not "
                f"pack into blocks of {self.beams_per_block}"
            )
        return blocks


def symbol_duration(k_subcarriers: int, subcarrier_spacing_hz: float, cp_samples: int) -> float:
    """OFDM symbol duration including the cyclic prefix."""
    return (k_subcarriers + cp_samples) / (k_subcarriers * subcarrier_spacing_hz)


def training_time(
    proto: ProtocolConfig,
    variant: str,
    symbol_duration_s: float,
    n_tracked_users: int = 3,
) -> float:
    """Effective training time per coherence interval.

    SS blocks sweep the initial-access search space (every block carries
    beams_per_block beams, already counted in the block total); CSI-RS
    blocks track the connected users on a csirs_subcarrier_fraction of the
    band, hence their subcarrier-averaged weight.
    """
    if variant not in proto.search_sizes:
        raise ValueError(f"unknown protocol variant {variant!r}")
    n_ss = proto.ss_blocks(variant)
    n_csirs = proto.csirs_blocks_per_coherence * n_tracked_users
    symbols = (
        n_ss * proto.ss_block_symbols
        + proto.csirs_subcarrier_fraction * n_csirs * proto.csirs_block_symbols
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


def outage(rates_bps, r_min_bps: float = 100e6) -> float:
    """Fraction of trials whose rate falls below the minimum supported rate."""
    rates = np.asarray(rates_bps, dtype=float)
    if rates.size == 0:
        raise ValueError("outage needs at least one trial")
    return float(np.mean(rates < r_min_bps))


def assisted_search_space(predicted, codebook: Codebook, k: int, kind: str) -> list[int]:
    """Top-k codebook beams ranked by a predicted covariance feature.

    kind "aps": each beam scored by the larger of its two adjacent DFT
    bins in the predicted APS.  "eigvec": beams scored by |b^H v|^2.
    "covvec": beams scored by the quadratic form b^H T(r) b.  Ties break
    toward the lower beam index.
    """
    if not 1 <= k <= codebook.n_beams:
        raise ValueError(f"k={k} outside [1, {codebook.n_beams}]")
    pred = np.asarray(predicted)
    n = codebook.n_beams
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
        scores = np.abs(codebook.beams.conj() @ pred) ** 2
    elif kind == "covvec":
        if not np.iscomplexobj(pred):
            raise ValueError("covvec ranking expects a complex vector")
        t = reconstruct_toeplitz(pred).matrix
        scores = np.real(np.einsum("bi,ij,bj->b", codebook.beams.conj(), t, codebook.beams))
    else:
        raise ValueError(f"unknown feature kind {kind!r}")
    order = np.argsort(-scores, kind="stable")
    return sorted(int(i) for i in order[:k])


@dataclass(frozen=True)
class BeamSelection:
    rsu_index: int
    ue_index: int
    score: float


def gain_table(
    ch: WidebandChannel, codebook_rsu: Codebook, codebook_ue: Codebook, k_total: int
) -> np.ndarray:
    """Beam-pair power gains |w_u^H H[k] f_r|^2 on every subcarrier.

    ch.taps is (D, N_ue, N_rsu); returns float64 (K, n_ue_beams, n_rsu_beams),
    a dimensionless power ratio of unit-norm beams.  Each of the D_occ
    occupied taps is projected to the beam domain, conj(W) taps[d] F^T, and
    one (K x D_occ) DFT product over them costs K * D_occ * n_ue_beams *
    n_rsu_beams multiply-adds.  Exact for D <= K, like channel_freq_all.
    """
    if ch.n_taps > k_total:
        raise ValueError(f"{ch.n_taps} taps do not fit in {k_total} subcarriers")
    occupied = np.flatnonzero(np.any(ch.taps, axis=(1, 2)))
    beam_taps = codebook_ue.beams.conj() @ ch.taps[occupied] @ codebook_rsu.beams.T
    # reduce k*d mod K in integers so the phase argument stays in [0, 2 pi)
    lags = np.outer(np.arange(k_total), occupied) % k_total
    amp = np.tensordot(np.exp(-2j * np.pi * lags / k_total), beam_taps, axes=1)
    gains = amp.real**2
    gains += amp.imag**2
    return gains


def _space_scores(gains: np.ndarray, rsu_space, ue_space):
    """(ue_idx, rsu_idx, pair scores) of a beam-pair space; None spaces
    are the whole codebook, summed without a gather copy."""
    rsu_idx = np.arange(gains.shape[2]) if rsu_space is None else np.asarray(list(rsu_space))
    ue_idx = np.arange(gains.shape[1]) if ue_space is None else np.asarray(list(ue_space))
    if rsu_idx.size == 0 or ue_idx.size == 0:
        raise ValueError("search spaces must be non-empty")
    if rsu_space is not None or ue_space is not None:
        gains = gains[:, ue_idx[:, np.newaxis], rsu_idx]
    return ue_idx, rsu_idx, np.sum(np.log2(1.0 + gains), axis=0)


def pair_scores(gains: np.ndarray, rsu_space=None, ue_space=None) -> np.ndarray:
    """Sum over subcarriers of log2(1 + G[k, u, r]) for every beam pair.

    gains: one user's (K, n_ue_beams, n_rsu_beams) table from gain_table;
    spaces are sequences of beam indices, None for the whole codebook.
    Returns (len(ue_space), len(rsu_space)) in bits/s/Hz summed over
    subcarriers.  Cost: K log2 evaluations per pair.
    """
    return _space_scores(gains, rsu_space, ue_space)[2]


def beam_select(gains: np.ndarray, rsu_space=None, ue_space=None) -> BeamSelection:
    """Exhaustive argmax of pair_scores over the given beam-pair space.

    Ties break toward the lower UE index, then the lower RSU index.
    """
    ue_idx, rsu_idx, scores = _space_scores(gains, rsu_space, ue_space)
    w_local, f_local = np.unravel_index(int(np.argmax(scores)), scores.shape)
    return BeamSelection(
        rsu_index=int(rsu_idx[f_local]),
        ue_index=int(ue_idx[w_local]),
        score=float(scores[w_local, f_local]),
    )


def dbm_to_w(dbm: float) -> float:
    return 10.0 ** (dbm / 10.0) / 1000.0


def noise_power_w(subcarrier_spacing_hz: float, noise_figure_db: float = 10.0) -> float:
    """Per-subcarrier noise power from the thermal floor and noise figure."""
    dbm = THERMAL_NOISE_DBM_PER_HZ + noise_figure_db + 10.0 * np.log10(subcarrier_spacing_hz)
    return dbm_to_w(dbm)


def sinr(
    pairs: list[tuple[int, int]], gains: list, p_tx_per_subcarrier_w: float, p_noise_w: float
) -> np.ndarray:
    """Per-user per-subcarrier SINR for the selected beam pairs.

    pairs[l] = (ue_beam, rsu_beam) of stream l; gains[i] is user i's
    (K, n_ue_beams, n_rsu_beams) table from gain_table.  User i's signal
    is G_i[:, pairs[i]]; its interference sums G_i over the other streams'
    pairs.  Powers in W per subcarrier; returns (n_users, K), a power
    ratio.  Cost: n_users^2 * K table reads.
    """
    if len(pairs) != len(gains):
        raise ValueError("need one selection per user gain table")
    ue, rsu = np.asarray(pairs, dtype=int).reshape(-1, 2).T
    out = np.empty((len(pairs), gains[0].shape[0]))
    for i, g in enumerate(gains):
        seen = g[:, ue, rsu].T  # (n_users, K): every stream through user i's channel
        p_sig = seen[i] * p_tx_per_subcarrier_w
        p_int = (seen.sum(axis=0) - seen[i]) * p_tx_per_subcarrier_w
        out[i] = p_sig / (p_int + p_noise_w)
    return out


def spectral_efficiency(sinr_per_subcarrier: np.ndarray) -> np.ndarray:
    """Subcarrier-summed log2(1 + SINR) per user (bits/s/Hz units of one
    subcarrier spacing)."""
    return np.sum(np.log2(1.0 + np.asarray(sinr_per_subcarrier)), axis=-1)
