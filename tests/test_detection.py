"""Tests for the mixing bank, correlator, max CFAR, and isolation."""

import csv

import numpy as np
import pytest
from scipy.signal import czt

from radarlink.channel import steering_vector
from radarlink.config import SimConfig
from radarlink.covfeatures import aps_from_covariance
from radarlink.detection import (
    DETECTION_ROWS,
    BankConfig,
    CfarConfig,
    MixingBlockConfig,
    _merge_adjacent,
    _ring_max,
    bank_powers,
    cfar_detect,
    detection_rows,
    dump_correlator_csv,
    isolate_covariance,
    isolate_detections,
    lag_correction,
    mix,
    reference_chirp,
    run_bank,
)
from radarlink.fmcw import (
    CaptureConfig,
    FmcwParams,
    RadarPath,
    RadarPathSet,
    RxCapture,
    synthesize_rx,
)
from radarlink.numerics import ROW_CHUNK
from radarlink.scenario import make_scene, scene_capture

from oracles import ideal_isolated_covariance

FS = 125e6
BW = 100e6

# The declared tolerance of the bank's lag powers against the oracles: the
# largest |difference| allowed, relative to the block's peak power, and for
# a detection's peak and floor, relative to each.  The bank skips the unit-
# modulus output chirp and lag phase and drops the reference chirp where it
# cancels Bluestein's pre-chirp, so it rounds differently from the full
# chirp-Z transform.  scipy's CZT builds its chirp as a complex power and is
# itself about 1.2e-9 of the peak off the direct sum at 12,500 lags, where
# the bank is within 4e-12.
POWER_RTOL = 1e-8


def block(beta):
    return MixingBlockConfig(chirp_rate_hz_per_s=beta, bandwidth_hz=BW)


def radar(beta, dt=0.0, phase=0.0, power=1.0):
    return FmcwParams(
        chirp_rate_hz_per_s=beta,
        bandwidth_hz=BW,
        time_offset_s=dt,
        phase_offset_rad=phase,
        power_w=power,
    )


def paths(gain=1.0, delay=0.0, aoa=0.0):
    return RadarPathSet(paths=(RadarPath(gain=gain, delay_s=delay, aoa_rad=aoa),))


def block_power(capture: RxCapture, blk: MixingBlockConfig) -> np.ndarray:
    """The bank's antenna-max lag power of one block, as a one-block bank."""
    return dict(bank_powers(capture, BankConfig(blocks=(blk,))))[0]


def assert_power_close(got, expected):
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected)) <= POWER_RTOL * np.max(expected)


def correlate(mixed: RxCapture, blk: MixingBlockConfig) -> np.ndarray:
    """Full antenna-by-lag correlator matrix C[n, l] by one chirp-Z
    transform of every row: the bank's power oracle."""
    t_r = 1.0 / mixed.sample_rate_hz
    beta = blk.chirp_rate_hz_per_s
    n_lags = blk.n_lags(mixed.sample_rate_hz)
    delta = 2.0 * np.pi * beta * t_r * t_r
    c = czt(mixed.samples, m=n_lags, w=np.exp(1j * delta), a=1.0 + 0j, axis=-1)
    c *= np.exp(1j * np.pi * beta * (np.arange(n_lags) * t_r) ** 2)[np.newaxis, :]
    return c


def correlate_oracle(mixed: RxCapture, blk: MixingBlockConfig) -> np.ndarray:
    """Direct multiply-accumulate over every lag."""
    t_r = 1.0 / mixed.sample_rate_hz
    n_lags = blk.n_lags(mixed.sample_rate_hz)
    i = np.arange(mixed.n_samples)
    c = np.zeros((mixed.n_antennas, n_lags), dtype=complex)
    for lag in range(n_lags):
        lag_t = lag * t_r
        s = np.exp(
            1j
            * (
                2 * np.pi * blk.chirp_rate_hz_per_s * lag_t * i * t_r
                + np.pi * blk.chirp_rate_hz_per_s * lag_t * lag_t
            )
        )
        c[:, lag] = (mixed.samples * s).sum(axis=1)
    return c


class TestMix:
    capture_cfg = CaptureConfig(sample_rate_hz=FS, n_samples=2048)

    def test_matched_mixing_flattens_to_tone(self):
        beta = 3e12
        cap = synthesize_rx([(radar(beta), paths())], 2, self.capture_cfg)
        mixed = mix(cap, block(beta))
        # zero offset, zero delay: quadratic phases cancel exactly -> DC
        assert np.max(np.abs(np.diff(np.angle(mixed.samples[0])))) <= 1e-6

    def test_zero_capture(self):
        cap = RxCapture(samples=np.zeros((2, 512), dtype=complex), sample_rate_hz=FS)
        assert np.allclose(mix(cap, block(2e12)).samples, 0.0)

    def test_mismatched_residual_chirp_rate(self):
        beta_sig, beta_mix = 2.0e12, 1.2e12
        cap = synthesize_rx(
            [(radar(beta_sig), paths())], 1, self.capture_cfg
        )
        mixed = mix(cap, block(beta_mix))
        # instantaneous frequency of the residual quadratic phase ramps at
        # beta_sig - beta_mix; estimate the slope over a clean window
        phases = np.unwrap(np.angle(mixed.samples[0][:1000]))
        inst_freq = np.diff(phases) * FS / (2 * np.pi)
        slope = np.polyfit(np.arange(len(inst_freq)) / FS, inst_freq, 1)[0]
        assert slope == pytest.approx(beta_sig - beta_mix, rel=1e-3)

    @pytest.mark.parametrize("beta,n_samples", [(2e12, 512), (3.7e13, 2048), (9e13, 1000)])
    def test_equals_reference_chirp_product(self, beta, n_samples):
        """The cached chirp mix uses is the one sampled from its definition."""
        rng = np.random.default_rng(n_samples)
        samples = rng.standard_normal((3, n_samples)) + 1j * rng.standard_normal((3, n_samples))
        cap = RxCapture(samples=samples, sample_rate_hz=FS)
        tp = np.mod(np.arange(n_samples) / FS, block(beta).chirp_period_s)
        expected = cap.samples * np.exp(-1j * np.pi * beta * tp * tp)
        for _ in range(2):  # a fresh plan, then the cached one
            assert mix(cap, block(beta)).samples.tobytes() == expected.tobytes()

    def test_unrepresentable_period_rejected(self):
        cap = RxCapture(samples=np.ones((2, 64), dtype=complex), sample_rate_hz=FS)
        with pytest.raises(ValueError, match="not representable"):
            mix(cap, MixingBlockConfig(chirp_rate_hz_per_s=1e14, bandwidth_hz=1e6))


class TestCorrelate:
    def test_matches_direct_mac_oracle(self):
        rng = np.random.default_rng(0)
        samples = rng.standard_normal((3, 200)) + 1j * rng.standard_normal((3, 200))
        mixed = RxCapture(samples=samples, sample_rate_hz=FS)
        blk = MixingBlockConfig(chirp_rate_hz_per_s=5e13, bandwidth_hz=1e6)
        out = correlate(mixed, blk)
        oracle = correlate_oracle(mixed, blk)
        assert out.shape == oracle.shape
        assert np.max(np.abs(out - oracle)) <= 1e-9 * np.max(np.abs(oracle))

    def test_zero_input(self):
        mixed = RxCapture(samples=np.zeros((2, 256), dtype=complex), sample_rate_hz=FS)
        out = correlate(mixed, MixingBlockConfig(5e13, 1e6))
        assert np.allclose(out, 0.0)

    def test_matched_peak_at_expected_lag(self):
        beta = 4e12
        dt = 7.3e-6
        cfg = CaptureConfig(sample_rate_hz=FS, n_samples=4096)
        cap = synthesize_rx([(radar(beta, dt=dt), paths())], 2, cfg)
        mixed = mix(cap, block(beta))
        out = correlate(mixed, block(beta))
        peak = int(np.argmax(np.abs(out[0])))
        expected = int(round(dt * FS))
        assert abs(peak - expected) <= 2

    def test_matched_peak_matches_time_domain_filter_oracle(self):
        # oracle: slide a conjugate delayed chirp over the raw capture
        beta = 3.5e12
        dt = 4.1e-6
        cfg = CaptureConfig(sample_rate_hz=FS, n_samples=2048)
        cap = synthesize_rx([(radar(beta, dt=dt), paths())], 1, cfg)
        t = np.arange(cfg.n_samples) / FS
        n_lags = block(beta).n_lags(FS)
        scores = np.zeros(n_lags)
        t_mix = block(beta).chirp_period_s
        for lag in range(0, n_lags, 4):
            tp = np.mod(t - lag / FS, t_mix)
            ref = np.exp(-1j * np.pi * beta * tp * tp)
            scores[lag] = np.abs(np.sum(cap.samples[0] * ref))
        oracle_lag = int(np.argmax(scores))
        out = correlate(mix(cap, block(beta)), block(beta))
        czt_lag = int(np.argmax(np.abs(out[0])))
        assert abs(czt_lag - oracle_lag) <= 4

    def test_broadside_rows_equal(self):
        beta = 2e12
        cfg = CaptureConfig(sample_rate_hz=FS, n_samples=2048)
        cap = synthesize_rx([(radar(beta, dt=2e-6), paths())], 4, cfg)
        out = correlate(mix(cap, block(beta)), block(beta))
        for n in range(1, 4):
            assert np.max(np.abs(out[n] - out[0])) <= 1e-9 * np.max(np.abs(out[0]))


class TestRingMax:
    def brute(self, p, inner, outer):
        n = len(p)
        out = np.empty(n)
        for i in range(n):
            vals = []
            for d in range(inner, outer + 1):
                vals.append(p[(i + d) % n])
                vals.append(p[(i - d) % n])
            out[i] = max(vals)
        return out

    @pytest.mark.parametrize("inner,outer", [(1, 1), (1, 3), (2, 5), (4, 11)])
    def test_matches_brute_force(self, inner, outer):
        rng = np.random.default_rng(inner * 100 + outer)
        p = rng.random(64)
        assert np.allclose(_ring_max(p, inner, outer), self.brute(p, inner, outer))


class TestCfarDetect:
    def test_flat_power_no_detection(self):
        assert cfar_detect(np.ones(128), CfarConfig(n_guard=2, n_floor=4, threshold_factor=10.0)) == []

    def test_single_spike(self):
        p = np.ones(128)
        p[40] = 100.0  # 20 dB above floor
        hits = cfar_detect(p, CfarConfig(n_guard=2, n_floor=4, threshold_factor=10.0))
        assert hits == [40]

    def test_two_close_spikes_taller_wins(self):
        p = np.ones(256)
        p[100] = 200.0
        p[102] = 150.0
        hits = cfar_detect(p, CfarConfig(n_guard=3, n_floor=6, threshold_factor=10.0))
        assert hits == [100]

    def test_spike_below_threshold_rejected(self):
        p = np.ones(128)
        p[40] = 5.0
        hits = cfar_detect(p, CfarConfig(n_guard=2, n_floor=4, threshold_factor=10.0))
        assert hits == []

    def test_antenna_max_is_used(self):
        # 512 lags one DFT bin apart; only the second antenna carries the
        # tone that mixes down onto lag 40.  Both carry a white floor 120 dB
        # down, so the CFAR ring holds noise rather than rounding residue.
        blk = MixingBlockConfig(chirp_rate_hz_per_s=FS**2 / 512, bandwidth_hz=FS)
        ref = reference_chirp(blk, 512, FS)
        rng = np.random.default_rng(40)
        samples = 1e-6 * (rng.standard_normal((2, 512)) + 1j * rng.standard_normal((2, 512)))
        samples[1] += np.conj(lag_correction(blk, 40, FS, 512) * ref)
        p = block_power(RxCapture(samples=samples, sample_rate_hz=FS), blk)
        hits = cfar_detect(p, CfarConfig(n_guard=2, n_floor=4, threshold_factor=10.0))
        assert hits == [40]

    def test_too_few_lags_rejected(self):
        with pytest.raises(ValueError):
            cfar_detect(np.ones(16), CfarConfig(n_guard=4, n_floor=4, threshold_factor=10.0))

    def test_detection_condition_reassertable(self):
        rng = np.random.default_rng(1)
        p = rng.random(512)
        p[70] = 50.0
        p[300] = 80.0
        cfg = CfarConfig(n_guard=3, n_floor=8, threshold_factor=5.0)
        for lag in cfar_detect(p, cfg):
            floor = self.brute_ring(p, lag, cfg.n_guard + 1, cfg.n_guard + cfg.n_floor)
            guard = self.brute_ring(p, lag, 1, cfg.n_guard)
            assert p[lag] > guard
            assert p[lag] > cfg.threshold_factor * floor

    @staticmethod
    def brute_ring(p, lag, inner, outer):
        n = len(p)
        return max(
            max(p[(lag + d) % n], p[(lag - d) % n]) for d in range(inner, outer + 1)
        )


class TestIsolateCovariance:
    def test_zero_input(self):
        mixed = RxCapture(samples=np.zeros((4, 1024), dtype=complex), sample_rate_hz=FS)
        cov = isolate_covariance(mixed, 0, block(2e12), 3e5, lowpass_n_taps=257)
        assert np.allclose(cov.matrix, 0.0)

    def test_matched_single_path_eigvec_aligns(self):
        theta = 0.45
        beta = 2.5e12
        dt = 6e-6
        cfg = CaptureConfig(sample_rate_hz=FS, n_samples=4096)
        cap = synthesize_rx(
            [(radar(beta, dt=dt), paths(aoa=theta))], 16, cfg
        )
        mixed = mix(cap, block(beta))
        lag = int(round(dt * FS))
        cov = isolate_covariance(mixed, lag, block(beta), 3e5, lowpass_n_taps=1025)
        vals, vecs = np.linalg.eigh(cov.matrix)
        top = vecs[:, -1]
        a = steering_vector(16, theta)
        align = abs(np.vdot(top, a)) / np.linalg.norm(a)
        assert align >= 0.99

    def test_strong_unmatched_interferer_rejected(self):
        theta_m, theta_i = 0.3, -0.7
        beta_m, beta_i = 1.5e12, 4.5e12
        dt = 3e-6
        cfg = CaptureConfig(sample_rate_hz=FS, n_samples=4096)
        cap = synthesize_rx(
            [
                (radar(beta_m, dt=dt), paths(aoa=theta_m)),
                (radar(beta_i, dt=1e-5, power=100.0), paths(aoa=theta_i)),
            ],
            16,
            cfg,
        )
        mixed = mix(cap, block(beta_m))
        lag = int(round(dt * FS))
        cov = isolate_covariance(mixed, lag, block(beta_m), 3e5, lowpass_n_taps=1025)
        ideal = ideal_isolated_covariance(
            paths(aoa=theta_m), 16, cfg
        )
        aps = aps_from_covariance(cov)
        aps_ideal = aps_from_covariance(ideal)
        assert int(np.argmax(aps)) == int(np.argmax(aps_ideal))

    def test_lag_out_of_range(self):
        mixed = RxCapture(samples=np.zeros((2, 1024), dtype=complex), sample_rate_hz=FS)
        with pytest.raises(ValueError):
            isolate_covariance(mixed, 10**9, block(2e12), 3e5, lowpass_n_taps=257)


def grid_bank(n_blocks=51):
    return BankConfig.uniform(1e12, 6e12, BW, n_blocks=n_blocks)


class TestRunBank:
    cfar = CfarConfig(n_guard=54, n_floor=108, threshold_factor=10.0)

    def test_two_radars_detected_in_matching_blocks(self):
        bank = grid_bank()
        rates = bank.rates
        b1, b2 = 5, 30
        cfg = CaptureConfig(sample_rate_hz=FS, n_samples=4096)
        cap = synthesize_rx(
            [
                (radar(rates[b1], dt=4e-6), paths(aoa=0.3)),
                (radar(rates[b2], dt=9e-6), paths(aoa=-0.5)),
            ],
            8,
            cfg,
            noise_power_w=1e-6,
            seed=3,
        )
        detections = run_bank(cap, bank, self.cfar)
        blocks_hit = {d.block_index for d in detections}
        assert any(abs(b - b1) <= 1 for b in blocks_hit)
        assert any(abs(b - b2) <= 1 for b in blocks_hit)
        far = {b for b in blocks_hit if abs(b - b1) > 2 and abs(b - b2) > 2}
        assert far == set()

    def test_zero_capture_no_detections(self):
        cap = RxCapture(samples=np.zeros((4, 4096), dtype=complex), sample_rate_hz=FS)
        assert run_bank(cap, grid_bank(11), self.cfar) == []

    def test_order_invariance(self):
        bank = grid_bank(21)
        rates = bank.rates
        cfg = CaptureConfig(sample_rate_hz=FS, n_samples=4096)
        r1 = (radar(rates[3], dt=2e-6), paths(aoa=0.2))
        r2 = (radar(rates[15], dt=8e-6), paths(aoa=-0.1))
        cap_a = synthesize_rx([r1, r2], 8, cfg)
        cap_b = synthesize_rx([r2, r1], 8, cfg)
        det_a = run_bank(cap_a, bank, self.cfar)
        det_b = run_bank(cap_b, bank, self.cfar)
        assert [(d.block_index, d.lag_index) for d in det_a] == [
            (d.block_index, d.lag_index) for d in det_b
        ]

    def test_determinism(self):
        bank = grid_bank(11)
        cfg = CaptureConfig(sample_rate_hz=FS, n_samples=4096)
        cap = synthesize_rx(
            [(radar(bank.rates[4], dt=5e-6), paths())], 4, cfg, 1e-6, seed=1
        )
        d1 = run_bank(cap, bank, self.cfar)
        d2 = run_bank(cap, bank, self.cfar)
        assert [(d.block_index, d.lag_index, d.peak_power_w) for d in d1] == [
            (d.block_index, d.lag_index, d.peak_power_w) for d in d2
        ]


def bank_oracle(capture, bank, cfar, lowpass_bw_hz, lowpass_n_taps):
    """The serial mix -> full CZT -> CFAR -> isolate loop, one block at a
    time: (block, lag, peak, floor, isolated covariance) per detection.
    With no lowpass the covariance is None."""
    candidates = []
    mixed_cache = {}
    for b_idx, blk in enumerate(bank.blocks):
        mixed = mix(capture, blk)
        p = np.max(np.abs(correlate(mixed, blk)) ** 2, axis=0)
        p_guard = _ring_max(p, 1, cfar.n_guard)
        p_floor = _ring_max(p, cfar.n_guard + 1, cfar.n_guard + cfar.n_floor)
        hits = (p > p_guard) & (p > cfar.threshold_factor * p_floor)
        for lag in np.nonzero(hits)[0]:
            mixed_cache[b_idx] = mixed
            candidates.append((b_idx, int(lag), float(p[lag]), float(p_floor[lag])))
    return [
        (b_idx, lag, peak, floor,
         isolate_covariance(mixed_cache[b_idx], lag, bank.blocks[b_idx], lowpass_bw_hz,
                            lowpass_n_taps=lowpass_n_taps) if lowpass_bw_hz else None)
        for b_idx, lag, peak, floor in _merge_adjacent(candidates, cfar.n_guard)
    ]


def cov_bytes(covs):
    return [cov.matrix.tobytes() for cov in covs]


def multi_radar_capture(n_antennas, seed, bank, n_samples=2048):
    """Three radars on (and between) bank rates, seeded noise."""
    rates = bank.rates
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(rates) - 1, size=3, replace=False)
    radars = [
        (
            radar(rates[b] + rng.uniform(0, 0.3) * (rates[b + 1] - rates[b]),
                  dt=rng.uniform(0, 1e-5), phase=rng.uniform(0, 2 * np.pi),
                  power=rng.uniform(0.5, 2.0)),
            paths(aoa=rng.uniform(-0.8, 0.8)),
        )
        for b in picks
    ]
    cfg = CaptureConfig(sample_rate_hz=FS, n_samples=n_samples)
    return synthesize_rx(radars, n_antennas, cfg, noise_power_w=1e-4, seed=seed)


def czt_power(capture, blk):
    """The full chirp-Z oracle's antenna-max lag power."""
    return np.max(np.abs(correlate(mix(capture, blk), blk)) ** 2, axis=0)


def mac_power(capture, blk):
    """The direct multiply-accumulate oracle's antenna-max lag power."""
    return np.max(np.abs(correlate_oracle(mix(capture, blk), blk)) ** 2, axis=0)


def lag_block(n_lags):
    """A block whose chirp period spans n_lags samples at FS."""
    return MixingBlockConfig(chirp_rate_hz_per_s=1e6 * FS / n_lags, bandwidth_hz=1e6)


def assert_detections_close(got, expected):
    """Equal (block, lag) lists; peaks and floors within POWER_RTOL."""
    assert [d[:2] for d in got] == [d[:2] for d in expected]
    for g, e in zip(got, expected):
        assert g[2:4] == pytest.approx(e[2:4], rel=POWER_RTOL, abs=0.0)


class TestBlockPower:
    @pytest.mark.parametrize("n_antennas", [1, ROW_CHUNK, 6, 7, 2 * ROW_CHUNK + 1])
    @pytest.mark.parametrize("beta", [1e12, 3e12, 6e12])
    def test_matches_full_czt_power(self, n_antennas, beta):
        # 12500 lags at 1e12, 4167 at 3e12 and 2083 at 6e12 against 2048
        # or 4096 samples: the lag grid is longer and shorter than the capture
        bank = grid_bank(11)
        for n_samples in (2048, 4096):
            cap = multi_radar_capture(n_antennas, int(beta / 1e11) + n_samples, bank, n_samples)
            assert_power_close(block_power(cap, block(beta)), czt_power(cap, block(beta)))

    def test_matches_direct_mac_oracle(self):
        rng = np.random.default_rng(5)
        samples = rng.standard_normal((5, 200)) + 1j * rng.standard_normal((5, 200))
        cap = RxCapture(samples=samples, sample_rate_hz=FS)
        blk = MixingBlockConfig(chirp_rate_hz_per_s=5e13, bandwidth_hz=1e6)
        oracle = mac_power(cap, blk)
        assert np.max(np.abs(block_power(cap, blk) - oracle)) <= 1e-9 * np.max(oracle)

    @pytest.mark.parametrize("lags", [
        (400, 300, 256),  # every period covers the 256 samples: one shared FFT
        (255, 200, 130),  # none does: a pre-multiply and an FFT each
        (400, 256, 255, 130),
    ], ids=["long", "short", "mixed"])
    def test_bank_matches_direct_mac_oracle(self, lags):
        rng = np.random.default_rng(len(lags))
        samples = rng.standard_normal((6, 256)) + 1j * rng.standard_normal((6, 256))
        cap = RxCapture(samples=samples, sample_rate_hz=FS)
        bank = BankConfig(blocks=tuple(lag_block(m) for m in lags))
        powers = dict(bank_powers(cap, bank))
        assert sorted(powers) == list(range(len(lags)))
        for b_idx, blk in enumerate(bank.blocks):
            assert_power_close(powers[b_idx], mac_power(cap, blk))

    @pytest.mark.parametrize("n_antennas", [3, ROW_CHUNK + 1])
    def test_boundary_blocks_match_full_czt_power(self, n_antennas):
        # periods of exactly the capture (the shortest long block) and one
        # sample less (the longest short block), beside a longer block
        bank = BankConfig(blocks=(lag_block(5000), lag_block(4096), lag_block(4095)))
        assert [b.n_lags(FS) for b in bank.blocks] == [5000, 4096, 4095]
        cap = multi_radar_capture(n_antennas, 40 + n_antennas, grid_bank(11), 4096)
        powers = dict(bank_powers(cap, bank))
        for b_idx, blk in enumerate(bank.blocks):
            assert_power_close(powers[b_idx], czt_power(cap, blk))

    def test_unrepresentable_period_rejected(self):
        cap = RxCapture(samples=np.ones((2, 64), dtype=complex), sample_rate_hz=FS)
        with pytest.raises(ValueError, match="not representable"):
            block_power(cap, MixingBlockConfig(chirp_rate_hz_per_s=1e14, bandwidth_hz=1e6))


class TestRunBankMatchesSerialOracle:
    cfar = CfarConfig(n_guard=54, n_floor=108, threshold_factor=10.0)

    # every row of a capture no wider than the detection subarray is read
    @pytest.mark.parametrize(
        "n_antennas,seed", [(6, 11), (7, 12), (8, 13), (3, 14), (DETECTION_ROWS, 15)]
    )
    def test_matches_serial_loop(self, n_antennas, seed):
        bank = grid_bank(21)
        cap = multi_radar_capture(n_antennas, seed, bank)
        expected = bank_oracle(cap, bank, self.cfar, 3e5, 257)
        got = run_bank(cap, bank, self.cfar)
        assert len(expected) >= 2
        assert_detections_close(got, expected)
        # isolation reads only (block, lag): its bytes do not move
        assert cov_bytes(isolate_detections(cap, bank, got, 3e5, 257)) == cov_bytes(
            cov for *_, cov in expected
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_default_scene_detections_match_serial_loop(self, seed):
        sim = SimConfig()
        bank, cfar = sim.scene.bank(), sim.radar_rx.cfar()
        cap = scene_capture(sim, make_scene(sim.scene, seed), seed)
        expected = bank_oracle(detection_rows(cap), bank, cfar, None, None)
        assert expected
        assert_detections_close(run_bank(cap, bank, cfar), expected)

    def test_thread_count_does_not_change_output(self, bank_threads):
        bank = grid_bank(21)
        cap = multi_radar_capture(7, 21, bank)
        runs = []
        for n in (1, 2, 5):
            bank_threads(n)
            detections = run_bank(cap, bank, self.cfar)
            covs = isolate_detections(cap, bank, detections, 3e5, 257)
            runs.append((detections, cov_bytes(covs)))
        assert runs[0][0]
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_unrepresentable_block_raises_in_caller(self):
        bank = BankConfig(
            blocks=(block(2e12), MixingBlockConfig(chirp_rate_hz_per_s=1e14, bandwidth_hz=1e6))
        )
        cap = RxCapture(samples=np.ones((2, 4096), dtype=complex), sample_rate_hz=FS)
        with pytest.raises(ValueError, match="not representable"):
            run_bank(cap, bank, self.cfar)


class TestDetectionRows:
    cfar = CfarConfig(n_guard=54, n_floor=108, threshold_factor=10.0)

    def test_rows_past_the_subarray_leave_detections_unchanged(self):
        bank = grid_bank(21)
        cap = multi_radar_capture(DETECTION_ROWS + 4, 11, bank)
        detections = run_bank(cap, bank, self.cfar)
        assert detections
        rng = np.random.default_rng(0)
        samples = cap.samples.copy()
        tail = samples[DETECTION_ROWS:]
        tail[:] = 100.0 * (rng.standard_normal(tail.shape) + 1j * rng.standard_normal(tail.shape))
        changed = RxCapture(samples=samples, sample_rate_hz=FS)
        assert run_bank(changed, bank, self.cfar) == detections
        head = RxCapture(samples=cap.samples[:DETECTION_ROWS], sample_rate_hz=FS)
        assert run_bank(head, bank, self.cfar) == detections

    def test_subarray_is_a_view_of_the_first_rows(self):
        cap = multi_radar_capture(DETECTION_ROWS + 4, 3, grid_bank(11))
        rows = detection_rows(cap)
        assert rows.samples.shape == (DETECTION_ROWS, cap.n_samples)
        assert rows.sample_rate_hz == cap.sample_rate_hz
        assert np.shares_memory(rows.samples, cap.samples)
        assert np.array_equal(rows.samples, cap.samples[:DETECTION_ROWS])

    @pytest.mark.parametrize("row,detected", [(DETECTION_ROWS - 1, True), (DETECTION_ROWS, False)])
    def test_one_radar_on_one_row(self, row, detected):
        # the radar is on one row of an otherwise silent array
        bank = grid_bank(11)
        cfg = CaptureConfig(sample_rate_hz=FS, n_samples=2048)
        one = synthesize_rx([(radar(bank.rates[4], dt=5e-6), paths())], 1, cfg)
        samples = np.zeros((DETECTION_ROWS + 4, cfg.n_samples), dtype=complex)
        samples[row] = one.samples[0]
        cap = RxCapture(samples=samples, sample_rate_hz=FS)
        assert bool(run_bank(cap, bank, self.cfar)) == detected


class TestIsolateDetections:
    cfar = CfarConfig(n_guard=54, n_floor=108, threshold_factor=10.0)

    def test_any_order_any_subset_one_mix_per_block(self, monkeypatch):
        """Each detection's covariance is the one isolate_covariance gives
        from its own block's mixed capture, in the order asked, and each
        block is mixed once however its detections are ordered."""
        import radarlink.detection as detection

        bank = grid_bank(21)
        cap = multi_radar_capture(6, 11, bank)
        detections = run_bank(cap, bank, self.cfar)
        assert len({d.block_index for d in detections}) >= 2
        mixed = []
        monkeypatch.setattr(detection, "mix", lambda *a: mixed.append(a[1]) or mix(*a))
        for asked in (detections[::-1], detections[1:], detections + detections[:1]):
            mixed.clear()
            got = isolate_detections(cap, bank, asked, 3e5, 257)
            assert cov_bytes(got) == cov_bytes(
                isolate_covariance(mix(cap, bank.blocks[d.block_index]), d.lag_index,
                                   bank.blocks[d.block_index], 3e5, 257)
                for d in asked
            )
            assert sorted(b.chirp_rate_hz_per_s for b in mixed) == sorted(
                {bank.rates[d.block_index] for d in asked}
            )


def dump_oracle(path, bank, powers, header_lines):
    """The serial detect-demo dump of the given block powers: one row at a time."""
    with open(path, "w", newline="") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        writer = csv.writer(f)
        writer.writerow(["block_index", "chirp_rate_hz_per_s", "lag", "power_db"])
        for b_idx, blk in enumerate(bank.blocks):
            p_db = 10.0 * np.log10(np.maximum(powers[b_idx], 1e-300))
            for lag in range(len(p_db)):
                writer.writerow(
                    [b_idx, f"{blk.chirp_rate_hz_per_s:.6e}", lag, f"{p_db[lag]:.4f}"]
                )


class TestDumpCorrelatorCsv:
    @pytest.mark.parametrize("threads", [1, 2])
    def test_writes_the_powers_run_bank_reads(self, bank_threads, monkeypatch, tmp_path, threads):
        self.check_dump(5, bank_threads, monkeypatch, tmp_path, threads)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_wider_array_writes_the_detection_rows(
        self, bank_threads, monkeypatch, tmp_path, threads
    ):
        self.check_dump(DETECTION_ROWS + 4, bank_threads, monkeypatch, tmp_path, threads)

    @staticmethod
    def check_dump(n_antennas, bank_threads, monkeypatch, tmp_path, threads):
        import radarlink.detection as detection

        bank = grid_bank(11)
        cap = multi_radar_capture(n_antennas, 7, bank)
        bank_threads(threads)
        read = {}

        def recorded(capture, bank):
            assert capture.n_antennas == min(n_antennas, DETECTION_ROWS)
            for b_idx, p in bank_powers(capture, bank):
                read[b_idx] = p.copy()
                yield b_idx, p

        monkeypatch.setattr(detection, "bank_powers", recorded)
        assert run_bank(cap, bank, CfarConfig(n_guard=54, n_floor=108, threshold_factor=10.0))
        dump_oracle(tmp_path / "oracle.csv", bank, read, ["k = v"])
        dump_correlator_csv(tmp_path / "got.csv", cap, bank, header_lines=["k = v"])
        monkeypatch.undo()
        expected = (tmp_path / "oracle.csv").read_bytes()
        assert expected.count(b"\n") == 2 + sum(b.n_lags(FS) for b in bank.blocks)
        assert (tmp_path / "got.csv").read_bytes() == expected
