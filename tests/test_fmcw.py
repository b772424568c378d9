"""Tests for FMCW synthesis and the ideal isolated-covariance oracle."""

import numpy as np
import pytest

from radarlink.channel import steering_vector
from radarlink.fmcw import (
    CaptureConfig,
    FmcwParams,
    RadarPath,
    RadarPathSet,
    fmcw_sample,
    synthesize_rx,
)

from radarlink.numerics import ROW_CHUNK

from oracles import ideal_isolated_covariance, synthesize_paths


def params(beta=1e12, bandwidth=100e6, **kw):
    return FmcwParams(chirp_rate_hz_per_s=beta, bandwidth_hz=bandwidth, **kw)


def one_path(gain=1.0, delay=0.0, aoa=0.0):
    return RadarPathSet(paths=(RadarPath(gain=gain, delay_s=delay, aoa_rad=aoa),))


def three_radars():
    """Three radars with two random paths each, and one path of zero gain."""
    rng = np.random.default_rng(9)
    out = []
    for beta in (1e12, 3e12, 5e12):
        p = params(beta=beta, time_offset_s=rng.uniform(0, 1.5e-5),
                   phase_offset_rad=rng.uniform(0, 2 * np.pi), power_w=rng.uniform(0.5, 2))
        paths = tuple(
            RadarPath(gain=complex(*rng.standard_normal(2)), delay_s=rng.uniform(0, 1e-6),
                      aoa_rad=rng.uniform(-1, 1))
            for _ in range(2)
        )
        out.append((p, RadarPathSet(paths=paths)))
    out.append((params(), one_path(gain=0.0)))
    return out


class TestFmcwSample:
    def test_chirp_start_phase(self):
        p = params(time_offset_s=1.7e-5)
        assert fmcw_sample(p, 1.7e-5) == pytest.approx(1.0)

    def test_periodicity(self):
        p = params(time_offset_s=3e-6)
        t = np.array([1e-6, 5.5e-6, 9.1e-5])
        assert np.allclose(fmcw_sample(p, t), fmcw_sample(p, t + p.chirp_period_s))

    def test_chirp_period(self):
        p = FmcwParams(chirp_rate_hz_per_s=1e13, bandwidth_hz=1e9)
        assert p.chirp_period_s == pytest.approx(100e-6)

    def test_power_scaling(self):
        p = params(power_w=4.0)
        assert np.allclose(np.abs(fmcw_sample(p, np.linspace(0, 1e-5, 50))), 2.0)

    def test_rejects_bad_offset(self):
        with pytest.raises(ValueError):
            FmcwParams(chirp_rate_hz_per_s=1e12, bandwidth_hz=1e8, time_offset_s=2e-4)


class TestSynthesizeRx:
    capture = CaptureConfig(sample_rate_hz=125e6, n_samples=2048)

    def test_broadside_rows_identical(self):
        cap = synthesize_rx(
            [(params(), one_path())], 8, self.capture, noise_power_w=0.0
        )
        for n in range(1, 8):
            assert np.allclose(cap.samples[n], cap.samples[0])

    def test_noise_only_power(self):
        big = CaptureConfig(sample_rate_hz=125e6, n_samples=130_000)
        cap = synthesize_rx(
            [(params(), one_path(gain=0.0))],
            2,
            big,
            noise_power_w=0.5,
            seed=11,
        )
        measured = float(np.mean(np.abs(cap.samples) ** 2))
        assert measured == pytest.approx(0.5, rel=0.05)

    def test_two_radar_power_superposition(self):
        long_cap = CaptureConfig(sample_rate_hz=125e6, n_samples=65536)
        r1 = (params(beta=1e12, time_offset_s=2e-5), one_path())
        r2 = (params(beta=3e12, time_offset_s=1e-5), one_path(aoa=0.4))
        p1 = np.mean(np.abs(synthesize_rx([r1], 4, long_cap).samples) ** 2)
        p2 = np.mean(np.abs(synthesize_rx([r2], 4, long_cap).samples) ** 2)
        p12 = np.mean(np.abs(synthesize_rx([r1, r2], 4, long_cap).samples) ** 2)
        assert p12 == pytest.approx(p1 + p2, rel=0.01)

    def test_linear_in_gains(self):
        path_a = one_path(gain=0.7 + 0.2j, delay=1e-7, aoa=0.3)
        path_b = one_path(gain=-0.1 + 0.9j, delay=3e-7, aoa=-0.5)
        both = RadarPathSet(paths=path_a.paths + path_b.paths)
        ya = synthesize_rx([(params(), path_a)], 4, self.capture).samples
        yb = synthesize_rx([(params(), path_b)], 4, self.capture).samples
        yab = synthesize_rx([(params(), both)], 4, self.capture).samples
        assert np.max(np.abs(yab - (ya + yb))) <= 1e-10 * np.max(np.abs(yab))

    def test_seed_reproducibility(self):
        a = synthesize_rx([(params(), one_path())], 4, self.capture, 1e-3, seed=5)
        b = synthesize_rx([(params(), one_path())], 4, self.capture, 1e-3, seed=5)
        assert np.array_equal(a.samples, b.samples)
        c = synthesize_rx([(params(), one_path())], 4, self.capture, 1e-3, seed=6)
        assert not np.array_equal(a.samples, c.samples)

    def test_steering_convention_matches_array_response(self):
        # narrowband check: the per-antenna phase of a synthesized single
        # path matches steering_vector's sign convention
        theta = 0.6
        cap = synthesize_rx(
            [(params(), one_path(aoa=theta))], 8, self.capture
        )
        a = steering_vector(8, theta)
        ratio = cap.samples[:, 100] / cap.samples[0, 100]
        assert np.allclose(np.angle(ratio / a), 0.0, atol=0.02)

    def test_empty_radar_list_rejected(self):
        with pytest.raises(ValueError):
            synthesize_rx([], 4, self.capture)

    @pytest.mark.parametrize("n", [1, ROW_CHUNK, 2 * ROW_CHUNK + 1, 16])
    def test_bytes_equal_whole_array_sum(self, n):
        cap = synthesize_rx(three_radars(), n, self.capture)
        assert cap.samples.tobytes() == synthesize_paths(three_radars(), n, self.capture).tobytes()

    def test_thread_count_does_not_change_bytes(self, bank_threads):
        runs = []
        for threads in (1, 2, 5):
            bank_threads(threads)
            cap = synthesize_rx(three_radars(), 2 * ROW_CHUNK + 3, self.capture, 1e-3, seed=4)
            runs.append(cap.samples.tobytes())
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]


class TestIdealIsolatedCovariance:
    capture = CaptureConfig(sample_rate_hz=125e6, n_samples=4096)

    def test_single_path_broadside(self):
        cov = ideal_isolated_covariance(one_path(), 4, self.capture)
        expected = np.ones((4, 4)) / 4096
        assert np.allclose(cov.matrix, expected)

    def test_single_path_rank_one(self):
        theta = -0.8
        cov = ideal_isolated_covariance(one_path(aoa=theta), 8, self.capture)
        a = steering_vector(8, theta)
        outer = np.outer(a, a.conj())
        scale = cov.matrix[0, 0] / outer[0, 0]
        assert scale.real > 0
        assert np.allclose(cov.matrix, scale * outer, atol=1e-15)

    def test_two_resolvable_paths_rank_two(self):
        paths = RadarPathSet(
            paths=(
                RadarPath(gain=1.0, delay_s=0.0, aoa_rad=0.2),
                RadarPath(gain=1.0, delay_s=5e-7, aoa_rad=-0.4),
            )
        )
        cov = ideal_isolated_covariance(paths, 8, self.capture)
        vals = np.sort(np.abs(np.linalg.eigvalsh(cov.matrix)))[::-1]
        assert vals[1] > 1e-9 * vals[0]
        assert np.all(vals[2:] <= 1e-9 * vals[0])

    def test_same_bin_paths_combine_coherently(self):
        paths = RadarPathSet(
            paths=(
                RadarPath(gain=1.0, delay_s=0.0, aoa_rad=0.0),
                RadarPath(gain=-1.0, delay_s=1e-10, aoa_rad=0.0),
            )
        )
        cov = ideal_isolated_covariance(paths, 4, self.capture)
        assert np.allclose(cov.matrix, 0.0)
