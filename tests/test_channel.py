"""Tests for the geometric wideband channel and communication covariance."""

import numpy as np
import pytest

from radarlink.channel import (
    PathCluster,
    Ray,
    WidebandChannel,
    channel_taps,
    comm_covariance,
    steering_vector,
)

from oracles import channel_freq, channel_freq_all


def single_ray_cluster(gain=1.0, delay=0.0, aoa=0.0, aod=0.0):
    return PathCluster(
        mean_delay_s=delay,
        mean_aoa_rad=aoa,
        mean_aod_rad=aod,
        rays=(Ray(gain=gain),),
    )


class TestSteeringVector:
    def test_broadside_all_ones(self):
        a = steering_vector(8, 0.0)
        assert np.allclose(a, np.ones(8))

    def test_endfire_alternating(self):
        a = steering_vector(4, np.pi / 2)
        assert np.allclose(a, [1, -1, 1, -1], atol=1e-12)

    def test_thirty_degrees_quarter_turns(self):
        a = steering_vector(4, np.pi / 6)
        assert np.allclose(a, [1, 1j, -1, -1j], atol=1e-12)

    def test_norm_exact(self):
        for n in (1, 5, 64):
            a = steering_vector(n, 0.7)
            assert np.vdot(a, a).real == pytest.approx(n)


class TestChannelTaps:
    def test_single_los_ray(self):
        rx, tx = 3, 5
        ch = channel_taps([single_ray_cluster()], (rx, tx), d_taps=4, tap_interval_s=1e-9)
        assert np.allclose(ch.taps[0], np.ones((3, 5)))
        assert np.allclose(ch.taps[1:], 0.0)

    def test_fractional_delay_lands_in_one_tap(self):
        rx, tx = 2, 2
        t_c = 1e-9
        ch = channel_taps(
            [single_ray_cluster(delay=2.5 * t_c)], (rx, tx), d_taps=6, tap_interval_s=t_c
        )
        nonzero = [d for d in range(6) if np.any(ch.taps[d])]
        # p(dT - tau) = 1 needs dT - tau in [0, T): d = 3 for tau = 2.5T
        assert nonzero == [3]

    def test_tap_boundary_delay(self):
        # delay exactly on a tap edge: d*T - tau = 0 selects that tap
        rx, tx = 2, 2
        t_c = 1e-9
        ch = channel_taps(
            [single_ray_cluster(delay=2.0 * t_c)], (rx, tx), d_taps=6, tap_interval_s=t_c
        )
        nonzero = [d for d in range(6) if np.any(ch.taps[d])]
        assert nonzero == [2]

    def test_opposite_phase_rays_cancel(self):
        cluster = PathCluster(
            mean_delay_s=0.0,
            mean_aoa_rad=0.3,
            mean_aod_rad=-0.2,
            rays=(Ray(gain=1.0), Ray(gain=-1.0)),
        )
        ch = channel_taps([cluster], (4, 4), 3, 1e-9)
        assert np.allclose(ch.taps, 0.0)

    def test_delay_beyond_span_raises(self):
        with pytest.raises(ValueError, match="cluster 0"):
            channel_taps(
                [single_ray_cluster(delay=5e-9)],
                (2, 2),
                d_taps=4,
                tap_interval_s=1e-9,
            )


class TestChannelFreq:
    def test_flat_for_single_tap(self):
        ch = channel_taps([single_ray_cluster(aoa=0.4)], (2, 3), 1, 1e-9)
        h0 = channel_freq(ch, 0, 16)
        for k in range(1, 16):
            assert np.allclose(channel_freq(ch, k, 16), h0)

    def test_delayed_tap_constant_magnitude(self):
        rng = np.random.default_rng(1)
        taps = np.zeros((2, 3, 3), dtype=complex)
        taps[1] = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        ch = WidebandChannel(taps=taps)
        norms = [np.linalg.norm(channel_freq(ch, k, 8)) for k in range(8)]
        assert np.allclose(norms, norms[0])

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(2)
        taps = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        ch = WidebandChannel(taps=taps)
        k_total = 8
        for k in range(k_total):
            oracle = sum(
                taps[d] * np.exp(-2j * np.pi * k * d / k_total) for d in range(2)
            )
            assert np.max(np.abs(channel_freq(ch, k, k_total) - oracle)) <= 1e-12

    def test_all_subcarriers_matches_loop(self):
        rng = np.random.default_rng(3)
        taps = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        ch = WidebandChannel(taps=taps)
        h_all = channel_freq_all(ch, 16)
        for k in range(16):
            assert np.allclose(h_all[k], channel_freq(ch, k, 16), atol=1e-12)

    def test_dft_round_trip(self):
        rng = np.random.default_rng(4)
        taps = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
        ch = WidebandChannel(taps=taps)
        k_total = 8
        h_all = channel_freq_all(ch, k_total)
        recovered = np.fft.ifft(h_all, axis=0)[:4]
        assert np.max(np.abs(recovered - taps)) <= 1e-10


class TestCommCovariance:
    def test_rank_one_los(self):
        theta = 0.5
        ch = channel_taps(
            [single_ray_cluster(aoa=0.2, aod=theta)], (4, 8), 2, 1e-9
        )
        cov = comm_covariance(ch, 16)
        vals = np.linalg.eigvalsh(cov.matrix)
        assert vals[-1] > 1e-6
        assert np.all(np.abs(vals[:-1]) <= 1e-10 * vals[-1])
        a = steering_vector(8, theta)
        # dominant eigenvector parallel to the transmit steering vector
        top = np.linalg.eigh(cov.matrix)[1][:, -1]
        assert abs(np.vdot(top, a / np.linalg.norm(a))) == pytest.approx(1.0, abs=1e-9)

    def test_zero_channel(self):
        ch = WidebandChannel(taps=np.zeros((2, 3, 3), dtype=complex))
        cov = comm_covariance(ch, 8)
        assert np.allclose(cov.matrix, 0.0)

    def test_matches_subcarrier_sum_oracle(self):
        rng = np.random.default_rng(5)
        clusters = []
        for _ in range(3):
            rays = tuple(
                Ray(
                    gain=complex(rng.standard_normal(), rng.standard_normal()),
                    rel_delay_s=float(rng.uniform(0, 3e-9)),
                    rel_aoa_rad=float(rng.uniform(-0.05, 0.05)),
                    rel_aod_rad=float(rng.uniform(-0.05, 0.05)),
                )
                for _ in range(3)
            )
            clusters.append(
                PathCluster(
                    mean_delay_s=float(rng.uniform(0, 2e-8)),
                    mean_aoa_rad=float(rng.uniform(-1, 1)),
                    mean_aod_rad=float(rng.uniform(-1, 1)),
                    rays=rays,
                )
            )
        arrays = (4, 6)
        k_total = 64
        ch = channel_taps(clusters, arrays, 32, 1e-9)
        cov = comm_covariance(ch, k_total)
        n_v = 4
        oracle = np.zeros((6, 6), dtype=complex)
        for k in range(k_total):
            h = channel_freq(ch, k, k_total)
            oracle += h.conj().T @ h
        oracle /= k_total * n_v
        assert np.max(np.abs(cov.matrix - oracle)) <= 1e-10 * max(np.abs(oracle).max(), 1)

    def test_always_psd_hermitian(self):
        rng = np.random.default_rng(6)
        for trial in range(3):
            clusters = [
                PathCluster(
                    mean_delay_s=float(rng.uniform(0, 1e-8)),
                    mean_aoa_rad=float(rng.uniform(-1, 1)),
                    mean_aod_rad=float(rng.uniform(-1, 1)),
                    rays=(Ray(gain=complex(rng.standard_normal(), rng.standard_normal())),),
                )
                for _ in range(2)
            ]
            cov = comm_covariance(channel_taps(clusters, (3, 5), 16, 1e-9), 32)
            assert np.linalg.eigvalsh(cov.matrix).min() >= -1e-8 * cov.trace
            assert cov.trace >= 0
