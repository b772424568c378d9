"""Tests for the geometric wideband channel and communication covariance."""

import numpy as np
import pytest

from radarlink.beamtraining import beam_taps, build_codebook, pair_scores
from radarlink.channel import (
    PathCluster,
    Ray,
    WidebandChannel,
    channel_taps,
    comm_covariance,
    steering_vector,
)
from radarlink.config import SimConfig
from radarlink.scenario import comm_channel, make_scene

from oracles import (
    channel_freq,
    channel_freq_all,
    dense_beam_taps,
    dense_channel_taps,
    dense_comm_covariance,
)


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
        assert ch.delays.tolist() == [0]
        assert np.allclose(ch.taps[0], np.ones((3, 5)))

    def test_fractional_delay_lands_in_one_tap(self):
        rx, tx = 2, 2
        t_c = 1e-9
        ch = channel_taps(
            [single_ray_cluster(delay=2.5 * t_c)], (rx, tx), d_taps=6, tap_interval_s=t_c
        )
        # p(dT - tau) = 1 needs dT - tau in [0, T): d = 3 for tau = 2.5T
        assert ch.delays.tolist() == [3]
        assert np.any(ch.taps[0])

    def test_tap_boundary_delay(self):
        # delay exactly on a tap edge: d*T - tau = 0 selects that tap
        rx, tx = 2, 2
        t_c = 1e-9
        ch = channel_taps(
            [single_ray_cluster(delay=2.0 * t_c)], (rx, tx), d_taps=6, tap_interval_s=t_c
        )
        assert ch.delays.tolist() == [2]
        assert np.any(ch.taps[0])

    def test_opposite_phase_rays_cancel(self):
        cluster = PathCluster(
            mean_delay_s=0.0,
            mean_aoa_rad=0.3,
            mean_aod_rad=-0.2,
            rays=(Ray(gain=1.0), Ray(gain=-1.0)),
        )
        ch = channel_taps([cluster], (4, 4), 3, 1e-9)
        # the tap stays occupied, holding the exact zeros its rays sum to
        assert ch.delays.tolist() == [0]
        np.testing.assert_array_equal(ch.taps, np.zeros((1, 4, 4)))

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
        taps = rng.standard_normal((1, 3, 3)) + 1j * rng.standard_normal((1, 3, 3))
        ch = WidebandChannel(delays=[1], taps=taps)
        norms = [np.linalg.norm(channel_freq(ch, k, 8)) for k in range(8)]
        assert np.allclose(norms, norms[0])

    def test_matches_direct_dft_oracle(self):
        rng = np.random.default_rng(2)
        taps = rng.standard_normal((2, 3, 4)) + 1j * rng.standard_normal((2, 3, 4))
        ch = WidebandChannel(delays=[0, 1], taps=taps)
        k_total = 8
        for k in range(k_total):
            oracle = sum(
                taps[d] * np.exp(-2j * np.pi * k * d / k_total) for d in range(2)
            )
            assert np.max(np.abs(channel_freq(ch, k, k_total) - oracle)) <= 1e-12

    def test_all_subcarriers_matches_loop(self):
        rng = np.random.default_rng(3)
        taps = rng.standard_normal((3, 2, 2)) + 1j * rng.standard_normal((3, 2, 2))
        ch = WidebandChannel(delays=[0, 2, 15], taps=taps)
        h_all = channel_freq_all(ch, 16)
        for k in range(16):
            assert np.allclose(h_all[k], channel_freq(ch, k, 16), atol=1e-12)

    def test_dft_round_trip(self):
        rng = np.random.default_rng(4)
        taps = rng.standard_normal((4, 2, 3)) + 1j * rng.standard_normal((4, 2, 3))
        ch = WidebandChannel(delays=[0, 1, 2, 3], taps=taps)
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
        ch = WidebandChannel(delays=[0, 1], taps=np.zeros((2, 3, 3), dtype=complex))
        cov = comm_covariance(ch, 8)
        assert np.allclose(cov.matrix, 0.0)

    def test_matches_subcarrier_sum_oracle(self):
        clusters = random_clusters(np.random.default_rng(5))
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


def random_clusters(rng, n_clusters=3, n_rays=3):
    return [
        PathCluster(
            mean_delay_s=float(rng.uniform(0, 2e-8)),
            mean_aoa_rad=float(rng.uniform(-1, 1)),
            mean_aod_rad=float(rng.uniform(-1, 1)),
            rays=tuple(
                Ray(
                    gain=complex(rng.standard_normal(), rng.standard_normal()),
                    rel_delay_s=float(rng.uniform(0, 3e-9)),
                    rel_aoa_rad=float(rng.uniform(-0.05, 0.05)),
                    rel_aod_rad=float(rng.uniform(-0.05, 0.05)),
                )
                for _ in range(n_rays)
            ),
        )
        for _ in range(n_clusters)
    ]


class TestOccupiedTaps:
    """A channel holds only the taps its rays occupy.  The dense
    accumulation it replaced, with the occupancy scans its consumers made,
    is the bit-for-bit reference."""

    @staticmethod
    def assert_matches_dense(ch, clusters, arrays, d_taps, tap_interval_s, k_total):
        dense = dense_channel_taps(clusters, arrays, d_taps, tap_interval_s)
        assert ch.taps.tobytes() == dense[ch.delays].tobytes()
        assert not np.any(np.delete(dense, ch.delays, axis=0))
        cb_rsu, cb_ue = build_codebook(arrays[1]), build_codebook(arrays[0])
        phases, b = beam_taps(ch, cb_rsu, cb_ue, k_total)
        phases_dense, b_dense = dense_beam_taps(dense, cb_rsu, cb_ue, k_total)
        assert phases.tobytes() == phases_dense.tobytes()
        assert b.tobytes() == b_dense.tobytes()
        cov = comm_covariance(ch, k_total).matrix
        assert cov.tobytes() == dense_comm_covariance(dense).matrix.tobytes()

    @pytest.mark.parametrize("seed,arrays", [(0, (4, 6)), (1, (2, 8)), (2, (5, 3)), (3, (8, 16))])
    def test_random_clusters_match_the_dense_accumulation(self, seed, arrays):
        rng = np.random.default_rng(seed)
        clusters = random_clusters(rng, n_clusters=int(rng.integers(1, 6)))
        ch = channel_taps(clusters, arrays, 32, 1e-9)
        assert 1 <= ch.delays.size <= sum(len(c.rays) for c in clusters)
        self.assert_matches_dense(ch, clusters, arrays, 32, 1e-9, 64)

    def test_default_scene_users_match_the_dense_accumulation(self):
        link = SimConfig().link
        arrays = (link.n_ue, link.n_rsu)
        for seed in range(40):
            for active in make_scene(SimConfig().scene, seed):
                ch = comm_channel(link, active)
                self.assert_matches_dense(
                    ch, list(active.comm_clusters), arrays, link.n_taps,
                    link.tap_interval_s, link.k_subcarriers,
                )

    @pytest.mark.parametrize("k_total", [5, 8])
    def test_consumers_reject_a_delay_beyond_the_band(self, k_total):
        ch = WidebandChannel(delays=[0, 8], taps=np.ones((2, 2, 2)))
        cb = build_codebook(2)
        with pytest.raises(ValueError) as by_covariance:
            comm_covariance(ch, k_total)
        with pytest.raises(ValueError) as by_beams:
            beam_taps(ch, cb, cb, k_total)
        message = f"tap delay 8 does not fit in {k_total} subcarriers"
        assert str(by_covariance.value) == str(by_beams.value) == message

    def test_last_lag_of_the_band_fits(self):
        ch = WidebandChannel(delays=[0, 7], taps=np.ones((2, 2, 2)))
        cb = build_codebook(2)
        assert comm_covariance(ch, 8).trace > 0
        assert beam_taps(ch, cb, cb, 8)[0].shape == (8, 2)

    def test_no_clusters_is_an_empty_channel(self):
        ch = channel_taps([], (4, 8), 16, 1e-9)
        assert ch.delays.shape == (0,)
        assert ch.taps.shape == (0, 4, 8)
        np.testing.assert_array_equal(comm_covariance(ch, 16).matrix, np.zeros((8, 8)))
        _, b = beam_taps(ch, build_codebook(8), build_codebook(4), 16)
        np.testing.assert_array_equal(pair_scores(b), np.zeros((4, 8)))

    @pytest.mark.parametrize(
        "delays", [[-1, 2], [3, 1], [2, 2]], ids=["negative", "unsorted", "repeated"]
    )
    def test_rejects_delays_that_are_not_increasing_lags(self, delays):
        with pytest.raises(ValueError, match="non-negative and strictly increasing"):
            WidebandChannel(delays=delays, taps=np.ones((2, 2, 2)))

    def test_rejects_one_tap_matrix_per_delay_mismatch(self):
        with pytest.raises(ValueError, match=r"taps must be \(3, N_rx, N_tx\)"):
            WidebandChannel(delays=[0, 1, 2], taps=np.ones((2, 2, 2)))

    def test_ray_before_the_first_tap_is_rejected(self):
        # a negative lag is an error, not an index from the end of the span
        cluster = PathCluster(0.0, 0.1, 0.2, rays=(Ray(gain=1.0, rel_delay_s=-2e-9),))
        with pytest.raises(ValueError, match="non-negative"):
            channel_taps([cluster], (2, 2), 8, 1e-9)
