"""Tests for codebooks, search spaces, selection, SINR, and overhead math."""

import numpy as np
import pytest

from radarlink.beamtraining import (
    assisted_search_space,
    beam_select,
    beam_taps,
    build_codebook,
    dbm_to_w,
    effective_rate,
    noise_power_w,
    outage,
    pair_scores,
    sinr,
    spectral_efficiency,
    ss_blocks,
    symbol_duration,
    training_time,
)
from radarlink.channel import (
    PathCluster,
    Ray,
    WidebandChannel,
    channel_taps,
    steering_vector,
)
from radarlink.covfeatures import reconstruct_toeplitz
from radarlink.numerics import dft_matrix

from oracles import channel_freq_all, gain_table


class TestBuildCodebook:
    def test_two_beam_angles(self):
        cb = build_codebook(2)  # both beams' phases lie on the 2-bit grid
        a_plus = steering_vector(2, np.arcsin(0.5)) / np.sqrt(2)
        a_minus = steering_vector(2, np.arcsin(-0.5)) / np.sqrt(2)
        assert np.max(np.abs(cb[0] - a_minus)) <= 0.02
        assert np.max(np.abs(cb[1] - a_plus)) <= 0.02

    def test_unit_norm_exact(self):
        cb = build_codebook(64)
        norms = np.linalg.norm(cb, axis=1)
        assert np.max(np.abs(norms - 1.0)) == 0.0

    def test_two_bit_phases(self):
        cb = build_codebook(16)
        phases = np.angle(cb * np.sqrt(16))
        quarter = np.round(phases / (np.pi / 2))
        assert np.max(np.abs(phases - quarter * np.pi / 2)) <= 1e-12

    def test_broadside_beam_has_top_gain_at_zero(self):
        cb = build_codebook(64)
        a0 = steering_vector(64, 0.0)
        gains = np.abs(cb.conj() @ a0)
        best = int(np.argmax(gains))
        # beams 31/32 (0-based) are nearest broadside
        angles = np.arcsin((2 * np.arange(1, 65) - 65) / 64)
        assert best == int(np.argmin(np.abs(angles)))

    def test_built_once_per_size_and_read_only(self):
        cb = build_codebook(16)
        assert build_codebook(16) is cb
        assert build_codebook(8) is not cb
        assert not cb.flags.writeable
        with pytest.raises(ValueError):
            cb[0, 0] = 0.0


class TestProtocolConfig:
    def test_table_block_counts(self):
        assert ss_blocks("exhaustive", 16, 64) == 256
        assert ss_blocks("narrow", 16, 64) == 16
        assert ss_blocks("wide", 16, 64) == 48

    def test_symbol_duration(self):
        t_sym = symbol_duration(2048, 240e3, 511)
        assert t_sym == pytest.approx(5.2059e-6, rel=1e-3)


class TestTrainingTime:
    def test_exhaustive_exceeds_coherence_floor(self):
        t_sym = symbol_duration(2048, 240e3, 511)
        t = training_time("exhaustive", 16, 64, t_sym, n_tracked_users=3)
        assert t > 5e-3
        # dominated by 256 blocks x 4 symbols
        assert t == pytest.approx(t_sym * (1024 + 0.25 * 12), rel=1e-12)

    def test_exhaustive_time_at_32_rsu_beams(self):
        # 32 RSU beams x 16 UE beams, 4 beams per 4-symbol SS block
        t_sym = symbol_duration(2048, 240e3, 511)
        t = training_time("exhaustive", 16, 32, t_sym, n_tracked_users=3)
        assert t == pytest.approx(t_sym * (32 * 16 // 4 * 4 + 0.25 * 12), rel=1e-12)

    def test_narrow_time(self):
        t = training_time("narrow", 16, 64, 5.2e-6, n_tracked_users=0)
        assert t == pytest.approx(16 * 4 * 5.2e-6)

    def test_variant_ratios(self):
        t_sym = 5.2e-6
        tn = training_time("narrow", 16, 64, t_sym, 0)
        tw = training_time("wide", 16, 64, t_sym, 0)
        te = training_time("exhaustive", 16, 64, t_sym, 0)
        assert tw / tn == pytest.approx(3.0)
        assert te / tn == pytest.approx(16.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            training_time("medium", 16, 64, 5.2e-6, 3)


class TestEffectiveRate:
    def test_no_overhead(self):
        assert effective_rate(100.0, 0.0, 1e-2, 240e3) == pytest.approx(240e3 * 100)

    def test_full_overhead_zero(self):
        assert effective_rate(100.0, 1e-2, 1e-2, 240e3) == 0.0
        assert effective_rate(100.0, 2e-2, 1e-2, 240e3) == 0.0

    def test_half_overhead(self):
        full = effective_rate(50.0, 0.0, 1e-2, 240e3)
        assert effective_rate(50.0, 5e-3, 1e-2, 240e3) == pytest.approx(full / 2)

    def test_monotonic_in_overhead(self):
        rates = [effective_rate(10.0, t, 1e-2, 240e3) for t in np.linspace(0, 2e-2, 20)]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestOutage:
    def test_extremes_and_half(self):
        assert outage([2e8, 3e8], 1e8) == 0.0
        assert outage([1e7, 5e7], 1e8) == 1.0
        assert outage([5e7, 2e8], 1e8) == 0.5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            outage([], 1e8)


class TestNoisePower:
    def test_matches_link_budget(self):
        p_n = noise_power_w(240e3, 10.0)
        dbm = 10 * np.log10(p_n * 1000)
        assert dbm == pytest.approx(-110.2, abs=0.05)

    def test_tx_per_subcarrier(self):
        per_sc_dbm = 24.0 - 10 * np.log10(2048)
        assert per_sc_dbm == pytest.approx(-9.1, abs=0.02)
        assert dbm_to_w(per_sc_dbm) == pytest.approx(1.23e-4, rel=0.01)


class TestAssistedSearchSpace:
    def test_one_hot_aps_single_beam(self):
        cb = build_codebook(16)
        aps = np.zeros(16)
        aps[3] = 1.0
        space = assisted_search_space(aps, cb, 1, kind="aps")
        assert len(space) == 1
        # bin 3 borders beams (3 + 8 - 1) and (3 + 8): tie broken low
        assert space == [10]

    def test_flat_aps_tie_break(self):
        cb = build_codebook(16)
        space = assisted_search_space(np.ones(16), cb, 4, kind="aps")
        assert space == [0, 1, 2, 3]

    def test_rank1_covvec_contains_best_beam(self):
        n = 64
        cb = build_codebook(n)
        rng = np.random.default_rng(0)
        for _ in range(5):
            theta = float(rng.uniform(-1.0, 1.0))
            a = steering_vector(n, theta)
            r = np.outer(a, a.conj())[:, 0]
            space = assisted_search_space(r, cb, 4, kind="covvec")
            gains = np.abs(cb.conj() @ a) ** 2
            assert int(np.argmax(gains)) in space

    def test_covvec_ranks_by_quadratic_form(self):
        """The covvec scores rank the beams as the einsum of b^H T(r) b does."""
        rng = np.random.default_rng(2)
        for n in (16, 64):
            cb = build_codebook(n)
            for _ in range(5):
                r = rng.standard_normal(n) + 1j * rng.standard_normal(n)
                t = reconstruct_toeplitz(r).matrix
                scores = np.real(np.einsum("bi,ij,bj->b", cb.conj(), t, cb))
                top = sorted(int(i) for i in np.argsort(-scores, kind="stable")[:4])
                assert assisted_search_space(r, cb, 4, kind="covvec") == top

    def test_eigvec_space_contains_best_beam(self):
        n = 32
        cb = build_codebook(n)
        theta = 0.35
        v = steering_vector(n, theta) / np.sqrt(n)
        space = assisted_search_space(v, cb, 4, kind="eigvec")
        gains = np.abs(cb.conj() @ (v * np.sqrt(n))) ** 2
        assert int(np.argmax(gains)) in space

    def test_subset_of_codebook(self):
        cb = build_codebook(16)
        rng = np.random.default_rng(1)
        space = assisted_search_space(rng.random(16), cb, 12, kind="aps")
        assert len(space) == 12
        assert all(0 <= i < 16 for i in space)

    def test_bad_k(self):
        cb = build_codebook(8)
        with pytest.raises(ValueError):
            assisted_search_space(np.ones(8), cb, 0, kind="aps")
        with pytest.raises(ValueError):
            assisted_search_space(np.ones(8), cb, 9, kind="aps")


def flat_rank1_channel(theta, phi, n_rsu=16, n_ue=8):
    cluster = PathCluster(
        mean_delay_s=0.0,
        mean_aoa_rad=phi,
        mean_aod_rad=theta,
        rays=(Ray(gain=1.0),),
    )
    return channel_taps([cluster], (n_ue, n_rsu), 2, 1e-9)


def flat_rank1_scores(theta, phi, n_rsu=16, n_ue=8):
    ch = flat_rank1_channel(theta, phi, n_rsu, n_ue)
    return pair_scores(beam_taps(ch, build_codebook(n_rsu), build_codebook(n_ue), 32)[1])


def dense_gain_oracle(ch, cb_rsu, cb_ue, k_total):
    """|w^H H[k] f|^2 pair by pair on the dense frequency response."""
    h = channel_freq_all(ch, k_total)
    out = np.empty((k_total, len(cb_ue), len(cb_rsu)))
    for u, w in enumerate(cb_ue):
        for r, f in enumerate(cb_rsu):
            out[:, u, r] = np.abs(w.conj() @ h @ f) ** 2
    return out


class TestGainTable:
    T = 1e-9

    def channel(self, taps_and_angles, n_rsu, n_ue, d_taps):
        clusters = [
            PathCluster(
                mean_delay_s=d * self.T,
                mean_aoa_rad=phi,
                mean_aod_rad=theta,
                rays=(Ray(gain=g),),
            )
            for d, theta, phi, g in taps_and_angles
        ]
        return channel_taps(clusters, (n_ue, n_rsu), d_taps, self.T)

    def assert_matches_oracle(self, ch, n_rsu, n_ue, k_total):
        """The oracle table against the dense response; the beam-tap scores
        (Parseval) and served-pair gains against the oracle table."""
        cb_rsu, cb_ue = build_codebook(n_rsu), build_codebook(n_ue)
        table = gain_table(ch, cb_rsu, cb_ue, k_total)
        oracle = dense_gain_oracle(ch, cb_rsu, cb_ue, k_total)
        assert table.dtype == np.float64
        assert table.shape == (k_total, n_ue, n_rsu)
        assert np.max(np.abs(table - oracle)) <= 1e-12 * np.max(oracle)

        taps = beam_taps(ch, cb_rsu, cb_ue, k_total)
        band = table.sum(axis=0)
        scores = pair_scores(taps[1])
        assert scores.shape == (n_ue, n_rsu)
        assert np.max(np.abs(k_total * scores - band)) <= 1e-12 * np.max(band)
        # a lone stream at unit transmit and noise power: its SINR is its gain
        for u, r in ((0, 0), (n_ue - 1, n_rsu // 2), (n_ue // 2, n_rsu - 1)):
            gains = sinr([(u, r)], [taps], 1.0, 1.0)[0]
            assert np.max(np.abs(gains - table[:, u, r])) <= 1e-12 * np.max(table)

    def test_matches_dense_oracle_with_last_tap(self):
        d_taps = 16
        ch = self.channel(
            [(0, 0.3, -0.2, 1.0), (5, -0.7, 0.4, 0.5 - 0.2j), (d_taps - 1, 0.1, 0.9, 0.3j)],
            n_rsu=16, n_ue=8, d_taps=d_taps,
        )
        assert ch.delays.tolist() == [0, 5, d_taps - 1]
        self.assert_matches_oracle(ch, 16, 8, k_total=64)

    def test_taps_fill_every_subcarrier(self):
        # D == K: every lag of the DFT is in use
        ch = self.channel(
            [(0, 0.2, 0.1, 1.0), (7, -0.4, 0.6, -0.8j)], n_rsu=8, n_ue=4, d_taps=8
        )
        self.assert_matches_oracle(ch, 8, 4, k_total=8)

    def test_non_default_array_sizes(self):
        ch = self.channel(
            [(2, 0.5, -0.3, 1.0 + 1.0j), (9, -0.2, 0.8, 0.7)], n_rsu=12, n_ue=6, d_taps=10
        )
        self.assert_matches_oracle(ch, 12, 6, k_total=48)

    def test_zero_channel(self):
        ch = self.channel([], n_rsu=8, n_ue=4, d_taps=4)
        phases, b = beam_taps(ch, build_codebook(8), build_codebook(4), 16)
        assert phases.shape == (16, 0)
        assert b.shape == (0, 4, 8)
        np.testing.assert_array_equal(pair_scores(b), np.zeros((4, 8)))
        np.testing.assert_array_equal(sinr([(3, 7)], [(phases, b)], 1.0, 1.0), np.zeros((1, 16)))

    def test_taps_beyond_subcarriers_rejected(self):
        ch = WidebandChannel(delays=np.arange(9), taps=np.ones((9, 2, 2)))
        with pytest.raises(ValueError, match="tap delay 8 does not fit in 8"):
            beam_taps(ch, build_codebook(2), build_codebook(2), 8)


class TestBeamSelect:
    def test_rank1_selects_nearest_beams(self):
        n_rsu, n_ue = 16, 8
        cb_rsu = build_codebook(n_rsu)
        cb_ue = build_codebook(n_ue)
        theta, phi = 0.4, -0.3
        ue, rsu = beam_select(flat_rank1_scores(theta, phi, n_rsu, n_ue))
        gains_rsu = np.abs(cb_rsu.conj() @ steering_vector(n_rsu, theta))
        gains_ue = np.abs(cb_ue.conj() @ steering_vector(n_ue, phi))
        assert rsu == int(np.argmax(gains_rsu))
        assert ue == int(np.argmax(gains_ue))

    def test_single_pair_space(self):
        scores = flat_rank1_scores(0.2, 0.1)
        ue, rsu = beam_select(scores, rsu_space=[5])
        assert (rsu, ue) == (5, int(np.argmax(scores[:, 5])))
        assert scores[ue, rsu] == scores[ue, 5]

    def test_zero_channel_tie_break(self):
        ch = WidebandChannel(delays=[0, 1], taps=np.zeros((2, 4, 8)))
        _, b = beam_taps(ch, build_codebook(8), build_codebook(4), 8)
        scores = pair_scores(b)
        ue, rsu = beam_select(scores)
        assert scores[ue, rsu] == 0.0
        assert (rsu, ue) == (0, 0)

    def test_order_invariance(self):
        scores = flat_rank1_scores(0.5, -0.6)
        space = [3, 7, 11, 15]
        sel_a = beam_select(scores, rsu_space=space)
        sel_b = beam_select(scores, rsu_space=space[::-1])
        assert scores[sel_a] == pytest.approx(scores[sel_b], rel=1e-12)
        assert sel_a == sel_b

    def test_superset_never_scores_lower(self):
        scores = flat_rank1_scores(0.7, 0.2)
        small = [2, 9, 14]
        big = small + [0, 5, 11]
        s_small = scores[beam_select(scores, rsu_space=small)]
        s_big = scores[beam_select(scores, rsu_space=big)]
        assert s_big >= s_small

    def test_pair_scores_sum_power_over_subcarriers(self):
        """The selection objective is received power over the band: each
        pair's tap energy, the subcarrier mean of its gain (Parseval)."""
        ch = flat_rank1_channel(0.3, -0.1)
        cb_rsu, cb_ue = build_codebook(16), build_codebook(8)
        _, b = beam_taps(ch, cb_rsu, cb_ue, 32)
        g = gain_table(ch, cb_rsu, cb_ue, 32)
        scores = pair_scores(b)
        assert scores.shape == (8, 16)
        for u, r in ((0, 1), (6, 4), (7, 15)):
            assert scores[u, r] == pytest.approx(np.mean(g[:, u, r]), rel=1e-12)
        np.testing.assert_array_equal(scores, np.sum(b.real**2 + b.imag**2, axis=0))


class TestSinr:
    def test_single_user_no_interference(self):
        ch = flat_rank1_channel(0.3, -0.2)
        cb_rsu, cb_ue = build_codebook(16), build_codebook(8)
        taps = beam_taps(ch, cb_rsu, cb_ue, 32)
        ue, rsu = beam_select(pair_scores(taps[1]))
        w = cb_ue[ue]
        f = cb_rsu[rsu]
        p_t, p_n = 1e-4, 1e-14
        values = sinr([(ue, rsu)], [taps], p_t, p_n)
        gains = np.abs(w.conj() @ channel_freq_all(ch, 32) @ f) ** 2
        np.testing.assert_allclose(values[0], gains * p_t / p_n)

    def test_orthogonal_users_no_cross_term(self):
        # two users on orthogonal rank-1 channels built from DFT columns,
        # flat over the band (a single tap), read through DFT-beam codebooks
        n_rsu, n_ue, k_total = 16, 8, 8
        f_mat = dft_matrix(n_rsu)
        w_mat = dft_matrix(n_ue)
        cb_rsu, cb_ue = f_mat.T, w_mat.T
        h1 = np.sqrt(n_ue * n_rsu) * np.outer(w_mat[:, 1], f_mat[:, 2].conj())
        h2 = np.sqrt(n_ue * n_rsu) * np.outer(w_mat[:, 5], f_mat[:, 9].conj())
        g1, g2 = (
            beam_taps(WidebandChannel(delays=[0], taps=h[np.newaxis]),
                      cb_rsu, cb_ue, k_total)
            for h in (h1, h2)
        )
        pairs = [(1, 2), (5, 9)]
        p_t, p_n = 1e-3, 1e-12
        values = sinr(pairs, [g1, g2], p_t, p_n)
        solo = sinr([pairs[0]], [g1], p_t, p_n)
        np.testing.assert_allclose(values[0], solo[0], rtol=1e-6)

    def test_interference_sums_other_streams(self):
        rng = np.random.default_rng(5)

        def cplx(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        # three users of 6 subcarriers with 3 occupied taps each
        taps = [(cplx(6, 3), cplx(3, 4, 8)) for _ in range(3)]
        pairs = [(0, 1), (3, 7), (2, 2)]
        p_t, p_n = 2e-3, 1e-6
        values = sinr(pairs, taps, p_t, p_n)
        for i, (phases, b) in enumerate(taps):
            g = np.abs(np.tensordot(phases, b, axes=1)) ** 2
            seen = [g[:, u, r] for u, r in pairs]
            interference = sum(s for l, s in enumerate(seen) if l != i)
            np.testing.assert_allclose(values[i], seen[i] * p_t / (interference * p_t + p_n))

    def test_no_stream_served(self):
        assert sinr([], [], 1e-3, 1e-12).shape == (0, 0)
        assert spectral_efficiency(sinr([], [], 1e-3, 1e-12)).shape == (0,)

    def test_spectral_efficiency_shape(self):
        s = spectral_efficiency(np.ones((3, 16)))
        assert s.shape == (3,)
        assert np.allclose(s, 16.0)


class TestSumRate:
    def test_sum_equals_parts(self):
        rates = np.array([1e8, 2e8, 3e8, 4e8])
        assert rates.sum() == pytest.approx(1e9)
