"""Tests for scene generation, paired propagation, trials, and datasets."""

import numpy as np
import pytest

from radarlink.scenario import (
    CampaignConfig,
    LinkConfig,
    RadarRxConfig,
    SceneConfig,
    SimConfig,
    Vehicle,
    associate_detections,
    comm_targets,
    drop_vehicles,
    featurize_scene,
    generate_dataset,
    generate_paired_propagation,
    make_scene,
    prepare_training_arrays,
    read_dataset,
    read_split_manifest,
    run_campaign,
    run_trial,
    segment_blocked,
    trace_normalize,
    write_dataset,
    write_results_csv,
    write_split_manifest,
)
from radarlink.covariance import SpatialCovariance


def small_sim(**campaign_kw):
    campaign = CampaignConfig(
        n_trials=campaign_kw.pop("n_trials", 1),
        t_coh_list_s=campaign_kw.pop("t_coh_list_s", (2e-3, 5e-2)),
        protocols=campaign_kw.pop("protocols", ("exhaustive", "narrow")),
        predictors=campaign_kw.pop("predictors", ("radar-aps",)),
        seed=campaign_kw.pop("seed", 0),
    )
    return SimConfig(campaign=campaign)


class TestDropVehicles:
    def test_min_bumper_gap(self):
        cfg = SceneConfig(drop_span_m=2000.0)
        for seed in range(5):
            vehicles = drop_vehicles(cfg, seed)
            by_lane = {}
            for v in vehicles:
                by_lane.setdefault(v.lane, []).append(v)
            for lane_vs in by_lane.values():
                lane_vs.sort(key=lambda v: v.x_m)
                for a, b in zip(lane_vs, lane_vs[1:]):
                    gap = (b.x_m - a.x_m) - (a.length_m + b.length_m) / 2
                    assert gap >= 2.0 - 1e-9

    def test_mean_gap_matches_censored_exponential(self):
        # lane 0 at 60: gaps are max(2, Exp(mean 120)); E = 2 + 120 e^(-2/120)
        cfg = SceneConfig(lane_speeds_kmh=(60.0,), drop_span_m=2.5e6, truck_fraction=0.0)
        vehicles = drop_vehicles(cfg, 0)
        xs = np.array([v.x_m for v in vehicles])
        lengths = np.array([v.length_m for v in vehicles])
        gaps = np.diff(xs) - (lengths[:-1] + lengths[1:]) / 2
        assert len(gaps) >= 10_000
        mu = 60.0 / 0.5
        expected = 2.0 + mu * np.exp(-2.0 / mu)
        assert np.mean(gaps) == pytest.approx(expected, rel=0.05)

    def test_truck_fraction(self):
        cfg = SceneConfig(drop_span_m=2e5)
        vehicles = drop_vehicles(cfg, 3)
        frac = np.mean([v.is_truck for v in vehicles])
        assert frac == pytest.approx(0.2, abs=0.03)

    def test_deterministic(self):
        cfg = SceneConfig()
        assert drop_vehicles(cfg, 7) == drop_vehicles(cfg, 7)
        assert drop_vehicles(cfg, 7) != drop_vehicles(cfg, 8)


class TestSegmentBlocked:
    box_vehicle = Vehicle(
        lane=0, x_m=0.0, y_m=5.0, length_m=4.0, width_m=2.0, height_m=2.0, is_truck=False
    )

    def test_blocked_through_box(self):
        assert segment_blocked((0, 0, 1), (0, 10, 1), [self.box_vehicle])

    def test_clear_over_box(self):
        assert not segment_blocked((0, 0, 5), (0, 10, 5), [self.box_vehicle])

    def test_clear_beside_box(self):
        assert not segment_blocked((5, 0, 1), (5, 10, 1), [self.box_vehicle])

    def test_exclusion(self):
        assert not segment_blocked((0, 0, 1), (0, 10, 1), [self.box_vehicle], exclude=(0,))


class TestPairedPropagation:
    def test_clear_view_has_los(self):
        cfg = SceneConfig(n_active=1)
        # single car, nothing else on the road
        car = Vehicle(lane=0, x_m=5.0, y_m=4.0, length_m=5.0, width_m=2.0,
                      height_m=1.6, is_truck=False)
        scene = generate_paired_propagation([car], cfg, seed=0)
        assert scene is not None
        active = scene.actives[0]
        assert active.los_flag
        assert len(active.radar_paths.paths) >= 1
        assert len(active.comm_clusters) >= 1

    def test_occluding_truck_kills_los(self):
        cfg = SceneConfig(n_active=1)
        car = Vehicle(lane=1, x_m=0.0, y_m=7.5, length_m=5.0, width_m=2.0,
                      height_m=1.6, is_truck=False)
        truck = Vehicle(lane=0, x_m=0.0, y_m=4.0, length_m=13.0, width_m=2.6,
                        height_m=3.0, is_truck=True)
        scene = generate_paired_propagation([car, truck], cfg, seed=0)
        assert scene is not None
        active = scene.actives[0]
        assert not active.los_flag
        # reflected rays only
        assert len(active.radar_paths.paths) >= 1

    def test_los_consistent_between_bands(self):
        sim = small_sim()
        for seed in range(4):
            scene = make_scene(sim.scene, seed)
            for a in scene.actives:
                # both bands derive from the same ray skeleton; with LOS
                # present the shortest radar path and shortest comm cluster
                # delay agree to within the mount-offset scale
                d_radar = min(p.delay_s for p in a.radar_paths.paths)
                d_comm = min(c.mean_delay_s for c in a.comm_clusters)
                assert abs(d_radar - d_comm) <= 20e-9

    def test_deterministic(self):
        cfg = SceneConfig()
        placements = drop_vehicles(cfg, 11)
        s1 = generate_paired_propagation(placements, cfg, 5)
        s2 = generate_paired_propagation(placements, cfg, 5)
        if s1 is None:
            assert s2 is None
        else:
            assert [a.vehicle_index for a in s1.actives] == [
                a.vehicle_index for a in s2.actives
            ]
            for a1, a2 in zip(s1.actives, s2.actives):
                assert a1.radar == a2.radar
                assert a1.radar_paths == a2.radar_paths

    def test_distinct_grid_rates(self):
        sim = small_sim()
        scene = make_scene(sim.scene, 2)
        rates = [a.radar.chirp_rate_hz_per_s for a in scene.actives]
        assert len(set(rates)) == len(rates)
        grid = np.linspace(1e12, 6e12, 51)
        for r in rates:
            assert np.min(np.abs(grid - r)) <= 1e-6 * r


class TestTraceNormalize:
    def test_unit_average_diagonal(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        cov = SpatialCovariance(a @ a.conj().T)
        normed = trace_normalize(cov)
        assert normed.trace == pytest.approx(8.0)

    def test_zero_passthrough(self):
        cov = SpatialCovariance(np.zeros((4, 4), dtype=complex))
        assert np.allclose(trace_normalize(cov).matrix, 0.0)


class TestFeaturizeScene:
    def test_features_present_for_detected(self):
        sim = small_sim()
        scene = make_scene(sim.scene, 1)
        feats = featurize_scene(sim, scene, capture_seed=1)
        assert len(feats) == len(scene.actives)
        assert any(f.detected for f in feats)
        for active, f in zip(scene.actives, feats):
            comm_aps, comm_eig, comm_covvec = comm_targets(sim.link, active)
            assert comm_aps.shape == (64,)
            assert comm_eig.shape == (64,)
            assert comm_covvec.shape == (64,)
            if f.detected:
                assert f.radar_aps.shape == (64,)
                assert np.all(f.radar_aps >= 0)
                assert np.linalg.norm(f.radar_eig) == pytest.approx(1.0, abs=1e-9)
            else:
                assert f.radar_aps is None

    def test_detected_features_angle_sane(self):
        # detected LOS vehicles: radar APS peak within a few DFT bins of
        # the comm APS peak (mount offsets shift, but not arbitrarily)
        sim = small_sim()
        hits = 0
        close = 0
        for seed in range(4):
            scene = make_scene(sim.scene, seed)
            feats = featurize_scene(sim, scene, capture_seed=seed)
            for active, f in zip(scene.actives, feats):
                if f.detected and f.los_flag:
                    hits += 1
                    r_bin = int(np.argmax(f.radar_aps))
                    c_bin = int(np.argmax(comm_targets(sim.link, active)[0]))
                    dist = min(abs(r_bin - c_bin), 64 - abs(r_bin - c_bin))
                    if dist <= 8:
                        close += 1
        assert hits >= 6
        assert close / hits >= 0.7


class TestRunTrial:
    def test_exhaustive_zero_below_floor(self):
        sim = small_sim(t_coh_list_s=(1e-3,), protocols=("exhaustive",), predictors=())
        res = run_trial(sim, 0)
        ex_rows = [r for r in res.rows if r.protocol_variant == "exhaustive"]
        assert ex_rows
        assert all(r.rate_bps == 0.0 for r in ex_rows)

    def test_assisted_positive_at_short_coherence(self):
        sim = small_sim(t_coh_list_s=(1e-2,), protocols=("narrow",))
        res = run_trial(sim, 0)
        rows = [r for r in res.rows if r.protocol_variant == "narrow"]
        assert sum(r.rate_bps for r in rows) > 0

    def test_deterministic(self):
        sim = small_sim()
        r1 = run_trial(sim, 3)
        r2 = run_trial(sim, 3)
        assert r1.rows == r2.rows

    def test_unknown_predictor_rejected(self):
        sim = small_sim(predictors=("psychic",))
        with pytest.raises(ValueError, match="unknown predictor"):
            run_trial(sim, 0)

    def test_nn_predictor_needs_model(self):
        sim = small_sim(predictors=("nn-aps",))
        with pytest.raises(ValueError, match="needs a trained"):
            run_trial(sim, 0)


class TestRunCampaign:
    def test_single_trial_aggregate(self):
        sim = small_sim(n_trials=1)
        result = run_campaign(sim)
        trial_rows = run_trial(sim, 0).rows
        assert result.rows == trial_rows
        for agg in result.aggregates:
            group = [
                r
                for r in trial_rows
                if (r.protocol_variant, r.predictor_variant, r.t_coh_s)
                == (agg.protocol_variant, agg.predictor_variant, agg.t_coh_s)
            ]
            assert agg.mean_sum_rate_bps == pytest.approx(sum(r.rate_bps for r in group))

    def test_seed_extension_prefix(self):
        sim1 = small_sim(n_trials=1, seed=42)
        sim2 = small_sim(n_trials=2, seed=42)
        r1 = run_campaign(sim1)
        r2 = run_campaign(sim2)
        assert r2.rows[: len(r1.rows)] == r1.rows

    def test_results_csv_schema(self, tmp_path):
        sim = small_sim(n_trials=1)
        result = run_campaign(sim)
        path = tmp_path / "results.csv"
        write_results_csv(path, result, header_lines=["config: test"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# config: test"
        header = lines[1].split(",")
        assert header == [
            "trial_id", "user_id", "protocol_variant", "predictor_variant",
            "t_coh_s", "rate_bps", "los_flag", "detected_flag",
            "selected_rsu_beam", "selected_ue_beam",
        ]
        data_lines = [l for l in lines[2:] if not l.startswith("#")]
        assert len(data_lines) == len(result.rows)
        agg_lines = [l for l in lines if l.startswith("# aggregate")]
        assert agg_lines


class TestDatasetIo:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [
            (rng.standard_normal(64), rng.standard_normal(64), bool(i % 2), i, i * 7)
            for i in range(5)
        ]
        path = tmp_path / "aps.rcpd"
        write_dataset(path, "aps", records)
        variant, inputs, targets, los, trials, vehicles = read_dataset(path)
        assert variant == "aps"
        for i, (inp, tgt, l, t, v) in enumerate(records):
            assert np.array_equal(inputs[i], inp)
            assert np.array_equal(targets[i], tgt)
            assert los[i] == l
            assert trials[i] == t
            assert vehicles[i] == v

    def test_header_layout(self, tmp_path):
        path = tmp_path / "eigvec.rcpd"
        write_dataset(path, "eigvec", [(np.zeros(128), np.zeros(128), True, 1, 2)])
        raw = path.read_bytes()
        assert raw[:4] == b"RCPD"
        assert int.from_bytes(raw[4:8], "little") == 2
        assert int.from_bytes(raw[8:12], "little") == 1
        assert int.from_bytes(raw[12:16], "little") == 128
        assert len(raw) == 16 + 128 * 16 + 9

    def test_empty_dataset_carries_array_width(self, tmp_path):
        sim = SimConfig(
            link=LinkConfig(n_rsu=16),
            radar_rx=RadarRxConfig(threshold_factor=1e30),
        )
        summary = generate_dataset(sim, n_scenes=1, seed=4, out_dir=tmp_path)
        assert summary.n_pairs_written == 0
        for variant, width in (("aps", 16), ("eigvec", 32), ("covvec", 32)):
            raw = (tmp_path / f"{variant}.rcpd").read_bytes()
            assert len(raw) == 16
            assert int.from_bytes(raw[8:12], "little") == 0
            assert int.from_bytes(raw[12:16], "little") == width
            name, inputs, targets, *_ = read_dataset(tmp_path / f"{variant}.rcpd")
            assert name == variant
            assert inputs.shape == targets.shape == (0, width)

    def test_empty_dataset_needs_width(self, tmp_path):
        with pytest.raises(ValueError, match="record width"):
            write_dataset(tmp_path / "aps.rcpd", "aps", [])

    def test_record_width_mismatch_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="differ"):
            record = (np.zeros(16), np.zeros(16), True, 0, 0)
            write_dataset(tmp_path / "aps.rcpd", "aps", [record], dim=64)

    def test_split_manifest_round_trip(self, tmp_path):
        path = tmp_path / "split.txt"
        labels = write_split_manifest(path, 100, seed=3)
        train_idx, val_idx = read_split_manifest(path, 100)
        assert len(train_idx) + len(val_idx) == 100
        assert np.all(labels[train_idx] == "train")
        assert np.all(labels[val_idx] == "val")
        assert 60 <= len(train_idx) <= 95

    def test_split_mismatch_rejected(self, tmp_path):
        path = tmp_path / "split.txt"
        write_split_manifest(path, 10, seed=0)
        with pytest.raises(ValueError, match="split covers"):
            read_split_manifest(path, 11)


class TestPrepareTrainingArrays:
    def test_covvec_normalization(self):
        rng = np.random.default_rng(1)
        n = 6
        inputs = rng.standard_normal((10, 2 * n))
        targets = rng.standard_normal((10, 2 * n))
        tr_idx, va_idx = np.arange(8), np.arange(8, 10)
        (x_tr, y_tr), (x_va, y_va), norm_const = prepare_training_arrays(
            "covvec", inputs, targets, tr_idx, va_idx
        )
        mags = []
        for row in np.vstack([inputs[tr_idx], targets[tr_idx]]):
            v = row[:n] + 1j * row[n:]
            mags.append(np.abs(v).max())
        assert norm_const == pytest.approx(max(mags))
        assert np.allclose(x_tr * norm_const, inputs[tr_idx])

    def test_eigvec_magphase_packing(self):
        n = 4
        v = np.array([1.0, 1j, -1.0, -1j])
        stored = np.concatenate([v.real, v.imag])
        (x_tr, y_tr), _, _ = prepare_training_arrays(
            "eigvec",
            stored[np.newaxis, :],
            stored[np.newaxis, :],
            np.array([0]),
            np.array([0]),
        )
        np.testing.assert_allclose(x_tr[0][:n], 1.0)  # magnitudes
        np.testing.assert_allclose(y_tr[0], stored)  # targets stay Re/Im
