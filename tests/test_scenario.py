"""Tests for scene generation, paired propagation, trials, and datasets."""

import contextlib
import importlib
import math
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from radarlink import scenario
from radarlink.beamtraining import assisted_search_space, build_codebook, pair_scores
from radarlink.config import (
    PREDICTOR_KINDS,
    RAW_PREDICTORS,
    CampaignConfig,
    LinkConfig,
    RadarRxConfig,
    SceneConfig,
    SimConfig,
)
from radarlink.scenario import (
    TrialUserRow,
    Vehicle,
    aggregate_rows,
    associate_detections,
    comm_targets,
    drop_vehicles,
    feature_set,
    featurize_scene,
    generate_dataset,
    generate_paired_propagation,
    make_scene,
    read_dataset,
    read_split_manifest,
    record_dtype,
    run_campaign,
    run_trial,
    segment_blocked,
    trace_normalize,
    write_dataset,
    write_results_csv,
    write_split_manifest,
)
from radarlink.covariance import SpatialCovariance
from radarlink.neural import BUILDERS, prepare_training_arrays

from oracles import gain_table
from test_bench_contract import tracer_targets


def small_sim(**campaign_kw):
    campaign = CampaignConfig(
        n_trials=campaign_kw.pop("n_trials", 1),
        t_coh_list_s=campaign_kw.pop("t_coh_list_s", (2e-3, 5e-2)),
        protocols=campaign_kw.pop("protocols", ("exhaustive", "narrow")),
        predictors=campaign_kw.pop("predictors", ("radar-aps",)),
        seed=campaign_kw.pop("seed", 0),
    )
    return SimConfig(campaign=campaign)


def struct_packed_dataset(variant_id, records, dim):
    """The RCPD bytes written field by field: the record layout's oracle."""
    chunks = [struct.pack("<4sIII", b"RCPD", variant_id, len(records), dim)]
    for inp, tgt, los, trial, vehicle in records:
        chunks.append(np.asarray(inp, dtype="<f8").tobytes())
        chunks.append(np.asarray(tgt, dtype="<f8").tobytes())
        chunks.append(struct.pack("<BII", 1 if los else 0, trial, vehicle))
    return b"".join(chunks)


def row(trial, user, rate, protocol="narrow", initial=False, los=True, detected=True):
    return TrialUserRow(
        trial_id=trial,
        user_id=user,
        protocol_variant=protocol,
        predictor_variant="none" if protocol == "exhaustive" else "radar-aps",
        t_coh_s=1e-2,
        rate_bps=rate,
        los_flag=los,
        detected_flag=detected,
        selected_rsu_beam=0,
        selected_ue_beam=0,
        is_initial=initial,
    )


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
        normed, scale = trace_normalize(cov)
        assert normed.trace == pytest.approx(8.0)
        assert scale == 8.0 / cov.trace

    def test_zero_passthrough(self):
        cov = SpatialCovariance(np.zeros((4, 4), dtype=complex))
        normed, scale = trace_normalize(cov)
        assert np.allclose(normed.matrix, 0.0)
        assert scale == 1.0


class TestFeaturizeScene:
    def test_features_present_for_detected(self):
        sim = small_sim()
        scene = make_scene(sim.scene, 1)
        isolated = featurize_scene(sim, scene, capture_seed=1)
        assert len(isolated) == len(scene.actives)
        assert any(radar is not None for radar in isolated)
        for active, radar in zip(scene.actives, isolated):
            comm = comm_targets(sim.link, active)
            assert comm["aps"].shape == (64,)
            assert comm["eigvec"].shape == (64,)
            assert comm["covvec"].shape == (64,)
            if radar is not None:
                cov, noise_power_w = radar
                assert cov.n == 64 and noise_power_w > 0
                f = feature_set(cov, noise_power_w)
                assert f["aps"].shape == (64,)
                assert f["covvec"].shape == (64,)
                assert np.all(f["aps"] >= 0)
                assert np.linalg.norm(f["eigvec"]) == pytest.approx(1.0, abs=1e-9)

    def test_detected_features_angle_sane(self):
        # detected LOS vehicles: radar APS peak within a few DFT bins of
        # the comm APS peak (mount offsets shift, but not arbitrarily)
        sim = small_sim()
        hits = 0
        close = 0
        for seed in range(4):
            scene = make_scene(sim.scene, seed)
            isolated = featurize_scene(sim, scene, capture_seed=seed)
            for active, radar in zip(scene.actives, isolated):
                if radar is not None and active.los_flag:
                    hits += 1
                    r_bin = int(np.argmax(feature_set(*radar)["aps"]))
                    c_bin = int(np.argmax(comm_targets(sim.link, active)["aps"]))
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

    def test_undetected_sole_user_goes_unserved(self, monkeypatch):
        # no stream is served on the assisted protocol: sinr gets no pairs
        monkeypatch.setattr(scenario, "featurize_scene", lambda *args, **kwargs: [None])
        sim = SimConfig(
            scene=SceneConfig(n_active=1),
            campaign=CampaignConfig(
                n_trials=1, t_coh_list_s=(5e-2,), protocols=("exhaustive", "narrow")
            ),
        )
        res = run_trial(sim, 0)
        assert not res.initial_detected
        narrow = [r for r in res.rows if r.protocol_variant == "narrow"]
        assert len(narrow) == len(sim.campaign.predictors)
        for r in narrow:
            assert (r.rate_bps, r.selected_ue_beam, r.selected_rsu_beam) == (0.0, -1, -1)
        (exhaustive,) = [r for r in res.rows if r.protocol_variant == "exhaustive"]
        assert exhaustive.rate_bps > 0

    def test_nn_predictor_needs_model(self):
        sim = small_sim(predictors=("nn-aps",))
        with pytest.raises(ValueError, match="needs a trained"):
            run_trial(sim, 0)


class TestTrialFeaturizesInitialOnly:
    """run_trial runs feature_set for the initial-access user alone, and
    flags every vehicle's detection."""

    @staticmethod
    def run(monkeypatch, edit):
        """One trial whose featurize_scene output passes through edit; returns
        (that output, the feature_set calls, the trial result)."""
        real_featurize, real_feature_set = scenario.featurize_scene, scenario.feature_set
        isolated, calls = [], []

        def featurize(*args, **kwargs):
            isolated.extend(edit(real_featurize(*args, **kwargs)))
            return list(isolated)

        def feature_set(*args):
            calls.append(args)
            return real_feature_set(*args)

        monkeypatch.setattr(scenario, "featurize_scene", featurize)
        monkeypatch.setattr(scenario, "feature_set", feature_set)
        return isolated, calls, run_trial(small_sim(predictors=RAW_PREDICTORS), 0)

    @pytest.mark.parametrize("edit", ["all detected", "odd ones missed", "none detected"])
    def test_one_feature_set_for_the_initial_user(self, monkeypatch, edit):
        def detected(isolated):
            return [next(r for r in isolated if r is not None)] * len(isolated)

        edits = {
            "all detected": detected,
            "odd ones missed": lambda isolated: [
                None if i % 2 else r for i, r in enumerate(detected(isolated))
            ],
            "none detected": lambda isolated: [None] * len(isolated),
        }
        isolated, calls, result = self.run(monkeypatch, edits[edit])
        n = len(isolated)
        assert n == SceneConfig().n_active
        # rows run over the vehicles in scene order for each variant and t_coh
        assert len(result.rows) % n == 0
        for start in range(0, len(result.rows), n):
            block = result.rows[start : start + n]
            assert [r.detected_flag for r in block] == [r is not None for r in isolated]
        (initial,) = {i for i, r in enumerate(result.rows[:n]) if r.is_initial}
        if isolated[initial] is None:
            assert calls == []
            assert not result.initial_detected
        else:
            assert len(calls) == 1
            assert all(a is b for a, b in zip(calls[0], isolated[initial]))
            assert result.initial_detected


def argmax_pair(table, rsu_space):
    """(ue, rsu) of the largest score in the table's rsu_space columns."""
    cols = np.asarray(rsu_space)
    ue, col = np.unravel_index(np.argmax(table[:, cols]), (table.shape[0], cols.size))
    return int(ue), int(cols[col])


def log_rate_tables(sim, trial):
    """The oracle's subcarrier-summed log2(1 + G) table of each active user."""
    link = sim.link
    cb_rsu, cb_ue = build_codebook(link.n_rsu), build_codebook(link.n_ue)
    scene = make_scene(sim.scene, sim.campaign.seed + trial)
    return [
        np.sum(
            np.log2(1.0 + gain_table(scenario.comm_channel(link, a), cb_rsu, cb_ue,
                                     link.k_subcarriers)),
            axis=0,
        )
        for a in scene.actives
    ]


class TestScoreTables:
    def test_one_table_per_user_serves_every_search(self, monkeypatch):
        """Each user's pairs are scored once per trial, and every exhaustive
        and assisted selection is the argmax over the searched RSU beams of
        both that recorded power table and the oracle's log-rate table."""
        tables, spaces = [], []

        def recording_scores(taps):
            tables.append(pair_scores(taps))
            return tables[-1]

        def recording_space(*args, **kwargs):
            spaces.append(assisted_search_space(*args, **kwargs))
            return spaces[-1]

        monkeypatch.setattr(scenario, "pair_scores", recording_scores)
        monkeypatch.setattr(scenario, "assisted_search_space", recording_space)
        sim = SimConfig()
        n_users = sim.scene.n_active
        for trial in range(3):
            tables.clear()
            spaces.clear()
            result = run_trial(sim, trial)
            assert len(tables) == n_users
            assert result.initial_detected
            oracle = log_rate_tables(sim, trial)

            groups = {}
            for r in result.rows:
                groups.setdefault((r.protocol_variant, r.predictor_variant), []).append(r)
            assisted = [key for key in groups if key[0] != "exhaustive"]
            assert len(assisted) == len(spaces) == 2 * len(sim.campaign.predictors)
            for key, space in [(("exhaustive", "none"), None)] + list(zip(assisted, spaces)):
                users = groups[key][:n_users]  # the first coherence time's rows
                for i, r in enumerate(users):
                    # only the initial user's assisted search is narrowed
                    searched = range(sim.link.n_rsu)
                    if r.is_initial and space is not None:
                        searched = space
                    got = (r.selected_ue_beam, r.selected_rsu_beam)
                    assert got == argmax_pair(tables[i], searched), (trial, key, i)
                    assert got == argmax_pair(oracle[i], searched), (trial, key, i)


class TestTrialMemory:
    def test_peak_below_40_mb(self):
        """No (K, n_ue, n_rsu) table: a default trial's traced peak stays
        near featurize_scene's own (about 26 MB)."""
        sim = SimConfig()
        # the bank's block plans (about 16.5 MB) are cached on first use
        run_trial(sim, 1)
        tracemalloc.start()
        try:
            run_trial(sim, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 40e6


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


# the trial pipeline's entry points, each on one trial or scene
TRIAL_RUNNERS = {
    "run_campaign": lambda out: run_campaign(small_sim()),
    "run_campaign_jobs2": lambda out: run_campaign(small_sim(), jobs=2),
    "generate_dataset": lambda out: generate_dataset(small_sim(), 1, 4, out, 0.8),
}


class TestTrialBlasThreads:
    """Trials run BLAS on one thread and give the caller's count back."""

    @staticmethod
    def record_threads(monkeypatch, get):
        """Wrap featurize_scene to check the BLAS count the trial body sees.
        A pool worker cannot append to the caller's list, so a wrong count
        raises, and that reaches the caller from a worker as well."""
        real = scenario.featurize_scene
        seen = []

        def featurize(*args, **kwargs):
            if get() != 1:
                raise AssertionError(f"trial body ran on {get()} BLAS threads")
            seen.append(get())
            return real(*args, **kwargs)

        monkeypatch.setattr(scenario, "featurize_scene", featurize)
        return seen

    @pytest.mark.parametrize("runner", ["run_campaign", "generate_dataset"])
    def test_trial_body_sees_one_thread(self, blas2, monkeypatch, tmp_path, runner):
        get, _ = blas2
        seen = self.record_threads(monkeypatch, get)
        TRIAL_RUNNERS[runner](tmp_path)
        assert seen == [1]
        assert get() == 2

    def test_pool_workers_set_one_thread(self, blas2, monkeypatch, tmp_path):
        # the caller keeps 2 threads, so only the worker initializer can set 1
        get, _ = blas2
        monkeypatch.setattr(scenario, "blas_threads", lambda n: contextlib.nullcontext())
        self.record_threads(monkeypatch, get)
        TRIAL_RUNNERS["run_campaign_jobs2"](tmp_path)
        assert get() == 2

    @pytest.mark.parametrize("runner", sorted(TRIAL_RUNNERS))
    def test_count_restored_after_raise(self, blas2, monkeypatch, tmp_path, runner):
        get, _ = blas2

        def featurize(*args, **kwargs):
            raise RuntimeError("featurize failed")

        monkeypatch.setattr(scenario, "featurize_scene", featurize)
        with pytest.raises(RuntimeError, match="featurize failed"):
            TRIAL_RUNNERS[runner](tmp_path)
        assert get() == 2


def sim_16():
    """A 16-antenna array, every protocol and predictor, one trial."""
    return SimConfig(
        link=LinkConfig(n_rsu=16, n_ue=8),
        campaign=CampaignConfig(
            n_trials=1,
            t_coh_list_s=(5e-2,),
            protocols=("exhaustive", "narrow", "wide"),
            predictors=tuple(PREDICTOR_KINDS),
        ),
    )


class TestRadarChainThreads:
    def test_dataset_bytes_do_not_depend_on_thread_count(self, bank_threads, tmp_path):
        sim = sim_16()
        runs = []
        for threads in (1, 2, 5):
            bank_threads(threads)
            out = tmp_path / str(threads)
            generate_dataset(sim, n_scenes=2, seed=3, out_dir=out, train_fraction=0.5)
            runs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
        assert sorted(runs[0]) == ["aps.rcpd", "covvec.rcpd", "eigvec.rcpd", "split.txt"]
        assert len(read_dataset(tmp_path / "1" / "aps.rcpd")[1]) > 0
        assert runs[1] == runs[0]
        assert runs[2] == runs[0]

    def test_traced_calls_stay_on_the_main_thread(self, bank_threads, monkeypatch, tmp_path):
        """Every function the benchmark's tracer wraps runs on the calling
        thread while the radar chain's kernels use the pool: the tracer's
        span stack is not synchronised."""
        bank_threads(2)
        called, off_main = set(), []
        for module_name, attr in tracer_targets():
            module = importlib.import_module(module_name)
            real = getattr(module, attr, None)
            if real is None:
                continue

            def traced(*args, _real=real, _name=f"{module_name}.{attr}", **kwargs):
                called.add(_name)
                if threading.current_thread() is not threading.main_thread():
                    off_main.append(_name)
                    raise AssertionError(f"{_name} ran on {threading.current_thread().name}")
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, attr, traced)
        sim = sim_16()
        models = {kind: build(16, seed=0) for kind, build in BUILDERS.items()}
        scene = scenario.make_scene(sim.scene, 5)
        assert any(r is not None for r in scenario.featurize_scene(sim, scene, capture_seed=5))
        assert scenario.run_trial(sim, 0, models=models).initial_detected
        generate_dataset(sim, n_scenes=1, seed=5, out_dir=tmp_path, train_fraction=0.5)
        assert off_main == []
        assert {
            "radarlink.scenario.synthesize_rx",
            "radarlink.scenario.run_bank",
            "radarlink.detection.isolate_covariance",
            "radarlink.detection.fir_lowpass",
            "radarlink.scenario.toeplitz_psd_project",
            "radarlink.scenario.predict_variant",
            "radarlink.scenario.comm_covariance",
        } <= called


class TestAggregateRows:
    def test_undetected_initial_leaves_assisted_pool_only(self):
        rows = []
        for protocol in ("exhaustive", "narrow"):
            # trial 0: initial user detected in LOS at 2e8; trial 1: undetected at 0
            rows += [row(0, 7, 2e8, protocol, initial=True), row(0, 8, 1e8, protocol)]
            rows += [
                row(1, 7, 0.0, protocol, initial=True, detected=False),
                row(1, 8, 1e8, protocol, detected=False),
            ]
        aggs = {a.protocol_variant: a for a in aggregate_rows(rows, 100e6, 0.5)}
        assert aggs["exhaustive"].p_outage_los == 0.5
        assert aggs["narrow"].p_outage_los == 0.0
        assert all(a.p_missed_detection == 0.5 for a in aggs.values())

    def test_empty_pool_is_nan(self):
        rows = [row(0, 7, 2e8, initial=True, detected=False), row(0, 8, 2e8, los=False)]
        (agg,) = aggregate_rows(rows, 100e6, 1.0)
        assert math.isnan(agg.p_outage_los)
        assert math.isnan(agg.p_outage_nlos)

    def test_mean_sum_rate_over_trials(self):
        rows = [
            row(0, 7, 1e8, initial=True),
            row(0, 8, 2e8),
            row(0, 9, 3e8, los=False),
            row(1, 7, 4e8, initial=True, los=False),
            row(1, 8, 0.0),
        ]
        (agg,) = aggregate_rows(rows, 100e6, 0.0)
        assert agg.mean_sum_rate_bps == pytest.approx(5e8)  # (6e8 + 4e8) / 2 trials
        assert agg.p_outage_los == 0.0
        assert agg.p_outage_nlos == 0.0


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
        summary = generate_dataset(sim, n_scenes=1, seed=4, out_dir=tmp_path, train_fraction=0.8)
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

    def test_record_layout_matches_struct_oracle(self, tmp_path):
        rng = np.random.default_rng(5)
        for variant, variant_id, dim in (("aps", 1, 8), ("eigvec", 2, 16), ("covvec", 3, 16)):
            records = [
                (rng.standard_normal(dim), rng.standard_normal(dim), bool(i % 3), i, 2**32 - 1 - i)
                for i in range(4)
            ]
            path = tmp_path / f"{variant}.rcpd"
            write_dataset(path, variant, records)
            assert record_dtype(dim).itemsize == 16 * dim + 9
            assert path.read_bytes() == struct_packed_dataset(variant_id, records, dim)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "aps.rcpd"
        records = [(np.ones(8), np.zeros(8), True, i, i) for i in range(3)]
        write_dataset(path, "aps", records)
        raw = path.read_bytes()
        for cut in (1, 16 * 8 + 9, len(raw) - 17, len(raw) - 10):
            path.write_bytes(raw[:-cut])
            with pytest.raises(ValueError, match="truncated"):
                read_dataset(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        # a header that under-counts its records must not drop the rest
        path = tmp_path / "aps.rcpd"
        records = [(np.ones(8), np.zeros(8), True, i, i) for i in range(3)]
        write_dataset(path, "aps", records)
        raw = path.read_bytes()
        for extra in (b"\0", bytes(16 * 8 + 9)):
            path.write_bytes(raw + extra)
            with pytest.raises(ValueError, match=f"{len(extra)} bytes after its 3 records"):
                read_dataset(path)
        path.write_bytes(raw[:8] + struct.pack("<I", 2) + raw[12:])
        with pytest.raises(ValueError, match="bytes after its 2 records"):
            read_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "aps.rcpd"
        write_dataset(path, "aps", [(np.ones(8), np.zeros(8), True, 0, 0)])
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="magic"):
            read_dataset(path)

    def test_split_manifest_round_trip(self, tmp_path):
        path = tmp_path / "split.txt"
        labels = write_split_manifest(path, 100, seed=3, train_fraction=0.8)
        train_idx, val_idx = read_split_manifest(path, 100)
        assert len(train_idx) + len(val_idx) == 100
        assert np.all(labels[train_idx] == "train")
        assert np.all(labels[val_idx] == "val")
        assert 60 <= len(train_idx) <= 95

    def test_split_mismatch_rejected(self, tmp_path):
        path = tmp_path / "split.txt"
        write_split_manifest(path, 10, seed=0, train_fraction=0.8)
        with pytest.raises(ValueError, match="split covers"):
            read_split_manifest(path, 11)

    @pytest.mark.parametrize("lines,message", [
        (["0 train", "-1 val", "2 train"], "split line 2: index -1 outside \\[0, 3\\)"),
        (["0 train", "1 val", "42 train"], "split line 3: index 42 outside \\[0, 3\\)"),
        (["0 train", "1 val", "1 train"], "split line 3: index 1 repeated"),
        (["0 train", "x val", "2 train"], "split line 2 is malformed: 'x val"),
        (["0 train", "1", "2 train"], "split line 2 is malformed"),
    ])
    def test_bad_index_rejected(self, tmp_path, lines, message):
        # one line per record in every case; the repeat leaves index 2 out
        path = tmp_path / "split.txt"
        path.write_text("".join(f"{line}\n" for line in lines))
        with pytest.raises(ValueError, match=message):
            read_split_manifest(path, 3)


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
