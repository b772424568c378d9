"""Tests for scenes, featurization, trials, campaigns, and datasets."""

import importlib
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
    ConfigError,
    LinkConfig,
    RadarRxConfig,
    SceneConfig,
    SimConfig,
)
from radarlink.results import write_results_csv
from radarlink.scenario import (
    associate_detections,
    comm_targets,
    feature_set,
    featurize_scene,
    generate_dataset,
    make_scene,
    read_dataset,
    read_split_manifest,
    record_dtype,
    run_campaign,
    run_trial,
    trace_normalize,
    write_dataset,
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


def initial_detected(rows):
    """The initial user's detection flag, which each of its rows carries."""
    (flag,) = {r.detected_flag for r in rows if r.is_initial}
    return flag


class TestTraceNormalize:
    def test_unit_average_diagonal(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        cov = SpatialCovariance(a @ a.conj().T)
        normed = trace_normalize(cov)
        assert normed.trace == pytest.approx(8.0)
        assert np.array_equal(normed.matrix, cov.matrix * (8.0 / cov.trace))

    def test_zero_passthrough(self):
        cov = SpatialCovariance(np.zeros((4, 4), dtype=complex))
        normed = trace_normalize(cov)
        assert normed is cov


def count_isolations(monkeypatch):
    """Count the calls of radarlink.detection.isolate_covariance."""
    import radarlink.detection as detection

    calls = []
    real = detection.isolate_covariance
    monkeypatch.setattr(detection, "isolate_covariance", lambda *a: calls.append(a) or real(*a))
    return calls


def featurize_all(sim, scene, capture_seed):
    """featurize_scene reading every active vehicle: per vehicle, its
    isolated covariance, None where it went undetected."""
    radar = featurize_scene(sim, scene, capture_seed, read=range(len(scene)))
    assert set(radar) <= set(range(len(scene)))
    return [radar.get(i) for i in range(len(scene))]


FULL_BANK_SIMS = {
    "default": SimConfig(),
    "off_grid": SimConfig(scene=SceneConfig(chirp_on_grid=False)),
    "six_active": SimConfig(scene=SceneConfig(n_active=6)),
    "threshold300": SimConfig(radar_rx=RadarRxConfig(threshold_factor=300.0)),
}


def full_bank(monkeypatch):
    """Have featurize_scene's run_bank scan every block, whatever it names."""
    real = scenario.run_bank
    monkeypatch.setattr(scenario, "run_bank", lambda capture, bank, cfar, blocks=None:
                        real(capture, bank, cfar))


def count_scanned(monkeypatch):
    """The block indices radarlink.detection.bank_powers yields, as it
    yields them."""
    import radarlink.detection as detection

    real, scanned = detection.bank_powers, []

    def counted(capture, bank, blocks=None):
        for item in real(capture, bank, blocks):
            scanned.append(item[0])
            yield item

    monkeypatch.setattr(detection, "bank_powers", counted)
    return scanned


class TestFeaturizeScene:
    def test_features_present_for_detected(self):
        sim = small_sim()
        scene = make_scene(sim.scene, 1)
        isolated = featurize_all(sim, scene, capture_seed=1)
        assert len(isolated) == len(scene)
        assert any(radar is not None for radar in isolated)
        for active, radar in zip(scene, isolated):
            comm = comm_targets(sim.link, active)
            assert comm["aps"].shape == (64,)
            assert comm["eigvec"].shape == (64,)
            assert comm["covvec"].shape == (64,)
            if radar is not None:
                assert radar.n == 64
                f = feature_set(radar)
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
            isolated = featurize_all(sim, scene, capture_seed=seed)
            for active, radar in zip(scene, isolated):
                if radar is not None and active.los_flag:
                    hits += 1
                    r_bin = int(np.argmax(feature_set(radar)["aps"]))
                    c_bin = int(np.argmax(comm_targets(sim.link, active)["aps"]))
                    dist = min(abs(r_bin - c_bin), 64 - abs(r_bin - c_bin))
                    if dist <= 8:
                        close += 1
        assert hits >= 6
        assert close / hits >= 0.7

    def test_isolates_only_what_is_read(self, monkeypatch):
        """Each read subset detects the read vehicles the full bank detects,
        with the full bank's covariances bit for bit, and isolates nothing
        outside it; reading no vehicle scans no block."""
        calls, scanned = count_isolations(monkeypatch), count_scanned(monkeypatch)
        for name, sim in FULL_BANK_SIMS.items():
            # off the grid, seed 35 matches a vehicle to a detection in a
            # block that is no vehicle's nearest
            for seed in (0, 35):
                scene = make_scene(sim.scene, seed)
                n = len(scene)
                with monkeypatch.context() as patch:
                    full_bank(patch)
                    full = featurize_all(sim, scene, seed)
                for read in ([], [0], [n - 1, 1], range(n)):
                    calls.clear()
                    scanned.clear()
                    radar = featurize_scene(sim, scene, seed, read=read)
                    assert sorted(radar) == sorted(i for i in read if full[i] is not None), name
                    assert len(calls) == len({id(cov) for cov in radar.values()})
                    for i, cov in radar.items():
                        assert cov.matrix.tobytes() == full[i].matrix.tobytes(), (name, seed)
                    assert bool(scanned) == bool(read)


class TestFeaturizeSceneScan:
    """featurize_scene scans only the blocks its vehicles can match, and
    reads what the full bank would give it."""

    @pytest.mark.parametrize("name", sorted(FULL_BANK_SIMS))
    def test_same_as_the_full_bank(self, monkeypatch, name):
        sim = FULL_BANK_SIMS[name]
        # off the grid, seed 35 matches a vehicle to a detection in a block
        # that is no vehicle's nearest
        for seed in (0, 35):
            scene = make_scene(sim.scene, seed)
            runs = []
            for scan_all in (False, True):
                with monkeypatch.context() as patch:
                    if scan_all:
                        full_bank(patch)
                    radar = featurize_scene(sim, scene, seed, read=range(len(scene)))
                runs.append({i: cov.matrix.tobytes() for i, cov in radar.items()})
            assert runs[0] == runs[1]

    def test_scans_at_most_five_blocks_per_vehicle(self, monkeypatch):
        sim = SimConfig()
        scanned = count_scanned(monkeypatch)
        for seed in range(4):
            scanned.clear()
            scene = make_scene(sim.scene, seed)
            featurize_scene(sim, scene, seed, read=range(len(scene)))
            assert 0 < len(scanned) <= 5 * sim.scene.n_active
            assert len(set(scanned)) == len(scanned)

    def test_one_read_vehicle_scans_at_most_five_blocks(self, monkeypatch):
        sim = SimConfig()
        scanned = count_scanned(monkeypatch)
        for seed in range(4):
            scene = make_scene(sim.scene, seed)
            for i in range(len(scene)):
                scanned.clear()
                featurize_scene(sim, scene, seed, read=[i])
                assert 0 < len(scanned) <= 5
                assert len(set(scanned)) == len(scanned)

    def test_caches_build_each_block_once_on_a_200_block_bank(self):
        """Both block caches hold a whole bank of the most blocks the
        config allows: over three full-bank scans and every block's
        reference chirp, each block is built once."""
        import radarlink.detection as detection

        sim = SimConfig(scene=SceneConfig(n_bank_blocks=200))
        bank, rx = sim.scene.bank(), sim.radar_rx
        caches = detection._block_transform, detection.reference_chirp
        assert all(c.cache_info().maxsize >= 200 for c in caches)
        for cache in caches:
            cache.cache_clear()
        try:
            for seed in range(3):
                scene = make_scene(sim.scene, seed)
                capture = scenario.scene_capture(sim, scene, seed)
                assert detection.run_bank(capture, bank, rx.cfar())
                for block in bank.blocks:
                    detection.reference_chirp(block, capture.n_samples, capture.sample_rate_hz)
                assert [c.cache_info().misses for c in caches] == [200, 200]
        finally:
            for cache in caches:
                cache.cache_clear()


class TestRunTrial:
    def test_exhaustive_zero_below_floor(self):
        sim = small_sim(t_coh_list_s=(1e-3,), protocols=("exhaustive",))
        ex_rows = [r for r in run_trial(sim, 0) if r.protocol_variant == "exhaustive"]
        assert ex_rows
        assert all(r.rate_bps == 0.0 for r in ex_rows)

    def test_assisted_positive_at_short_coherence(self):
        sim = small_sim(t_coh_list_s=(1e-2,), protocols=("narrow",))
        rows = [r for r in run_trial(sim, 0) if r.protocol_variant == "narrow"]
        assert sum(r.rate_bps for r in rows) > 0

    def test_deterministic(self):
        sim = small_sim()
        assert run_trial(sim, 3) == run_trial(sim, 3)

    def test_unknown_predictor_rejected(self):
        # rejected when the section is built, before any trial can run
        with pytest.raises(ConfigError, match="campaign.predictors = \\('psychic',\\)"):
            small_sim(predictors=("psychic",))

    def test_undetected_sole_user_goes_unserved(self, monkeypatch):
        # no stream is served on the assisted protocol: sinr gets no pairs
        monkeypatch.setattr(scenario, "featurize_scene", lambda *args, **kwargs: {})
        sim = SimConfig(
            scene=SceneConfig(n_active=1),
            campaign=CampaignConfig(
                n_trials=1, t_coh_list_s=(5e-2,), protocols=("exhaustive", "narrow")
            ),
        )
        rows = run_trial(sim, 0)
        assert not initial_detected(rows)
        narrow = [r for r in rows if r.protocol_variant == "narrow"]
        assert len(narrow) == len(sim.campaign.predictors)
        for r in narrow:
            assert (r.rate_bps, r.selected_ue_beam, r.selected_rsu_beam) == (0.0, -1, -1)
        (exhaustive,) = [r for r in rows if r.protocol_variant == "exhaustive"]
        assert exhaustive.rate_bps > 0

    def test_nn_predictor_needs_model(self):
        sim = small_sim(predictors=("nn-aps",))
        with pytest.raises(ValueError, match="needs a trained"):
            run_trial(sim, 0)


class TestTrialFeaturizesInitialOnly:
    """run_trial has featurize_scene detect and isolate, and feature_set
    run, for the initial-access user alone, and flags that user's
    detection alone."""

    @staticmethod
    def run(monkeypatch, flags):
        """One trial whose featurize_scene detects the vehicles flags picks
        from their count, with one real radar entry for each read one;
        returns (those flags, the read, that radar, the feature_set calls,
        the trial's rows)."""
        real_featurize, real_feature_set = scenario.featurize_scene, scenario.feature_set
        seen, calls = {}, []

        def featurize(sim, scene, capture_seed, read):
            n = len(scene)
            entry = next(iter(real_featurize(sim, scene, capture_seed, read=range(n)).values()))
            seen["detected"] = flags(n)
            seen["read"] = tuple(read)
            seen["radar"] = {i: entry for i in read if seen["detected"][i]}
            return dict(seen["radar"])

        def feature_set(*args):
            calls.append(args)
            return real_feature_set(*args)

        monkeypatch.setattr(scenario, "featurize_scene", featurize)
        monkeypatch.setattr(scenario, "feature_set", feature_set)
        rows = run_trial(small_sim(predictors=RAW_PREDICTORS), 0)
        return seen["detected"], seen["read"], seen["radar"], calls, rows

    @pytest.mark.parametrize("edit", ["all detected", "odd ones missed", "none detected"])
    def test_one_feature_set_for_the_initial_user(self, monkeypatch, edit):
        edits = {
            "all detected": lambda n: [True] * n,
            "odd ones missed": lambda n: [i % 2 == 0 for i in range(n)],
            "none detected": lambda n: [False] * n,
        }
        detected, read, radar, calls, rows = self.run(monkeypatch, edits[edit])
        n = len(detected)
        assert n == SceneConfig().n_active
        (initial,) = {i for i, r in enumerate(rows[:n]) if r.is_initial}
        assert read == (initial,)
        # rows run over the vehicles in scene order for each variant and
        # t_coh; a tracked user's detection is not computed
        assert len(rows) % n == 0
        for start in range(0, len(rows), n):
            block = rows[start : start + n]
            expected = [detected[i] if i == initial else None for i in range(n)]
            assert [r.detected_flag for r in block] == expected
        if not detected[initial]:
            assert calls == []
            assert not initial_detected(rows)
        else:
            ((cov,),) = calls
            assert cov is radar[initial]
            assert initial_detected(rows)


class TestIsolationCount:
    def test_trial_isolates_the_initial_user_alone(self, monkeypatch):
        """With one vehicle's detection kept at a time, a trial isolates
        one covariance when that vehicle is the initial user, none when it
        is another."""
        real_associate = scenario.associate_detections
        calls = count_isolations(monkeypatch)
        sim = small_sim()
        scene = make_scene(sim.scene, sim.campaign.seed)
        detected_runs = 0
        for keep in range(sim.scene.n_active):

            def associate(actives, *args, _kept=scene[keep].vehicle_index):
                matches = real_associate(actives, *args)
                return [m if a.vehicle_index == _kept else None for a, m in zip(actives, matches)]

            monkeypatch.setattr(scenario, "associate_detections", associate)
            calls.clear()
            detected = initial_detected(run_trial(sim, 0))
            assert len(calls) == int(detected)
            detected_runs += detected
        assert detected_runs == 1

    def test_dataset_isolates_each_detected_vehicle(self, monkeypatch, tmp_path):
        calls = count_isolations(monkeypatch)
        summary = generate_dataset(small_sim(), 2, 4, tmp_path, 0.8)
        assert summary.n_pairs_written > 0
        assert len(calls) == summary.n_pairs_written


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
        for a in scene
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
            rows = run_trial(sim, trial)
            assert len(tables) == n_users
            assert initial_detected(rows)
            oracle = log_rate_tables(sim, trial)

            groups = {}
            for r in rows:
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
        trial_rows = run_trial(sim, 0)
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

    def test_missed_detection_from_initial_rows(self, monkeypatch, tmp_path):
        """p_missed_detection, on the result and on each aggregate CSV line,
        is the fraction of trials whose initial rows are undetected."""
        real = scenario.featurize_scene

        def featurize(sim, scene, capture_seed, read):
            # odd trials miss every vehicle
            if capture_seed % 2:
                return {}
            return real(sim, scene, capture_seed, read)

        monkeypatch.setattr(scenario, "featurize_scene", featurize)
        result = run_campaign(small_sim(n_trials=4, t_coh_list_s=(5e-2,)))
        flags = [
            initial_detected([r for r in result.rows if r.trial_id == t]) for t in range(4)
        ]
        assert flags[1::2] == [False, False] and any(flags)
        assert result.p_missed_detection == flags.count(False) / 4
        path = tmp_path / "results.csv"
        write_results_csv(path, result)
        lines = path.read_text().splitlines()
        header = next(i for i, line in enumerate(lines) if line.startswith("# aggregate:"))
        assert lines[header].endswith(",p_missed_detection")
        agg_lines = lines[header + 1 :]
        assert len(agg_lines) == len(result.aggregates) > 0
        for line in agg_lines:
            assert line.split(",")[-1] == f"{flags.count(False) / 4:.6f}"


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
        # the workers inherit run_campaign's one thread only if the pool is
        # forked inside blas_threads(1), so this pins that order
        get, _ = blas2
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
        assert scenario.featurize_scene(sim, scene, 5, read=range(len(scene)))
        assert initial_detected(scenario.run_trial(sim, 0, models=models))
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

    @pytest.mark.parametrize("bad,message", [
        ({(3, "input"): np.nan}, "dataset record 3 has a non-finite input"),
        ({(1, "target"): np.inf}, "dataset record 1 has a non-finite target"),
        # the first bad record is named, and its input before its target
        ({(4, "input"): -np.inf, (2, "target"): np.nan}, "record 2 has a non-finite target"),
        ({(2, "target"): np.nan, (2, "input"): np.nan}, "record 2 has a non-finite input"),
    ], ids=["input", "target", "first-record", "input-first"])
    def test_non_finite_record_rejected(self, tmp_path, bad, message):
        path = tmp_path / "aps.rcpd"
        records = [[np.ones(8), np.zeros(8), True, i, i] for i in range(5)]
        for (i, part), value in bad.items():
            records[i][("input", "target").index(part)][5] = value
        write_dataset(path, "aps", records)
        with pytest.raises(ValueError, match=message):
            read_dataset(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "aps.rcpd"
        write_dataset(path, "aps", [(np.ones(8), np.zeros(8), True, 0, 0)])
        path.write_bytes(b"XXXX" + path.read_bytes()[4:])
        with pytest.raises(ValueError, match="magic"):
            read_dataset(path)

    def test_split_manifest_round_trip(self, tmp_path):
        path = tmp_path / "split.txt"
        write_split_manifest(path, 100, seed=3, train_fraction=0.8)
        train_idx, val_idx = read_split_manifest(path, 100)
        # each record is drawn into training with probability train_fraction
        drawn = np.random.default_rng(3).random(100) < 0.8
        assert train_idx.tolist() == np.flatnonzero(drawn).tolist()
        assert val_idx.tolist() == np.flatnonzero(~drawn).tolist()
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
