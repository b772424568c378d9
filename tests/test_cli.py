"""CLI and configuration-file tests."""

import contextlib
import os
import re
import subprocess
import sys
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest

import radarlink
from radarlink.beamtraining import ASSISTED_SEARCH_SIZES
from radarlink.cli import main
from radarlink.detection import cfar_detect
from radarlink.neural import BUILDERS, VARIANT_WIDTHS, load_checkpoint, save_checkpoint
from radarlink.scenario import read_dataset, write_dataset
from radarlink.config import (
    PREDICTOR_KINDS,
    SCHEMA,
    SECTIONS,
    ConfigError,
    SimConfig,
    TrainConfig,
    build_run_config,
    load_config,
    parse_config_text,
)

SMALL_CONFIG = """
# desk-scale smoke configuration
campaign.n_trials = 1
campaign.t_coh_list_s = 0.002, 0.05
campaign.protocols = exhaustive, narrow
campaign.predictors = radar-aps
campaign.seed = 3
dataset.n_scenes = 2
train.max_epochs = 2
train.batch_size = 8
"""

# split.txt that generate-dataset writes for SMALL_CONFIG at the default
# train_fraction of 0.8 (8 detected records)
DEFAULT_SPLIT = "0 train\n1 train\n2 val\n3 train\n4 val\n5 train\n6 val\n7 train\n"


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


class TestConfigParsing:
    def test_defaults_loaded(self, config_path):
        cfg = load_config(config_path)
        assert cfg.sim.campaign.n_trials == 1
        assert cfg.sim.campaign.t_coh_list_s == (0.002, 0.05)
        assert cfg.sim.link.n_rsu == 64
        assert cfg.dataset.n_scenes == 2

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'scene.color'"):
            parse_config_text("scene.color = red")

    def test_out_of_range_named(self):
        with pytest.raises(ConfigError, match="scene.truck_fraction"):
            parse_config_text("scene.truck_fraction = 1.5")

    def test_bad_type(self):
        with pytest.raises(ConfigError, match="campaign.n_trials"):
            parse_config_text("campaign.n_trials = many")

    def test_schema_is_the_run_config_fields(self):
        """Every value a RunConfig holds, keyed by the section that holds it."""

        def keys(obj, section=None):
            found = set()
            for f in fields(obj):
                value = getattr(obj, f.name)
                if is_dataclass(value):
                    found |= keys(value, f.name)
                elif section is not None:
                    found.add(f"{section}.{f.name}")
            return found

        assert keys(build_run_config({})) == set(SCHEMA)

    @pytest.mark.parametrize("key", ["campaign.protocols", "campaign.predictors"])
    def test_empty_choice_list_rejected(self, tmp_path, capsys, key):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_CONFIG + f"{key} =\n")
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["sweep", "--out", "r.csv"],
        ["generate-dataset", "--out-dir", "ds"],
        ["train", "--dataset-dir", "ds", "--variant", "eigvec", "--out", "e.ckpt"],
        ["detect-demo", "--out", "d.csv"],
    ])
    def test_one_element_rsu_array_rejected(self, tmp_path, monkeypatch, capsys, argv):
        # one element has no beam to choose; every command refuses it before any work
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_CONFIG + "campaign.protocols = exhaustive\nlink.n_rsu = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main([argv[0], "--config", str(path), *argv[1:]]) == 2
        assert "key 'link.n_rsu' value '1' rejected" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.cfg"]

    def test_comments_and_blanks(self):
        values = parse_config_text("# hi\n\ncampaign.seed = 5  # trailing\n")
        assert values == {"campaign.seed": 5}

    def test_cross_field_validation(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(
            "scene.chirp_rate_min_hz_per_s = 5e12\nscene.chirp_rate_max_hz_per_s = 1e12\n"
        )
        with pytest.raises(ConfigError, match="chirp_rate_min"):
            load_config(path)

    def test_array_below_assisted_search_size(self):
        values = parse_config_text("link.n_rsu = 8\ncampaign.protocols = narrow, wide\n")
        with pytest.raises(ConfigError, match="link.n_rsu = 8 is below the 12-beam"):
            build_run_config(values)
        # the narrow search alone fits in 8 beams
        build_run_config(parse_config_text("link.n_rsu = 8\ncampaign.protocols = narrow\n"))

    def test_exhaustive_search_fills_whole_ss_blocks(self):
        values = parse_config_text("link.n_rsu = 13\nlink.n_ue = 3\n")
        with pytest.raises(ConfigError, match=r"link.n_rsu x link.n_ue, exhaustive search"):
            build_run_config(values)
        # without the exhaustive search no block count depends on n_rsu
        build_run_config(
            parse_config_text("link.n_rsu = 13\nlink.n_ue = 3\ncampaign.protocols = narrow, wide\n")
        )

    def test_grid_chirps_need_a_block_per_radar(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("scene.n_bank_blocks = 3\nscene.n_active = 4\n")
        rc = main(["detect-demo", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        with pytest.raises(ConfigError, match="scene.n_bank_blocks = 3"):
            load_config(path)
        build_run_config(parse_config_text(
            "scene.n_bank_blocks = 3\nscene.n_active = 4\nscene.chirp_on_grid = false\n"
        ))


    @pytest.mark.parametrize("fraction", ["0.0", "1.0"])
    def test_train_fraction_splits_both_ways(self, tmp_path, fraction):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + f"dataset.train_fraction = {fraction}\n")
        out_dir = tmp_path / "ds"
        rc = main(["generate-dataset", "--config", str(path), "--out-dir", str(out_dir)])
        assert rc == 2
        assert not out_dir.exists()
        with pytest.raises(ConfigError, match=r"'dataset.train_fraction' value '%s'" % fraction):
            load_config(path)

    def test_lr_min_above_learning_rate(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + "train.learning_rate = 1e-3\ntrain.lr_min = 1e-2\n")
        rc = main([
            "train", "--config", str(path), "--dataset-dir", str(tmp_path / "ds"),
            "--variant", "aps", "--out", str(tmp_path / "aps.ckpt"),
        ])
        assert rc == 2
        with pytest.raises(
            ConfigError, match=r"train.lr_min = 0.01 is above train.learning_rate = 0.001"
        ):
            load_config(path)
        # a floor equal to the starting rate keeps the rate fixed
        build_run_config(parse_config_text("train.learning_rate = 1e-3\ntrain.lr_min = 1e-3\n"))

    def test_taps_must_fit_in_subcarriers(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + "link.n_taps = 4096\n")
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert not (tmp_path / "r.csv").exists()
        with pytest.raises(
            ConfigError, match=r"link.n_taps = 4096 does not fit in link.k_subcarriers = 2048"
        ):
            load_config(path)
        # a channel as long as the symbol still fits
        build_run_config(parse_config_text("link.n_taps = 1024\nlink.k_subcarriers = 1024\n"))

    @pytest.mark.parametrize(
        "lines, lags",
        [("radar_rx.n_floor = 900\n", 1667), ("scene.chirp_rate_max_hz_per_s = 2e14\n", 50)],
    )
    def test_cfar_rings_fit_the_shortest_block(self, tmp_path, lines, lags):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + lines)
        rc = main(["sweep", "--config", str(path), "--out", str(tmp_path / "r.csv")])
        assert rc == 2
        assert not (tmp_path / "r.csv").exists()
        with pytest.raises(
            ConfigError,
            match=rf"radar_rx.n_guard = 54 and radar_rx.n_floor = \d+ .* the {lags} lags "
            r".*scene.chirp_rate_max_hz_per_s",
        ):
            load_config(path)

    def test_cfar_ring_limit_is_the_detector_limit(self):
        # the default bank's fastest block has round(100e6 / 6e12 * 100e6) = 1667 lags
        cfg = build_run_config(parse_config_text("radar_rx.n_floor = 779\n"))
        bank, cfar = cfg.sim.scene.bank(), cfg.sim.radar_rx.cfar()
        n_lags = bank.blocks[-1].n_lags(cfg.sim.radar_rx.sample_rate_hz)
        assert n_lags == 1667
        assert cfar_detect(np.ones(n_lags), cfar) == []
        with pytest.raises(ConfigError, match="radar_rx.n_floor = 780"):
            build_run_config(parse_config_text("radar_rx.n_floor = 780\n"))
        with pytest.raises(ValueError, match="cannot fit"):
            cfar_detect(np.ones(n_lags), replace(cfar, n_floor=780))

    def test_all_trucks_rejected(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text(SMALL_CONFIG + "scene.truck_fraction = 1\n")
        rc = main(["detect-demo", "--config", str(path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        with pytest.raises(ConfigError, match=r"'scene.truck_fraction' value '1'"):
            load_config(path)
        build_run_config(parse_config_text("scene.truck_fraction = 0.99\n"))


# a valid value other than the default for every config key
NON_DEFAULT_VALUES = {
    "scene.lane_speeds_kmh": ("70, 40", (70.0, 40.0)),
    "scene.truck_fraction": ("0.3", 0.3),
    "scene.coverage_m": ("50", 50.0),
    "scene.drop_span_m": ("200", 200.0),
    "scene.n_active": ("3", 3),
    "scene.rsu_x_m": ("1.5", 1.5),
    "scene.rsu_y_m": ("-7", -7.0),
    "scene.rsu_z_m": ("5", 5.0),
    "scene.near_wall_y_m": ("-9", -9.0),
    "scene.far_wall_y_m": ("22", 22.0),
    "scene.comm_mount_height_m": ("1.4", 1.4),
    "scene.radar_mount_height_m": ("0.6", 0.6),
    "scene.radar_yaw_deg": ("15", 15.0),
    "scene.comm_carrier_hz": ("60e9", 60e9),
    "scene.radar_carrier_hz": ("77e9", 77e9),
    "scene.chirp_rate_min_hz_per_s": ("2e12", 2e12),
    "scene.chirp_rate_max_hz_per_s": ("5e12", 5e12),
    "scene.chirp_bandwidth_hz": ("200e6", 200e6),
    "scene.chirp_on_grid": ("false", False),
    "scene.n_bank_blocks": ("31", 31),
    "scene.radar_power_w": ("0.5", 0.5),
    "scene.reflection_amp": ("0.3", 0.3),
    "scene.mismatch_sigma_db": ("2", 2.0),
    "scene.n_subrays": ("2", 2),
    "link.n_rsu": ("32", 32),
    "link.n_ue": ("8", 8),
    "link.k_subcarriers": ("1024", 1024),
    "link.subcarrier_spacing_hz": ("120e3", 120e3),
    "link.n_taps": ("256", 256),
    "link.tx_power_dbm": ("20", 20.0),
    "link.noise_figure_db": ("7", 7.0),
    "radar_rx.sample_rate_hz": ("200e6", 200e6),
    "radar_rx.n_samples": ("2048", 2048),
    "radar_rx.noise_power_w": ("1e-11", 1e-11),
    "radar_rx.n_guard": ("40", 40),
    "radar_rx.n_floor": ("80", 80),
    "radar_rx.threshold_factor": ("8", 8.0),
    "radar_rx.lowpass_bw_hz": ("2e5", 2e5),
    "radar_rx.lowpass_taps": ("1025", 1025),
    "campaign.n_trials": ("5", 5),
    "campaign.t_coh_list_s": ("0.001, 0.01", (0.001, 0.01)),
    "campaign.protocols": ("narrow", ("narrow",)),
    "campaign.predictors": ("nn-eig, radar-aps", ("nn-eig", "radar-aps")),
    "campaign.r_min_bps": ("5e7", 5e7),
    "campaign.seed": ("11", 11),
    "campaign.jobs": ("2", 2),
    "train.learning_rate": ("5e-4", 5e-4),
    "train.batch_size": ("32", 32),
    "train.max_epochs": ("50", 50),
    "train.early_stop_patience": ("8", 8),
    "train.lr_halve_patience": ("3", 3),
    "train.lr_min": ("1e-7", 1e-7),
    "train.seed": ("4", 4),
    "dataset.n_scenes": ("40", 40),
    "dataset.train_fraction": ("0.7", 0.7),
}


def config_field(cfg, key):
    """The RunConfig field that a config key sets."""
    section, name = key.split(".")
    if section in ("train", "dataset"):
        return getattr(getattr(cfg, section), name)
    return getattr(getattr(cfg.sim, section), name)


class TestEveryKeyReachesItsField:
    def test_table_covers_the_schema(self):
        assert set(NON_DEFAULT_VALUES) == set(SCHEMA)

    def test_value_reaches_field(self):
        defaults = build_run_config({})
        wrong = []
        for key, (text, value) in NON_DEFAULT_VALUES.items():
            got = config_field(build_run_config(parse_config_text(f"{key} = {text}")), key)
            if config_field(defaults, key) == value or got != value:
                wrong.append((key, value, got))
        assert wrong == []


def outside_values(f):
    """Values just outside a field's declared range, choices or distinctness:
    one past each bound, an unknown choice, a repeated element."""
    meta = f.metadata
    if "choices" in meta:
        return [("bogus",), f.default[:1] * 2]
    lo, hi, lo_open, hi_open = meta.get("range", (None, None, False, False))
    integral = isinstance(f.default, int)

    def past(bound, is_open, direction):
        if is_open:
            return bound
        return bound + direction if integral else float(np.nextafter(bound, direction * np.inf))

    values = [past(b, o, d) for b, o, d in ((lo, lo_open, -1), (hi, hi_open, 1)) if b is not None]
    if isinstance(f.default, tuple):
        values = [(v,) for v in values]
        if meta["distinct"]:
            values.append(f.default[:1] * 2)
    return values


OUTSIDE = [
    (section, f.name, value)
    for section, cls in SECTIONS.items()
    for f in fields(cls)
    for value in outside_values(f)
]


def wrong_type(default):
    """The default as its neighbouring type, which a range check alone
    would pass: an int for a bool, a float for an int, a bool for a float,
    a list for a tuple."""
    if isinstance(default, bool):
        return int(default)
    if isinstance(default, int):
        return float(default)
    if isinstance(default, float):
        return bool(default)
    return list(default)


WRONG_TYPE = [
    (section, f.name, wrong_type(f.default))
    for section, cls in SECTIONS.items()
    for f in fields(cls)
]


def value_text(value):
    if isinstance(value, tuple):
        return ", ".join(str(x) if isinstance(x, str) else repr(x) for x in value)
    return repr(value)


class TestEveryKeyIsChecked:
    """Each key's declared range is enforced from a file line and when its
    section is built directly, so a Python-built config meets the file's rules."""

    def test_only_unbounded_keys_lack_a_case(self):
        covered = {f"{section}.{name}" for section, name, _ in OUTSIDE}
        assert set(SCHEMA) - covered == {
            "scene.rsu_x_m", "scene.rsu_y_m", "scene.near_wall_y_m", "scene.far_wall_y_m",
            "scene.chirp_on_grid",
        }

    @pytest.mark.parametrize(
        "section, name, value", OUTSIDE, ids=[f"{s}.{n}={v!r}" for s, n, v in OUTSIDE]
    )
    def test_rejected_from_a_file_line_and_when_built(self, section, name, value):
        key = f"{section}.{name}"
        with pytest.raises(ConfigError, match=rf"^line 2: key '{re.escape(key)}'"):
            parse_config_text(f"# one key\n{key} = {value_text(value)}\n")
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} = "):
            SECTIONS[section](**{name: value})

    @pytest.mark.parametrize(
        "section, name, value", WRONG_TYPE, ids=[f"{s}.{n}={v!r}" for s, n, v in WRONG_TYPE]
    )
    def test_wrong_type_rejected_when_built(self, section, name, value):
        with pytest.raises(ConfigError, match=rf"^{re.escape(section)}\.{name} = .* rejected"):
            SECTIONS[section](**{name: value})

    @pytest.mark.parametrize("key, text", [
        ("campaign.t_coh_list_s", "0.1, 0.1"),
        ("campaign.protocols", "narrow, narrow"),
        ("campaign.predictors", "radar-aps, radar-aps"),
    ])
    def test_repeated_sweep_entry_rejected(self, tmp_path, capsys, key, text):
        # a repeated entry would count its trials twice in the aggregates;
        # building the section with one is among the generated cases above
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_CONFIG + f"{key} = {text}\n")
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out)]) == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["narrow, narrow", "narrow, sideways"])
    def test_file_line_names_what_the_key_expects(self, text):
        # a repeated entry and an unknown choice are rejected in the words
        # the section check uses
        with pytest.raises(ConfigError) as err:
            parse_config_text(f"campaign.protocols = {text}\n")
        assert str(err.value) == (
            f"line 1: key 'campaign.protocols' value '{text}' rejected: expects "
            "non-empty comma list of distinct ('exhaustive', 'narrow', 'wide')"
        )

    def test_lanes_may_share_a_speed(self):
        speeds = parse_config_text("scene.lane_speeds_kmh = 50, 50\n")["scene.lane_speeds_kmh"]
        assert SECTIONS["scene"](lane_speeds_kmh=speeds).lane_speeds_kmh == (50.0, 50.0)

    @pytest.mark.parametrize("section, changes, message", [
        ("scene", {"chirp_rate_min_hz_per_s": 6e12}, "scene.chirp_rate_min_hz_per_s"),
        ("scene", {"n_bank_blocks": 3}, "scene.n_bank_blocks = 3 cannot give"),
        ("radar_rx", {"n_floor": 780}, "radar_rx.n_floor = 780 CFAR cells"),
        ("link", {"n_taps": 4096}, "link.n_taps = 4096 does not fit"),
        ("radar_rx", {"lowpass_bw_hz": 50e6}, "radar_rx.lowpass_bw_hz must be below half"),
        ("radar_rx", {"lowpass_taps": 2048}, "radar_rx.lowpass_taps must be odd"),
        ("link", {"n_rsu": 8}, "link.n_rsu = 8 is below the 12-beam assisted search"),
        ("link", {"n_rsu": 13, "n_ue": 3}, "link.n_rsu x link.n_ue, exhaustive search"),
    ])
    def test_replace_hits_each_relation(self, section, changes, message):
        sim = SimConfig()
        part = replace(getattr(sim, section), **changes)  # each key alone is in range
        with pytest.raises(ConfigError, match=re.escape(message)):
            replace(sim, **{section: part})

    def test_replace_hits_the_learning_rate_floor(self):
        with pytest.raises(ConfigError, match=r"train.lr_min = 0.01 is above"):
            replace(TrainConfig(), lr_min=1e-2)


class TestDetectDemo:
    def test_writes_csv(self, config_path, tmp_path):
        out = tmp_path / "demo.csv"
        rc = main(["detect-demo", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        header_rows = [l for l in lines if l.startswith("#")]
        assert any("campaign.seed" in l for l in header_rows)
        data = [l for l in lines if not l.startswith("#")]
        assert data[0] == "block_index,chirp_rate_hz_per_s,lag,power_db"
        assert len(data) > 1000

    def test_matched_blocks_have_peaks(self, config_path, tmp_path):
        out = tmp_path / "demo.csv"
        assert main(["detect-demo", "--config", str(config_path), "--out", str(out)]) == 0
        import csv as csvmod

        by_block = {}
        with open(out) as f:
            rows = [r for r in f if not r.startswith("#")]
        reader = csvmod.DictReader(rows)
        for row in reader:
            by_block.setdefault(int(row["block_index"]), []).append(float(row["power_db"]))
        peaky = [
            b
            for b, powers in by_block.items()
            if max(powers) >= np.median(powers) + 20.0
        ]
        # the scene has 4 on-grid radars: at least 3 clearly peaky blocks
        assert len(peaky) >= 3

    def test_deterministic(self, config_path, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["detect-demo", "--config", str(config_path), "--out", str(out1)])
        main(["detect-demo", "--config", str(config_path), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_same_capture_as_featurize_scene(self, config_path, tmp_path, monkeypatch):
        """Both paths synthesize through the name radarlink.scenario.synthesize_rx."""
        import radarlink.scenario as scenario

        real = scenario.synthesize_rx
        captures = []

        def recording(*args, **kwargs):
            capture = real(*args, **kwargs)
            captures.append(capture.samples)
            return capture

        monkeypatch.setattr(scenario, "synthesize_rx", recording)
        out = tmp_path / "demo.csv"
        assert main(["detect-demo", "--config", str(config_path), "--out", str(out)]) == 0
        sim = load_config(config_path).sim
        seed = sim.campaign.seed
        scenario.featurize_scene(sim, scenario.make_scene(sim.scene, seed), seed, read=())
        assert len(captures) == 2
        assert np.array_equal(captures[0], captures[1])


class TestGenerateDataset:
    def test_writes_files_and_manifest(self, config_path, tmp_path):
        out_dir = tmp_path / "ds"
        rc = main(
            ["generate-dataset", "--config", str(config_path), "--out-dir", str(out_dir)]
        )
        assert rc == 0
        for variant in ("aps", "eigvec", "covvec"):
            assert (out_dir / f"{variant}.rcpd").exists()
        assert (out_dir / "split.txt").exists()

    def test_train_fraction_reaches_split(self, config_path, tmp_path):
        d80, d50 = tmp_path / "d80", tmp_path / "d50"
        cfg50 = tmp_path / "half.cfg"
        cfg50.write_text(SMALL_CONFIG + "dataset.train_fraction = 0.5\n")
        assert main(["generate-dataset", "--config", str(config_path), "--out-dir", str(d80)]) == 0
        assert main(["generate-dataset", "--config", str(cfg50), "--out-dir", str(d50)]) == 0
        # the default 0.8 split of this config, as every earlier version wrote it
        assert (d80 / "split.txt").read_text() == DEFAULT_SPLIT
        for name in ("aps.rcpd", "eigvec.rcpd", "covvec.rcpd"):
            assert (d80 / name).read_bytes() == (d50 / name).read_bytes()
        split80 = dict(l.split() for l in (d80 / "split.txt").read_text().splitlines())
        split50 = dict(l.split() for l in (d50 / "split.txt").read_text().splitlines())
        assert split50 != split80
        # one uniform draw per record: a smaller fraction only moves train -> val
        assert {i for i, s in split50.items() if s == "train"} <= {
            i for i, s in split80.items() if s == "train"
        }

    def test_rerun_identical_bytes(self, config_path, tmp_path):
        d1, d2 = tmp_path / "d1", tmp_path / "d2"
        main(["generate-dataset", "--config", str(config_path), "--out-dir", str(d1)])
        main(["generate-dataset", "--config", str(config_path), "--out-dir", str(d2)])
        for name in ("aps.rcpd", "eigvec.rcpd", "covvec.rcpd", "split.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


class TestTrainCommand:
    def test_train_and_checkpoint(self, config_path, tmp_path):
        ds = tmp_path / "ds"
        main(["generate-dataset", "--config", str(config_path), "--out-dir", str(ds)])
        ckpt = tmp_path / "eigvec.ckpt"
        hist = tmp_path / "hist.csv"
        rc = main(
            [
                "train",
               "--config", str(config_path),
                "--dataset-dir", str(ds),
                "--variant", "eigvec",
                "--out", str(ckpt),
                "--history", str(hist),
            ]
        )
        assert rc == 0
        assert ckpt.exists()
        lines = [l for l in hist.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "epoch,train_loss,val_loss,learning_rate"
        assert len(lines) == 3  # max_epochs = 2

    def test_missing_dataset(self, config_path, tmp_path):
        rc = main(
            [
                "train",
                "--config", str(config_path),
                "--dataset-dir", str(tmp_path / "nope"),
                "--variant", "aps",
                "--out", str(tmp_path / "x.ckpt"),
            ]
        )
        assert rc == 3

    @pytest.mark.parametrize("bad_line", ["42 train", "0 val"])
    def test_bad_split_index_is_a_runtime_error(self, config_path, tmp_path, capsys, bad_line):
        # the last record's line replaced: out of range, or a repeat of record 0
        ds = tmp_path / "ds"
        main(["generate-dataset", "--config", str(config_path), "--out-dir", str(ds)])
        lines = (ds / "split.txt").read_text().splitlines()
        (ds / "split.txt").write_text("\n".join(lines[:-1] + [bad_line]) + "\n")
        ckpt = tmp_path / "aps.ckpt"
        argv = ["train", "--config", str(config_path), "--dataset-dir", str(ds)]
        assert main(argv + ["--variant", "aps", "--out", str(ckpt)]) == 3
        assert f"split line {len(lines)}: index" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_trailing_dataset_bytes_is_a_runtime_error(self, config_path, tmp_path, capsys):
        ds = tmp_path / "ds"
        main(["generate-dataset", "--config", str(config_path), "--out-dir", str(ds)])
        with open(ds / "aps.rcpd", "ab") as f:
            f.write(bytes(8))
        ckpt = tmp_path / "aps.ckpt"
        argv = ["train", "--config", str(config_path), "--dataset-dir", str(ds)]
        assert main(argv + ["--variant", "aps", "--out", str(ckpt)]) == 3
        assert "dataset has 8 bytes after its" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_non_finite_dataset_is_a_runtime_error(self, config_path, tmp_path, capsys):
        # a NaN input in a validation record (DEFAULT_SPLIT's record 2)
        records = [(np.ones(8), np.ones(8), True, i, 0) for i in range(8)]
        records[2][0][3] = np.nan
        ds = tmp_path / "ds"
        ds.mkdir()
        write_dataset(ds / "aps.rcpd", "aps", records)
        (ds / "split.txt").write_text(DEFAULT_SPLIT)
        ckpt = tmp_path / "aps.ckpt"
        argv = ["train", "--config", str(config_path), "--dataset-dir", str(ds)]
        assert main(argv + ["--variant", "aps", "--out", str(ckpt)]) == 3
        assert "dataset record 2 has a non-finite input" in capsys.readouterr().err
        assert not ckpt.exists()

    def test_one_blas_thread_matches_two_bytes(self, config_path, tmp_path, monkeypatch, blas2):
        """Every variant's checkpoint and history are the same bytes with
        train's one-thread limiter as with 2 BLAS threads."""
        import radarlink.neural as neural

        rng = np.random.default_rng(4)
        ds = tmp_path / "ds"
        ds.mkdir()
        for variant, width in VARIANT_WIDTHS.items():
            records = [(rng.random(64 * width), rng.random(64 * width), True, i, 0)
                       for i in range(24)]
            write_dataset(ds / f"{variant}.rcpd", variant, records)
        (ds / "split.txt").write_text(
            "".join(f"{i} {'val' if i % 4 == 0 else 'train'}\n" for i in range(24))
        )

        def run(tag):
            outputs = []
            for variant in VARIANT_WIDTHS:
                ckpt, hist = tmp_path / f"{variant}-{tag}.ckpt", tmp_path / f"{variant}-{tag}.csv"
                argv = ["train", "--config", str(config_path), "--dataset-dir", str(ds),
                        "--variant", variant, "--out", str(ckpt), "--history", str(hist)]
                assert main(argv) == 0
                outputs += [ckpt.read_bytes(), hist.read_bytes()]
            return outputs

        limited = run("one")
        monkeypatch.setattr(neural, "blas_threads", lambda n: contextlib.nullcontext())
        assert run("two") == limited

    def test_deterministic_checkpoint(self, config_path, tmp_path):
        ds = tmp_path / "ds"
        main(["generate-dataset", "--config", str(config_path), "--out-dir", str(ds)])
        c1, c2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        for ckpt in (c1, c2):
            rc = main(
                [
                    "train",
                    "--config", str(config_path),
                    "--dataset-dir", str(ds),
                    "--variant", "covvec",
                    "--out", str(ckpt),
                ]
            )
            assert rc == 0
        assert c1.read_bytes() == c2.read_bytes()


class TestSweepCommand:
    def test_sweep_without_checkpoints(self, config_path, tmp_path):
        out = tmp_path / "results.csv"
        rc = main(["sweep", "--config", str(config_path), "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        data = [l for l in lines if not l.startswith("#")]
        assert data[0].startswith("trial_id,user_id,protocol_variant")
        assert len(data) > 1

    def test_nn_predictor_missing_checkpoint(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG + "campaign.predictors = nn-aps\n")
        rc = main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "r.csv")])
        assert rc == 3

    def test_truncated_checkpoint_is_a_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG + "campaign.predictors = nn-aps\n")
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        (ckpt_dir / "aps.ckpt").write_bytes(b"MLPC")
        out = tmp_path / "r.csv"
        argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--checkpoint-dir", str(ckpt_dir)]) == 3
        assert "checkpoint truncated in its header" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_checkpoint_is_a_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG + "campaign.predictors = nn-aps\n")
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        model = BUILDERS["aps"](64, seed=0)
        model.layers[1].weights.flat[0] = np.nan
        save_checkpoint(ckpt_dir / "aps.ckpt", model)
        out = tmp_path / "r.csv"
        argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--checkpoint-dir", str(ckpt_dir)]) == 3
        assert "checkpoint layer 1 has non-finite weights" in capsys.readouterr().err
        assert not out.exists()

    def test_trailing_checkpoint_bytes_is_a_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG + "campaign.predictors = nn-aps\n")
        ckpt_dir = tmp_path / "ckpt"
        ckpt_dir.mkdir()
        save_checkpoint(ckpt_dir / "aps.ckpt", BUILDERS["aps"](64, seed=0))
        with open(ckpt_dir / "aps.ckpt", "ab") as f:
            f.write(bytes(8))
        out = tmp_path / "r.csv"
        argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--checkpoint-dir", str(ckpt_dir)]) == 3
        assert "checkpoint has 8 bytes after its normalization constant" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, stored, extra, held",
        [
            # eigvec and covvec are both 2n wide: no width check tells them apart
            ("covvec", ("eigvec", 64), "", "64-element eigvec"),
            ("aps", ("aps", 64), "link.n_rsu = 32\n", "64-element aps"),
        ],
    )
    def test_mismatched_checkpoint_stops_before_any_trial(
        self, tmp_path, monkeypatch, capsys, kind, stored, extra, held
    ):
        import radarlink.scenario as scenario

        drawn = []
        monkeypatch.setattr(scenario, "make_scene", lambda *a: drawn.append(a))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG + extra + f"campaign.predictors = nn-{kind}\n")
        ckpt = tmp_path / "ckpt" / f"{kind}.ckpt"
        ckpt.parent.mkdir()
        variant, n = stored
        save_checkpoint(ckpt, BUILDERS[variant](n, seed=0))
        out = tmp_path / "r.csv"
        argv = ["sweep", "--config", str(cfg), "--out", str(out)]
        assert main(argv + ["--checkpoint-dir", str(ckpt.parent)]) == 3
        err = capsys.readouterr().err
        assert str(ckpt) in err and held in err
        assert drawn == []
        assert not out.exists()

    def test_rerun_identical_bytes(self, config_path, tmp_path):
        o1, o2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        main(["sweep", "--config", str(config_path), "--out", str(o1)])
        main(["sweep", "--config", str(config_path), "--out", str(o2)])
        assert o1.read_bytes() == o2.read_bytes()

    def test_jobs2_matches_jobs1_bytes(self, config_path, tmp_path):
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"r{jobs}.csv"
            argv = ["sweep", "--config", str(config_path), "--out", str(out)]
            assert main(argv + ["--trials", "2", "--jobs", jobs]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_one_blas_thread_matches_two_bytes(self, config_path, tmp_path, monkeypatch, blas2):
        """A 2-trial sweep and a 2-scene dataset write the same bytes with
        the trial pipeline's one-thread limiter as with 2 BLAS threads."""
        import radarlink.scenario as scenario

        def run(tag):
            out, ds = tmp_path / f"r-{tag}.csv", tmp_path / f"ds-{tag}"
            argv = ["--config", str(config_path)]
            assert main(["sweep", *argv, "--out", str(out), "--trials", "2"]) == 0
            assert main(["generate-dataset", *argv, "--out-dir", str(ds)]) == 0
            return [out.read_bytes()] + [p.read_bytes() for p in sorted(ds.iterdir())]

        limited = run("one")
        monkeypatch.setattr(scenario, "blas_threads", lambda n: contextlib.nullcontext())
        assert run("two") == limited

    def test_trials_override(self, config_path, tmp_path):
        out = tmp_path / "results.csv"
        rc = main(
            ["sweep", "--config", str(config_path), "--out", str(out), "--trials", "1"]
        )
        assert rc == 0


class TestEveryArraySize:
    # 12 and 24 sit below and above the bank's 16-row detection subarray;
    # below 12 elements, on 2, 5 and 8, only the exhaustive search fits; the
    # odd 5 and 13 run the odd real form of the projection, the odd
    # Chebyshev window and partial row chunks of the bank and the lowpass
    @pytest.mark.parametrize("n", [2, 5, 8, 12, 13, 16, 24, 32, 64])
    def test_dataset_train_checkpoint_sweep(self, tmp_path, monkeypatch, n):
        assisted = n >= max(ASSISTED_SEARCH_SIZES.values())
        protocols = "exhaustive, narrow, wide" if assisted else "exhaustive"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            SMALL_CONFIG
            + f"link.n_rsu = {n}\nlink.n_ue = 8\ntrain.max_epochs = 1\ncampaign.n_trials = 1\n"
            + f"campaign.protocols = {protocols}\n"
            + "campaign.predictors = " + ", ".join(PREDICTOR_KINDS) + "\n"
        )
        ds, ck = tmp_path / "ds", tmp_path / "ck"
        assert main(["generate-dataset", "--config", str(cfg), "--out-dir", str(ds)]) == 0
        ck.mkdir()
        for variant, width in VARIANT_WIDTHS.items():
            name, inputs, targets, *_ = read_dataset(ds / f"{variant}.rcpd")
            assert name == variant
            assert inputs.shape[0] > 0
            assert inputs.shape[1] == targets.shape[1] == width * n
            ckpt = ck / f"{variant}.ckpt"
            argv = ["train", "--config", str(cfg), "--dataset-dir", str(ds),
                    "--variant", variant, "--out", str(ckpt)]
            assert main(argv) == 0
            back = load_checkpoint(ckpt)
            shapes = [l.weights.shape for l in BUILDERS[variant](n).layers]
            assert [l.weights.shape for l in back.layers] == shapes
        import radarlink.scenario as scenario

        predicted = []
        real_predict = scenario.predict_variant

        def recording(model, feature):
            predicted.append(model.variant)
            return real_predict(model, feature)

        monkeypatch.setattr(scenario, "predict_variant", recording)
        out = tmp_path / "results.csv"
        argv = ["sweep", "--config", str(cfg), "--out", str(out), "--checkpoint-dir", str(ck)]
        assert main(argv) == 0
        rows = [l.split(",") for l in out.read_text().splitlines() if not l.startswith("#")]
        if assisted:
            # one prediction per nn- predictor: narrow and wide share it
            assert sorted(predicted) == sorted(VARIANT_WIDTHS)
            assert {r[3] for r in rows[1:]} == set(PREDICTOR_KINDS) | {"none"}
        else:
            assert predicted == []
            assert {(r[2], r[3]) for r in rows[1:]} == {("exhaustive", "none")}
        assert all(int(r[8]) < n and int(r[9]) < 8 for r in rows[1:])


class TestTrainSizesFromDataset:
    @pytest.mark.parametrize("variant", sorted(VARIANT_WIDTHS))
    def test_dataset_wider_than_config_array(self, tmp_path, variant):
        # a 64-element dataset trained under link.n_rsu = 32
        n, width = 64, VARIANT_WIDTHS[variant] * 64
        rng = np.random.default_rng(1)
        records = [
            (rng.random(width), rng.random(width), True, i // 4, i % 4) for i in range(20)
        ]
        ds = tmp_path / "ds"
        ds.mkdir()
        write_dataset(ds / f"{variant}.rcpd", variant, records)
        (ds / "split.txt").write_text("".join(
            f"{i} {'val' if i % 5 == 0 else 'train'}\n" for i in range(20)
        ))
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG + "link.n_rsu = 32\ntrain.max_epochs = 1\n")
        ckpt = tmp_path / f"{variant}.ckpt"
        argv = ["train", "--config", str(cfg), "--dataset-dir", str(ds),
                "--variant", variant, "--out", str(ckpt)]
        assert main(argv) == 0
        shapes = [l.weights.shape for l in BUILDERS[variant](n).layers]
        assert [l.weights.shape for l in load_checkpoint(ckpt).layers] == shapes


class TestStoredWidthRule:
    # width VARIANT_WIDTHS[variant] x n with n >= 2: zero, n = 1, and odd
    @pytest.mark.parametrize("variant,width", [
        ("aps", 0), ("aps", 1),
        ("eigvec", 0), ("eigvec", 2), ("eigvec", 13),
        ("covvec", 0), ("covvec", 2), ("covvec", 13),
    ])
    def test_train_rejects_a_width_that_fits_no_array(self, tmp_path, capsys, variant, width):
        rng = np.random.default_rng(2)
        records = [(rng.random(width), rng.random(width), True, i, 0) for i in range(10)]
        ds = tmp_path / "ds"
        ds.mkdir()
        write_dataset(ds / f"{variant}.rcpd", variant, records, dim=width)
        (ds / "split.txt").write_text(
            "".join(f"{i} {'val' if i < 2 else 'train'}\n" for i in range(10))
        )
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SMALL_CONFIG)
        ckpt = tmp_path / f"{variant}.ckpt"
        argv = ["train", "--config", str(cfg), "--dataset-dir", str(ds),
                "--variant", variant, "--out", str(ckpt)]
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"dataset record width {width} fits no {variant} model" in err
        assert not ckpt.exists()


class TestSeedOverrides:
    def test_rseed_env(self, config_path, tmp_path, monkeypatch):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        monkeypatch.setenv("RSEED", "9")
        main(["detect-demo", "--config", str(config_path), "--out", str(out_a)])
        monkeypatch.delenv("RSEED")
        main(["detect-demo", "--config", str(config_path), "--out", str(out_b), "--seed", "9"])
        # both override to seed 9: identical scenes and outputs
        a = [l for l in out_a.read_text().splitlines() if not l.startswith("#")]
        b = [l for l in out_b.read_text().splitlines() if not l.startswith("#")]
        assert a == b

    def test_bad_rseed(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv("RSEED", "elephant")
        rc = main(["detect-demo", "--config", str(config_path), "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    @pytest.mark.parametrize(
        "flags, rseed, key",
        [
            (["--seed", "-1"], None, "campaign.seed"),
            ([], "-2", "campaign.seed"),
            (["--trials", "0"], None, "campaign.n_trials"),
            (["--jobs", "0"], None, "campaign.jobs"),
        ],
    )
    def test_bad_override_is_a_config_error(
        self, config_path, tmp_path, monkeypatch, capsys, flags, rseed, key
    ):
        import radarlink.scenario as scenario

        drawn = []
        monkeypatch.setattr(scenario, "make_scene", lambda *a: drawn.append(a))
        if rseed is not None:
            monkeypatch.setenv("RSEED", rseed)
        out = tmp_path / "r.csv"
        rc = main(["sweep", "--config", str(config_path), "--out", str(out)] + flags)
        assert rc == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert drawn == []
        assert not out.exists()

    def test_trials_flag_is_echoed(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(SMALL_CONFIG + "campaign.n_trials = 3\n")
        out = tmp_path / "r.csv"
        assert main(["sweep", "--config", str(path), "--out", str(out), "--trials", "1"]) == 0
        lines = out.read_text().splitlines()
        assert "# campaign.n_trials = 1" in lines
        assert "# campaign.n_trials = 3" not in lines
        rows = [l for l in lines if not l.startswith("#")][1:]
        assert {r.split(",")[0] for r in rows} == {"0"}

    def test_config_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("scene.color = red\n")
        rc = main(["detect-demo", "--config", str(cfg), "--out", str(tmp_path / "x.csv")])
        assert rc == 2


class TestConsoleScript:
    def test_module_invocation(self, config_path, tmp_path):
        out = tmp_path / "demo.csv"
        # the child imports the same radarlink as this process
        src_dir = os.path.dirname(os.path.dirname(radarlink.__file__))
        path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "radarlink.cli", "detect-demo",
             "--config", str(config_path), "--out", str(out)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert out.exists()


class TestImportCost:
    def test_config_import_loads_no_scenario(self):
        src_dir = os.path.dirname(os.path.dirname(radarlink.__file__))
        path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
        code = "import sys, radarlink.config; print('radarlink.scenario' in sys.modules)"
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_cli_import_leaves_blas_alone(self):
        # the OpenBLAS lookup waits for the first trial: importing the CLI
        # neither scans for the library nor changes its thread count
        src_dir = os.path.dirname(os.path.dirname(radarlink.__file__))
        tests_dir = os.path.dirname(__file__)
        path = os.pathsep.join(filter(None, [src_dir, tests_dir, os.environ.get("PYTHONPATH")]))
        code = (
            "from conftest import bundled_openblas_threads; "
            "found = bundled_openblas_threads(); "
            "before = found and found[0](); "
            "import radarlink.cli, radarlink.numerics as nm; "
            "print(before == (found and found[0]()), nm._openblas_threads.cache_info().misses)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["True", "0"]

    def test_cli_import_loads_no_scipy(self):
        # scipy is a test dependency only: every command starts without it
        src_dir = os.path.dirname(os.path.dirname(radarlink.__file__))
        path = os.pathsep.join(filter(None, [src_dir, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, radarlink.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
