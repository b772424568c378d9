"""CLI and configuration-file tests."""

import os
import subprocess
import sys

import numpy as np
import pytest

import radarlink
from radarlink.cli import main
from radarlink.config import ConfigError, load_config, parse_config_text

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
        assert cfg.n_scenes == 2

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="unknown key 'scene.color'"):
            parse_config_text("scene.color = red")

    def test_out_of_range_named(self):
        with pytest.raises(ConfigError, match="scene.truck_fraction"):
            parse_config_text("scene.truck_fraction = 1.5")

    def test_bad_type(self):
        with pytest.raises(ConfigError, match="campaign.n_trials"):
            parse_config_text("campaign.n_trials = many")

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
        scenario.featurize_scene(sim, scenario.make_scene(sim.scene, seed), capture_seed=seed)
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

    def test_trials_override(self, config_path, tmp_path):
        out = tmp_path / "results.csv"
        rc = main(
            ["sweep", "--config", str(config_path), "--out", str(out), "--trials", "1"]
        )
        assert rc == 0


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
