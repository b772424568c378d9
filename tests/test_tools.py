"""The measurement scripts in tools/ run and print their documented columns.

Byte-identity and detection-count comparisons between two trees rest on
these scripts, so each one is run here on one scene or trial, as a user
runs it, and output_digests.py's run_all on a one-trial sweep.
"""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

from radarlink.neural import BUILDERS, save_checkpoint

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def run_tool(name, *args):
    done = subprocess.run(
        [sys.executable, str(TOOLS / name), *args], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_detection_digest_prints_one_line_per_detection():
    lines = run_tool("detection_digest.py", "1")
    assert lines
    for line in lines:
        seed, block, lag, peak, floor = line.split()
        assert seed == "0"
        assert int(block) >= 0 and int(lag) >= 0
        assert float(peak) > float(floor) > 0


def test_detection_counts_prints_each_count_with_its_interval():
    lines = run_tool("detection_counts.py", "1")
    assert lines[0].startswith("# 1 default scenes, seeds 0-0:")
    assert lines[1].split() == ["count", "n", "of", "share", "wilson95_lo", "wilson95_hi"]
    rows = {row.split()[0]: row.split()[1:] for row in lines[2:5]}
    assert list(rows) == ["matched", "missed", "unmatched"]
    for k, n, share, lo, hi in rows.values():
        assert 0 <= int(k) <= int(n)
        assert 0.0 <= float(lo) <= float(share) <= float(hi) <= 1.0
    assert int(rows["matched"][0]) + int(rows["missed"][0]) == int(rows["matched"][1])
    name, mean, of, n_blocks = lines[5].split()
    assert (name, of, n_blocks) == ("scanned_blocks_mean", "of", "51")
    # each of the scene's vehicles adds at most its nearest block +-2
    assert 0.0 < float(mean) <= 5 * int(rows["matched"][1])
    assert lines[6] == "pipeline_matches_full_bank 1/1"
    name, mean, of, n_blocks = lines[7].split()
    assert (name, of, n_blocks) == ("single_vehicle_scanned_blocks_mean", "of", "51")
    # one vehicle's nearest block +-2
    assert 1.0 <= float(mean) <= 5.0
    vehicles = int(rows["matched"][1])
    assert lines[8] == f"single_vehicle_matches_full_bank {vehicles}/{vehicles}"
    assert len(lines) == 9


def test_hit_rates_prints_every_predictor_with_a_checkpoint(tmp_path):
    for variant in ("aps", "eigvec"):  # no covvec checkpoint: no nn-covvec
        save_checkpoint(tmp_path / f"{variant}.ckpt", BUILDERS[variant](64, seed=0))
    lines = run_tool("hit_rates.py", str(tmp_path), "1")
    predictors = ["radar-aps", "radar-eig", "radar-covvec", "nn-aps", "nn-eig"]
    assert lines[0] == f"# 1 default trials, trials 0-0, predictors {', '.join(predictors)}"
    name, los, n_los, nlos, n_nlos = lines[1].split()
    assert (name, los, nlos) == ("initial_users", "los", "nlos")
    assert int(n_los) + int(n_nlos) == 1
    assert lines[2].split() == [
        "protocol", "predictor", "hits", "n", "hit_rate", "wilson95_lo", "wilson95_hi"
    ]
    rows = [row.split() for row in lines[3:]]
    assert [row[:2] for row in rows] == [[p, q] for p in ("narrow", "wide") for q in predictors]
    for _, _, hits, n, rate, lo, hi in rows:
        assert int(hits) in (0, 1) and int(n) == 1
        assert float(rate) == int(hits)
        assert 0.0 <= float(lo) <= float(rate) <= float(hi) <= 1.0


def assert_stage_table(lines, title, stages):
    assert lines[0].startswith(title)
    assert lines[1].split() == ["stage", "calls", "wall_s", "cpu_s"]
    rows = [row.split() for row in lines[2 : 2 + len(stages) + 2]]
    assert [row[0] for row in rows] == [*stages, "other", "total"]
    for name, *figures in rows[:-2]:
        calls, wall, cpu = map(float, figures)
        assert calls >= 1.0 and wall >= 0.0 and cpu >= 0.0
    assert float(rows[-1][1]) > 0.0


def test_stage_times_prints_every_stage():
    lines = run_tool("stage_times.py", "1")
    radar = ["make_scene", "scene_capture", "run_bank", "isolate_detections", "feature_set"]
    scene_stages = [*radar, "comm_targets"]
    trial_stages = [*radar, "comm_channel", "beam_taps", "pair_scores", "sinr"]
    train_stages = ["gradient", "forward", "_Adam.step"]
    assert len(lines) == 3 * 2 + len(scene_stages) + len(trial_stages) + len(train_stages) + 6
    assert_stage_table(lines, "# 1 default scenes, seeds 100-100", scene_stages)
    lines = lines[len(scene_stages) + 4 :]
    assert_stage_table(lines, "# 1 default sweep trials, trials 1-1", trial_stages)
    lines = lines[len(trial_stages) + 4 :]
    assert lines[0].startswith("# training, 1 epochs of each variant on 2000 synthetic records")
    assert lines[1].split() == ["stage", "calls", "aps_us", "eigvec_us", "covvec_us"]
    rows = {row.split()[0]: row.split()[1:] for row in lines[2:]}
    assert list(rows) == [*train_stages, "other", "total"]
    # per epoch: 1600 training records in batches of 64, 400 validation records
    # in chunks of 64; one Adam step per batch
    assert [float(rows[name][0]) for name in train_stages] == [25.0, 7.0, 25.0]
    for name in train_stages:
        assert all(float(us) > 0.0 for us in rows[name][1:])
    assert all(float(us) > 0.0 for us in rows["total"])


def test_projection_stats_prints_both_sides():
    lines = run_tool("projection_stats.py", "1")
    assert lines[0].startswith("# 1 default scenes, seeds 100-100:")
    assert lines[1].split() == [
        "side", "calls", "unconverged", "iters_p50", "iters_max", "min_eig_rel", "lift_rel_max"
    ]
    rows = {row.split()[0]: row.split()[1:] for row in lines[2:]}
    assert list(rows) == ["radar", "comm"]
    assert rows["radar"][0] == rows["comm"][0]
    for calls, unconverged, p50, top, min_eig_rel, lift_rel_max in rows.values():
        assert int(calls) >= 1
        assert int(unconverged) == 0
        assert 1 <= float(p50) <= int(top)
        # the closing diagonal lift leaves every result PSD to rounding,
        # and it is small: the loop stops within PROJECTION_TOL
        assert float(min_eig_rel) >= -1e-12
        assert 0.0 <= float(lift_rel_max) <= 1e-4


def load_output_digests():
    spec = importlib.util.spec_from_file_location("output_digests", TOOLS / "output_digests.py")
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    return digests


def test_output_digests_repeat_in_a_fresh_directory(monkeypatch, tmp_path):
    digests = load_output_digests()
    monkeypatch.setattr(digests, "COMMANDS", [
        ("sweep", ["sweep", "--config", "default.cfg", "--out", "sweep.csv",
                   "--trials", "1", "--seed", "11", "--jobs", "1"]),
    ])
    monkeypatch.chdir(tmp_path)  # run_all changes the cwd; this restores it
    first, second = (digests.run_all(tmp_path / name) for name in ("a", "b"))
    assert first == second
    assert list(first["outputs"]) == ["sweep.csv"]
    assert first["stdout"]["sweep"]
    assert first["exit"] == {"sweep": 0}
    # the sweep's digest without its detected_flag column: the same for a
    # copy whose flags are all blanked, and not the whole file's
    results = tmp_path / "a" / "sweep.csv"
    (flagless,) = first["sweeps_without_detected_flag"].values()
    assert list(first["sweeps_without_detected_flag"]) == ["sweep.csv"]
    assert flagless != first["outputs"]["sweep.csv"]
    blanked = tmp_path / "blanked.csv"
    blanked.write_bytes(b"".join(
        line if not line[:1].isdigit() else  # comments and the header kept
        b",".join(f if k != 7 else b"" for k, f in enumerate(line.split(b",")))
        for line in results.read_bytes().splitlines(keepends=True)
    ))
    assert blanked.read_bytes() != results.read_bytes()
    assert hashlib.sha256(digests.without_column(blanked, "detected_flag")).hexdigest() == flagless


def test_output_digests_cut_one_column_and_keep_comments(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"# config\na,b,c\r\n1,,3\r\n4,5,6\r\n# agg: x,y\n")
    assert load_output_digests().without_column(path, "b") == (
        b"# config\na,c\r\n1,3\r\n4,6\r\n# agg: x,y\n"
    )
