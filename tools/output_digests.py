"""Digest every output of a fixed set of radarlink commands.

Usage: python3 tools/output_digests.py OUT_DIR

Runs, through radarlink.cli.main and in this checkout's src/:

- the default sweep (4 trials, seed 11) at --jobs 1 and at --jobs 2
- a sweep with radar_rx.threshold_factor = 300 (8 trials, seed 40), which
  misses detections
- generate-dataset (4 scenes, seed 21)
- train of all three variants on that dataset (3 epochs, batch 8)
- a sweep with all six predictors on those checkpoints (4 trials, seed 31)
- detect-demo (seed 3)
- at link.n_rsu = 13, which leaves partial row chunks in the bank, the
  capture synthesis and the lowpass: a sweep (2 trials, seed 5),
  generate-dataset (4 scenes, seed 5) and train of all three variants on
  that dataset (2 epochs, batch 8)

Every path is relative to OUT_DIR, so the printed JSON object, {"outputs":
{file: sha256}, "stdout": {command: text}, "exit": {command: code},
"sweeps_without_detected_flag": {file: sha256}}, compares across
checkouts: run it in two trees and diff the two objects.  The last entry
digests each sweep's results CSV with its detected_flag column cut from
the header and every row (comment lines, the aggregate block among them,
kept), so two trees that differ in that column alone can be compared on
the rest.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radarlink.cli import main  # noqa: E402

CONFIGS = {
    "default.cfg": "",
    "threshold300.cfg": "radar_rx.threshold_factor = 300\n",
    "dataset.cfg": "dataset.n_scenes = 4\n",
    "train.cfg": "train.max_epochs = 3\ntrain.batch_size = 8\n",
    "six.cfg": (
        "campaign.predictors = radar-aps, radar-eig, radar-covvec, nn-aps, nn-eig, nn-covvec\n"
    ),
    "n13.cfg": "link.n_rsu = 13\n",
    "n13_dataset.cfg": "link.n_rsu = 13\ndataset.n_scenes = 4\n",
    "n13_train.cfg": "link.n_rsu = 13\ntrain.max_epochs = 2\ntrain.batch_size = 8\n",
}

VARIANTS = ("aps", "eigvec", "covvec")

COMMANDS = [
    ("sweep-jobs1", ["sweep", "--config", "default.cfg", "--out", "sweep_jobs1.csv",
                     "--trials", "4", "--seed", "11", "--jobs", "1"]),
    ("sweep-jobs2", ["sweep", "--config", "default.cfg", "--out", "sweep_jobs2.csv",
                     "--trials", "4", "--seed", "11", "--jobs", "2"]),
    ("sweep-threshold300", ["sweep", "--config", "threshold300.cfg",
                            "--out", "sweep_threshold300.csv", "--trials", "8", "--seed", "40"]),
    ("generate-dataset", ["generate-dataset", "--config", "dataset.cfg",
                          "--out-dir", "data", "--seed", "21"]),
    *(
        (f"train-{v}", ["train", "--config", "train.cfg", "--dataset-dir", "data",
                        "--variant", v, "--out", f"ckpt/{v}.ckpt",
                        "--history", f"ckpt/{v}_history.csv"])
        for v in VARIANTS
    ),
    ("sweep-six", ["sweep", "--config", "six.cfg", "--checkpoint-dir", "ckpt",
                   "--out", "sweep_six.csv", "--trials", "4", "--seed", "31"]),
    ("detect-demo", ["detect-demo", "--config", "default.cfg", "--out", "demo.csv",
                     "--seed", "3"]),
    ("sweep-n13", ["sweep", "--config", "n13.cfg", "--out", "sweep_n13.csv",
                   "--trials", "2", "--seed", "5"]),
    ("generate-dataset-n13", ["generate-dataset", "--config", "n13_dataset.cfg",
                              "--out-dir", "data_n13", "--seed", "5"]),
    *(
        (f"train-n13-{v}", ["train", "--config", "n13_train.cfg", "--dataset-dir", "data_n13",
                            "--variant", v, "--out", f"ckpt_n13/{v}.ckpt",
                            "--history", f"ckpt_n13/{v}_history.csv"])
        for v in VARIANTS
    ),
]


def without_column(path: Path, column: str) -> bytes:
    """The bytes of a CSV file with one column cut from its header and
    rows; comment lines and line endings are kept."""
    out, index = [], None
    for line in path.read_bytes().splitlines(keepends=True):
        body = line.rstrip(b"\r\n")
        if not body.startswith(b"#"):
            fields = body.split(b",")
            index = fields.index(column.encode()) if index is None else index
            line = b",".join(fields[:index] + fields[index + 1 :]) + line[len(body) :]
        out.append(line)
    return b"".join(out)


def run_all(out_dir: Path) -> dict:
    out_dir.mkdir(parents=True, exist_ok=True)
    os.chdir(out_dir)
    Path("ckpt").mkdir(exist_ok=True)
    Path("ckpt_n13").mkdir(exist_ok=True)
    for name, text in CONFIGS.items():
        Path(name).write_text(text)
    stdout, codes = {}, {}
    for name, argv in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            codes[name] = main(argv)
        stdout[name] = buf.getvalue()
    outputs = {
        str(p): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(".").rglob("*"))
        if p.is_file() and p.name not in CONFIGS
    }
    sweeps = {
        out: hashlib.sha256(without_column(Path(out), "detected_flag")).hexdigest()
        for out in (argv[argv.index("--out") + 1] for _, argv in COMMANDS if argv[0] == "sweep")
    }
    return {"outputs": outputs, "stdout": stdout, "exit": codes,
            "sweeps_without_detected_flag": sweeps}


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    print(json.dumps(run_all(Path(sys.argv[1])), indent=1, sort_keys=True))
