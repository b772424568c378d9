"""One fresh interpreter: import radarlink.cli, run one command, report.

Usage: python3 perfbench/child.py SPEC.json

SPEC is written by run.py.  Its ``mode`` is one of

- ``probe``: import radarlink.cli and stop (a set-up time sample);
- ``prepare``: write the seeded synthetic inputs (a training dataset and
  untrained checkpoints) and report library and BLAS versions;
- ``command``: run ``radarlink.cli.main(argv)``, optionally traced, then
  check the outputs and hash them.

The result goes to ``SPEC["result"]`` as JSON.  ``radarlink.cli`` is
imported first so that the parent can time the interpreter's start up to
the end of that import on the shared monotonic clock.
"""

import time

import radarlink.cli

IMPORTED_AT = time.perf_counter()

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

# The columns of the results CSV as documented for `radarlink sweep`.
RESULT_COLUMNS = [
    "trial_id", "user_id", "protocol_variant", "predictor_variant", "t_coh_s",
    "rate_bps", "los_flag", "detected_flag", "selected_rsu_beam", "selected_ue_beam",
]


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_sweep(c) -> list:
    """Columns, rows = trials x users x cells, finite non-negative rates."""
    with open(c["out"], newline="") as f:
        rows = list(csv.reader(line for line in f if not line.startswith("#")))
    if not rows or rows[0] != RESULT_COLUMNS:
        raise ValueError(f"results header {rows[:1]} != {RESULT_COLUMNS}")
    expected = c["trials"] * c["users"] * c["cells"]
    if len(rows) - 1 != expected:
        raise ValueError(f"{len(rows) - 1} result rows, expected {expected}")
    rates = [float(r[5]) for r in rows[1:]]
    if not all(math.isfinite(x) and x >= 0.0 for x in rates):
        raise ValueError("a rate is negative or not finite")
    return [c["out"]]


def check_dataset(c) -> list:
    """Three RCPD files that load, agree in length and are split."""
    from radarlink.scenario import read_dataset, read_split_manifest

    d = Path(c["out_dir"])
    counts = {}
    for variant in ("aps", "eigvec", "covvec"):
        name, inputs, targets, *_ = read_dataset(d / f"{variant}.rcpd")
        if name != variant or inputs.shape != targets.shape:
            raise ValueError(f"{variant}.rcpd holds {name} with shapes "
                             f"{inputs.shape} / {targets.shape}")
        counts[variant] = inputs.shape[0]
    if len(set(counts.values())) != 1:
        raise ValueError(f"record counts differ: {counts}")
    read_split_manifest(d / "split.txt", counts["aps"])
    return [d / f"{v}.rcpd" for v in ("aps", "eigvec", "covvec")] + [d / "split.txt"]


def check_train(c) -> list:
    """The checkpoint reloads; the history has the epochs, all finite."""
    from radarlink.neural import load_checkpoint

    model = load_checkpoint(c["out"])
    if model.variant != c["variant"]:
        raise ValueError(f"checkpoint holds {model.variant}, expected {c['variant']}")
    with open(c["history"]) as f:
        rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
    if len(rows) != c["epochs"]:
        raise ValueError(f"history has {len(rows)} epochs, expected {c['epochs']}")
    for r in rows:
        if not (math.isfinite(float(r["train_loss"])) and math.isfinite(float(r["val_loss"]))):
            raise ValueError(f"non-finite loss in epoch {r['epoch']}")
    return [c["out"], c["history"]]


CHECKS = {"sweep": check_sweep, "dataset": check_dataset, "train": check_train}


def run_command(spec) -> dict:
    tracer = None
    if spec.get("span_dir"):
        from tracer import Tracer

        tracer = Tracer(spec["span_dir"])
        tracer.install()
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    rc = radarlink.cli.main(spec["argv"])
    wall = time.perf_counter() - start
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    out = {
        "rc": rc,
        "wall_s": wall,
        "cpu_s": (own.ru_utime - before.ru_utime + own.ru_stime - before.ru_stime
                  + kids.ru_utime + kids.ru_stime),
        "children_cpu_s": kids.ru_utime + kids.ru_stime,
        "peak_rss_mb": max(own.ru_maxrss, kids.ru_maxrss) / 1024.0,
        "ok": False,
        "error": None,
        "digests": {},
    }
    if tracer is not None:
        out["spans"] = tracer.collect()
        out["untraced"] = tracer.missing
    if rc != 0:
        out["error"] = f"exit code {rc}"
        return out
    try:
        files = CHECKS[spec["check"]["kind"]](spec["check"])
    except (OSError, ValueError, KeyError, IndexError) as exc:
        out["error"] = f"output check failed: {exc}"
        return out
    out["ok"] = True
    out["digests"] = {Path(p).name: sha256(p) for p in files}
    return out


def prepare(spec) -> dict:
    """Seeded synthetic inputs in the library's own file formats."""
    import numpy as np
    import scipy
    from radarlink.neural import BUILDERS, save_checkpoint
    from radarlink.scenario import write_dataset

    seed = spec["seed"]
    out = {"numpy": np.__version__, "scipy": scipy.__version__, "digests": {}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        out["blas"] = "unknown"
    if spec.get("dataset_dir"):
        d = Path(spec["dataset_dir"])
        d.mkdir(parents=True, exist_ok=True)
        records = synthetic_records(spec["records"], spec["n"], seed)
        for variant, recs in records.items():
            write_dataset(d / f"{variant}.rcpd", variant, recs)
        write_split(d / "split.txt", spec["records"], seed)
        out["digests"].update({p.name: sha256(p) for p in sorted(d.iterdir())})
    if spec.get("checkpoint_dir"):
        d = Path(spec["checkpoint_dir"])
        d.mkdir(parents=True, exist_ok=True)
        for variant, build in BUILDERS.items():
            save_checkpoint(d / f"{variant}.ckpt", build(spec["n"], seed=seed))
        out["digests"].update({p.name: sha256(p) for p in sorted(d.iterdir())})
    return out


def write_split(path, count: int, seed: int) -> None:
    """An exact 80/20 split in the manifest format of write_split_manifest.

    The library's writer draws each label independently, so the validation
    set's size, and with it the peak memory of training, would vary by seed.
    """
    import numpy as np

    val = set(np.random.default_rng(seed).permutation(count)[: count // 5].tolist())
    with open(path, "w") as f:
        for i in range(count):
            f.write(f"{i} {'val' if i in val else 'train'}\n")


def synthetic_records(count: int, n: int, seed: int) -> dict:
    """Radar/comm feature pairs of a few plane-wave paths per vehicle.

    Both sides see the same paths with perturbed angles and powers, so the
    translation is learnable; shapes match what generate-dataset writes:
    APS as n reals, eigenvector and covariance vector as [Re; Im] of n.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    m = np.arange(n)

    def features(sin_angles, powers):
        steer = np.exp(1j * np.pi * np.outer(sin_angles, m))  # (paths, n)
        col = (powers[:, None] * steer).sum(axis=0) / powers.sum()  # r[0] = 1
        aps = (powers[:, None] * np.abs(np.fft.fft(steer, axis=1)) ** 2).sum(axis=0) / (n * powers.sum())
        eig = steer[np.argmax(powers)] / np.sqrt(n)
        return aps, np.concatenate([eig.real, eig.imag]), np.concatenate([col.real, col.imag])

    records = {"aps": [], "eigvec": [], "covvec": []}
    for i in range(count):
        k = int(rng.integers(1, 4))
        sin_a = rng.uniform(-0.9, 0.9, k)
        power = rng.exponential(1.0, k) + 0.05
        radar = features(np.clip(sin_a + rng.normal(0.0, 0.02, k), -1, 1),
                         power * rng.lognormal(0.0, 0.3, k))
        comm = features(sin_a, power)
        meta = (bool(rng.random() < 0.7), i // 4, i % 4)
        for variant, x, y in zip(records, radar, comm):
            records[variant].append((x, y, *meta))
    return records


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text())
    src = Path(spec["src"]).resolve()
    loaded = Path(radarlink.cli.__file__).resolve()
    if src not in loaded.parents:
        print(f"perfbench: radarlink loaded from {loaded}, not from {src}", file=sys.stderr)
        return 2
    result = {"imported_at": IMPORTED_AT}
    if spec["mode"] == "command":
        result.update(run_command(spec))
    elif spec["mode"] == "prepare":
        result.update(prepare(spec))
    Path(spec["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
