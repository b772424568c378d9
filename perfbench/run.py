"""radarlink benchmark: CLI workloads run in fresh processes, one at a time.

Usage (from the root of a radarlink checkout):

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):

    sweep        `radarlink sweep`, default arrays, raw predictors, 2 trials a command
    dataset      `radarlink generate-dataset`, 3 scenes a command
    train        `radarlink train` for aps, eigvec and covvec on a synthetic dataset
    sweep-jobs2  `radarlink sweep --jobs 2`, all six predictors, untrained checkpoints

Load shape: a closed loop.  One command runs at a time, each in a fresh
interpreter; the only concurrency is the program's own `--jobs 2` pool.
Commands are issued until `--seconds` have passed.  The thread
environment is inherited unchanged and recorded, never set.

With `--trace 0` the last stdout line carries the end-to-end metrics.
With `--trace 1` it carries per-layer metrics from spans recorded around
calls into each radarlink module (perfbench/tracer.py); each measured
round runs untraced and then traced on the same inputs, so the tracing
overhead is measured too.  The line before it is the run record: seeds,
input sizes, environment and the sha256 of every input and output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import VARIANTS, layer_metrics

HERE = Path(__file__).resolve().parent

RAW_PREDICTORS = ("radar-aps", "radar-eig", "radar-covvec")
ALL_PREDICTORS = RAW_PREDICTORS + ("nn-aps", "nn-eig", "nn-covvec")
PROTOCOLS = ("exhaustive", "narrow", "wide")
T_COH_S = (1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1)
N_ACTIVE = 4
N_RSU = 64

# Items per command (or per round of three `train` commands), and the
# reduced sizes the self-test uses.
SIZES = {
    "sweep": {"trials": 2},
    "dataset": {"scenes": 3},
    "train": {"records": 2000, "epochs": 3},
    "sweep-jobs2": {"trials": 2},
}
TINY_SIZES = {
    "sweep": {"trials": 1},
    "dataset": {"scenes": 1},
    "train": {"records": 200, "epochs": 1},
    "sweep-jobs2": {"trials": 2},
}
ITEM = {"sweep": "trial", "dataset": "scene", "train": "record-epoch", "sweep-jobs2": "trial"}

RUN_LIMIT_S = 170.0  # every run must end well inside 180 s
MIN_SETUP_SAMPLES = 7


class Workload:
    """Writes one workload's config and inputs and lists its commands."""

    def __init__(self, name: str, work: Path, seed: int, sizes: dict, jobs: int | None = None):
        self.name = name
        self.work = work
        self.seed = seed
        self.sizes = sizes
        self.jobs = jobs if jobs is not None else (2 if name == "sweep-jobs2" else 1)
        self.config = work / "bench.cfg"
        self.dataset_dir = work / "train-data"
        self.checkpoint_dir = work / "checkpoints"

    def config_lines(self) -> list:
        if self.name == "train":
            e = self.sizes["epochs"]
            # patience >= max_epochs fixes the epoch count
            return [f"train.max_epochs = {e}", f"train.early_stop_patience = {e}"]
        if self.name == "dataset":
            return [f"dataset.n_scenes = {self.sizes['scenes']}"]
        predictors = ALL_PREDICTORS if self.name == "sweep-jobs2" else RAW_PREDICTORS
        return [
            f"scene.n_active = {N_ACTIVE}",
            f"link.n_rsu = {N_RSU}",
            "campaign.protocols = " + ", ".join(PROTOCOLS),
            "campaign.predictors = " + ", ".join(predictors),
            "campaign.t_coh_list_s = " + ", ".join(f"{t:g}" for t in T_COH_S),
        ]

    def prepare_spec(self) -> dict:
        """What child.py must write before the first command, if anything."""
        spec = {"mode": "prepare", "seed": self.seed, "n": N_RSU}
        if self.name == "train":
            spec.update(dataset_dir=str(self.dataset_dir), records=self.sizes["records"])
        if self.name == "sweep-jobs2":
            spec.update(checkpoint_dir=str(self.checkpoint_dir))
        return spec

    def round(self, k: int, tag: str = "") -> list:
        """Commands of round k as (argv, items, check); seeds never repeat in a run.

        ``tag`` only renames the output directory, so a round can be rerun
        on the same inputs.
        """
        base = self.seed * 1000
        out = self.work / f"round-{k}{tag}"
        out.mkdir()
        if self.name == "train":
            e, n = self.sizes["epochs"], self.sizes["records"]
            cmds = []
            for v in VARIANTS:
                ckpt, hist = out / f"{v}.ckpt", out / f"{v}.history.csv"
                argv = ["train", "--config", str(self.config), "--dataset-dir",
                        str(self.dataset_dir), "--variant", v, "--out", str(ckpt),
                        "--history", str(hist), "--seed", str(base + k)]
                check = {"kind": "train", "out": str(ckpt), "history": str(hist),
                         "variant": v, "epochs": e}
                cmds.append((argv, n * e, check))
            return cmds
        if self.name == "dataset":
            s = self.sizes["scenes"]
            argv = ["generate-dataset", "--config", str(self.config), "--out-dir",
                    str(out), "--seed", str(base + k * s)]
            return [(argv, s, {"kind": "dataset", "out_dir": str(out)})]
        t = self.sizes["trials"]
        csv_path = out / "results.csv"
        argv = ["sweep", "--config", str(self.config), "--out", str(csv_path),
                "--seed", str(base + k * t), "--trials", str(t), "--jobs", str(self.jobs)]
        n_pred = len(ALL_PREDICTORS if self.name == "sweep-jobs2" else RAW_PREDICTORS)
        if self.name == "sweep-jobs2":
            argv += ["--checkpoint-dir", str(self.checkpoint_dir)]
        check = {"kind": "sweep", "out": str(csv_path), "trials": t, "users": N_ACTIVE,
                 "cells": (1 + (len(PROTOCOLS) - 1) * n_pred) * len(T_COH_S)}
        return [(argv, t, check)]


class Runner:
    """Starts child.py processes and always reaps them, pool workers included."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.root = root
        self.work = work
        self.deadline = deadline
        self.n = 0
        self.env = dict(os.environ)
        src = str(root / "src")
        self.env["PYTHONPATH"] = src + (os.pathsep + self.env["PYTHONPATH"]
                                        if self.env.get("PYTHONPATH") else "")

    def child(self, spec: dict) -> dict:
        self.n += 1
        spec_path = self.work / f"spec-{self.n}.json"
        result_path = self.work / f"result-{self.n}.json"
        spec = dict(spec, src=str(self.root / "src"), result=str(result_path))
        spec_path.write_text(json.dumps(spec))
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            return {"ok": False, "error": "no time left in the run"}
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(spec_path)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return {"ok": False, "error": f"timed out after {timeout:.0f} s"}
        finally:
            # pool workers share the child's process group; none may outlive it
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
        if proc.returncode != 0 or not result_path.exists():
            tail = err.decode(errors="replace").strip().splitlines()[-3:]
            return {"ok": False, "error": f"child exit {proc.returncode}: {' | '.join(tail)}"}
        result = json.loads(result_path.read_text())
        result["setup_s"] = result["imported_at"] - started
        if not result.get("ok", True) and result.get("error"):
            print(f"perfbench: {result['error']}", file=sys.stderr)
        return result


def median(xs):
    return statistics.median(xs) if xs else 0.0


def rate(items, seconds):
    return items / seconds if seconds > 0 else 0.0


def end_to_end(commands: list, setup: list) -> dict:
    """Medians over the measured rounds; a round is one command, or the
    three `train` commands, so that every round has the same variant mix."""
    rounds = {}
    for c in commands:
        if c["ok"] and not c["warmup"]:
            rounds.setdefault(c["round"], []).append(c)
    per_round = list(rounds.values())
    return {
        "setup_s": (median(setup), "s"),
        "items_per_s": (median([
            rate(sum(c["items"] for c in r), sum(c["wall_s"] for c in r)) for r in per_round
        ]), "items/s"),
        "cpu_s_per_item": (median([
            sum(c["cpu_s"] for c in r) / sum(c["items"] for c in r) for r in per_round
        ]), "s"),
        "peak_rss_mb": (median([max(c["peak_rss_mb"] for c in r) for r in per_round]), "MB"),
    }


def per_layer(commands: list) -> dict:
    traced = [c for c in commands if c["ok"] and c["traced"]]
    plain = [c for c in commands if c["ok"] and not c["traced"] and not c["warmup"]]
    items = sum(c["items"] for c in traced)
    spans = [s for c in traced for s in c["spans"]]
    m = layer_metrics(
        spans, items, [c["setup_s"] for c in traced], sum(c["children_cpu_s"] for c in traced)
    )
    traced_rate = rate(items, sum(c["wall_s"] for c in traced))
    plain_rate = rate(sum(c["items"] for c in plain), sum(c["wall_s"] for c in plain))
    attempted = sum(c["items"] for c in commands)
    m["trace.items_per_s"] = traced_rate
    m["trace.untraced_items_per_s"] = plain_rate
    m["trace.overhead_frac"] = 1.0 - traced_rate / plain_rate if plain_rate else 0.0
    m["failed_frac"] = sum(c["items"] for c in commands if not c["ok"]) / attempted
    return {name: (value, layer_unit(name)) for name, value in m.items()}


def layer_unit(name: str) -> str:
    if name.startswith("neural.record_epochs_per_s"):
        return "record-epochs/s"
    if name.endswith("items_per_s"):
        return "items/s"
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_frac") or name.endswith("_per_vehicle"):
        return "ratio"
    return "count"


def environment(root: Path, prepared: dict) -> dict:
    git = root / ".git" / "HEAD"
    commit = None
    if git.is_file():
        head = git.read_text().strip()
        ref = root / ".git" / head[5:] if head.startswith("ref: ") else None
        commit = ref.read_text().strip() if ref is not None and ref.is_file() else head
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": prepared.get("numpy"),
        "scipy": prepared.get("scipy"),
        "blas": prepared.get("blas"),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
    }


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False, jobs: int | None = None) -> tuple:
    """One benchmark run; returns (result line, run record)."""
    start = time.perf_counter()
    work = root / ".perfbench_work" / f"{workload}-{os.getpid()}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        sizes = (TINY_SIZES if tiny else SIZES)[workload]
        wl = Workload(workload, work, seed, sizes, jobs)
        wl.config.write_text("\n".join(wl.config_lines()) + "\n")
        runner = Runner(root, work, start + RUN_LIMIT_S)
        prepared = runner.child(wl.prepare_spec())
        if "numpy" not in prepared:
            raise RuntimeError(f"preparing inputs failed: {prepared.get('error')}")
        commands = []
        measure_start = None
        k = 0
        while True:
            # Round 0 warms the machine up and is checked but not measured.
            # A traced run repeats each measured round traced, on the same
            # inputs, so the two rates differ only by the tracing overhead.
            for traced in (False, True) if trace and k > 0 else (False,):
                for argv, items, check in wl.round(k, "-traced" if traced else ""):
                    spec = {"mode": "command", "argv": argv, "check": check}
                    if traced:
                        span_dir = work / f"spans-{runner.n + 1}"
                        span_dir.mkdir()
                        spec["span_dir"] = str(span_dir)
                    res = runner.child(spec)
                    res.update(argv=argv, items=items, traced=traced, round=k, warmup=k == 0)
                    res.setdefault("ok", False)
                    commands.append(res)
            k += 1
            now = time.perf_counter()
            if measure_start is None:
                measure_start = now
            elif now - measure_start >= seconds or now > start + RUN_LIMIT_S / 2:
                break
        setup = [c["setup_s"] for c in commands if "setup_s" in c]
        while not trace and len(setup) < MIN_SETUP_SAMPLES:
            probe = runner.child({"mode": "probe"})
            if "setup_s" not in probe:
                break
            setup.append(probe["setup_s"])
        metrics = per_layer(commands) if trace else end_to_end(commands, setup)
        attempted = sum(c["items"] for c in commands)
        failed = sum(c["items"] for c in commands if not c["ok"])
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
        record = {
            "workload": workload,
            "item": ITEM[workload],
            "seed": seed,
            "seconds": seconds,
            "trace": trace,
            "sizes": sizes,
            "jobs": wl.jobs,
            "environment": environment(root, prepared),
            "input_digests": prepared.get("digests", {}),
            "commands": [
                {
                    "argv": c["argv"],
                    "items": c["items"],
                    "round": c["round"],
                    "traced": c["traced"],
                    "cpu_s": c.get("cpu_s"),
                    "peak_rss_mb": c.get("peak_rss_mb"),
                    "ok": c["ok"],
                    "error": c.get("error"),
                    "wall_s": c.get("wall_s"),
                    "setup_s": c.get("setup_s"),
                    "digests": c.get("digests", {}),
                    "untraced_targets": c.get("untraced", []),
                }
                for c in commands
            ],
            "setup_samples_s": setup,
        }
        return result, record
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".perfbench_work").rmdir()
        except OSError:
            pass


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(SIZES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # a terminated run still stops its command and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "radarlink" / "cli.py").is_file():
        print(f"perfbench: no radarlink source under {root / 'src'}; "
              "run from the root of a radarlink checkout", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be >= 0", file=sys.stderr)
        return 2
    try:
        result, record = run(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
