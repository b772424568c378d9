"""Print the wall and CPU time of each stage of a dataset scene and of a
sweep trial, and the wall time of each step of training.

Usage: python3 tools/stage_times.py N

Runs N default scenes (seeds 100 .. 100+N-1) in this process the way
generate-dataset does, with no file writing: make_scene, then
featurize_scene reading every vehicle (scene_capture, run_bank,
association, isolate_detections), then feature_set and comm_targets for
every detected vehicle.  One scene at seed 99 runs first, unmeasured, so
the bank plan is built outside the figures.  Then it runs N default sweep
trials (trials 1 .. N) through run_trial, after trial 0, unmeasured: the
radar stages of the initial user, and per user comm_channel, beam_taps
and pair_scores, then sinr per (protocol, predictor).  Last it trains
each variant for N epochs (early stop off, default train settings) on a
seeded synthetic set the shape of the perfbench train workload's: 2,000
records at n = 64, the first 1,600 for training and the last 400 for
validation.  Everything runs under one OpenBLAS thread.

Each stage is timed where the scenario module looks it up, by a wrapper
that reads time.perf_counter and time.process_time around the call.
Process time counts every thread, so a stage that runs on the radar
chain's threads reports their CPU too.  A stage called inside another
(comm_targets calls feature_set) counts toward the outer one only.
Training is timed the same way where neural.train looks its steps up:
gradient (one per batch), forward (one per validation chunk) and
_Adam.step.  Nothing else is wrapped: this is the untraced cross-check of
the perfbench tracer's per-stage figures.  Output, one table per
workload, per scene or per trial:

    stage calls wall_s cpu_s

then the training table, in microseconds of wall time per record-epoch
(one record through one epoch, validation included) for each variant,
with the calls per epoch, which every variant shares:

    stage calls aps_us eigvec_us covvec_us
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from radarlink import neural, scenario  # noqa: E402
from radarlink.config import SimConfig, TrainConfig  # noqa: E402
from radarlink.numerics import blas_threads  # noqa: E402

RADAR_STAGES = ("make_scene", "scene_capture", "run_bank", "isolate_detections", "feature_set")
SCENE_STAGES = (*RADAR_STAGES, "comm_targets")
TRIAL_STAGES = (*RADAR_STAGES, "comm_channel", "beam_taps", "pair_scores", "sinr")
# (stage, object the name is looked up on, name)
TRAIN_STAGES = (
    ("gradient", neural, "gradient"),
    ("forward", neural, "forward"),
    ("_Adam.step", neural._Adam, "step"),
)
FIRST_SEED = 100
TRAIN_RECORDS, TRAIN_SPLIT, TRAIN_N = 2000, 1600, 64


def timed(name, fn, totals, active):
    def wrapper(*args, **kwargs):
        if active:  # inside another stage: counted there
            return fn(*args, **kwargs)
        active.append(name)
        w0, c0 = time.perf_counter(), time.process_time()
        try:
            return fn(*args, **kwargs)
        finally:
            row = totals[name]
            row[0] += 1
            row[1] += time.perf_counter() - w0
            row[2] += time.process_time() - c0
            active.pop()

    return wrapper


def run_scene(sim: SimConfig, seed: int) -> None:
    scene = scenario.make_scene(sim.scene, seed)
    radar = scenario.featurize_scene(sim, scene, seed, read=range(len(scene)))
    for i, active in enumerate(scene):
        if i in radar:
            scenario.feature_set(radar[i])
            scenario.comm_targets(sim.link, active)


def measure(stages, run, items) -> tuple:
    """run(item) for every item with the stages, (name, owner, attribute)
    triples, wrapped, then unwrapped: (per-stage [calls, wall, cpu] totals,
    total wall, total CPU)."""
    totals = {name: [0, 0.0, 0.0] for name, _, _ in stages}
    real = [getattr(owner, attr) for _, owner, attr in stages]
    active = []
    for (name, owner, attr), fn in zip(stages, real):
        setattr(owner, attr, timed(name, fn, totals, active))
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        for item in items:
            run(item)
        return totals, time.perf_counter() - w0, time.process_time() - c0
    finally:
        for (_, owner, attr), fn in zip(stages, real):
            setattr(owner, attr, fn)


def scenario_stages(names) -> list:
    return [(name, scenario, name) for name in names]


def train_variant(variant: str, epochs: int) -> None:
    """neural.train on the seeded synthetic set, for exactly epochs epochs."""
    rng = np.random.default_rng(0)
    width = neural.VARIANT_WIDTHS[variant] * TRAIN_N
    x, y = rng.standard_normal((2, TRAIN_RECORDS, width))
    model = neural.BUILDERS[variant](TRAIN_N, seed=0)
    cfg = TrainConfig(max_epochs=epochs, early_stop_patience=epochs)
    train_set = x[:TRAIN_SPLIT], y[:TRAIN_SPLIT]
    neural.train(model, train_set, (x[TRAIN_SPLIT:], y[TRAIN_SPLIT:]), cfg, variant)


def print_table(title: str, n: int, totals: dict, wall: float, cpu: float) -> None:
    print(title)
    print(f"{'stage':<20} {'calls':>6} {'wall_s':>8} {'cpu_s':>8}")
    for name, (calls, w, c) in totals.items():
        print(f"{name:<20} {calls / n:6.2f} {w / n:8.4f} {c / n:8.4f}")
    other_w = wall - sum(w for _, w, _ in totals.values())
    other_c = cpu - sum(c for _, _, c in totals.values())
    print(f"{'other':<20} {'':>6} {other_w / n:8.4f} {other_c / n:8.4f}")
    print(f"{'total':<20} {'':>6} {wall / n:8.4f} {cpu / n:8.4f}")


def print_train_table(n: int, runs: dict) -> None:
    """runs: variant -> measure()'s result for its n-epoch training."""
    print(f"# training, {n} epochs of each variant on {TRAIN_RECORDS} synthetic records "
          f"({TRAIN_SPLIT} train, {TRAIN_RECORDS - TRAIN_SPLIT} val), n = {TRAIN_N}; "
          "us per record-epoch")
    print(f"{'stage':<20} {'calls':>6} " + " ".join(f"{v + '_us':>10}" for v in runs))
    scale = 1e6 / (n * TRAIN_RECORDS)

    def row(name, calls, walls):
        print(f"{name:<20} {calls:>6} " + " ".join(f"{w * scale:10.2f}" for w in walls))

    first = next(iter(runs.values()))[0]
    for name, (calls, _, _) in first.items():
        row(name, f"{calls / n:.2f}", [totals[name][1] for totals, _, _ in runs.values()])
    row("other", "", [wall - sum(w for _, w, _ in totals.values())
                      for totals, wall, _ in runs.values()])
    row("total", "", [wall for _, wall, _ in runs.values()])


def main(n: int) -> None:
    sim = SimConfig()
    with blas_threads(1):
        run_scene(sim, FIRST_SEED - 1)
        scenes = measure(scenario_stages(SCENE_STAGES), lambda seed: run_scene(sim, seed),
                         range(FIRST_SEED, FIRST_SEED + n))
        scenario.run_trial(sim, 0)
        trials = measure(scenario_stages(TRIAL_STAGES), lambda t: scenario.run_trial(sim, t),
                         range(1, n + 1))
        runs = {v: measure(TRAIN_STAGES, lambda v: train_variant(v, n), [v])
                for v in neural.VARIANT_WIDTHS}
    print_table(f"# {n} default scenes, seeds {FIRST_SEED}-{FIRST_SEED + n - 1}; per scene",
                n, *scenes)
    print_table(f"# {n} default sweep trials, trials 1-{n}; per trial", n, *trials)
    print_train_table(n, runs)


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdigit() or int(sys.argv[1]) < 1:
        sys.exit(__doc__)
    main(int(sys.argv[1]))
