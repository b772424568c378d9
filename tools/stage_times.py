"""Print the wall and CPU time of each stage of a dataset scene and of a
sweep trial.

Usage: python3 tools/stage_times.py N

Runs N default scenes (seeds 100 .. 100+N-1) in this process the way
generate-dataset does, with no file writing: make_scene, then
featurize_scene reading every vehicle (scene_capture, run_bank,
association, isolate_detections), then feature_set and comm_targets for
every detected vehicle.  One scene at seed 99 runs first, unmeasured, so
the bank plan is built outside the figures.  Then it runs N default sweep
trials (trials 1 .. N) through run_trial, after trial 0, unmeasured: the
radar stages of the initial user, and per user comm_channel, beam_taps
and pair_scores, then sinr per (protocol, predictor).  Everything runs
under one OpenBLAS thread.

Each stage is timed where the scenario module looks it up, by a wrapper
that reads time.perf_counter and time.process_time around the call.
Process time counts every thread, so a stage that runs on the radar
chain's threads reports their CPU too.  A stage called inside another
(comm_targets calls feature_set) counts toward the outer one only.
Nothing else is wrapped: this is the untraced cross-check of the
perfbench tracer's per-stage figures.  Output, one table per workload,
per scene or per trial:

    stage calls wall_s cpu_s
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radarlink import scenario  # noqa: E402
from radarlink.config import SimConfig  # noqa: E402
from radarlink.numerics import blas_threads  # noqa: E402

RADAR_STAGES = ("make_scene", "scene_capture", "run_bank", "isolate_detections", "feature_set")
SCENE_STAGES = (*RADAR_STAGES, "comm_targets")
TRIAL_STAGES = (*RADAR_STAGES, "comm_channel", "beam_taps", "pair_scores", "sinr")
FIRST_SEED = 100


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
    _, radar = scenario.featurize_scene(sim, scene, seed, read=range(len(scene)))
    for i, active in enumerate(scene):
        if i in radar:
            scenario.feature_set(radar[i])
            scenario.comm_targets(sim.link, active)


def measure(stages, run, items) -> tuple:
    """run(item) for every item with the stages wrapped, then unwrapped:
    (per-stage [calls, wall, cpu] totals, total wall, total CPU)."""
    totals = {name: [0, 0.0, 0.0] for name in stages}
    real = {name: getattr(scenario, name) for name in stages}
    active = []
    for name in stages:
        setattr(scenario, name, timed(name, real[name], totals, active))
    try:
        w0, c0 = time.perf_counter(), time.process_time()
        for item in items:
            run(item)
        return totals, time.perf_counter() - w0, time.process_time() - c0
    finally:
        for name in stages:
            setattr(scenario, name, real[name])


def print_table(title: str, n: int, totals: dict, wall: float, cpu: float) -> None:
    print(title)
    print(f"{'stage':<20} {'calls':>6} {'wall_s':>8} {'cpu_s':>8}")
    for name, (calls, w, c) in totals.items():
        print(f"{name:<20} {calls / n:6.2f} {w / n:8.4f} {c / n:8.4f}")
    other_w = wall - sum(w for _, w, _ in totals.values())
    other_c = cpu - sum(c for _, _, c in totals.values())
    print(f"{'other':<20} {'':>6} {other_w / n:8.4f} {other_c / n:8.4f}")
    print(f"{'total':<20} {'':>6} {wall / n:8.4f} {cpu / n:8.4f}")


def main(n: int) -> None:
    sim = SimConfig()
    with blas_threads(1):
        run_scene(sim, FIRST_SEED - 1)
        scenes = measure(
            SCENE_STAGES, lambda seed: run_scene(sim, seed), range(FIRST_SEED, FIRST_SEED + n)
        )
        scenario.run_trial(sim, 0)
        trials = measure(TRIAL_STAGES, lambda t: scenario.run_trial(sim, t), range(1, n + 1))
    print_table(f"# {n} default scenes, seeds {FIRST_SEED}-{FIRST_SEED + n - 1}; per scene",
                n, *scenes)
    print_table(f"# {n} default sweep trials, trials 1-{n}; per trial", n, *trials)


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdigit() or int(sys.argv[1]) < 1:
        sys.exit(__doc__)
    main(int(sys.argv[1]))
