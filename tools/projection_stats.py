"""Print the Toeplitz-PSD projection's convergence on default dataset scenes.

Usage: python3 tools/projection_stats.py N

Runs N default scenes (seeds 100 .. 100+N-1) the way generate-dataset
does, with no file writing: make_scene, featurize_scene reading every
vehicle, then feature_set (the radar side) and comm_targets (the comm
side) for every detected vehicle, under one OpenBLAS thread, in this
checkout's src/.  Every toeplitz_psd_project call is recorded where the
scenario module looks it up.  Prints, per side, the calls, how many ended
unconverged, the median and largest iteration count, and the worst
smallest eigenvalue of a result's Toeplitz matrix relative to its input,
min over calls of lambda_min(T(c)) / ||A||_F, and the largest closing
diagonal lift relative to ||A||_F (ProjectionResult.lift_rel):

    side calls unconverged iters_p50 iters_max min_eig_rel lift_rel_max
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radarlink import scenario  # noqa: E402
from radarlink.config import SimConfig  # noqa: E402
from radarlink.covfeatures import reconstruct_toeplitz  # noqa: E402
from radarlink.numerics import blas_threads  # noqa: E402

FIRST_SEED = 100
SIDES = ("radar", "comm")


def min_eig_rel(r_hat, res) -> float:
    """lambda_min(T(res.col)) / ||r_hat||_F."""
    lam = np.linalg.eigvalsh(reconstruct_toeplitz(res.col).matrix)[0]
    return float(lam) / float(np.linalg.norm(r_hat.matrix))


def collect(n: int) -> dict:
    """{side: [(ProjectionResult, its min_eig_rel), ...]} over n default
    scenes."""
    sim = SimConfig()
    results = {side: [] for side in SIDES}
    side = [SIDES[0]]
    real = scenario.toeplitz_psd_project

    def recorded(r_hat):
        res = real(r_hat)
        results[side[0]].append((res, min_eig_rel(r_hat, res)))
        return res

    scenario.toeplitz_psd_project = recorded
    try:
        with blas_threads(1):
            for seed in range(FIRST_SEED, FIRST_SEED + n):
                scene = scenario.make_scene(sim.scene, seed)
                radar = scenario.featurize_scene(sim, scene, seed, read=range(len(scene)))
                for i, active in enumerate(scene):
                    if i in radar:
                        side[0] = "radar"
                        scenario.feature_set(radar[i])
                        side[0] = "comm"
                        scenario.comm_targets(sim.link, active)
    finally:
        scenario.toeplitz_psd_project = real
    return results


def main(n: int) -> None:
    results = collect(n)
    print(f"# {n} default scenes, seeds {FIRST_SEED}-{FIRST_SEED + n - 1}: "
          "Toeplitz-PSD projections per side")
    print(f"{'side':<6} {'calls':>6} {'unconverged':>12} {'iters_p50':>10} {'iters_max':>10} "
          f"{'min_eig_rel':>12} {'lift_rel_max':>12}")
    for side, runs in results.items():
        iters = [r.iterations for r, _ in runs]
        unconverged = sum(not r.converged for r, _ in runs)
        p50 = f"{np.median(iters):g}" if iters else "nan"
        top = str(max(iters)) if iters else "nan"
        worst = f"{min(lam for _, lam in runs):.2e}" if runs else "nan"
        lift = f"{max(r.lift_rel for r, _ in runs):.2e}" if runs else "nan"
        print(f"{side:<6} {len(runs):>6} {unconverged:>12} {p50:>10} {top:>10} {worst:>12} "
              f"{lift:>12}")


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdigit() or int(sys.argv[1]) < 1:
        sys.exit(__doc__)
    main(int(sys.argv[1]))
