"""Print the mixing bank's matched, missed and unmatched counts on default scenes.

Usage: python3 tools/detection_counts.py N

For each seed 0 .. N-1, draws the default scene and its capture the way
detect-demo does (scenario.make_scene and scenario.scene_capture, both at
that seed), runs detection.run_bank with the default bank and CFAR, and
matches its detections to the scene's active vehicles with the call
featurize_scene makes (scenario.associate_detections, within n_guard + 8
lags).  A vehicle with no matching detection is missed; a detection that
no vehicle matched is unmatched.  Prints each count with its share, of
the vehicles or of the detections, and that share's 95% Wilson score
interval (Wilson, JASA 1927), in this checkout's src/.  Run it in two
trees to compare them.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radarlink.config import SimConfig  # noqa: E402
from radarlink.detection import run_bank  # noqa: E402
from radarlink.numerics import blas_threads  # noqa: E402
from radarlink.scenario import associate_detections, make_scene, scene_capture  # noqa: E402

Z95 = 1.959963984540054


def wilson(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval of a binomial proportion k/n."""
    if n == 0:
        return float("nan"), float("nan")
    p, z = k / n, Z95
    centre = (p + z * z / (2 * n)) / (1 + z * z / n)
    half = z / (1 + z * z / n) * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
    return max(0.0, centre - half), min(1.0, centre + half)


def main(n_scenes: int) -> None:
    sim = SimConfig()
    bank, rx = sim.scene.bank(), sim.radar_rx
    vehicles = matched = detected = unmatched = 0
    with blas_threads(1):
        for seed in range(n_scenes):
            scene = make_scene(sim.scene, seed)
            detections = run_bank(scene_capture(sim, scene, seed), bank, rx.cfar())
            matches = associate_detections(
                scene, detections, bank, rx.sample_rate_hz, window_lags=rx.n_guard + 8
            )
            vehicles += len(scene)
            matched += sum(m is not None for m in matches)
            detected += len(detections)
            unmatched += len(detections) - len({m for m in matches if m is not None})
    print(f"# {n_scenes} default scenes, seeds 0-{n_scenes - 1}: "
          f"{vehicles} vehicles, {detected} detections")
    print(f"{'count':<10} {'n':>6} {'of':>6} {'share':>8} {'wilson95_lo':>12} {'wilson95_hi':>12}")
    for name, k, n in (
        ("matched", matched, vehicles),
        ("missed", vehicles - matched, vehicles),
        ("unmatched", unmatched, detected),
    ):
        lo, hi = wilson(k, n)
        share = k / n if n else float("nan")
        print(f"{name:<10} {k:6d} {n:6d} {share:8.4f} {lo:12.4f} {hi:12.4f}")


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdigit() or int(sys.argv[1]) < 1:
        sys.exit(__doc__)
    main(int(sys.argv[1]))
