"""Print the mixing bank's matched, missed and unmatched counts on default scenes.

Usage: python3 tools/detection_counts.py N

For each seed 0 .. N-1, draws the default scene and its capture the way
detect-demo does (scenario.make_scene and scenario.scene_capture, both at
that seed), runs detection.run_bank with the default bank and CFAR, and
matches its detections to the scene's active vehicles with the call
featurize_scene makes (scenario.associate_detections, within the lag
window of scenario.match_scope).  A vehicle with no matching detection is
missed; a detection that no vehicle matched is unmatched.  Prints each
count with its share, of the vehicles or of the detections, and that
share's 95% Wilson score interval (Wilson, JASA 1927), in this checkout's
src/.  Run it in two trees to compare them.

The counts are the full bank's.  It also runs the bank the way
featurize_scene does, on the blocks the scene's vehicles can match
(scenario.match_scope), and prints the mean number of blocks that scan
computes (detection.scan_blocks) out of the bank's, and in how many scenes
associate_detections gives the same matches on it as on the full bank.
Last, it runs the bank the way a sweep trial does, for one vehicle at a
time (match_scope of that vehicle alone), and prints the mean number of
blocks that scan computes, and for how many of the V vehicles the match
on their own scan equals the full bank's:

    scanned_blocks_mean M of N
    pipeline_matches_full_bank k/n
    single_vehicle_scanned_blocks_mean M of N
    single_vehicle_matches_full_bank k/V
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radarlink.config import SimConfig  # noqa: E402
from radarlink.detection import run_bank, scan_blocks  # noqa: E402
from radarlink.numerics import blas_threads  # noqa: E402
from radarlink.scenario import (  # noqa: E402
    associate_detections,
    make_scene,
    match_scope,
    scene_capture,
)

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
    vehicles = matched = detected = unmatched = scanned = agree = 0
    single_scanned = single_agree = 0
    with blas_threads(1):
        for seed in range(n_scenes):
            scene = make_scene(sim.scene, seed)
            capture = scene_capture(sim, scene, seed)
            blocks, window = match_scope(bank, rx, scene)
            detections = run_bank(capture, bank, rx.cfar())
            matches = associate_detections(scene, detections, bank, rx.sample_rate_hz, window)
            scanned += len(scan_blocks(bank, blocks))
            piped = run_bank(capture, bank, rx.cfar(), blocks=blocks)
            agree += associate_detections(scene, piped, bank, rx.sample_rate_hz, window) == matches
            for active, match in zip(scene, matches):
                own, _ = match_scope(bank, rx, [active])
                single_scanned += len(scan_blocks(bank, own))
                alone = run_bank(capture, bank, rx.cfar(), blocks=own)
                single_agree += associate_detections(
                    [active], alone, bank, rx.sample_rate_hz, window) == [match]
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
    print(f"scanned_blocks_mean {scanned / n_scenes:.2f} of {len(bank.blocks)}")
    print(f"pipeline_matches_full_bank {agree}/{n_scenes}")
    print(f"single_vehicle_scanned_blocks_mean {single_scanned / vehicles:.2f} "
          f"of {len(bank.blocks)}")
    print(f"single_vehicle_matches_full_bank {single_agree}/{vehicles}")


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdigit() or int(sys.argv[1]) < 1:
        sys.exit(__doc__)
    main(int(sys.argv[1]))
