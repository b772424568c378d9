"""Print the mixing bank's detections on a run of default scenes.

Usage: python3 tools/detection_digest.py N

For each seed 0 .. N-1, draws the default scene and its capture the way
detect-demo does (scenario.make_scene and scenario.scene_capture, both at
that seed), runs detection.run_bank with the default bank and CFAR, and
prints one line per detection:

    seed block lag peak_power_w floor_power_w

with the powers to 12 significant digits, in this checkout's src/.  Run it
in two trees and diff the outputs: equal (seed, block, lag) columns mean
the same detection sets, and the power columns show how far the powers
moved.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from radarlink.config import SimConfig  # noqa: E402
from radarlink.detection import run_bank  # noqa: E402
from radarlink.scenario import make_scene, scene_capture  # noqa: E402


def main(n_scenes: int) -> None:
    sim = SimConfig()
    bank, cfar = sim.scene.bank(), sim.radar_rx.cfar()
    for seed in range(n_scenes):
        capture = scene_capture(sim, make_scene(sim.scene, seed), seed)
        for d in run_bank(capture, bank, cfar):
            print(f"{seed} {d.block_index} {d.lag_index} "
                  f"{d.peak_power_w:.12g} {d.floor_power_w:.12g}")


if __name__ == "__main__":
    if len(sys.argv) != 2 or not sys.argv[1].isdigit():
        sys.exit(__doc__)
    main(int(sys.argv[1]))
