"""Print each predictor's initial-user beam hit rate on default sweep trials.

Usage: python3 tools/hit_rates.py CKPT_DIR N

Runs default trials 0 .. N-1 through scenario.run_campaign, in this
checkout's src/, with the raw predictors plus each nn- predictor whose
checkpoint ({aps,eigvec,covvec}.ckpt) is in CKPT_DIR.  A trial's initial
user hits for an assisted (protocol, predictor) when its selected beam
pair equals the one exhaustive search selects for it; an undetected
initial user is served on no pair, so it is a miss.  Prints the number of
LOS and NLOS initial users, then each hit rate with its 95% Wilson score
interval (detection_counts.wilson):

    initial_users los L nlos M
    protocol predictor hits n hit_rate wilson95_lo wilson95_hi

Run it in two trees, on checkpoints each trained, to compare them.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from detection_counts import wilson  # noqa: E402
from radarlink.config import PREDICTOR_KINDS, RAW_PREDICTORS, SimConfig  # noqa: E402
from radarlink.neural import load_checkpoint  # noqa: E402
from radarlink.scenario import run_campaign  # noqa: E402


def main(ckpt_dir: Path, n_trials: int) -> None:
    models = {
        kind: load_checkpoint(ckpt_dir / f"{kind}.ckpt")
        for kind in dict.fromkeys(PREDICTOR_KINDS.values())
        if (ckpt_dir / f"{kind}.ckpt").exists()
    }
    trained = [p for p, kind in PREDICTOR_KINDS.items() if p.startswith("nn-") and kind in models]
    sim = SimConfig()
    campaign = dataclasses.replace(
        sim.campaign, n_trials=n_trials, predictors=(*RAW_PREDICTORS, *trained)
    )
    result = run_campaign(dataclasses.replace(sim, campaign=campaign), models=models)
    # the selected pair is the same at every t_coh
    pairs, los = {}, {}
    for row in result.rows:
        if row.is_initial:
            key = (row.trial_id, row.protocol_variant, row.predictor_variant)
            pairs[key] = (row.selected_ue_beam, row.selected_rsu_beam)
            los[row.trial_id] = row.los_flag
    n_los = sum(los.values())
    print(f"# {n_trials} default trials, trials 0-{n_trials - 1}, "
          f"predictors {', '.join(campaign.predictors)}")
    print(f"initial_users los {n_los} nlos {n_trials - n_los}")
    print(f"{'protocol':<10} {'predictor':<12} {'hits':>5} {'n':>5} {'hit_rate':>8} "
          f"{'wilson95_lo':>12} {'wilson95_hi':>12}")
    for protocol in campaign.protocols:
        if protocol == "exhaustive":
            continue
        for predictor in campaign.predictors:
            hits = sum(
                pairs[t, protocol, predictor] == pairs[t, "exhaustive", "none"]
                for t in range(n_trials)
            )
            lo, hi = wilson(hits, n_trials)
            print(f"{protocol:<10} {predictor:<12} {hits:5d} {n_trials:5d} "
                  f"{hits / n_trials:8.4f} {lo:12.4f} {hi:12.4f}")


if __name__ == "__main__":
    if (len(sys.argv) != 3 or not Path(sys.argv[1]).is_dir()
            or not sys.argv[2].isdigit() or int(sys.argv[2]) < 1):
        sys.exit(__doc__)
    main(Path(sys.argv[1]), int(sys.argv[2]))
