"""A campaign's records, their aggregates and the results CSV.

A trial returns one TrialUserRow per (protocol, predictor, coherence
time, user): the campaign's only record.  The aggregates and the
missed-detection probability are derived from the rows, and
write_results_csv writes all three.  A trial detects its initial user
alone: detected_flag is 0 or 1 on its rows and empty on a tracked user's.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .beamtraining import outage


@dataclass(frozen=True)
class TrialUserRow:
    trial_id: int
    user_id: int
    protocol_variant: str
    predictor_variant: str
    t_coh_s: float
    rate_bps: float
    los_flag: bool
    detected_flag: bool | None  # None on a tracked (not is_initial) user's row
    selected_rsu_beam: int
    selected_ue_beam: int
    is_initial: bool


@dataclass(frozen=True)
class AggregateRow:
    protocol_variant: str
    predictor_variant: str
    t_coh_s: float
    mean_sum_rate_bps: float
    p_outage_los: float
    p_outage_nlos: float


@dataclass(frozen=True)
class CampaignResult:
    rows: list
    aggregates: list
    p_missed_detection: float


def p_missed_detection(rows) -> float:
    """The fraction of trials whose initial-user rows are undetected."""
    # every initial row of a trial carries its initial user's flag
    missed = {r.trial_id: not r.detected_flag for r in rows if r.is_initial}
    return float(np.mean(list(missed.values())))


def aggregate_rows(rows, r_min_bps) -> list:
    """Per (protocol, predictor, t_coh): mean sum rate and outage stats.

    Outage is evaluated on the initial-access user; for assisted variants
    only trials whose initial row is detected enter the outage pool.  The
    missed-detection probability is the campaign's, not a group's: see
    p_missed_detection.
    """
    groups = {}
    for r in rows:
        groups.setdefault((r.protocol_variant, r.predictor_variant, r.t_coh_s), []).append(r)
    out = []
    for (proto, pred, t_coh), group in sorted(groups.items()):
        per_trial = {}
        for r in group:
            per_trial[r.trial_id] = per_trial.get(r.trial_id, 0.0) + r.rate_bps
        mean_sum = float(np.mean(list(per_trial.values())))
        pool = [r for r in group if r.is_initial and (proto == "exhaustive" or r.detected_flag)]
        los_rates = [r.rate_bps for r in pool if r.los_flag]
        nlos_rates = [r.rate_bps for r in pool if not r.los_flag]
        p_los = outage(los_rates, r_min_bps) if los_rates else float("nan")
        p_nlos = outage(nlos_rates, r_min_bps) if nlos_rates else float("nan")
        out.append(AggregateRow(proto, pred, t_coh, mean_sum, p_los, p_nlos))
    return out


RESULT_COLUMNS = (
    "trial_id", "user_id", "protocol_variant", "predictor_variant", "t_coh_s", "rate_bps",
    "los_flag", "detected_flag", "selected_rsu_beam", "selected_ue_beam",
)


def write_results_csv(path, result: CampaignResult, header_lines=()) -> None:
    """Per-trial rows in the documented column order, then an aggregate
    block as comment lines, each ending in the campaign's missed-detection
    probability."""
    with open(path, "w", newline="") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        writer = csv.writer(f)
        writer.writerow(RESULT_COLUMNS)
        for r in result.rows:
            writer.writerow([
                r.trial_id, r.user_id, r.protocol_variant, r.predictor_variant,
                f"{r.t_coh_s:.9g}", f"{r.rate_bps:.9e}", int(r.los_flag),
                "" if r.detected_flag is None else int(r.detected_flag),
                r.selected_rsu_beam, r.selected_ue_beam,
            ])
        f.write("# aggregate: protocol,predictor,t_coh_s,mean_sum_rate_bps,"
                "p_outage_los,p_outage_nlos,p_missed_detection\n")
        for a in result.aggregates:
            f.write(
                f"# {a.protocol_variant},{a.predictor_variant},{a.t_coh_s:.9g},"
                f"{a.mean_sum_rate_bps:.9e},{a.p_outage_los:.6f},"
                f"{a.p_outage_nlos:.6f},{result.p_missed_detection:.6f}\n"
            )
