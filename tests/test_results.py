"""Tests for the campaign's aggregates and the results CSV."""

import math

import pytest

from radarlink.results import (
    CampaignResult,
    TrialUserRow,
    aggregate_rows,
    p_missed_detection,
    write_results_csv,
)


def row(trial, user, rate, protocol="narrow", initial=False, los=True, detected=True):
    return TrialUserRow(
        trial_id=trial,
        user_id=user,
        protocol_variant=protocol,
        predictor_variant="none" if protocol == "exhaustive" else "radar-aps",
        t_coh_s=1e-2,
        rate_bps=rate,
        los_flag=los,
        detected_flag=detected,
        selected_rsu_beam=0,
        selected_ue_beam=0,
        is_initial=initial,
    )


class TestAggregateRows:
    def test_undetected_initial_leaves_assisted_pool_only(self):
        rows = []
        for protocol in ("exhaustive", "narrow"):
            # trial 0: initial user detected in LOS at 2e8; trial 1: undetected at 0
            rows += [row(0, 7, 2e8, protocol, initial=True), row(0, 8, 1e8, protocol)]
            rows += [
                row(1, 7, 0.0, protocol, initial=True, detected=False),
                row(1, 8, 1e8, protocol, detected=False),
            ]
        aggs = {a.protocol_variant: a for a in aggregate_rows(rows, 100e6)}
        assert aggs["exhaustive"].p_outage_los == 0.5
        assert aggs["narrow"].p_outage_los == 0.0
        assert p_missed_detection(rows) == 0.5

    def test_empty_pool_is_nan(self):
        rows = [row(0, 7, 2e8, initial=True, detected=False), row(0, 8, 2e8, los=False)]
        (agg,) = aggregate_rows(rows, 100e6)
        assert math.isnan(agg.p_outage_los)
        assert math.isnan(agg.p_outage_nlos)

    def test_mean_sum_rate_over_trials(self):
        rows = [
            row(0, 7, 1e8, initial=True),
            row(0, 8, 2e8),
            row(0, 9, 3e8, los=False),
            row(1, 7, 4e8, initial=True, los=False),
            row(1, 8, 0.0),
        ]
        (agg,) = aggregate_rows(rows, 100e6)
        assert agg.mean_sum_rate_bps == pytest.approx(5e8)  # (6e8 + 4e8) / 2 trials
        assert agg.p_outage_los == 0.0
        assert agg.p_outage_nlos == 0.0


def test_results_csv_schema(tmp_path):
    rows = [
        row(0, 7, 2e8, "exhaustive", initial=True),
        row(0, 8, 1e8, "exhaustive", los=False),
        row(0, 7, 2.5e8, initial=True),
        row(0, 8, 1e8, los=False),
    ]
    result = CampaignResult(
        rows=rows, aggregates=aggregate_rows(rows, 100e6), p_missed_detection=0.0
    )
    path = tmp_path / "results.csv"
    write_results_csv(path, result, header_lines=["config: test"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# config: test"
    header = lines[1].split(",")
    assert header == [
        "trial_id", "user_id", "protocol_variant", "predictor_variant",
        "t_coh_s", "rate_bps", "los_flag", "detected_flag",
        "selected_rsu_beam", "selected_ue_beam",
    ]
    data_lines = [l for l in lines[2:] if not l.startswith("#")]
    assert len(data_lines) == len(result.rows)
    assert data_lines[0] == "0,7,exhaustive,none,0.01,2.000000000e+08,1,1,0,0"
    agg_lines = [l for l in lines if l.startswith("# aggregate")]
    assert agg_lines
    assert lines[-1] == "# narrow,radar-aps,0.01,3.500000000e+08,0.000000,nan,0.000000"


def test_tracked_rows_write_an_empty_detected_flag(tmp_path):
    """A trial detects its initial user alone: its rows write 0 or 1, and
    a tracked user's row, whose flag is None, an empty field."""
    rows = [
        row(0, 7, 2e8, initial=True),
        row(0, 8, 1e8, detected=None),
        row(1, 7, 0.0, initial=True, detected=False),
        row(1, 8, 1e8, detected=None),
    ]
    result = CampaignResult(
        rows=rows, aggregates=aggregate_rows(rows, 100e6), p_missed_detection=0.5
    )
    path = tmp_path / "results.csv"
    write_results_csv(path, result)
    data_lines = [l for l in path.read_text().splitlines()[1:] if not l.startswith("#")]
    assert data_lines == [
        "0,7,narrow,radar-aps,0.01,2.000000000e+08,1,1,0,0",
        "0,8,narrow,radar-aps,0.01,1.000000000e+08,1,,0,0",
        "1,7,narrow,radar-aps,0.01,0.000000000e+00,1,0,0,0",
        "1,8,narrow,radar-aps,0.01,1.000000000e+08,1,,0,0",
    ]


def test_no_aggregate_reads_a_tracked_rows_flag():
    """The aggregates and p_missed_detection are the same whatever a
    tracked row's flag holds: they read the initial rows' flags alone."""
    runs = []
    for tracked in (None, True, False):
        rows = []
        for protocol in ("exhaustive", "narrow"):
            rows += [row(0, 7, 2e8, protocol, initial=True), row(0, 8, 1e8, protocol,
                                                                  detected=tracked)]
            rows += [row(1, 7, 0.0, protocol, initial=True, detected=False),
                     row(1, 8, 5e7, protocol, los=False, detected=tracked)]
        # repr, since an empty pool's nan equals nothing
        runs.append(repr((aggregate_rows(rows, 100e6), p_missed_detection(rows))))
    assert runs[0].endswith(", 0.5)")
    assert runs[1] == runs[0]
    assert runs[2] == runs[0]
