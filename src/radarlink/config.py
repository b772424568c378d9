"""Flat key-value run configuration: schema, parsing, validation.

The file format is one `key = value` assignment per line with `#`
comments.  Every key is validated against a typed range before any
computation starts; unknown keys are rejected by name.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .beamtraining import ASSISTED_SEARCH_SIZES, PROTOCOLS, ss_blocks
from .neural import TrainConfig
from .scenario import (
    PREDICTOR_KINDS,
    CampaignConfig,
    LinkConfig,
    RadarRxConfig,
    SceneConfig,
    SimConfig,
)


class ConfigError(ValueError):
    """Invalid configuration file content."""


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_float_list(s: str) -> tuple:
    return tuple(float(x) for x in s.split(",") if x.strip())


def _parse_str_list(s: str) -> tuple:
    return tuple(x.strip() for x in s.split(",") if x.strip())


@dataclass(frozen=True)
class _Key:
    parse: object
    check: object
    describe: str


def _ranged(parse, lo=None, hi=None, lo_open=False, hi_open=False):
    parts = []
    if lo is not None:
        parts.append(f"> {lo}" if lo_open else f">= {lo}")
    if hi is not None:
        parts.append(f"< {hi}" if hi_open else f"<= {hi}")
    desc = parse.__name__ + (" " + " and ".join(parts) if parts else "")

    def check(v):
        if lo is not None and (v <= lo if lo_open else v < lo):
            return False
        if hi is not None and (v >= hi if hi_open else v > hi):
            return False
        return True

    return _Key(parse=parse, check=check, describe=desc)


def _choice_list(*allowed):
    def check(v):
        return all(x in allowed for x in v)

    return _Key(parse=_parse_str_list, check=check, describe=f"comma list of {allowed}")


_ANY_BOOL = _Key(parse=_parse_bool, check=lambda v: True, describe="boolean")
_POS_FLOAT_LIST = _Key(
    parse=_parse_float_list,
    check=lambda v: len(v) > 0 and all(x > 0 for x in v),
    describe="comma list of positive floats",
)

SCHEMA: dict[str, _Key] = {
    # scene
    "scene.lane_speeds_kmh": _POS_FLOAT_LIST,
    "scene.truck_fraction": _ranged(float, 0.0, 1.0),
    "scene.coverage_m": _ranged(float, 0.0, lo_open=True),
    "scene.drop_span_m": _ranged(float, 0.0, lo_open=True),
    "scene.n_active": _ranged(int, 1),
    "scene.rsu_x_m": _ranged(float),
    "scene.rsu_y_m": _ranged(float),
    "scene.rsu_z_m": _ranged(float, 0.0, lo_open=True),
    "scene.near_wall_y_m": _ranged(float),
    "scene.far_wall_y_m": _ranged(float),
    "scene.comm_mount_height_m": _ranged(float, 0.0, lo_open=True),
    "scene.radar_mount_height_m": _ranged(float, 0.0, lo_open=True),
    "scene.radar_yaw_deg": _ranged(float, -90.0, 90.0),
    "scene.comm_carrier_hz": _ranged(float, 1e9),
    "scene.radar_carrier_hz": _ranged(float, 1e9),
    "scene.chirp_rate_min_hz_per_s": _ranged(float, 0.0, lo_open=True),
    "scene.chirp_rate_max_hz_per_s": _ranged(float, 0.0, lo_open=True),
    "scene.chirp_bandwidth_hz": _ranged(float, 0.0, lo_open=True),
    "scene.chirp_on_grid": _ANY_BOOL,
    "scene.n_bank_blocks": _ranged(int, 1),
    "scene.radar_power_w": _ranged(float, 0.0, lo_open=True),
    "scene.reflection_amp": _ranged(float, 0.0, 1.0),
    "scene.mismatch_sigma_db": _ranged(float, 0.0),
    "scene.n_subrays": _ranged(int, 1),
    # link
    "link.n_rsu": _ranged(int, 1),
    "link.n_ue": _ranged(int, 1),
    "link.k_subcarriers": _ranged(int, 1),
    "link.subcarrier_spacing_hz": _ranged(float, 0.0, lo_open=True),
    "link.n_taps": _ranged(int, 1),
    "link.tx_power_dbm": _ranged(float, -100.0, 100.0),
    "link.noise_figure_db": _ranged(float, 0.0, 100.0),
    # radar receiver / detection
    "radar_rx.sample_rate_hz": _ranged(float, 0.0, lo_open=True),
    "radar_rx.n_samples": _ranged(int, 1),
    "radar_rx.noise_power_w": _ranged(float, 0.0),
    "radar_rx.n_guard": _ranged(int, 1),
    "radar_rx.n_floor": _ranged(int, 1),
    "radar_rx.threshold_factor": _ranged(float, 1.0, lo_open=True),
    "radar_rx.lowpass_bw_hz": _ranged(float, 0.0, lo_open=True),
    "radar_rx.lowpass_taps": _ranged(int, 3),
    # campaign
    "campaign.n_trials": _ranged(int, 1),
    "campaign.t_coh_list_s": _POS_FLOAT_LIST,
    "campaign.protocols": _choice_list(*PROTOCOLS),
    "campaign.predictors": _choice_list(*PREDICTOR_KINDS),
    "campaign.r_min_bps": _ranged(float, 0.0),
    "campaign.seed": _ranged(int, 0),
    "campaign.jobs": _ranged(int, 1),
    # training
    "train.learning_rate": _ranged(float, 0.0, lo_open=True),
    "train.batch_size": _ranged(int, 1),
    "train.max_epochs": _ranged(int, 0),
    "train.early_stop_patience": _ranged(int, 1),
    "train.lr_halve_patience": _ranged(int, 1),
    "train.lr_min": _ranged(float, 0.0, lo_open=True),
    "train.seed": _ranged(int, 0),
    # dataset generation
    "dataset.n_scenes": _ranged(int, 1),
    # both sides of the split must be able to hold records
    "dataset.train_fraction": _ranged(float, 0.0, 1.0, lo_open=True, hi_open=True),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration plus the raw lines for provenance echoes."""

    sim: SimConfig
    train: TrainConfig
    n_scenes: int
    train_fraction: float
    jobs: int
    raw_items: tuple

    def header_lines(self) -> list[str]:
        return [f"{k} = {v}" for k, v in self.raw_items]


def parse_config_text(text: str) -> dict:
    """key = value lines to a validated {key: parsed_value} dict."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        spec = SCHEMA[key]
        try:
            parsed = spec.parse(val)
        except ValueError as exc:
            raise ConfigError(
                f"line {lineno}: key {key!r} expects {spec.describe}: {exc}"
            ) from None
        if not spec.check(parsed):
            raise ConfigError(
                f"line {lineno}: key {key!r} value {val!r} outside allowed range "
                f"({spec.describe})"
            )
        values[key] = parsed
    return values


def load_config(path) -> RunConfig:
    """Read, validate, and assemble a RunConfig from a flat key-value file."""
    with open(path) as f:
        text = f.read()
    values = parse_config_text(text)
    return build_run_config(values)


def build_run_config(values: dict) -> RunConfig:
    def group(prefix):
        return {
            k.split(".", 1)[1]: v for k, v in values.items() if k.startswith(prefix + ".")
        }

    scene = replace(SceneConfig(), **group("scene"))
    if scene.chirp_rate_min_hz_per_s >= scene.chirp_rate_max_hz_per_s:
        raise ConfigError("scene.chirp_rate_min_hz_per_s must be below the max")
    if scene.chirp_on_grid and scene.n_bank_blocks < scene.n_active:
        raise ConfigError(
            f"scene.n_bank_blocks = {scene.n_bank_blocks} cannot give each of "
            f"scene.n_active = {scene.n_active} radars its own chirp rate with "
            "scene.chirp_on_grid"
        )

    link = replace(LinkConfig(), **group("link"))
    if link.n_taps > link.k_subcarriers:
        raise ConfigError(
            f"link.n_taps = {link.n_taps} does not fit in "
            f"link.k_subcarriers = {link.k_subcarriers}"
        )
    radar_rx = replace(RadarRxConfig(), **group("radar_rx"))
    if radar_rx.lowpass_bw_hz >= radar_rx.sample_rate_hz / 2:
        raise ConfigError("radar_rx.lowpass_bw_hz must be below half the sample rate")
    if radar_rx.lowpass_taps % 2 == 0:
        raise ConfigError("radar_rx.lowpass_taps must be odd")

    campaign_kw = group("campaign")
    jobs = int(campaign_kw.pop("jobs", 1))
    campaign = replace(CampaignConfig(), **campaign_kw)
    assisted = [ASSISTED_SEARCH_SIZES[p] for p in campaign.protocols if p != "exhaustive"]
    if link.n_rsu < max(assisted, default=0):
        raise ConfigError(
            f"link.n_rsu = {link.n_rsu} is below the {max(assisted)}-beam assisted "
            "search in campaign.protocols"
        )
    for protocol in campaign.protocols:
        try:
            ss_blocks(protocol, link.n_ue, link.n_rsu)
        except ValueError as exc:
            raise ConfigError(f"link.n_rsu x link.n_ue, {protocol} search: {exc}") from None

    train = replace(TrainConfig(), **group("train"))
    if train.lr_min > train.learning_rate:
        # plateau halving clamps the rate at lr_min, which would raise it
        raise ConfigError(
            f"train.lr_min = {train.lr_min} is above train.learning_rate = "
            f"{train.learning_rate}"
        )
    dataset_kw = group("dataset")
    n_scenes = int(dataset_kw.get("n_scenes", 500))
    train_fraction = float(dataset_kw.get("train_fraction", 0.8))

    sim = SimConfig(scene=scene, link=link, radar_rx=radar_rx, campaign=campaign)
    return RunConfig(
        sim=sim,
        train=train,
        n_scenes=n_scenes,
        train_fraction=train_fraction,
        jobs=jobs,
        raw_items=tuple(sorted(values.items())),
    )


def override_seed(cfg: RunConfig, seed: int) -> RunConfig:
    sim = replace(cfg.sim, campaign=replace(cfg.sim.campaign, seed=seed))
    train = replace(cfg.train, seed=seed)
    items = tuple(
        [(k, v) for k, v in cfg.raw_items if k not in ("campaign.seed", "train.seed")]
        + [("campaign.seed", seed), ("train.seed", seed)]
    )
    return replace(cfg, sim=sim, train=train, raw_items=items)


def override_trials(cfg: RunConfig, n_trials: int) -> RunConfig:
    sim = replace(cfg.sim, campaign=replace(cfg.sim.campaign, n_trials=n_trials))
    return replace(cfg, sim=sim)
