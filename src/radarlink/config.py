"""Run configuration: the typed sections, their flat keys, overrides.

Every key `section.name` is a field of one section dataclass below.  The
field holds the key's default and, where it has one, its allowed range or
choices and whether its list may repeat an element.  SCHEMA is computed
from those fields, and each section checks its fields' types (its
defaults') and values against SCHEMA when built, however it is built: from
a file, directly or by dataclasses.replace.
SimConfig and TrainConfig check the relations between keys when built.  The
file format is one `key = value` assignment per line with `#` comments; a
file line or an override (load_config) is also checked as parsed, so that
its error names the line or source, and unknown keys are rejected by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from .beamtraining import (
    ASSISTED_SEARCH_SIZES,
    PROTOCOLS,
    dbm_to_w,
    noise_power_w,
    ss_blocks,
    symbol_duration,
)
from .detection import MAX_BANK_BLOCKS, BankConfig, CfarConfig
from .fmcw import CaptureConfig

RAW_PREDICTORS = ("radar-aps", "radar-eig", "radar-covvec")
PREDICTOR_KINDS = {
    "radar-aps": "aps",
    "radar-eig": "eigvec",
    "radar-covvec": "covvec",
    "nn-aps": "aps",
    "nn-eig": "eigvec",
    "nn-covvec": "covvec",
}


class ConfigError(ValueError):
    """A bad key or value, in a file, an override or a built section, or conflicting keys."""


def _in(default, lo=None, hi=None, lo_open=False, hi_open=False, distinct=False):
    """A field whose value (each element, for a tuple) lies in [lo, hi];
    either end is open when asked, and a missing end is unbounded.  A
    distinct tuple holds no element twice."""
    return field(
        default=default, metadata={"range": (lo, hi, lo_open, hi_open), "distinct": distinct}
    )


def _positive(default):
    return _in(default, 0.0, lo_open=True)


def _one_of(default, choices):
    """A tuple field of distinct elements, all taken from choices."""
    return field(default=default, metadata={"choices": choices, "distinct": True})


class _Section:
    """A config section: every field is checked against its key's SCHEMA
    entry whenever the section is built, however it is built."""

    def __post_init__(self):
        section = next(name for name, cls in SECTIONS.items() if type(self) is cls)
        for f in fields(self):
            key, value = f"{section}.{f.name}", getattr(self, f.name)
            if not SCHEMA[key].check(value):
                raise ConfigError(f"{key} = {value!r} rejected: expects {SCHEMA[key].describe}")


# ---------------------------------------------------------------------------
# sections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneConfig(_Section):
    """Roadway, vehicle mix, mounts, and radar waveform randomization."""

    lane_speeds_kmh: tuple = _positive((60.0, 50.0, 25.0, 15.0))
    # only cars can be active, so some share of the drop must be cars
    truck_fraction: float = _in(0.2, 0.0, 1.0, hi_open=True)
    coverage_m: float = _positive(60.0)
    drop_span_m: float = _positive(240.0)
    n_active: int = _in(4, 1)
    # mast set back from the road edge: bounds the pathloss spread across
    # the coverage section, which the interference-limited detector needs
    rsu_x_m: float = 0.0
    rsu_y_m: float = -6.0
    rsu_z_m: float = _positive(6.0)
    near_wall_y_m: float = -8.5
    far_wall_y_m: float = 21.0
    comm_mount_height_m: float = _positive(1.6)
    radar_mount_height_m: float = _positive(0.75)
    radar_yaw_deg: float = _in(10.0, -90.0, 90.0)
    comm_carrier_hz: float = _in(73e9, 1e9)
    radar_carrier_hz: float = _in(76e9, 1e9)
    chirp_rate_min_hz_per_s: float = _positive(1e12)
    chirp_rate_max_hz_per_s: float = _positive(6e12)
    chirp_bandwidth_hz: float = _positive(100e6)
    chirp_on_grid: bool = True
    n_bank_blocks: int = _in(51, 1, MAX_BANK_BLOCKS)
    radar_power_w: float = _positive(1.0)
    reflection_amp: float = _in(0.45, 0.0, 1.0)
    mismatch_sigma_db: float = _in(3.0, 0.0)
    n_subrays: int = _in(3, 1)

    def bank(self) -> BankConfig:
        """The mixing bank's chirp-rate grid, which on-grid radars draw from."""
        return BankConfig.uniform(
            self.chirp_rate_min_hz_per_s,
            self.chirp_rate_max_hz_per_s,
            self.chirp_bandwidth_hz,
            n_blocks=self.n_bank_blocks,
        )


# one element has no beam to choose, and the eigvec loss's APS window needs two
MIN_N_RSU = 2


@dataclass(frozen=True)
class LinkConfig(_Section):
    """OFDM and array parameters of the communication link."""

    n_rsu: int = _in(64, MIN_N_RSU)
    n_ue: int = _in(16, 1)
    k_subcarriers: int = _in(2048, 1)
    subcarrier_spacing_hz: float = _positive(240e3)
    n_taps: int = _in(512, 1)
    tx_power_dbm: float = _in(24.0, -100.0, 100.0)
    noise_figure_db: float = _in(10.0, 0.0, 100.0)

    @property
    def tap_interval_s(self) -> float:
        return 1.0 / (self.k_subcarriers * self.subcarrier_spacing_hz)

    @property
    def cp_samples(self) -> int:
        return self.n_taps - 1

    @property
    def symbol_duration_s(self) -> float:
        return symbol_duration(
            self.k_subcarriers, self.subcarrier_spacing_hz, self.cp_samples
        )

    @property
    def tx_per_subcarrier_w(self) -> float:
        return dbm_to_w(self.tx_power_dbm) / self.k_subcarriers

    @property
    def noise_per_subcarrier_w(self) -> float:
        return noise_power_w(self.subcarrier_spacing_hz, noise_figure_db=self.noise_figure_db)


@dataclass(frozen=True)
class RadarRxConfig(_Section):
    """Passive-array capture and detection-chain parameters.

    The sample rate equals the chirp bandwidth (complex critical
    sampling): the dechirped tones of the pre- and post-wrap chirp
    segments then alias onto the same correlator lag, so each radar
    concentrates at a single lag regardless of its timing offset.
    """

    sample_rate_hz: float = _positive(100e6)
    n_samples: int = _in(4096, 1)
    noise_power_w: float = _in(1e-12, 0.0)
    n_guard: int = _in(54, 1)
    n_floor: int = _in(108, 1)
    threshold_factor: float = _in(10.0, 1.0, lo_open=True)
    lowpass_bw_hz: float = _positive(3e5)
    lowpass_taps: int = _in(2049, 3)

    def cfar(self) -> CfarConfig:
        return CfarConfig(
            n_guard=self.n_guard,
            n_floor=self.n_floor,
            threshold_factor=self.threshold_factor,
        )


@dataclass(frozen=True)
class CampaignConfig(_Section):
    """Monte Carlo sweep axes, the base seed and the sweep's worker count."""

    n_trials: int = _in(100, 1)
    # a repeated sweep entry would count its trials twice in the aggregates
    t_coh_list_s: tuple = _in(
        (1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1), 0.0, lo_open=True, distinct=True
    )
    protocols: tuple = _one_of(("exhaustive", "narrow", "wide"), PROTOCOLS)
    predictors: tuple = _one_of(RAW_PREDICTORS, tuple(PREDICTOR_KINDS))
    r_min_bps: float = _in(100e6, 0.0)
    seed: int = _in(0, 0)
    # a sweep's worker processes (run_campaign's jobs); the output is the
    # same for any count
    jobs: int = _in(1, 1)


@dataclass(frozen=True)
class SimConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    radar_rx: RadarRxConfig = field(default_factory=RadarRxConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)

    def capture(self) -> CaptureConfig:
        return CaptureConfig(
            sample_rate_hz=self.radar_rx.sample_rate_hz,
            n_samples=self.radar_rx.n_samples,
            carrier_hz=self.scene.radar_carrier_hz,
        )

    def __post_init__(self):
        # what no one field's declared range says: relations between keys, odd taps
        scene, link, radar_rx, campaign = self.scene, self.link, self.radar_rx, self.campaign
        if scene.chirp_rate_min_hz_per_s >= scene.chirp_rate_max_hz_per_s:
            raise ConfigError("scene.chirp_rate_min_hz_per_s must be below the max")
        if scene.chirp_on_grid and scene.n_bank_blocks < scene.n_active:
            raise ConfigError(
                f"scene.n_bank_blocks = {scene.n_bank_blocks} cannot give each of "
                f"scene.n_active = {scene.n_active} radars its own chirp rate with "
                "scene.chirp_on_grid"
            )
        # the fastest chirp has the shortest period, so its block has the fewest lags
        shortest = scene.bank().blocks[-1]
        n_lags = shortest.n_lags(radar_rx.sample_rate_hz)
        if 2 * (radar_rx.n_guard + radar_rx.n_floor) >= n_lags:
            raise ConfigError(
                f"radar_rx.n_guard = {radar_rx.n_guard} and radar_rx.n_floor = "
                f"{radar_rx.n_floor} CFAR cells per side do not fit in the {n_lags} lags "
                f"of the bank's shortest block ({shortest.chirp_rate_hz_per_s:g} Hz/s, "
                "scene.chirp_rate_max_hz_per_s)"
            )

        if link.n_taps > link.k_subcarriers:
            raise ConfigError(
                f"link.n_taps = {link.n_taps} does not fit in "
                f"link.k_subcarriers = {link.k_subcarriers}"
            )
        if radar_rx.lowpass_bw_hz >= radar_rx.sample_rate_hz / 2:
            raise ConfigError("radar_rx.lowpass_bw_hz must be below half the sample rate")
        if radar_rx.lowpass_taps % 2 == 0:
            raise ConfigError("radar_rx.lowpass_taps must be odd")

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


@dataclass(frozen=True)
class TrainConfig(_Section):
    """Adam plus plateau bookkeeping.

    A plateau is the absence of a new validation minimum improving on the
    best by at least neural.IMPROVEMENT_RTOL relative.
    """

    learning_rate: float = _positive(1e-3)
    batch_size: int = _in(64, 1)
    max_epochs: int = _in(200, 0)
    early_stop_patience: int = _in(16, 1)
    lr_halve_patience: int = _in(6, 1)
    lr_min: float = _positive(1e-6)
    seed: int = _in(0, 0)

    def __post_init__(self):
        super().__post_init__()
        if self.lr_min > self.learning_rate:
            # plateau halving clamps the rate at lr_min, which would raise it
            raise ConfigError(
                f"train.lr_min = {self.lr_min} is above train.learning_rate = "
                f"{self.learning_rate}"
            )


@dataclass(frozen=True)
class DatasetConfig(_Section):
    """Training-set generation."""

    n_scenes: int = _in(500, 1)
    # both sides of the split must be able to hold records
    train_fraction: float = _in(0.8, 0.0, 1.0, lo_open=True, hi_open=True)


# each key's section name and the dataclass whose field it is
SECTIONS = {
    "scene": SceneConfig,
    "link": LinkConfig,
    "radar_rx": RadarRxConfig,
    "campaign": CampaignConfig,
    "train": TrainConfig,
    "dataset": DatasetConfig,
}


# ---------------------------------------------------------------------------
# schema
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Key:
    parse: object
    check: object
    describe: str


def _parse_bool(s: str) -> bool:
    low = s.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _key(f) -> _Key:
    """A field's parser, type-and-value check and description, by its default's type."""
    default = f.default
    if isinstance(default, bool):
        return _Key(_parse_bool, lambda v: isinstance(v, bool), "boolean")
    lo, hi, lo_open, hi_open = f.metadata.get("range", (None, None, False, False))
    parts = []
    if lo is not None:
        parts.append(f"> {lo}" if lo_open else f">= {lo}")
    if hi is not None:
        parts.append(f"< {hi}" if hi_open else f"<= {hi}")
    bounds = " and ".join(parts)
    # an int field takes an int, a float field or element an int or a float
    kind = int if isinstance(default, int) else (int, float)

    def in_range(v):
        return (
            isinstance(v, kind) and not isinstance(v, bool)
            and (lo is None or (v > lo if lo_open else v >= lo))
            and (hi is None or (v < hi if hi_open else v <= hi))
        )

    if not isinstance(default, tuple):
        return _Key(type(default), in_range, f"{type(default).__name__} {bounds}".strip())
    allowed = f.metadata.get("choices")
    if allowed:
        ok, parse, what = allowed.__contains__, str.strip, str(allowed)
    else:
        ok, parse, what = in_range, float, f"floats {bounds}"
    distinct = f.metadata.get("distinct", False)
    return _Key(
        lambda s: tuple(parse(x) for x in s.split(",") if x.strip()),
        lambda v: isinstance(v, tuple) and len(v) > 0 and all(ok(x) for x in v)
        and not (distinct and len(set(v)) < len(v)),
        f"non-empty comma list of {'distinct ' if distinct else ''}{what}",
    )


SCHEMA: dict[str, _Key] = {
    f"{section}.{f.name}": _key(f) for section, cls in SECTIONS.items() for f in fields(cls)
}


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration plus the echoed items for provenance."""

    sim: SimConfig
    train: TrainConfig
    dataset: DatasetConfig
    raw_items: tuple

    def header_lines(self) -> list[str]:
        return [f"{k} = {v}" for k, v in self.raw_items]


def parse_value(key: str, text: str, where: str):
    """One key's value text, parsed and range-checked; errors name where and key."""
    if key not in SCHEMA:
        raise ConfigError(f"{where}: unknown key {key!r}")
    spec = SCHEMA[key]
    try:
        parsed = spec.parse(text)
    except ValueError as exc:
        raise ConfigError(f"{where}: key {key!r} expects {spec.describe}: {exc}") from None
    if not spec.check(parsed):
        raise ConfigError(f"{where}: key {key!r} value {text!r} rejected: expects {spec.describe}")
    return parsed


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
        values[key] = parse_value(key, val.strip(), f"line {lineno}")
    return values


def load_config(path, overrides=()) -> RunConfig:
    """Read, validate, and assemble a RunConfig from a flat key-value file.

    overrides are (source, key, text) assignments made over the file in
    order, each checked like a file line with errors naming its source.
    They join the header echo, except campaign.jobs, which changes no
    output byte; a file's own campaign.jobs line is echoed as written.
    """
    with open(path) as f:
        values = parse_config_text(f.read())
    echoed = dict(values)
    for source, key, text in overrides:
        values[key] = parse_value(key, text, source)
        if key != "campaign.jobs":
            echoed[key] = values[key]
    return build_run_config(values, echoed)


def build_run_config(values: dict, echoed: dict | None = None) -> RunConfig:
    """Sections from parsed values (defaults elsewhere), each checked as built.

    echoed holds the items for the header echo, values itself by default.
    """
    scene, link, radar_rx, campaign, train, dataset = (
        cls(**{k.partition(".")[2]: v for k, v in values.items() if k.startswith(section + ".")})
        for section, cls in SECTIONS.items()
    )
    return RunConfig(
        sim=SimConfig(scene=scene, link=link, radar_rx=radar_rx, campaign=campaign),
        train=train,
        dataset=dataset,
        raw_items=tuple(sorted((values if echoed is None else echoed).items())),
    )
