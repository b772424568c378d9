"""Scene generation, paired radar/comm propagation, trials, and campaigns.

A deterministic desk-scale substitute for ray tracing: vehicles are
dropped on a four-lane roadway, an image-source model builds shared
geometric rays (line of sight, roadside-wall bounces, vehicle-body
bounces), and each ray is evaluated separately in the radar and
communication bands with band-dependent gains, phases, mounting offsets,
and a log-normal gain mismatch.  On top of that sit the Monte Carlo
trial/campaign runner and the training-dataset writer.
"""

from __future__ import annotations

import csv
import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .beamtraining import (
    Codebook,
    ProtocolConfig,
    assisted_search_space,
    beam_select,
    build_codebook,
    dbm_to_w,
    effective_rate,
    gain_table,
    noise_power_w,
    outage,
    sinr,
    spectral_efficiency,
    symbol_duration,
    training_time,
)
from .channel import PathCluster, Ray, UlaConfig, WidebandChannel, channel_taps, comm_covariance
from .covariance import SpatialCovariance
from .covfeatures import aps_from_covariance, cov_vector, toeplitz_psd_project
from .detection import BankConfig, CfarConfig, lowpass_noise_gain, run_bank, set_bank_threads
from .fmcw import CaptureConfig, FmcwParams, RadarPath, RadarPathSet, synthesize_rx
from .neural import MlpModel, predict_variant
from .numerics import dominant_eigenvector

C_LIGHT = 299_792_458.0

RAW_PREDICTORS = ("radar-aps", "radar-eig", "radar-covvec")
NN_PREDICTORS = ("nn-aps", "nn-eig", "nn-covvec")
PREDICTOR_KINDS = {
    "radar-aps": "aps",
    "radar-eig": "eigvec",
    "radar-covvec": "covvec",
    "nn-aps": "aps",
    "nn-eig": "eigvec",
    "nn-covvec": "covvec",
}

DATASET_MAGIC = b"RCPD"
DATASET_VARIANT_IDS = {"aps": 1, "eigvec": 2, "covvec": 3}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SceneConfig:
    """Roadway, vehicle mix, mounts, and radar waveform randomization."""

    lane_speeds_kmh: tuple = (60.0, 50.0, 25.0, 15.0)
    lane_width_m: float = 3.5
    first_lane_center_m: float = 4.0
    truck_fraction: float = 0.2
    coverage_m: float = 60.0
    drop_span_m: float = 240.0
    n_active: int = 4
    car_dims_m: tuple = (5.0, 2.0, 1.6)
    truck_dims_m: tuple = (13.0, 2.6, 3.0)
    # mast set back from the road edge: bounds the pathloss spread across
    # the coverage section, which the interference-limited detector needs
    rsu_position_m: tuple = (0.0, -6.0, 6.0)
    near_wall_y_m: float = -8.5
    far_wall_y_m: float = 21.0
    comm_mount_height_m: float = 1.6
    radar_mount_height_m: float = 0.75
    radar_yaw_rad: float = float(np.deg2rad(10.0))
    comm_carrier_hz: float = 73e9
    radar_carrier_hz: float = 76e9
    chirp_rate_min_hz_per_s: float = 1e12
    chirp_rate_max_hz_per_s: float = 6e12
    chirp_bandwidth_hz: float = 100e6
    chirp_on_grid: bool = True
    n_bank_blocks: int = 51
    radar_power_w: float = 1.0
    reflection_amp: float = 0.45
    mismatch_sigma_db: float = 3.0
    n_subrays: int = 3
    subray_angle_spread_rad: float = float(np.deg2rad(1.5))
    subray_delay_spread_s: float = 8e-9

    def __post_init__(self):
        if self.n_active < 1:
            raise ValueError(f"n_active must be >= 1, got {self.n_active}")
        if self.coverage_m <= 0:
            raise ValueError(f"coverage must be > 0, got {self.coverage_m}")


@dataclass(frozen=True)
class LinkConfig:
    """OFDM and array parameters of the communication link."""

    n_rsu: int = 64
    n_ue: int = 16
    k_subcarriers: int = 2048
    subcarrier_spacing_hz: float = 240e3
    n_taps: int = 512
    tx_power_dbm: float = 24.0
    noise_figure_db: float = 10.0

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
class RadarRxConfig:
    """Passive-array capture and detection-chain parameters.

    The sample rate equals the chirp bandwidth (complex critical
    sampling): the dechirped tones of the pre- and post-wrap chirp
    segments then alias onto the same correlator lag, so each radar
    concentrates at a single lag regardless of its timing offset.
    """

    sample_rate_hz: float = 100e6
    n_samples: int = 4096
    noise_power_w: float = 1e-12
    n_guard: int = 54
    n_floor: int = 108
    threshold_factor: float = 10.0
    lowpass_bw_hz: float = 3e5
    lowpass_taps: int = 2049

    def cfar(self) -> CfarConfig:
        return CfarConfig(
            n_guard=self.n_guard,
            n_floor=self.n_floor,
            threshold_factor=self.threshold_factor,
        )


@dataclass(frozen=True)
class CampaignConfig:
    """Monte Carlo sweep axes."""

    n_trials: int = 100
    t_coh_list_s: tuple = (1e-3, 2e-3, 5e-3, 1e-2, 2e-2, 5e-2, 1e-1)
    protocols: tuple = ("exhaustive", "narrow", "wide")
    predictors: tuple = RAW_PREDICTORS
    r_min_bps: float = 100e6
    seed: int = 0

    def __post_init__(self):
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")


@dataclass(frozen=True)
class SimConfig:
    scene: SceneConfig = field(default_factory=SceneConfig)
    link: LinkConfig = field(default_factory=LinkConfig)
    radar_rx: RadarRxConfig = field(default_factory=RadarRxConfig)
    campaign: CampaignConfig = field(default_factory=CampaignConfig)

    def bank(self) -> BankConfig:
        return BankConfig.uniform(
            self.scene.chirp_rate_min_hz_per_s,
            self.scene.chirp_rate_max_hz_per_s,
            self.scene.chirp_bandwidth_hz,
            n_blocks=self.scene.n_bank_blocks,
        )

    def capture(self) -> CaptureConfig:
        return CaptureConfig(
            sample_rate_hz=self.radar_rx.sample_rate_hz,
            n_samples=self.radar_rx.n_samples,
            carrier_hz=self.scene.radar_carrier_hz,
        )


# ---------------------------------------------------------------------------
# vehicle drop
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Vehicle:
    lane: int
    x_m: float
    y_m: float
    length_m: float
    width_m: float
    height_m: float
    is_truck: bool

    @property
    def box(self) -> tuple:
        """((xmin, xmax), (ymin, ymax), (zmin, zmax))"""
        return (
            (self.x_m - self.length_m / 2, self.x_m + self.length_m / 2),
            (self.y_m - self.width_m / 2, self.y_m + self.width_m / 2),
            (0.0, self.height_m),
        )


def drop_vehicles(cfg: SceneConfig, seed: int) -> list[Vehicle]:
    """3GPP-style drop: per lane, bumper gaps max(2, Exp(rate 0.5/speed)).

    Speeds enter the exponential rate as their km/h magnitudes.  Vehicles
    are placed over drop_span_m centered on the infrastructure.
    """
    rng = np.random.default_rng(seed)
    vehicles = []
    half = cfg.drop_span_m / 2.0
    for lane, speed in enumerate(cfg.lane_speeds_kmh):
        y = cfg.first_lane_center_m + lane * cfg.lane_width_m
        scale = speed / 0.5  # Exp(rate 0.5/speed) has mean speed/0.5
        x = -half + float(rng.exponential(scale))
        prev_len = None
        while True:
            is_truck = bool(rng.random() < cfg.truck_fraction)
            dims = cfg.truck_dims_m if is_truck else cfg.car_dims_m
            if prev_len is not None:
                gap = max(2.0, float(rng.exponential(scale)))
                x += gap + (prev_len + dims[0]) / 2.0
            if x > half:
                break
            vehicles.append(
                Vehicle(
                    lane=lane,
                    x_m=x,
                    y_m=y,
                    length_m=dims[0],
                    width_m=dims[1],
                    height_m=dims[2],
                    is_truck=is_truck,
                )
            )
            prev_len = dims[0]
    return vehicles


def _segment_hits_box(p1, p2, box) -> bool:
    """Slab test: does segment p1->p2 intersect the axis-aligned box?"""
    d = [p2[i] - p1[i] for i in range(3)]
    t_lo, t_hi = 0.0, 1.0
    for i in range(3):
        lo, hi = box[i]
        if abs(d[i]) < 1e-12:
            if not lo <= p1[i] <= hi:
                return False
        else:
            t1 = (lo - p1[i]) / d[i]
            t2 = (hi - p1[i]) / d[i]
            if t1 > t2:
                t1, t2 = t2, t1
            t_lo = max(t_lo, t1)
            t_hi = min(t_hi, t2)
            if t_lo > t_hi:
                return False
    return True


def segment_blocked(p1, p2, vehicles: list[Vehicle], exclude=()) -> bool:
    """True if any vehicle box (other than the excluded ones) cuts the segment."""
    for idx, v in enumerate(vehicles):
        if idx in exclude:
            continue
        if _segment_hits_box(p1, p2, v.box):
            return True
    return False


# ---------------------------------------------------------------------------
# paired propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GeoRay:
    """One geometric ray shared by both bands (band-agnostic skeleton)."""

    kind: str  # "los" | "wall" | "body"
    mirror_y: float | None  # reflection plane for single-bounce rays
    bounces: int


@dataclass(frozen=True)
class ActiveVehicle:
    """Everything a trial needs to know about one connected vehicle."""

    vehicle_index: int
    radar: FmcwParams
    radar_paths: RadarPathSet
    comm_clusters: tuple
    los_flag: bool
    anchor_delay_s: float


@dataclass(frozen=True)
class PairedScene:
    vehicles: tuple
    actives: tuple


def _ray_endpoints(src, rsu, ray: GeoRay):
    """Path points src -> (bounce) -> rsu and the total length."""
    if ray.kind == "los":
        length = float(np.linalg.norm(np.subtract(rsu, src)))
        return [src, rsu], length
    # mirror the source across the plane y = mirror_y
    img = (src[0], 2.0 * ray.mirror_y - src[1], src[2])
    length = float(np.linalg.norm(np.subtract(rsu, img)))
    d = np.subtract(img, rsu)
    if abs(d[1]) < 1e-12:
        return None, 0.0
    t = (ray.mirror_y - rsu[1]) / d[1]
    if not 0.0 < t < 1.0:
        return None, 0.0
    bounce = tuple(rsu[i] + t * d[i] for i in range(3))
    return [src, bounce, rsu], length


def _sin_angle(from_pt, to_pt) -> float:
    """Direction cosine along the array axis (x) from from_pt toward to_pt."""
    d = np.subtract(to_pt, from_pt)
    r = float(np.linalg.norm(d))
    if r == 0.0:
        return 0.0
    return float(np.clip(d[0] / r, -1.0, 1.0))


def _pattern_amp(direction, boresight) -> float:
    """Amplitude of a 120-degree-HPBW cosine power pattern."""
    d = np.asarray(direction, dtype=float)
    n = np.linalg.norm(d)
    if n == 0.0:
        return 0.0
    cos = float(np.dot(d / n, boresight))
    return np.sqrt(cos) if cos > 0.0 else 0.0


def _band_ray(sources, rsu, ray: GeoRay, carrier_hz, rsu_boresight,
              reflection_amp, lognormal_db):
    """Evaluate one geometric ray at one band.

    sources is a list of (position, boresight) candidates on the vehicle
    (side arrays for communication, corner radars for radar); the one with
    the best pattern gain toward the ray serves it.  Returns
    (gain, delay_s, angle_at_rsu, angle_at_vehicle) or None when no
    antenna covers the ray.
    """
    best = None
    for src, src_boresight in sources:
        points, length = _ray_endpoints(src, rsu, ray)
        if points is None:
            continue
        arrival_pt = points[-2]  # what the infrastructure array sees
        departure_pt = points[1]  # what the vehicle-side antenna sees
        amp = (C_LIGHT / carrier_hz) / (4.0 * np.pi * length)
        amp *= _pattern_amp(np.subtract(arrival_pt, rsu), rsu_boresight)
        amp *= _pattern_amp(np.subtract(departure_pt, src), src_boresight)
        if amp == 0.0:
            continue
        if best is None or amp > best[0]:
            angle_rsu = float(np.arcsin(_sin_angle(rsu, arrival_pt)))
            angle_veh = float(np.arcsin(_sin_angle(src, departure_pt)))
            best = (amp, length / C_LIGHT, angle_rsu, angle_veh)
    if best is None:
        return None
    amp, delay, angle_rsu, angle_veh = best
    amp *= 10.0 ** (lognormal_db / 20.0)
    gain = amp * ((-reflection_amp) ** ray.bounces) * np.exp(-2j * np.pi * carrier_hz * delay)
    return gain, delay, angle_rsu, angle_veh


def _candidate_rays(cfg: SceneConfig, vehicles, v_idx: int, ref_src, rsu) -> list[GeoRay]:
    """Geometric rays that exist for this vehicle (shared blocker tests)."""
    rays = []
    exclude = (v_idx,)
    if not segment_blocked(ref_src, rsu, vehicles, exclude):
        rays.append(GeoRay(kind="los", mirror_y=None, bounces=0))
    for wall_y in (cfg.near_wall_y_m, cfg.far_wall_y_m):
        ray = GeoRay(kind="wall", mirror_y=wall_y, bounces=1)
        points, _ = _ray_endpoints(ref_src, rsu, ray)
        if points is None:
            continue
        bounce = points[1]
        if not segment_blocked(ref_src, bounce, vehicles, exclude) and not segment_blocked(
            bounce, rsu, vehicles, exclude
        ):
            rays.append(ray)
    for o_idx, other in enumerate(vehicles):
        if o_idx == v_idx:
            continue
        face_y = other.y_m - other.width_m / 2.0
        # the face must lie between the infrastructure and the source
        if not rsu[1] < face_y < ref_src[1]:
            continue
        ray = GeoRay(kind="body", mirror_y=face_y, bounces=1)
        points, _ = _ray_endpoints(ref_src, rsu, ray)
        if points is None:
            continue
        bounce = points[1]
        (xmin, xmax), _, (zmin, zmax) = other.box
        if not (xmin <= bounce[0] <= xmax and zmin <= bounce[2] <= zmax):
            continue
        if not segment_blocked(ref_src, bounce, vehicles, exclude + (o_idx,)) and not segment_blocked(
            bounce, rsu, vehicles, exclude + (o_idx,)
        ):
            rays.append(ray)
    return rays


def generate_paired_propagation(
    placements: list[Vehicle], cfg: SceneConfig, seed: int
) -> PairedScene | None:
    """Build the paired radar/comm propagation for randomly chosen actives.

    Returns None when fewer than n_active candidate cars sit inside the
    coverage section (callers redraw the scene deterministically).
    """
    rng = np.random.default_rng(seed)
    rsu = tuple(cfg.rsu_position_m)
    half_cov = cfg.coverage_m / 2.0
    candidates = [
        i
        for i, v in enumerate(placements)
        if not v.is_truck and abs(v.x_m - rsu[0]) <= half_cov
    ]
    if len(candidates) < cfg.n_active:
        return None
    chosen = sorted(int(i) for i in rng.choice(candidates, size=cfg.n_active, replace=False))

    rates = np.linspace(
        cfg.chirp_rate_min_hz_per_s, cfg.chirp_rate_max_hz_per_s, cfg.n_bank_blocks
    )
    if cfg.chirp_on_grid:
        grid_idx = rng.choice(cfg.n_bank_blocks, size=cfg.n_active, replace=False)
        betas = rates[grid_idx]
    else:
        betas = rng.uniform(
            cfg.chirp_rate_min_hz_per_s, cfg.chirp_rate_max_hz_per_s, cfg.n_active
        )

    actives = []
    for slot, v_idx in enumerate(chosen):
        veh = placements[v_idx]
        lo_y = veh.y_m - veh.width_m / 2.0
        hi_y = veh.y_m + veh.width_m / 2.0
        # two side-mounted communication arrays; each ray uses the side
        # whose pattern covers it
        comm_sources = [
            ((veh.x_m, lo_y, cfg.comm_mount_height_m), (0.0, -1.0, 0.0)),
            ((veh.x_m, hi_y, cfg.comm_mount_height_m), (0.0, 1.0, 0.0)),
        ]
        # four synchronized corner radars, yawed toward the near end
        yaw = cfg.radar_yaw_rad
        front = veh.x_m + veh.length_m / 2.0
        rear = veh.x_m - veh.length_m / 2.0
        z_r = cfg.radar_mount_height_m
        radar_sources = [
            ((front, lo_y, z_r), (np.sin(yaw), -np.cos(yaw), 0.0)),
            ((rear, lo_y, z_r), (-np.sin(yaw), -np.cos(yaw), 0.0)),
            ((front, hi_y, z_r), (np.sin(yaw), np.cos(yaw), 0.0)),
            ((rear, hi_y, z_r), (-np.sin(yaw), np.cos(yaw), 0.0)),
        ]
        rsu_boresight = (0.0, 1.0, 0.0)

        ref_src = (veh.x_m, lo_y, cfg.comm_mount_height_m)
        rays = _candidate_rays(cfg, placements, v_idx, ref_src, rsu)
        los_flag = any(r.kind == "los" for r in rays)

        radar_paths = []
        clusters = []
        anchor = None
        for ray in rays:
            db_radar = float(rng.normal(0.0, cfg.mismatch_sigma_db))
            db_comm = float(rng.normal(0.0, cfg.mismatch_sigma_db))
            radar_eval = _band_ray(
                radar_sources, rsu, ray, cfg.radar_carrier_hz,
                rsu_boresight, cfg.reflection_amp, db_radar,
            )
            comm_eval = _band_ray(
                comm_sources, rsu, ray, cfg.comm_carrier_hz,
                rsu_boresight, cfg.reflection_amp, db_comm,
            )
            if radar_eval is not None:
                gain, delay, angle_rsu, _ = radar_eval
                radar_paths.append(
                    RadarPath(gain=gain, delay_s=delay, aoa_rad=angle_rsu)
                )
                if anchor is None or abs(gain) > anchor[0]:
                    anchor = (abs(gain), delay)
            if comm_eval is not None:
                gain, delay, angle_rsu, angle_veh = comm_eval
                # downlink channel: departure at the infrastructure,
                # arrival at the vehicle array
                clusters.append(
                    _make_cluster(
                        rng, cfg, gain, delay, aoa=angle_veh, aod=angle_rsu
                    )
                )
        if not radar_paths or not clusters:
            return None
        beta = float(betas[slot])
        period = cfg.chirp_bandwidth_hz / beta
        params = FmcwParams(
            chirp_rate_hz_per_s=beta,
            bandwidth_hz=cfg.chirp_bandwidth_hz,
            time_offset_s=float(rng.uniform(0.0, period)),
            phase_offset_rad=float(rng.uniform(0.0, 2.0 * np.pi)),
            power_w=cfg.radar_power_w,
        )
        actives.append(
            ActiveVehicle(
                vehicle_index=v_idx,
                radar=params,
                radar_paths=RadarPathSet(paths=tuple(radar_paths)),
                comm_clusters=tuple(clusters),
                los_flag=los_flag,
                anchor_delay_s=anchor[1],
            )
        )
    return PairedScene(vehicles=tuple(placements), actives=tuple(actives))


def _make_cluster(rng, cfg: SceneConfig, gain, delay, aoa, aod) -> PathCluster:
    """Split one geometric ray into a small cluster of sub-rays.

    Sub-ray complex weights preserve the ray's total power.
    """
    n = cfg.n_subrays
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w /= np.linalg.norm(w)
    rel_delays = np.concatenate([[0.0], rng.uniform(0.0, cfg.subray_delay_spread_s, n - 1)]) if n > 1 else np.zeros(1)
    rays = tuple(
        Ray(
            gain=complex(gain * w[i]),
            rel_delay_s=float(rel_delays[i]),
            rel_aoa_rad=float(rng.normal(0.0, cfg.subray_angle_spread_rad)),
            rel_aod_rad=float(rng.normal(0.0, cfg.subray_angle_spread_rad)),
        )
        for i in range(n)
    )
    return PathCluster(
        mean_delay_s=delay, mean_aoa_rad=aoa, mean_aod_rad=aod, rays=rays
    )


def make_scene(cfg: SceneConfig, seed: int, max_attempts: int = 64) -> PairedScene:
    """Drop vehicles and build propagation, redrawing until viable."""
    for attempt in range(max_attempts):
        sub_seed = seed + 104_729 * attempt
        placements = drop_vehicles(cfg, sub_seed)
        scene = generate_paired_propagation(placements, cfg, sub_seed + 1)
        if scene is not None:
            return scene
    raise RuntimeError(
        f"no viable scene in {max_attempts} attempts from seed {seed}"
    )


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VehicleFeatures:
    """Radar-side inputs for one vehicle (None when it went undetected)."""

    radar_aps: np.ndarray | None
    radar_eig: np.ndarray | None
    radar_covvec: np.ndarray | None
    los_flag: bool
    detected: bool


def trace_normalize(cov: SpatialCovariance) -> SpatialCovariance:
    """Scale so the trace equals the dimension (average diagonal 1).

    Beam selection is scale-invariant; normalization keeps features of
    near and far vehicles on one footing for the translators.
    """
    t = cov.trace
    if t <= 0.0:
        return cov
    return SpatialCovariance(cov.matrix * (cov.n / t))


def feature_set(cov_raw: SpatialCovariance, noise_power_w: float = 0.0):
    """APS, dominant eigenvector and covariance vector of one covariance.

    The same three features on both sides of the link: radar features from
    an isolated radar covariance with its raw noise floor, communication
    features from a channel covariance with no noise.  The covariance is
    trace-normalized first and the noise power rescaled by the same factor;
    the covariance vector is read from the Toeplitz-PSD projection of the
    noise-subtracted matrix.
    """
    scale = cov_raw.n / cov_raw.trace if cov_raw.trace > 0 else 1.0
    cov = trace_normalize(cov_raw)
    aps = aps_from_covariance(cov)
    eig, _ = dominant_eigenvector(cov.matrix)
    projected = toeplitz_psd_project(cov, noise_power_w=noise_power_w * scale).cov
    covvec = cov_vector(projected)
    return aps, eig, covvec


def associate_detections(actives, detections, bank: BankConfig, sample_rate_hz, window_lags):
    """Match detections to vehicles by ground-truth chirp rate and timing.

    Evaluation-only oracle: the true chirp rate selects the block (with a
    one-block slack for the merge rule) and the expected correlator lag is
    the chirp timing offset plus the strongest path delay.
    """
    matches = []
    for a in actives:
        b_expect = bank.nearest_block(a.radar.chirp_rate_hz_per_s)
        best = None
        for det in detections:
            if abs(det.block_index - b_expect) > 1:
                continue
            blk = bank.blocks[det.block_index]
            n_lags = blk.n_lags(sample_rate_hz)
            offset = (a.radar.time_offset_s + a.anchor_delay_s) % blk.chirp_period_s
            e_lag = int(round(offset * sample_rate_hz)) % n_lags
            dist = min((det.lag_index - e_lag) % n_lags, (e_lag - det.lag_index) % n_lags)
            if dist <= window_lags and (best is None or det.peak_power_w > best.peak_power_w):
                best = det
        matches.append(best)
    return matches


def comm_channel(link: LinkConfig, active: ActiveVehicle) -> WidebandChannel:
    """One active vehicle's (N_ue x N_rsu) delay-tap comm-band channel."""
    return channel_taps(
        list(active.comm_clusters),
        (UlaConfig(link.n_ue), UlaConfig(link.n_rsu)),
        link.n_taps,
        link.tap_interval_s,
    )


def comm_targets(link: LinkConfig, active: ActiveVehicle):
    """Communication-side APS, eigenvector and covariance vector of one
    active vehicle: the translators' training targets."""
    return feature_set(comm_covariance(comm_channel(link, active), link.k_subcarriers))


def featurize_scene(sim: SimConfig, scene: PairedScene, capture_seed: int):
    """Radar chain and radar features for every active vehicle."""
    capture = synthesize_rx(
        [(a.radar, a.radar_paths) for a in scene.actives],
        UlaConfig(sim.link.n_rsu),
        sim.capture(),
        noise_power_w=sim.radar_rx.noise_power_w,
        seed=capture_seed,
    )
    bank = sim.bank()
    detections = run_bank(
        capture,
        bank,
        sim.radar_rx.cfar(),
        sim.radar_rx.lowpass_bw_hz,
        lowpass_n_taps=sim.radar_rx.lowpass_taps,
    )
    matches = associate_detections(
        scene.actives,
        detections,
        bank,
        sim.radar_rx.sample_rate_hz,
        window_lags=sim.radar_rx.n_guard + 8,
    )
    if detections:
        floor_med = float(np.median([d.floor_power_w for d in detections]))
        sigma_raw = (
            floor_med
            / sim.radar_rx.n_samples
            * lowpass_noise_gain(
                sim.radar_rx.lowpass_bw_hz,
                sim.radar_rx.sample_rate_hz,
                sim.radar_rx.lowpass_taps,
            )
        )
    else:
        sigma_raw = 0.0

    features = []
    for active, det in zip(scene.actives, matches):
        if det is not None:
            r_aps, r_eig, r_covvec = feature_set(det.isolated_covariance, sigma_raw)
        else:
            r_aps = r_eig = r_covvec = None
        features.append(
            VehicleFeatures(
                radar_aps=r_aps,
                radar_eig=r_eig,
                radar_covvec=r_covvec,
                los_flag=active.los_flag,
                detected=det is not None,
            )
        )
    return features


# ---------------------------------------------------------------------------
# trials and campaigns
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialUserRow:
    trial_id: int
    user_id: int
    protocol_variant: str
    predictor_variant: str
    t_coh_s: float
    rate_bps: float
    los_flag: bool
    detected_flag: bool
    selected_rsu_beam: int
    selected_ue_beam: int
    is_initial: bool


@dataclass(frozen=True)
class TrialResult:
    rows: list
    initial_slot: int
    initial_detected: bool
    initial_los: bool


def predictor_ranking_feature(name: str, feats: VehicleFeatures, models: dict):
    """The feature a predictor hands to the search-space builder."""
    kind = PREDICTOR_KINDS.get(name)
    if kind is None:
        raise ValueError(f"unknown predictor {name!r}")
    raw = {
        "aps": feats.radar_aps,
        "eigvec": feats.radar_eig,
        "covvec": feats.radar_covvec,
    }[kind]
    if name.startswith("nn-"):
        model = models.get(kind)
        if model is None:
            raise ValueError(f"predictor {name!r} needs a trained {kind} model")
        return predict_variant(model, raw), kind
    return raw, kind


def run_trial(
    sim: SimConfig,
    trial_id: int,
    models: dict | None = None,
    protocols=None,
    predictors=None,
    t_coh_list=None,
) -> TrialResult:
    """One Monte Carlo trial: detect, translate, select beams, compute rates."""
    models = models or {}
    campaign = sim.campaign
    protocols = tuple(protocols if protocols is not None else campaign.protocols)
    predictors = tuple(predictors if predictors is not None else campaign.predictors)
    t_coh_list = tuple(t_coh_list if t_coh_list is not None else campaign.t_coh_list_s)
    for name in predictors:
        if name not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor {name!r}")
        if name.startswith("nn-") and PREDICTOR_KINDS[name] not in models:
            raise ValueError(f"predictor {name!r} needs a trained model")

    seed = campaign.seed + trial_id
    scene = make_scene(sim.scene, seed)
    link = sim.link
    channels = [comm_channel(link, a) for a in scene.actives]
    feats = featurize_scene(sim, scene, capture_seed=seed)

    cb_rsu = build_codebook(link.n_rsu)
    cb_ue = build_codebook(link.n_ue)
    gains = [gain_table(ch, cb_rsu, cb_ue, link.k_subcarriers) for ch in channels]

    def select(i, rsu_space=None):
        best = beam_select(gains[i], rsu_space=rsu_space)
        return best.ue_index, best.rsu_index

    rng = np.random.default_rng(seed ^ 0x5CEA0)
    initial = int(rng.integers(0, len(scene.actives)))
    tracked = [i for i in range(len(scene.actives)) if i != initial]

    oracle_pairs = [select(i) for i in range(len(scene.actives))]

    proto_cfg = ProtocolConfig(n_ue_beams=link.n_ue, n_rsu_beams=link.n_rsu)
    t_sym = link.symbol_duration_s
    p_tx = link.tx_per_subcarrier_w
    p_n = link.noise_per_subcarrier_w

    def rate_rows(protocol, predictor, initial_pair):
        """Rows for one (protocol, predictor): SINR once, rates per t_coh."""
        pairs = list(oracle_pairs)
        # no initial pair: the initial user goes unserved, rate 0 on beams -1
        pairs[initial] = (-1, -1) if initial_pair is None else initial_pair
        served = [i for i, pair in enumerate(pairs) if pair != (-1, -1)]
        values = sinr([pairs[i] for i in served], [gains[i] for i in served], p_tx, p_n)
        s_map = dict(zip(served, spectral_efficiency(values)))
        t_train = training_time(proto_cfg, protocol, t_sym, n_tracked_users=len(tracked))
        rows = []
        for t_coh in t_coh_list:
            for i in range(len(scene.actives)):
                rate = 0.0
                if i in s_map:
                    rate = effective_rate(s_map[i], t_train, t_coh, link.subcarrier_spacing_hz)
                ue_beam, rsu_beam = pairs[i]
                rows.append(
                    TrialUserRow(
                        trial_id=trial_id,
                        user_id=scene.actives[i].vehicle_index,
                        protocol_variant=protocol,
                        predictor_variant=predictor,
                        t_coh_s=float(t_coh),
                        rate_bps=float(rate),
                        los_flag=scene.actives[i].los_flag,
                        detected_flag=feats[i].detected,
                        selected_rsu_beam=rsu_beam,
                        selected_ue_beam=ue_beam,
                        is_initial=(i == initial),
                    )
                )
        return rows

    rows = []
    for protocol in protocols:
        if protocol == "exhaustive":
            rows.extend(rate_rows("exhaustive", "none", oracle_pairs[initial]))
            continue
        k = proto_cfg.search_sizes[protocol]
        for predictor in predictors:
            if not feats[initial].detected:
                rows.extend(rate_rows(protocol, predictor, None))
                continue
            feature, kind = predictor_ranking_feature(predictor, feats[initial], models)
            space = assisted_search_space(feature, cb_rsu, k, kind=kind)
            rows.extend(rate_rows(protocol, predictor, select(initial, space)))

    return TrialResult(
        rows=rows,
        initial_slot=initial,
        initial_detected=feats[initial].detected,
        initial_los=scene.actives[initial].los_flag,
    )


@dataclass(frozen=True)
class AggregateRow:
    protocol_variant: str
    predictor_variant: str
    t_coh_s: float
    mean_sum_rate_bps: float
    p_outage_los: float
    p_outage_nlos: float
    p_missed_detection: float


@dataclass(frozen=True)
class CampaignResult:
    rows: list
    aggregates: list
    p_missed_detection: float


def _campaign_worker(args):
    sim, trial, models = args
    return run_trial(sim, trial, models=models)


def run_campaign(
    sim: SimConfig, models: dict | None = None, progress=None, jobs: int = 1
) -> CampaignResult:
    """Independent trials seeded seed+trial_index, then aggregation.

    jobs > 1 evaluates trials in a worker pool; results are ordered by
    trial index either way, so the output is identical.
    """
    campaign = sim.campaign
    all_rows = []
    trial_meta = {}
    if jobs > 1:
        import multiprocessing

        # the pool fills the cores, so each worker scans the bank on one thread
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(jobs, initializer=set_bank_threads, initargs=(1,)) as pool:
            work = [(sim, t, models) for t in range(campaign.n_trials)]
            for trial, result in enumerate(pool.imap(_campaign_worker, work)):
                all_rows.extend(result.rows)
                trial_meta[trial] = (result.initial_detected, result.initial_los)
                if progress is not None:
                    progress(trial + 1, campaign.n_trials)
    else:
        for trial in range(campaign.n_trials):
            result = run_trial(sim, trial, models=models)
            all_rows.extend(result.rows)
            trial_meta[trial] = (result.initial_detected, result.initial_los)
            if progress is not None:
                progress(trial + 1, campaign.n_trials)
    p_missed = float(
        np.mean([0.0 if det else 1.0 for det, _ in trial_meta.values()])
    )
    aggregates = aggregate_rows(all_rows, trial_meta, campaign.r_min_bps, p_missed)
    return CampaignResult(rows=all_rows, aggregates=aggregates, p_missed_detection=p_missed)


def aggregate_rows(rows, trial_meta, r_min_bps, p_missed) -> list:
    """Per (protocol, predictor, t_coh): mean sum rate and outage stats.

    Outage is evaluated on the initial-access user; for assisted variants
    only trials with a detected initial vehicle enter the outage pool.
    """
    groups = {}
    for r in rows:
        groups.setdefault((r.protocol_variant, r.predictor_variant, r.t_coh_s), []).append(r)
    out = []
    for (proto, pred, t_coh), group in sorted(groups.items()):
        per_trial = {}
        for r in group:
            per_trial.setdefault(r.trial_id, 0.0)
            per_trial[r.trial_id] += r.rate_bps
        mean_sum = float(np.mean(list(per_trial.values())))
        los_rates, nlos_rates = [], []
        for r in group:
            if not r.is_initial:
                continue
            detected, _ = trial_meta[r.trial_id]
            if proto != "exhaustive" and not detected:
                continue
            (los_rates if r.los_flag else nlos_rates).append(r.rate_bps)
        p_los = outage(los_rates, r_min_bps) if los_rates else float("nan")
        p_nlos = outage(nlos_rates, r_min_bps) if nlos_rates else float("nan")
        out.append(
            AggregateRow(
                protocol_variant=proto,
                predictor_variant=pred,
                t_coh_s=t_coh,
                mean_sum_rate_bps=mean_sum,
                p_outage_los=p_los,
                p_outage_nlos=p_nlos,
                p_missed_detection=p_missed,
            )
        )
    return out


RESULT_COLUMNS = (
    "trial_id",
    "user_id",
    "protocol_variant",
    "predictor_variant",
    "t_coh_s",
    "rate_bps",
    "los_flag",
    "detected_flag",
    "selected_rsu_beam",
    "selected_ue_beam",
)


def write_results_csv(path, result: CampaignResult, header_lines=()) -> None:
    """Per-trial rows in the documented column order, then an aggregate
    block as comment lines."""
    with open(path, "w", newline="") as f:
        for line in header_lines:
            f.write(f"# {line}\n")
        writer = csv.writer(f)
        writer.writerow(RESULT_COLUMNS)
        for r in result.rows:
            writer.writerow(
                [
                    r.trial_id,
                    r.user_id,
                    r.protocol_variant,
                    r.predictor_variant,
                    f"{r.t_coh_s:.9g}",
                    f"{r.rate_bps:.9e}",
                    int(r.los_flag),
                    int(r.detected_flag),
                    r.selected_rsu_beam,
                    r.selected_ue_beam,
                ]
            )
        f.write("# aggregate: protocol,predictor,t_coh_s,mean_sum_rate_bps,"
                "p_outage_los,p_outage_nlos,p_missed_detection\n")
        for a in result.aggregates:
            f.write(
                f"# {a.protocol_variant},{a.predictor_variant},{a.t_coh_s:.9g},"
                f"{a.mean_sum_rate_bps:.9e},{a.p_outage_los:.6f},"
                f"{a.p_outage_nlos:.6f},{a.p_missed_detection:.6f}\n"
            )


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSummary:
    n_scenes: int
    n_pairs_written: int
    n_discarded: int
    files: dict
    manifest: str


def _pack_records(variant: str, records: list, dim: int) -> bytes:
    chunks = [
        struct.pack("<4sIII", DATASET_MAGIC, DATASET_VARIANT_IDS[variant], len(records), dim)
    ]
    for inp, tgt, los, trial, vehicle in records:
        if len(inp) != dim or len(tgt) != dim:
            raise ValueError(f"record widths {len(inp)}/{len(tgt)} differ from {dim}")
        chunks.append(np.asarray(inp, dtype="<f8").tobytes())
        chunks.append(np.asarray(tgt, dtype="<f8").tobytes())
        chunks.append(struct.pack("<BII", 1 if los else 0, trial, vehicle))
    return b"".join(chunks)


def write_dataset(path, variant: str, records: list, dim: int | None = None) -> None:
    """Write records of width dim (default: the first record's width)."""
    if dim is None:
        if not records:
            raise ValueError("an empty dataset needs its record width")
        dim = len(records[0][0])
    with open(path, "wb") as f:
        f.write(_pack_records(variant, records, dim))


def read_dataset(path):
    """Returns (variant, inputs, targets, los, trial_ids, vehicle_ids)."""
    with open(path, "rb") as f:
        magic, variant_id, n_records, dim = struct.unpack("<4sIII", f.read(16))
        if magic != DATASET_MAGIC:
            raise ValueError(f"bad dataset magic {magic!r}")
        names = {v: k for k, v in DATASET_VARIANT_IDS.items()}
        if variant_id not in names:
            raise ValueError(f"unknown dataset variant id {variant_id}")
        inputs = np.empty((n_records, dim))
        targets = np.empty((n_records, dim))
        los = np.empty(n_records, dtype=bool)
        trials = np.empty(n_records, dtype=np.uint32)
        vehicles = np.empty(n_records, dtype=np.uint32)
        rec_bytes = 16 * dim + 9
        for i in range(n_records):
            raw = f.read(rec_bytes)
            if len(raw) != rec_bytes:
                raise ValueError(f"dataset truncated at record {i}")
            inputs[i] = np.frombuffer(raw, dtype="<f8", count=dim)
            targets[i] = np.frombuffer(raw, dtype="<f8", count=dim, offset=8 * dim)
            l, t, v = struct.unpack_from("<BII", raw, 16 * dim)
            los[i], trials[i], vehicles[i] = bool(l), t, v
    return names[variant_id], inputs, targets, los, trials, vehicles


def write_split_manifest(path, n_records: int, seed: int, train_fraction: float = 0.8):
    """One line per record: '<index> train|val' by uniform draw."""
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n_records) < train_fraction, "train", "val")
    with open(path, "w") as f:
        for i, label in enumerate(labels):
            f.write(f"{i} {label}\n")
    return labels


def read_split_manifest(path, n_records: int):
    train_idx, val_idx = [], []
    with open(path) as f:
        for line in f:
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"malformed split line: {line!r}")
            idx, label = int(parts[0]), parts[1]
            if label == "train":
                train_idx.append(idx)
            elif label == "val":
                val_idx.append(idx)
            else:
                raise ValueError(f"unknown split label {label!r}")
    if len(train_idx) + len(val_idx) != n_records:
        raise ValueError(
            f"split covers {len(train_idx) + len(val_idx)} records, dataset has {n_records}"
        )
    return np.array(train_idx, dtype=int), np.array(val_idx, dtype=int)


def generate_dataset(
    sim: SimConfig, n_scenes: int, seed: int, out_dir, progress=None, train_fraction: float = 0.8
) -> DatasetSummary:
    """Run scenes, keep detected vehicles, write the three feature files.

    Undetected vehicles are discarded.  Files land in out_dir as
    {aps,eigvec,covvec}.rcpd plus split.txt, where each record is drawn
    into the training split with probability train_fraction.
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = {"aps": [], "eigvec": [], "covvec": []}
    discarded = 0
    for scene_idx in range(n_scenes):
        scene_seed = seed + scene_idx
        scene = make_scene(sim.scene, scene_seed)
        feats = featurize_scene(sim, scene, capture_seed=scene_seed)
        for active, f in zip(scene.actives, feats):
            if not f.detected:
                discarded += 1
                continue
            c_aps, c_eig, c_covvec = comm_targets(sim.link, active)
            meta = (f.los_flag, scene_idx, active.vehicle_index)
            records["aps"].append((f.radar_aps, c_aps, *meta))
            records["eigvec"].append(
                (
                    np.concatenate([f.radar_eig.real, f.radar_eig.imag]),
                    np.concatenate([c_eig.real, c_eig.imag]),
                    *meta,
                )
            )
            records["covvec"].append(
                (
                    np.concatenate([f.radar_covvec.real, f.radar_covvec.imag]),
                    np.concatenate([c_covvec.real, c_covvec.imag]),
                    *meta,
                )
            )
        if progress is not None:
            progress(scene_idx + 1, n_scenes)
    files = {}
    for variant, recs in records.items():
        path = out / f"{variant}.rcpd"
        n = sim.link.n_rsu
        write_dataset(path, variant, recs, dim=n if variant == "aps" else 2 * n)
        files[variant] = str(path)
    manifest = out / "split.txt"
    write_split_manifest(
        manifest, len(records["aps"]), seed=seed ^ 0x51117, train_fraction=train_fraction
    )
    return DatasetSummary(
        n_scenes=n_scenes,
        n_pairs_written=len(records["aps"]),
        n_discarded=discarded,
        files=files,
        manifest=str(manifest),
    )


def prepare_training_arrays(variant: str, inputs, targets, train_idx, val_idx):
    """Dataset records -> network arrays plus the tanh normalization scale.

    Eigenvector inputs are converted from the stored [Re; Im] packing to
    the magnitude/phase packing the network ingests; covariance vectors
    are scaled by the train split's max magnitude.
    """
    from .neural import pack_complex, unpack_complex

    def eig_input(x):
        return pack_complex(unpack_complex(x, "realimag"), "magphase")

    if variant == "aps":
        norm_const = 1.0
        x_tr, y_tr = inputs[train_idx], targets[train_idx]
        x_va, y_va = inputs[val_idx], targets[val_idx]
    elif variant == "eigvec":
        norm_const = 1.0
        x_tr = np.array([eig_input(x) for x in inputs[train_idx]])
        x_va = np.array([eig_input(x) for x in inputs[val_idx]])
        y_tr, y_va = targets[train_idx], targets[val_idx]
    elif variant == "covvec":
        def max_mag(packed):
            v = unpack_complex(packed, "realimag")
            return float(np.abs(v).max()) if v.size else 0.0

        norm_const = max(
            max((max_mag(x) for x in inputs[train_idx]), default=0.0),
            max((max_mag(y) for y in targets[train_idx]), default=0.0),
        )
        if norm_const == 0.0:
            norm_const = 1.0
        x_tr, y_tr = inputs[train_idx] / norm_const, targets[train_idx] / norm_const
        x_va, y_va = inputs[val_idx] / norm_const, targets[val_idx] / norm_const
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return (x_tr, y_tr), (x_va, y_va), norm_const
