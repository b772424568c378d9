"""Scene generation, paired radar/comm propagation, trials, and campaigns.

A deterministic desk-scale substitute for ray tracing: vehicles are
dropped on a four-lane roadway, an image-source model builds shared
geometric rays (line of sight, roadside-wall bounces, vehicle-body
bounces), and each ray is evaluated separately in the radar and
communication bands with band-dependent gains, phases, mounting offsets,
and a log-normal gain mismatch.  On top of that sit featurization, the
Monte Carlo trial/campaign runner and the training-dataset writer.
featurize_scene isolates each active vehicle's radar covariance (None when
it went undetected); feature_set turns one into features keyed by kind,
only where they are read: for a trial's initial-access user, and for every
detected vehicle of a dataset.  neural decides how each kind is packed.
"""

from __future__ import annotations

import contextlib
import csv
import struct
from dataclasses import dataclass

import numpy as np

from .beamtraining import (
    ASSISTED_SEARCH_SIZES,
    assisted_search_space,
    beam_select,
    beam_taps,
    build_codebook,
    effective_rate,
    outage,
    pair_scores,
    sinr,
    spectral_efficiency,
    training_time,
)
from .channel import PathCluster, Ray, WidebandChannel, channel_taps, comm_covariance
from .covariance import SpatialCovariance
from .covfeatures import aps_from_covariance, toeplitz_psd_project
from .config import PREDICTOR_KINDS, LinkConfig, SceneConfig, SimConfig
from .detection import BankConfig, lowpass_noise_gain, run_bank
from .fmcw import FmcwParams, RadarPath, RadarPathSet, RxCapture, synthesize_rx
from .neural import VARIANT_IDS, VARIANT_NAMES, VARIANT_WIDTHS, pack_feature, predict_variant
from .numerics import blas_threads, dominant_eigenvector, set_bank_threads, set_blas_threads

C_LIGHT = 299_792_458.0

DATASET_MAGIC = b"RCPD"  # variant ids as in checkpoints: neural.VARIANT_IDS

# scene redraws before make_scene gives up on a seed
MAX_SCENE_ATTEMPTS = 64

# roadway lanes: center of lane 0 from the array axis, and lane pitch
FIRST_LANE_CENTER_M = 4.0
LANE_WIDTH_M = 3.5
# vehicle boxes: (length, width, height)
CAR_DIMS_M = (5.0, 2.0, 1.6)
TRUCK_DIMS_M = (13.0, 2.6, 3.0)
# spread of the sub-rays around their geometric ray: angle (normal std)
# and extra delay (uniform)
SUBRAY_ANGLE_SPREAD_RAD = float(np.deg2rad(1.5))
SUBRAY_DELAY_SPREAD_S = 8e-9


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
        y = FIRST_LANE_CENTER_M + lane * LANE_WIDTH_M
        scale = speed / 0.5  # Exp(rate 0.5/speed) has mean speed/0.5
        x = -half + float(rng.exponential(scale))
        prev_len = None
        while True:
            is_truck = bool(rng.random() < cfg.truck_fraction)
            dims = TRUCK_DIMS_M if is_truck else CAR_DIMS_M
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
    rsu = (cfg.rsu_x_m, cfg.rsu_y_m, cfg.rsu_z_m)
    half_cov = cfg.coverage_m / 2.0
    candidates = [
        i
        for i, v in enumerate(placements)
        if not v.is_truck and abs(v.x_m - rsu[0]) <= half_cov
    ]
    if len(candidates) < cfg.n_active:
        return None
    chosen = sorted(int(i) for i in rng.choice(candidates, size=cfg.n_active, replace=False))

    if cfg.chirp_on_grid:
        grid_idx = rng.choice(cfg.n_bank_blocks, size=cfg.n_active, replace=False)
        betas = cfg.bank().rates[grid_idx]
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
        yaw = np.deg2rad(cfg.radar_yaw_deg)
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
    rel_delays = np.concatenate([[0.0], rng.uniform(0.0, SUBRAY_DELAY_SPREAD_S, n - 1)]) if n > 1 else np.zeros(1)
    rays = tuple(
        Ray(
            gain=complex(gain * w[i]),
            rel_delay_s=float(rel_delays[i]),
            rel_aoa_rad=float(rng.normal(0.0, SUBRAY_ANGLE_SPREAD_RAD)),
            rel_aod_rad=float(rng.normal(0.0, SUBRAY_ANGLE_SPREAD_RAD)),
        )
        for i in range(n)
    )
    return PathCluster(
        mean_delay_s=delay, mean_aoa_rad=aoa, mean_aod_rad=aod, rays=rays
    )


def make_scene(cfg: SceneConfig, seed: int) -> PairedScene:
    """Drop vehicles and build propagation, redrawing until viable."""
    for attempt in range(MAX_SCENE_ATTEMPTS):
        sub_seed = seed + 104_729 * attempt
        placements = drop_vehicles(cfg, sub_seed)
        scene = generate_paired_propagation(placements, cfg, sub_seed + 1)
        if scene is not None:
            return scene
    raise RuntimeError(
        f"no viable scene in {MAX_SCENE_ATTEMPTS} attempts from seed {seed}"
    )


# ---------------------------------------------------------------------------
# featurization
# ---------------------------------------------------------------------------

def trace_normalize(cov: SpatialCovariance) -> tuple[SpatialCovariance, float]:
    """(cov scaled so its trace equals the dimension, the scale applied).

    Beam selection is scale-invariant; normalization keeps features of
    near and far vehicles on one footing for the translators.  A
    covariance of non-positive trace comes back unscaled, at scale 1.
    """
    t = cov.trace
    if t <= 0.0:
        return cov, 1.0
    scale = cov.n / t
    return SpatialCovariance(cov.matrix * scale), scale


def feature_set(cov_raw: SpatialCovariance, noise_power_w: float = 0.0) -> dict:
    """APS, dominant eigenvector and covariance vector of one covariance.

    The same three features on both sides of the link: radar features from
    an isolated radar covariance with its raw noise floor, communication
    features from a channel covariance with no noise.  The covariance is
    trace-normalized first and the noise power rescaled by the same factor;
    the covariance vector is the first column of the Toeplitz-PSD projection
    of the noise-subtracted matrix.
    """
    cov, scale = trace_normalize(cov_raw)
    aps = aps_from_covariance(cov)
    eig, _ = dominant_eigenvector(cov.matrix)
    covvec = toeplitz_psd_project(cov, noise_power_w=noise_power_w * scale).col
    return {"aps": aps, "eigvec": eig, "covvec": covvec}


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
        (link.n_ue, link.n_rsu),
        link.n_taps,
        link.tap_interval_s,
    )


def comm_targets(link: LinkConfig, active: ActiveVehicle):
    """Communication-side APS, eigenvector and covariance vector of one
    active vehicle: the translators' training targets."""
    return feature_set(comm_covariance(comm_channel(link, active), link.k_subcarriers))


def scene_capture(sim: SimConfig, scene: PairedScene, seed: int) -> RxCapture:
    """The passive array's capture of every active radar, noise drawn from seed."""
    return synthesize_rx(
        [(a.radar, a.radar_paths) for a in scene.actives],
        sim.link.n_rsu,
        sim.capture(),
        noise_power_w=sim.radar_rx.noise_power_w,
        seed=seed,
    )


def featurize_scene(sim: SimConfig, scene: PairedScene, capture_seed: int) -> list:
    """Radar chain for every active vehicle, up to the features.

    Per active vehicle, feature_set's arguments: the matched detection's
    isolated covariance and the scene's raw noise floor; None where no
    detection matched it.
    """
    capture = scene_capture(sim, scene, capture_seed)
    bank = sim.scene.bank()
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

    return [None if det is None else (det.isolated_covariance, sigma_raw) for det in matches]


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
    initial_detected: bool


def predictor_ranking_feature(name: str, feats: dict, models: dict):
    """The feature a predictor hands to the search-space builder.

    run_trial has checked the name and that an nn- predictor has its model.
    """
    kind = PREDICTOR_KINDS[name]
    if name.startswith("nn-"):
        return predict_variant(models[kind], feats[kind]), kind
    return feats[kind], kind


def run_trial(sim: SimConfig, trial_id: int, models: dict | None = None) -> TrialResult:
    """One Monte Carlo trial: detect, translate, select beams, compute rates."""
    models = models or {}
    campaign = sim.campaign
    for name in campaign.predictors:
        if name not in PREDICTOR_KINDS:
            raise ValueError(f"unknown predictor {name!r}")
        if name.startswith("nn-") and PREDICTOR_KINDS[name] not in models:
            raise ValueError(f"predictor {name!r} needs a trained model")

    seed = campaign.seed + trial_id
    scene = make_scene(sim.scene, seed)
    link = sim.link
    radar = featurize_scene(sim, scene, capture_seed=seed)

    cb_rsu = build_codebook(link.n_rsu)
    cb_ue = build_codebook(link.n_ue)
    # each dense delay-tap channel is dropped once projected to beam taps
    taps = [
        beam_taps(comm_channel(link, a), cb_rsu, cb_ue, link.k_subcarriers)
        for a in scene.actives
    ]
    # one score table per user serves the exhaustive and every assisted search
    scores = [pair_scores(b) for _, b in taps]

    def select(i, rsu_space=None):
        best = beam_select(scores[i], rsu_space)
        return best.ue_index, best.rsu_index

    rng = np.random.default_rng(seed ^ 0x5CEA0)
    initial = int(rng.integers(0, len(scene.actives)))
    # the assisted searches read the initial user's radar features alone
    feats = None if radar[initial] is None else feature_set(*radar[initial])

    oracle_pairs = [select(i) for i in range(len(scene.actives))]

    t_sym = link.symbol_duration_s
    p_tx = link.tx_per_subcarrier_w
    p_n = link.noise_per_subcarrier_w

    def rate_rows(protocol, predictor, initial_pair):
        """Rows for one (protocol, predictor): SINR once, rates per t_coh."""
        pairs = list(oracle_pairs)
        # no initial pair: the initial user goes unserved, rate 0 on beams -1
        pairs[initial] = (-1, -1) if initial_pair is None else initial_pair
        served = [i for i, pair in enumerate(pairs) if pair != (-1, -1)]
        values = sinr([pairs[i] for i in served], [taps[i] for i in served], p_tx, p_n)
        s_map = dict(zip(served, spectral_efficiency(values)))
        t_train = training_time(
            protocol, link.n_ue, link.n_rsu, t_sym, n_tracked_users=len(scene.actives) - 1
        )
        rows = []
        for t_coh in campaign.t_coh_list_s:
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
                        detected_flag=radar[i] is not None,
                        selected_rsu_beam=rsu_beam,
                        selected_ue_beam=ue_beam,
                        is_initial=(i == initial),
                    )
                )
        return rows

    # each predictor's feature (an nn- translator's one prediction) serves
    # every assisted protocol
    ranking = {}
    rows = []
    for protocol in campaign.protocols:
        if protocol == "exhaustive":
            rows.extend(rate_rows("exhaustive", "none", oracle_pairs[initial]))
            continue
        k = ASSISTED_SEARCH_SIZES[protocol]
        for predictor in campaign.predictors:
            if feats is None:
                rows.extend(rate_rows(protocol, predictor, None))
                continue
            if predictor not in ranking:
                ranking[predictor] = predictor_ranking_feature(predictor, feats, models)
            feature, kind = ranking[predictor]
            space = assisted_search_space(feature, cb_rsu, k, kind=kind)
            rows.extend(rate_rows(protocol, predictor, select(initial, space)))

    return TrialResult(rows=rows, initial_detected=feats is not None)


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


# (sim, models) of the campaign a pool worker runs, set by its initializer
_worker_campaign = None


def _init_campaign_worker(sim: SimConfig, models: dict | None) -> None:
    """Set up one pool worker: the pool fills the cores, so the worker scans
    the bank and runs BLAS on one thread, for its whole life."""
    global _worker_campaign
    set_bank_threads(1)
    set_blas_threads(1)
    _worker_campaign = (sim, models)


def _campaign_worker(trial: int) -> TrialResult:
    sim, models = _worker_campaign
    return run_trial(sim, trial, models=models)


def run_campaign(
    sim: SimConfig, models: dict | None = None, progress=None, jobs: int = 1
) -> CampaignResult:
    """Independent trials seeded seed+trial_index, then aggregation.

    jobs > 1 evaluates trials in a worker pool; results are ordered by
    trial index either way, so the output is identical.

    Trials run BLAS on one thread, and the old count comes back on return.
    Their matrices are array-sized (an eigh per Toeplitz-projection step,
    64x64 at the defaults), too small to split, and run_bank's threads
    already fill the cores: a second OpenBLAS thread only spins between
    calls.
    """
    campaign = sim.campaign
    trials = range(campaign.n_trials)
    all_rows = []
    missed = []
    with contextlib.ExitStack() as stack:
        stack.enter_context(blas_threads(1))
        results = (run_trial(sim, t, models=models) for t in trials)
        if jobs > 1:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            pool = stack.enter_context(
                ctx.Pool(jobs, initializer=_init_campaign_worker, initargs=(sim, models))
            )
            results = pool.imap(_campaign_worker, trials)
        for done, result in enumerate(results, start=1):
            all_rows.extend(result.rows)
            missed.append(0.0 if result.initial_detected else 1.0)
            if progress is not None:
                progress(done, campaign.n_trials)
    p_missed = float(np.mean(missed))
    aggregates = aggregate_rows(all_rows, campaign.r_min_bps, p_missed)
    return CampaignResult(rows=all_rows, aggregates=aggregates, p_missed_detection=p_missed)


def aggregate_rows(rows, r_min_bps, p_missed) -> list:
    """Per (protocol, predictor, t_coh): mean sum rate and outage stats.

    Outage is evaluated on the initial-access user; for assisted variants
    only trials whose initial row is detected enter the outage pool.
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
        pool = [r for r in group if r.is_initial and (proto == "exhaustive" or r.detected_flag)]
        los_rates = [r.rate_bps for r in pool if r.los_flag]
        nlos_rates = [r.rate_bps for r in pool if not r.los_flag]
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


DATASET_HEADER = struct.Struct("<4sIII")  # magic, variant id, record count, dim


def record_dtype(dim: int) -> np.dtype:
    """One packed little-endian RCPD record of width dim: 16 dim + 9 bytes."""
    return np.dtype([("input", "<f8", (dim,)), ("target", "<f8", (dim,)),
                     ("los", "u1"), ("trial", "<u4"), ("vehicle", "<u4")])


def _pack_records(variant: str, records: list, dim: int) -> bytes:
    packed = np.zeros(len(records), dtype=record_dtype(dim))
    for i, (inp, tgt, los, trial, vehicle) in enumerate(records):
        if len(inp) != dim or len(tgt) != dim:
            raise ValueError(f"record widths {len(inp)}/{len(tgt)} differ from {dim}")
        packed[i] = inp, tgt, bool(los), trial, vehicle
    header = DATASET_HEADER.pack(DATASET_MAGIC, VARIANT_IDS[variant], len(records), dim)
    return header + packed.tobytes()


def write_dataset(path, variant: str, records: list, dim: int | None = None) -> None:
    """Write records of width dim (default: the first record's width)."""
    if dim is None:
        if not records:
            raise ValueError("an empty dataset needs its record width")
        dim = len(records[0][0])
    with open(path, "wb") as f:
        f.write(_pack_records(variant, records, dim))


def read_dataset(path):
    """Returns (variant, inputs, targets, los, trial_ids, vehicle_ids).

    A file shorter or longer than its header's record count is a ValueError.
    """
    with open(path, "rb") as f:
        header = f.read(DATASET_HEADER.size)
        if len(header) != DATASET_HEADER.size:
            raise ValueError("dataset truncated in its header")
        magic, variant_id, n_records, dim = DATASET_HEADER.unpack(header)
        if magic != DATASET_MAGIC:
            raise ValueError(f"bad dataset magic {magic!r}")
        if variant_id not in VARIANT_NAMES:
            raise ValueError(f"unknown dataset variant id {variant_id}")
        dtype = record_dtype(dim)
        raw = f.read(n_records * dtype.itemsize)
        trailing = len(f.read())
    if len(raw) != n_records * dtype.itemsize:
        raise ValueError(f"dataset truncated at record {len(raw) // dtype.itemsize}")
    if trailing:
        raise ValueError(f"dataset has {trailing} bytes after its {n_records} records")
    rec = np.frombuffer(raw, dtype=dtype)
    return (VARIANT_NAMES[variant_id], rec["input"].astype(float), rec["target"].astype(float),
            rec["los"].astype(bool), rec["trial"].astype(np.uint32),
            rec["vehicle"].astype(np.uint32))


def write_split_manifest(path, n_records: int, seed: int, train_fraction: float):
    """One line per record: '<index> train|val' by uniform draw."""
    rng = np.random.default_rng(seed)
    labels = np.where(rng.random(n_records) < train_fraction, "train", "val")
    with open(path, "w") as f:
        for i, label in enumerate(labels):
            f.write(f"{i} {label}\n")
    return labels


def read_split_manifest(path, n_records: int):
    """(train, val) record indices: each of 0..n_records-1 exactly once."""
    sides = {"train": [], "val": []}
    seen = set()
    with open(path) as f:
        for line_no, line in enumerate(f, start=1):
            parts = line.split()
            if len(parts) != 2 or not parts[0].removeprefix("-").isdecimal():
                raise ValueError(f"split line {line_no} is malformed: {line!r}")
            idx, label = int(parts[0]), parts[1]
            if label not in sides:
                raise ValueError(f"unknown split label {label!r}")
            if idx in seen or not 0 <= idx < n_records:
                what = "repeated" if idx in seen else f"outside [0, {n_records})"
                raise ValueError(f"split line {line_no}: index {idx} {what}")
            seen.add(idx)
            sides[label].append(idx)
    if len(seen) != n_records:
        raise ValueError(f"split covers {len(seen)} records, dataset has {n_records}")
    return np.array(sides["train"], dtype=int), np.array(sides["val"], dtype=int)


def generate_dataset(
    sim: SimConfig, n_scenes: int, seed: int, out_dir, train_fraction: float, progress=None
) -> DatasetSummary:
    """Run scenes, keep detected vehicles, write the three feature files.

    Undetected vehicles are discarded.  Files land in out_dir as
    {aps,eigvec,covvec}.rcpd plus split.txt, where each record is drawn
    into the training split with probability train_fraction.
    """
    from pathlib import Path

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    pairs = []  # (radar features, comm features, los, scene index, vehicle index)
    discarded = 0
    with blas_threads(1):  # as in run_campaign: the trial pipeline's BLAS is too small to split
        for scene_idx in range(n_scenes):
            scene_seed = seed + scene_idx
            scene = make_scene(sim.scene, scene_seed)
            # the isolated covariances die with the comprehension; kept alive
            # through the next scene's bank, they fragment the heap (+4-7 MB RSS)
            detected = [
                (feature_set(*radar), comm_targets(sim.link, active),
                 active.los_flag, scene_idx, active.vehicle_index)
                for active, radar in zip(scene.actives, featurize_scene(sim, scene, scene_seed))
                if radar is not None
            ]
            discarded += len(scene.actives) - len(detected)
            pairs += detected
            if progress is not None:
                progress(scene_idx + 1, n_scenes)
    files = {}
    for variant, width in VARIANT_WIDTHS.items():
        path = out / f"{variant}.rcpd"
        records = [
            (pack_feature(radar[variant]), pack_feature(comm[variant]), *meta)
            for radar, comm, *meta in pairs
        ]
        write_dataset(path, variant, records, dim=width * sim.link.n_rsu)
        files[variant] = str(path)
    manifest = out / "split.txt"
    write_split_manifest(manifest, len(pairs), seed=seed ^ 0x51117, train_fraction=train_fraction)
    return DatasetSummary(
        n_scenes=n_scenes,
        n_pairs_written=len(pairs),
        n_discarded=discarded,
        files=files,
        manifest=str(manifest),
    )

