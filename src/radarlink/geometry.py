"""Scene geometry: the vehicle drop and paired radar/comm propagation.

A deterministic desk-scale substitute for ray tracing: vehicles are
dropped on a four-lane roadway, an image-source model builds shared
geometric rays (line of sight, roadside-wall bounces, vehicle-body
bounces), and each ray is evaluated separately in the radar and
communication bands with band-dependent gains, phases, mounting offsets,
and a log-normal gain mismatch.  A ray is its mirror plane y = mirror_y,
or None for line of sight.  A scene is the tuple of its active vehicles,
each an ActiveVehicle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import PathCluster, Ray
from .config import SceneConfig
from .fmcw import FmcwParams, RadarPath, RadarPathSet

C_LIGHT = 299_792_458.0

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
# the infrastructure array faces the roadway
RSU_BORESIGHT = (0.0, 1.0, 0.0)


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
            vehicles.append(Vehicle(lane, x, y, *dims, is_truck=is_truck))
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
    return any(
        _segment_hits_box(p1, p2, v.box) for idx, v in enumerate(vehicles) if idx not in exclude
    )


# ---------------------------------------------------------------------------
# paired propagation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ActiveVehicle:
    """Everything a trial needs to know about one connected vehicle."""

    vehicle_index: int
    radar: FmcwParams
    radar_paths: RadarPathSet
    comm_clusters: tuple
    los_flag: bool
    anchor_delay_s: float


def _ray_endpoints(src, rsu, mirror_y):
    """Path points src -> (bounce) -> rsu and the total length."""
    if mirror_y is None:
        length = float(np.linalg.norm(np.subtract(rsu, src)))
        return [src, rsu], length
    # mirror the source across the plane y = mirror_y
    img = (src[0], 2.0 * mirror_y - src[1], src[2])
    length = float(np.linalg.norm(np.subtract(rsu, img)))
    d = np.subtract(img, rsu)
    if abs(d[1]) < 1e-12:
        return None, 0.0
    t = (mirror_y - rsu[1]) / d[1]
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


def _band_ray(sources, rsu, mirror_y, carrier_hz, reflection_amp, lognormal_db):
    """Evaluate one geometric ray at one band.

    sources is a list of (position, boresight) candidates on the vehicle
    (side arrays for communication, corner radars for radar); the one with
    the best pattern gain toward the ray serves it.  Returns
    (gain, delay_s, angle_at_rsu, angle_at_vehicle) or None when no
    antenna covers the ray.
    """
    best = None
    for src, src_boresight in sources:
        points, length = _ray_endpoints(src, rsu, mirror_y)
        if points is None:
            continue
        arrival_pt = points[-2]  # what the infrastructure array sees
        departure_pt = points[1]  # what the vehicle-side antenna sees
        amp = (C_LIGHT / carrier_hz) / (4.0 * np.pi * length)
        amp *= _pattern_amp(np.subtract(arrival_pt, rsu), RSU_BORESIGHT)
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
    if mirror_y is not None:  # one bounce
        amp *= -reflection_amp
    gain = amp * np.exp(-2j * np.pi * carrier_hz * delay)
    return gain, delay, angle_rsu, angle_veh


def _clear_bounce(src, rsu, mirror_y, vehicles, exclude):
    """The bounce point of the ray mirrored at mirror_y, or None when the
    ray has no bounce or a vehicle outside exclude blocks either leg."""
    points, _ = _ray_endpoints(src, rsu, mirror_y)
    if points is None:
        return None
    bounce = points[1]
    if segment_blocked(src, bounce, vehicles, exclude) or segment_blocked(
        bounce, rsu, vehicles, exclude
    ):
        return None
    return bounce


def _candidate_rays(cfg: SceneConfig, vehicles, v_idx: int, ref_src, rsu) -> list:
    """Mirror planes of the rays that exist for this vehicle, None for line
    of sight (shared blocker tests)."""
    rays = []
    exclude = (v_idx,)
    if not segment_blocked(ref_src, rsu, vehicles, exclude):
        rays.append(None)
    for wall_y in (cfg.near_wall_y_m, cfg.far_wall_y_m):
        if _clear_bounce(ref_src, rsu, wall_y, vehicles, exclude) is not None:
            rays.append(wall_y)
    for o_idx, other in enumerate(vehicles):
        if o_idx == v_idx:
            continue
        face_y = other.y_m - other.width_m / 2.0
        # the face must lie between the infrastructure and the source
        if not rsu[1] < face_y < ref_src[1]:
            continue
        bounce = _clear_bounce(ref_src, rsu, face_y, vehicles, exclude + (o_idx,))
        if bounce is None:
            continue
        (xmin, xmax), _, (zmin, zmax) = other.box
        if xmin <= bounce[0] <= xmax and zmin <= bounce[2] <= zmax:
            rays.append(face_y)
    return rays


def generate_paired_propagation(
    placements: list[Vehicle], cfg: SceneConfig, seed: int
) -> tuple[ActiveVehicle, ...] | None:
    """Build the paired radar/comm propagation for randomly chosen actives.

    Returns None when fewer than n_active candidate cars sit inside the
    coverage section (callers redraw the scene deterministically).
    """
    rng = np.random.default_rng(seed)
    rsu = (cfg.rsu_x_m, cfg.rsu_y_m, cfg.rsu_z_m)
    half_cov = cfg.coverage_m / 2.0
    candidates = [
        i for i, v in enumerate(placements) if not v.is_truck and abs(v.x_m - rsu[0]) <= half_cov
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

        ref_src = (veh.x_m, lo_y, cfg.comm_mount_height_m)
        rays = _candidate_rays(cfg, placements, v_idx, ref_src, rsu)

        radar_paths = []
        clusters = []
        anchor = None
        for mirror_y in rays:
            db_radar = float(rng.normal(0.0, cfg.mismatch_sigma_db))
            db_comm = float(rng.normal(0.0, cfg.mismatch_sigma_db))
            radar_eval = _band_ray(
                radar_sources, rsu, mirror_y, cfg.radar_carrier_hz, cfg.reflection_amp, db_radar
            )
            comm_eval = _band_ray(
                comm_sources, rsu, mirror_y, cfg.comm_carrier_hz, cfg.reflection_amp, db_comm
            )
            if radar_eval is not None:
                gain, delay, angle_rsu, _ = radar_eval
                radar_paths.append(RadarPath(gain=gain, delay_s=delay, aoa_rad=angle_rsu))
                if anchor is None or abs(gain) > anchor[0]:
                    anchor = (abs(gain), delay)
            if comm_eval is not None:
                gain, delay, angle_rsu, angle_veh = comm_eval
                # downlink channel: departure at the infrastructure,
                # arrival at the vehicle array
                clusters.append(_make_cluster(rng, cfg, gain, delay, aoa=angle_veh, aod=angle_rsu))
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
                los_flag=None in rays,
                anchor_delay_s=anchor[1],
            )
        )
    return tuple(actives)


def _make_cluster(rng, cfg: SceneConfig, gain, delay, aoa, aod) -> PathCluster:
    """Split one geometric ray into a small cluster of sub-rays.

    Sub-ray complex weights preserve the ray's total power.
    """
    n = cfg.n_subrays
    w = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    w /= np.linalg.norm(w)
    rel_delays = np.concatenate([[0.0], rng.uniform(0.0, SUBRAY_DELAY_SPREAD_S, n - 1)])
    rays = tuple(
        Ray(
            gain=complex(gain * w[i]),
            rel_delay_s=float(rel_delays[i]),
            rel_aoa_rad=float(rng.normal(0.0, SUBRAY_ANGLE_SPREAD_RAD)),
            rel_aod_rad=float(rng.normal(0.0, SUBRAY_ANGLE_SPREAD_RAD)),
        )
        for i in range(n)
    )
    return PathCluster(mean_delay_s=delay, mean_aoa_rad=aoa, mean_aod_rad=aod, rays=rays)
