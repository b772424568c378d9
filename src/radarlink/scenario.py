"""Scenes, featurization, trials, campaigns and the training dataset.

make_scene draws a scene's active vehicles from geometry, redrawing until
one is viable.  featurize_scene runs the radar chain on the scene's
capture for the vehicles its caller reads, a trial's initial-access user
or every vehicle of a dataset: it detects those alone and isolates each
detected one's radar covariance; feature_set turns one into features
keyed by kind, and neural decides how each kind is packed.  run_trial
prices beam training for every (protocol, predictor) and returns the
trial's rows (results.TrialUserRow); run_campaign runs the trials and
aggregates them.  generate_dataset writes the translators' training
files: one RCPD file per feature kind and a split manifest.
"""

from __future__ import annotations

import contextlib
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
    pair_scores,
    sinr,
    spectral_efficiency,
    training_time,
)
from .channel import WidebandChannel, channel_taps, comm_covariance
from .covariance import SpatialCovariance
from .covfeatures import aps_from_covariance, toeplitz_psd_project
from .config import PREDICTOR_KINDS, LinkConfig, RadarRxConfig, SceneConfig, SimConfig
from .detection import BankConfig, isolate_detections, run_bank
from .fmcw import RxCapture, synthesize_rx
from .geometry import ActiveVehicle, drop_vehicles, generate_paired_propagation
from .neural import (
    VARIANT_IDS, VARIANT_NAMES, VARIANT_WIDTHS, array_size, pack_feature, predict_variant,
)
from .numerics import blas_threads, dominant_eigenvector, set_bank_threads
from .results import CampaignResult, TrialUserRow, aggregate_rows, p_missed_detection

DATASET_MAGIC = b"RCPD"  # variant ids as in checkpoints: neural.VARIANT_IDS

# scene redraws before make_scene gives up on a seed
MAX_SCENE_ATTEMPTS = 64


def make_scene(cfg: SceneConfig, seed: int) -> tuple[ActiveVehicle, ...]:
    """A scene's active vehicles: drop vehicles and build propagation,
    redrawing until viable."""
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

def trace_normalize(cov: SpatialCovariance) -> SpatialCovariance:
    """cov scaled so its trace equals the dimension.

    Beam selection is scale-invariant; normalization keeps features of
    near and far vehicles on one footing for the translators.  A
    covariance of non-positive trace comes back unscaled.
    """
    t = cov.trace
    if t <= 0.0:
        return cov
    return SpatialCovariance(cov.matrix * (cov.n / t))


def feature_set(cov_raw: SpatialCovariance) -> dict:
    """APS, dominant eigenvector and covariance vector of one covariance.

    The same three features on both sides of the link: radar features from
    an isolated radar covariance, communication features from a channel
    covariance.  The covariance is trace-normalized first; the covariance
    vector is the first column of its Toeplitz-PSD projection.
    """
    cov = trace_normalize(cov_raw)
    aps = aps_from_covariance(cov)
    eig, _ = dominant_eigenvector(cov.matrix)
    covvec = toeplitz_psd_project(cov).col
    return {"aps": aps, "eigvec": eig, "covvec": covvec}


# blocks on either side of a radar's nearest block that may hold its
# detection: a rate between two grid points excites both, and the merge
# rule keeps the stronger
MATCH_BLOCK_SLACK = 1

# lags past the CFAR guard width within which a detection matches a radar
MATCH_LAG_SLACK = 8


def match_blocks(bank: BankConfig, chirp_rate_hz_per_s: float) -> range:
    """The blocks whose detections associate_detections may match to a
    radar of this chirp rate: its nearest block, MATCH_BLOCK_SLACK on each
    side."""
    b = bank.nearest_block(chirp_rate_hz_per_s)
    return range(max(0, b - MATCH_BLOCK_SLACK), min(len(bank.blocks), b + MATCH_BLOCK_SLACK + 1))


def match_scope(bank: BankConfig, rx: RadarRxConfig, actives) -> tuple[set, int]:
    """(blocks, window_lags) that the pipeline matches these vehicles'
    detections within: every block one of them can match (match_blocks),
    and n_guard + MATCH_LAG_SLACK lags of each expected lag."""
    blocks = {b for a in actives for b in match_blocks(bank, a.radar.chirp_rate_hz_per_s)}
    return blocks, rx.n_guard + MATCH_LAG_SLACK


def associate_detections(actives, detections, bank: BankConfig, sample_rate_hz, window_lags):
    """Match detections to vehicles by ground-truth chirp rate and timing.

    Evaluation-only oracle: the true chirp rate selects the blocks
    (match_blocks) and the expected correlator lag is the chirp timing
    offset plus the strongest path delay.
    """
    matches = []
    for a in actives:
        blocks = match_blocks(bank, a.radar.chirp_rate_hz_per_s)
        best = None
        for det in detections:
            if det.block_index not in blocks:
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


def scene_capture(sim: SimConfig, scene: tuple, seed: int) -> RxCapture:
    """The passive array's capture of every active radar, noise drawn from seed."""
    return synthesize_rx(
        [(a.radar, a.radar_paths) for a in scene],
        sim.link.n_rsu,
        sim.capture(),
        noise_power_w=sim.radar_rx.noise_power_w,
        seed=seed,
    )


def featurize_scene(sim: SimConfig, scene: tuple, capture_seed: int, read) -> dict:
    """Radar chain for the active vehicles in read, up to the features.

    Returns a dict from each vehicle index in read that a detection matched
    to its isolated covariance.  The bank returns the detections in the
    blocks those vehicles can match (match_scope), and scans those and the
    ring its merge rule reads, about five blocks a vehicle; a detection
    elsewhere would match none of them, so the matches and covariances are
    those of the full bank.
    """
    capture = scene_capture(sim, scene, capture_seed)
    bank, rx = sim.scene.bank(), sim.radar_rx
    actives = [scene[i] for i in read]
    blocks, window_lags = match_scope(bank, rx, actives)
    detections = run_bank(capture, bank, rx.cfar(), blocks=blocks)
    matches = associate_detections(actives, detections, bank, rx.sample_rate_hz, window_lags)
    wanted = {i: det for i, det in zip(read, matches) if det is not None}
    # vehicles matched to one detection share its covariance
    unique = list(dict.fromkeys(wanted.values()))
    isolated = isolate_detections(capture, bank, unique, rx.lowpass_bw_hz, rx.lowpass_taps)
    covs = dict(zip(unique, isolated))
    return {i: covs[det] for i, det in wanted.items()}


# ---------------------------------------------------------------------------
# trials and campaigns
# ---------------------------------------------------------------------------

def run_trial(sim: SimConfig, trial_id: int, models: dict | None = None) -> list:
    """One Monte Carlo trial: detect, translate, select beams, compute rates.

    Returns the trial's rows; every row of the initial user carries its
    detection flag, and a tracked user's rows None (it is not detected).
    """
    models = models or {}
    campaign = sim.campaign
    for name in campaign.predictors:
        if name.startswith("nn-") and PREDICTOR_KINDS[name] not in models:
            raise ValueError(f"predictor {name!r} needs a trained model")

    seed = campaign.seed + trial_id
    scene = make_scene(sim.scene, seed)
    link = sim.link
    rng = np.random.default_rng(seed ^ 0x5CEA0)
    initial = int(rng.integers(0, len(scene)))
    # the assisted searches read the initial user's radar features alone
    radar = featurize_scene(sim, scene, capture_seed=seed, read=(initial,))
    feats = feature_set(radar[initial]) if initial in radar else None

    cb_rsu = build_codebook(link.n_rsu)
    cb_ue = build_codebook(link.n_ue)
    taps = [
        beam_taps(comm_channel(link, a), cb_rsu, cb_ue, link.k_subcarriers)
        for a in scene
    ]
    # one score table per user serves the exhaustive and every assisted search
    scores = [pair_scores(b) for _, b in taps]
    oracle_pairs = [beam_select(table) for table in scores]

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
            protocol, link.n_ue, link.n_rsu, t_sym, n_tracked_users=len(scene) - 1
        )
        rows = []
        for t_coh in campaign.t_coh_list_s:
            for i, active in enumerate(scene):
                rate = 0.0
                if i in s_map:
                    rate = effective_rate(s_map[i], t_train, t_coh, link.subcarrier_spacing_hz)
                ue_beam, rsu_beam = pairs[i]
                rows.append(
                    TrialUserRow(
                        trial_id=trial_id,
                        user_id=active.vehicle_index,
                        protocol_variant=protocol,
                        predictor_variant=predictor,
                        t_coh_s=float(t_coh),
                        rate_bps=float(rate),
                        los_flag=active.los_flag,
                        detected_flag=(initial in radar) if i == initial else None,
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
            kind = PREDICTOR_KINDS[predictor]
            if predictor not in ranking:
                feature = feats[kind]
                if predictor.startswith("nn-"):
                    feature = predict_variant(models[kind], feature)
                ranking[predictor] = feature
            space = assisted_search_space(ranking[predictor], cb_rsu, k, kind=kind)
            rows.extend(rate_rows(protocol, predictor, beam_select(scores[initial], space)))

    return rows


# (sim, models) of the campaign a pool worker runs, set by its initializer
_worker_campaign = None


def _init_campaign_worker(sim: SimConfig, models: dict | None) -> None:
    """Set up one pool worker: the pool fills the cores, so the worker scans
    the bank on one thread, for its whole life.  It runs BLAS on one thread
    too, inherited from run_campaign, which sets that before the fork."""
    global _worker_campaign
    set_bank_threads(1)
    _worker_campaign = (sim, models)


def _campaign_worker(trial: int) -> list:
    sim, models = _worker_campaign
    return run_trial(sim, trial, models=models)


def run_campaign(sim: SimConfig, models: dict | None = None, jobs: int = 1) -> CampaignResult:
    """Independent trials seeded seed+trial_index, then aggregation.

    The trials' rows are the campaign's only record; the missed-detection
    probability is derived from them (p_missed_detection).

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
    with contextlib.ExitStack() as stack:
        # entered before the pool, so that the forked workers inherit it
        stack.enter_context(blas_threads(1))
        results = (run_trial(sim, t, models=models) for t in trials)
        if jobs > 1:
            import multiprocessing

            ctx = multiprocessing.get_context("fork")
            pool = stack.enter_context(
                ctx.Pool(jobs, initializer=_init_campaign_worker, initargs=(sim, models))
            )
            results = pool.imap(_campaign_worker, trials)
        for rows in results:
            all_rows.extend(rows)
    return CampaignResult(
        rows=all_rows,
        aggregates=aggregate_rows(all_rows, campaign.r_min_bps),
        p_missed_detection=p_missed_detection(all_rows),
    )


# ---------------------------------------------------------------------------
# dataset generation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetSummary:
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

    A file shorter or longer than its header's record count, whose record
    width fits no array (neural.array_size), or with a record whose input
    or target is not finite, is a ValueError.
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
        array_size(VARIANT_NAMES[variant_id], dim, "dataset record")
        dtype = record_dtype(dim)
        raw = f.read(n_records * dtype.itemsize)
        trailing = len(f.read())
    if len(raw) != n_records * dtype.itemsize:
        raise ValueError(f"dataset truncated at record {len(raw) // dtype.itemsize}")
    if trailing:
        raise ValueError(f"dataset has {trailing} bytes after its {n_records} records")
    rec = np.frombuffer(raw, dtype=dtype)
    parts = ("input", "target")
    # (record, part) pairs in record order, a record's input before its target
    bad = np.argwhere(~np.column_stack([np.isfinite(rec[p]).all(axis=1) for p in parts]))
    if bad.size:
        record, part = bad[0]
        raise ValueError(f"dataset record {record} has a non-finite {parts[part]}")
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
    sim: SimConfig, n_scenes: int, seed: int, out_dir, train_fraction: float
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
            radar = featurize_scene(sim, scene, scene_seed, read=range(len(scene)))
            detected = [
                (feature_set(radar[i]), comm_targets(sim.link, active),
                 active.los_flag, scene_idx, active.vehicle_index)
                for i, active in enumerate(scene)
                if i in radar
            ]
            # kept alive through the next scene's bank, the isolated
            # covariances fragment the heap (+4-7 MB RSS)
            del radar
            discarded += len(scene) - len(detected)
            pairs += detected
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
        n_pairs_written=len(pairs),
        n_discarded=discarded,
        files=files,
        manifest=str(manifest),
    )

