"""Command-line entry point: dataset generation, training, sweeps, demos.

Subcommands: generate-dataset, train, sweep, detect-demo.  Configuration
comes from a flat key-value file (see config.SCHEMA).  The RSEED
environment variable, then the --seed flag, assign campaign.seed and
train.seed over it; --trials assigns campaign.n_trials and --jobs
campaign.jobs.  Each override is parsed and range-checked like a file
key, so a bad one is a configuration error (exit 2) that names the key
before any work starts.  Exit codes: 0 success, 2 configuration error,
3 runtime error.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import PREDICTOR_KINDS, ConfigError, RunConfig, load_config
from .detection import dump_correlator_csv
from .neural import (
    BUILDERS,
    array_size,
    load_checkpoint,
    prepare_training_arrays,
    save_checkpoint,
    train,
    write_history_csv,
)
from .scenario import (
    generate_dataset,
    make_scene,
    read_dataset,
    read_split_manifest,
    run_campaign,
    scene_capture,
)
from .results import write_results_csv

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3

SEED_KEYS = ("campaign.seed", "train.seed")
# the config keys that each override flag assigns
FLAG_KEYS = {"seed": SEED_KEYS, "trials": ("campaign.n_trials",), "jobs": ("campaign.jobs",)}


def _load_run_config(path, args) -> RunConfig:
    """The config file with RSEED, then each given flag, assigned over it."""
    given = [("RSEED", os.environ.get("RSEED"), SEED_KEYS)] + [
        (f"--{flag}", getattr(args, flag, None), keys) for flag, keys in FLAG_KEYS.items()
    ]
    overrides = [
        (source, key, text) for source, text, keys in given if text is not None for key in keys
    ]
    return load_config(path, overrides)


def cmd_generate_dataset(args) -> int:
    cfg = _load_run_config(args.config, args)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    probe = out_dir / ".write_probe"
    try:
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        print(f"error: output directory not writable: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    dataset = cfg.dataset
    summary = generate_dataset(
        cfg.sim, dataset.n_scenes, cfg.sim.campaign.seed, out_dir, dataset.train_fraction
    )
    print(
        f"wrote {summary.n_pairs_written} pairs from {dataset.n_scenes} scenes "
        f"({summary.n_discarded} undetected vehicles discarded)"
    )
    for variant, path in summary.files.items():
        print(f"  {variant}: {path}")
    print(f"  split manifest: {summary.manifest}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_run_config(args.config, args)
    variant = args.variant
    dataset_path = Path(args.dataset_dir) / f"{variant}.rcpd"
    if not dataset_path.exists():
        print(f"error: no dataset for variant {variant!r} at {dataset_path}", file=sys.stderr)
        return EXIT_RUNTIME
    file_variant, inputs, targets, _, _, _ = read_dataset(dataset_path)
    if file_variant != variant:
        print(
            f"error: dataset at {dataset_path} holds variant {file_variant!r}, "
            f"requested {variant!r}",
            file=sys.stderr,
        )
        return EXIT_RUNTIME
    manifest = Path(args.dataset_dir) / "split.txt"
    train_idx, val_idx = read_split_manifest(manifest, inputs.shape[0])
    train_set, val_set, norm_const = prepare_training_arrays(
        variant, inputs, targets, train_idx, val_idx
    )
    # the array size the dataset was generated at, not the config's
    n = array_size(variant, inputs.shape[1], "dataset record")
    model = BUILDERS[variant](n, seed=cfg.train.seed)
    model.norm_const = norm_const
    model, history = train(model, train_set, val_set, cfg.train, variant)
    save_checkpoint(args.out, model)
    if args.history:
        write_history_csv(args.history, history, header_lines=cfg.header_lines())
    best = min((h.val_loss for h in history), default=float("nan"))
    print(
        f"trained {variant}: {len(history)} epochs, best validation loss {best:.6e}"
    )
    print(f"checkpoint: {args.out}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args.config, args)
    needed = {
        PREDICTOR_KINDS[p]
        for p in cfg.sim.campaign.predictors
        if p.startswith("nn-")
    }
    models = {}
    for kind in sorted(needed):
        if args.checkpoint_dir is None:
            print(
                f"error: predictor set needs a {kind} checkpoint; pass --checkpoint-dir",
                file=sys.stderr,
            )
            return EXIT_RUNTIME
        path = Path(args.checkpoint_dir) / f"{kind}.ckpt"
        if not path.exists():
            print(f"error: missing checkpoint {path}", file=sys.stderr)
            return EXIT_RUNTIME
        model = load_checkpoint(path)
        # radar features are link.n_rsu long
        n = array_size(model.variant, model.layers[-1].biases.size, "checkpoint output")
        if (model.variant, n) != (kind, cfg.sim.link.n_rsu):
            print(
                f"error: checkpoint {path} holds a {n}-element {model.variant} model, "
                f"the sweep needs a {cfg.sim.link.n_rsu}-element {kind} model",
                file=sys.stderr,
            )
            return EXIT_RUNTIME
        models[kind] = model
    result = run_campaign(cfg.sim, models=models, jobs=cfg.sim.campaign.jobs)
    write_results_csv(args.out, result, header_lines=cfg.header_lines())
    print(f"wrote {len(result.rows)} rows to {args.out}")
    print(f"missed-detection probability: {result.p_missed_detection:.4f}")
    for agg in result.aggregates:
        print(
            f"  {agg.protocol_variant}/{agg.predictor_variant} "
            f"t_coh={agg.t_coh_s:g}s: mean sum rate {agg.mean_sum_rate_bps:.4e} bps, "
            f"P_out LOS={agg.p_outage_los:.3f} NLOS={agg.p_outage_nlos:.3f}"
        )
    return EXIT_OK


def cmd_detect_demo(args) -> int:
    cfg = _load_run_config(args.config, args)
    sim = cfg.sim
    seed = sim.campaign.seed
    scene = make_scene(sim.scene, seed)
    capture = scene_capture(sim, scene, seed)
    dump_correlator_csv(args.out, capture, sim.scene.bank(), header_lines=cfg.header_lines())
    rates = ", ".join(
        f"{a.radar.chirp_rate_hz_per_s:.3e}" for a in scene
    )
    print(f"scene with {len(scene)} radars (chirp rates {rates} Hz/s)")
    print(f"wrote per-block lag powers to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="radarlink",
        description="Passive-radar-aided mmWave link configuration simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-dataset", help="synthesize covariance feature pairs")
    p.add_argument("--config", required=True)
    p.add_argument("--out-dir", required=True)
    p.add_argument("--seed")
    p.set_defaults(func=cmd_generate_dataset)

    p = sub.add_parser("train", help="train one translation network")
    p.add_argument("--config", required=True)
    p.add_argument("--dataset-dir", required=True)
    p.add_argument("--variant", required=True, choices=tuple(BUILDERS))
    p.add_argument("--out", required=True, help="checkpoint path")
    p.add_argument("--history", help="optional training-history CSV path")
    p.add_argument("--seed")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep", help="Monte Carlo rate/outage sweep")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="results CSV path")
    p.add_argument("--checkpoint-dir", help="directory with {aps,eigvec,covvec}.ckpt")
    p.add_argument("--seed")
    p.add_argument("--trials")
    p.add_argument("--jobs")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("detect-demo", help="dump correlator outputs for one scene")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="lag-power CSV path")
    p.add_argument("--seed")
    p.set_defaults(func=cmd_detect_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (OSError, RuntimeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
