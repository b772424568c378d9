"""Spans and counts around calls into radarlink's public functions.

The tracer replaces module attributes at the names the caller looks up
(``radarlink.scenario.run_bank`` is what ``featurize_scene`` calls), so
the library itself is untouched.  Each wrapper records a span
``[name, start, end, parent, attrs]``; ``attrs`` holds counts read from
the call's arguments and return value.  Spans stay in memory and are
written out at the end: by the command process once ``main`` returns, and
by a forked pool worker after each top-level call, because pool workers
are terminated without running exit handlers.
"""

from __future__ import annotations

import importlib
import json
import os
import statistics
import sys
import time
from pathlib import Path


def _nbytes(r):
    return {"bytes": int(r.nbytes)}


def _file_bytes(a, k, r):
    return {"bytes": os.path.getsize(a[0])}


def _associate(a, k, r):
    detections = a[1]
    matched = {id(m) for m in r if m is not None}
    return {
        "vehicles": len(r),
        "matched": sum(m is not None for m in r),
        "unmatched": len(detections) - len(matched),
    }


def _train(a, k, r):
    history = r[1]
    return {
        "variant": a[4] if len(a) > 4 else k["loss_variant"],
        "epochs": len(history),
        "records": len(a[1][0]) + len(a[2][0]),
    }


# (module, attribute the caller looks up, span name, attrs(args, kwargs, result))
TARGETS = (
    ("radarlink.cli", "run_campaign", "scenario.run_campaign",
     lambda a, k, r: {"jobs": k.get("jobs", 1)}),
    ("radarlink.cli", "generate_dataset", "scenario.generate_dataset", None),
    ("radarlink.cli", "write_results_csv", "scenario.write_results_csv", _file_bytes),
    ("radarlink.cli", "read_dataset", "scenario.read_dataset", None),
    ("radarlink.cli", "prepare_training_arrays", "scenario.prepare_training_arrays", None),
    ("radarlink.cli", "train", "neural.train", _train),
    ("radarlink.cli", "load_checkpoint", "neural.load_checkpoint", None),
    ("radarlink.cli", "save_checkpoint", "neural.save_checkpoint", None),
    ("radarlink.scenario", "run_trial", "scenario.run_trial", None),
    ("radarlink.scenario", "make_scene", "scenario.make_scene", None),
    ("radarlink.scenario", "generate_paired_propagation",
     "scenario.generate_paired_propagation", None),
    ("radarlink.scenario", "featurize_scene", "scenario.featurize_scene", None),
    ("radarlink.scenario", "associate_detections", "scenario.associate_detections", _associate),
    ("radarlink.scenario", "write_dataset", "scenario.write_dataset", _file_bytes),
    ("radarlink.scenario", "synthesize_rx", "fmcw.synthesize_rx",
     lambda a, k, r: _nbytes(r.samples)),
    ("radarlink.scenario", "run_bank", "detection.run_bank",
     lambda a, k, r: {"detections": len(r)}),
    ("radarlink.detection", "mix", "detection.mix", None),
    ("radarlink.detection", "correlate", "detection.correlate", None),
    ("radarlink.detection", "cfar_detect", "detection.cfar_detect",
     lambda a, k, r: {"hits": len(r)}),
    ("radarlink.detection", "isolate_covariance", "detection.isolate_covariance", None),
    ("radarlink.detection", "fir_lowpass", "numerics.fir_lowpass", None),
    ("radarlink.scenario", "dominant_eigenvector", "numerics.dominant_eigenvector", None),
    ("radarlink.scenario", "toeplitz_psd_project", "covfeatures.toeplitz_psd_project",
     lambda a, k, r: {"iterations": int(r.iterations), "converged": bool(r.converged)}),
    ("radarlink.scenario", "channel_taps", "channel.channel_taps", None),
    ("radarlink.scenario", "channel_freq_all", "channel.channel_freq_all",
     lambda a, k, r: _nbytes(r)),
    ("radarlink.scenario", "comm_covariance", "channel.comm_covariance", None),
    ("radarlink.scenario", "pair_scores", "beamtraining.pair_scores", None),
    ("radarlink.scenario", "sinr", "beamtraining.sinr", None),
    ("radarlink.scenario", "assisted_search_space", "beamtraining.assisted_search_space", None),
    ("radarlink.scenario", "predict_variant", "neural.predict_variant", None),
)


class Tracer:
    """Records spans for one process; a forked child starts a fresh list."""

    def __init__(self, span_dir):
        self.span_dir = Path(span_dir)
        self.pid = os.getpid()
        self.in_worker = False
        self.spans = []
        self.stack = []
        self.missing = []

    def install(self) -> None:
        for module_name, attr, name, attrs in TARGETS:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                print(f"perfbench: cannot trace {module_name}.{attr}: not found",
                      file=sys.stderr)
                continue
            setattr(module, attr, self._wrap(fn, name, attrs))

    def _wrap(self, fn, name, attrs):
        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                # first call in a forked pool worker: drop the parent's spans
                self.pid, self.in_worker = os.getpid(), True
                self.spans, self.stack = [], []
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append(None)
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx] = [name, start, end, parent, {}]
            if attrs is not None:
                self.spans[idx][4] = attrs(args, kwargs, result)
            if self.in_worker and not self.stack:
                self._flush_worker()
            return result

        return traced

    def _flush_worker(self) -> None:
        path = self.span_dir / f"worker-{self.pid}.jsonl"
        with open(path, "a") as f:
            f.write(json.dumps(self.spans) + "\n")
        self.spans = []

    def collect(self) -> list:
        """This process's spans plus every worker's, each with self time.

        Returned spans are ``[name, duration, self_time, attrs, in_worker]``.
        """
        out = with_self_time(self.spans, False)
        for path in sorted(self.span_dir.glob("worker-*.jsonl")):
            with open(path) as f:
                for line in f:
                    out.extend(with_self_time(json.loads(line), True))
        return out


def with_self_time(spans: list, in_worker: bool) -> list:
    """Self time is a span's duration minus the time its children cover.

    Spans of one process nest strictly, so the children of a span do not
    overlap and the time they cover is the sum of their durations.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [
        [name, end - start, end - start - child_time[i], attrs, in_worker]
        for i, (name, start, end, parent, attrs) in enumerate(spans)
    ]


VARIANTS = ("aps", "eigvec", "covvec")


def layer_metrics(spans: list, items: int, import_s: list, pool_children_cpu_s: float) -> dict:
    """Per-layer metrics from the spans of the traced commands of one run.

    Values are per item unless the name says otherwise (``_frac``,
    ``_per_vehicle``, ``_p50``, ``_max``, ``per_s``, ``neural.epochs``) or
    the unit is per command (``cli.import_s``).
    """
    total, self_total, calls = {}, {}, {}
    for name, dur, self_s, _, worker in spans:
        key = name + (".pool" if worker and name == "scenario.run_trial" else "")
        total[key] = total.get(key, 0.0) + dur
        self_total[key] = self_total.get(key, 0.0) + self_s
        calls[key] = calls.get(key, 0) + 1

    def attr_sum(name, field):
        return sum(s[3].get(field, 0) for s in spans if s[0] == name)

    def per_item(x):
        return x / items if items else 0.0

    def t(name):
        return per_item(total.get(name, 0.0))

    def n(name):
        return per_item(calls.get(name, 0))

    iters = [s[3]["iterations"] for s in spans if s[0] == "covfeatures.toeplitz_psd_project"]
    vehicles = attr_sum("scenario.associate_detections", "vehicles")
    hits = attr_sum("detection.cfar_detect", "hits")
    detections = attr_sum("detection.run_bank", "detections")
    scenes = calls.get("scenario.make_scene", 0)
    pool_capacity = sum(
        s[1] * s[3]["jobs"]
        for s in spans
        if s[0] == "scenario.run_campaign" and s[3]["jobs"] > 1
    )
    m = {
        "cli.import_s": statistics.median(import_s) if import_s else 0.0,
        "scenario.make_scene_s": t("scenario.make_scene"),
        "scenario.redraws_per_scene": (
            (calls.get("scenario.generate_paired_propagation", 0) - scenes) / scenes
            if scenes else 0.0
        ),
        "scenario.featurize_scene_self_s": per_item(self_total.get("scenario.featurize_scene", 0.0)),
        "scenario.run_trial_self_s": per_item(self_total.get("scenario.run_trial", 0.0)),
        "scenario.write_results_csv_s": t("scenario.write_results_csv"),
        "scenario.results_mb": per_item(attr_sum("scenario.write_results_csv", "bytes")) / 1e6,
        "scenario.write_dataset_s": t("scenario.write_dataset"),
        "scenario.dataset_mb": per_item(attr_sum("scenario.write_dataset", "bytes")) / 1e6,
        "scenario.read_dataset_s": t("scenario.read_dataset"),
        "scenario.prepare_training_arrays_s": t("scenario.prepare_training_arrays"),
        "scenario.pool_run_trial_s": t("scenario.run_trial.pool"),
        "scenario.pool_busy_frac": (
            total.get("scenario.run_trial.pool", 0.0) / pool_capacity if pool_capacity else 0.0
        ),
        "scenario.pool_children_cpu_s": per_item(pool_children_cpu_s),
        "fmcw.synthesize_rx_s": t("fmcw.synthesize_rx"),
        "fmcw.capture_mb": per_item(attr_sum("fmcw.synthesize_rx", "bytes")) / 1e6,
        "detection.run_bank_s": t("detection.run_bank"),
        "detection.run_bank_self_s": per_item(self_total.get("detection.run_bank", 0.0)),
        "detection.mix_s": t("detection.mix"),
        "detection.correlate_s": t("detection.correlate"),
        "detection.correlate_calls": n("detection.correlate"),
        "detection.cfar_detect_s": t("detection.cfar_detect"),
        "detection.cfar_hits": per_item(hits),
        "detection.isolate_covariance_s": t("detection.isolate_covariance"),
        "detection.isolate_calls": n("detection.isolate_covariance"),
        "detection.detections": per_item(detections),
        "detection.merged": per_item(hits - detections),
        "detection.matched_frac": (
            attr_sum("scenario.associate_detections", "matched") / vehicles if vehicles else 0.0
        ),
        "detection.unmatched": per_item(attr_sum("scenario.associate_detections", "unmatched")),
        "numerics.fir_lowpass_s": t("numerics.fir_lowpass"),
        "numerics.dominant_eigenvector_s": t("numerics.dominant_eigenvector"),
        "numerics.dominant_eigenvector_calls": n("numerics.dominant_eigenvector"),
        "covfeatures.project_s": t("covfeatures.toeplitz_psd_project"),
        "covfeatures.project_calls": n("covfeatures.toeplitz_psd_project"),
        "covfeatures.project_iters_p50": statistics.median(iters) if iters else 0.0,
        "covfeatures.project_iters_max": max(iters, default=0),
        "covfeatures.project_unconverged": per_item(sum(
            not s[3]["converged"] for s in spans if s[0] == "covfeatures.toeplitz_psd_project"
        )),
        "channel.channel_taps_s": t("channel.channel_taps"),
        "channel.channel_taps_calls_per_vehicle": (
            calls.get("channel.channel_taps", 0) / vehicles if vehicles else 0.0
        ),
        "channel.channel_freq_all_s": t("channel.channel_freq_all"),
        "channel.freq_mb": per_item(attr_sum("channel.channel_freq_all", "bytes")) / 1e6,
        "channel.comm_covariance_s": t("channel.comm_covariance"),
        "beamtraining.pair_scores_s": t("beamtraining.pair_scores"),
        "beamtraining.sinr_s": t("beamtraining.sinr"),
        "beamtraining.sinr_calls": n("beamtraining.sinr"),
        "beamtraining.assisted_search_space_s": t("beamtraining.assisted_search_space"),
        "neural.train_calls": n("neural.train"),
        "neural.predict_variant_s": t("neural.predict_variant"),
        "neural.load_checkpoint_s": t("neural.load_checkpoint"),
        "neural.save_checkpoint_s": t("neural.save_checkpoint"),
    }
    for v in VARIANTS:
        runs = [s for s in spans if s[0] == "neural.train" and s[3]["variant"] == v]
        wall = sum(s[1] for s in runs)
        record_epochs = sum(s[3]["records"] * s[3]["epochs"] for s in runs)
        m[f"neural.train_s.{v}"] = per_item(wall)
        m[f"neural.record_epochs_per_s.{v}"] = record_epochs / wall if wall else 0.0
        m[f"neural.epochs.{v}"] = (
            sum(s[3]["epochs"] for s in runs) / len(runs) if runs else 0.0
        )
    return m
