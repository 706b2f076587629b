"""Deterministic run reports.

``leaderboard.csv`` and the figure-series CSVs are pure functions of
(config, dataset bytes, master seed): metric values at 4 decimals, no wall
clock anywhere. Training times live in ``timings.csv``, ``leaderboard.json``
(full precision) and ``run_manifest.json``, which are expected to differ
between runs.
"""

import csv
import json
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__

LEADERBOARD_COLUMNS = (
    "Rank",
    "Model",
    "Sampler",
    "Dims",
    "Status",
    "Acc",
    "Preci",
    "Recall",
    "F1",
    "G-mean",
    "auroc_point",
    "auroc_curve",
    "Cohen",
    "Matthew",
    "Hamm",
    "Flags",
)

_METRIC_FIELDS = (
    "accuracy",
    "precision",
    "recall",
    "f1",
    "gmean",
    "auroc_point",
    "auroc_curve",
    "cohen_kappa",
    "matthews",
    "hamming_loss",
)


def _fmt(value):
    return f"{value:.4f}"


def write_leaderboard_csv(path, result):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(LEADERBOARD_COLUMNS)
        for position, record in enumerate(result.leaderboard.records, start=1):
            row = [position, record.model_label, record.sampler_label, record.dims_label]
            if record.ok:
                row.append("ok")
                row.extend(_fmt(getattr(record.metrics, f)) for f in _METRIC_FIELDS)
                row.append("|".join(sorted(record.metrics.degenerate_flags)))
            else:
                row.append("failed")
                row.extend([""] * len(_METRIC_FIELDS))
                row.append(record.error)
            writer.writerow(row)


def write_timings_csv(path, result):
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(("Model", "Sampler", "Dims", "Time_s"))
        for record in result.leaderboard.records:
            seconds = record.metrics.train_time_seconds if record.ok else ""
            writer.writerow(
                (record.model_label, record.sampler_label, record.dims_label, seconds)
            )


def write_leaderboard_json(path, result):
    rows = []
    for position, record in enumerate(result.leaderboard.records, start=1):
        row = {
            "rank": position,
            "model": record.model_label,
            "sampler": record.sampler_label,
            "dims": record.dims_label,
            "status": record.status,
            "seed_used": record.seed_used,
        }
        if record.ok:
            row["metrics"] = {f: getattr(record.metrics, f) for f in _METRIC_FIELDS}
            row["train_time_seconds"] = record.metrics.train_time_seconds
            row["degenerate_flags"] = sorted(record.metrics.degenerate_flags)
        else:
            row["error"] = record.error
        rows.append(row)
    payload = {
        "metric_key": result.leaderboard.metric_key,
        "records": rows,
        "ensemble_comparison": result.ensemble_comparison,
        "clamp_warnings": list(result.clamp_warnings),
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def write_figure_series(directory, result, metrics=("f1", "gmean")):
    """One CSV per (sampler, metric): rows are dims, columns are classifiers.

    Mirrors the score-vs-dimensionality and score-vs-balancing panels. The
    rows are the dims of the grid that ran, after clamping.
    """
    cfg = result.grid
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    wanted = list(dict.fromkeys(list(metrics) + [cfg.metric_key]))
    by_key = {}
    for record in result.cell_records:
        if record.cell is None:
            continue
        key = (record.cell.sampler.label, record.cell.dims, record.cell.classifier.label)
        by_key[key] = record
    classifier_labels = [spec.label for spec in cfg.classifier_specs]
    written = []
    for metric in wanted:
        for sampler in cfg.sampler_specs:
            name = f"{metric}__{_safe(sampler.label)}.csv"
            path = directory / name
            with open(path, "w", newline="", encoding="utf-8") as handle:
                writer = csv.writer(handle, lineterminator="\n")
                writer.writerow(["dims"] + classifier_labels)
                for dims in cfg.dims_list:
                    row = [dims]
                    for label in classifier_labels:
                        record = by_key.get((sampler.label, dims, label))
                        if record is None or not record.ok:
                            row.append("")
                        else:
                            row.append(_fmt(record.metrics.value(metric)))
                    writer.writerow(row)
            written.append(path)
    return written


def _safe(label):
    return "".join(ch if ch.isalnum() else "_" for ch in label)


def write_manifest(path, result, dataset_sha256, dataset_path, setup_seconds):
    payload = {
        "master_seed": result.grid.master_seed,
        "package_version": __version__,
        "python_version": sys.version.split()[0],
        "numpy_version": np.__version__,
        "platform": platform.platform(),
        "dataset_path": str(dataset_path),
        "dataset_sha256": dataset_sha256,
        "test_split_checksum": result.test_checksum,
        "grid_size": result.grid.grid_size,
        "failed_cells": result.failed_cells,
        "wall_seconds": result.wall_seconds,
        "setup_seconds": setup_seconds,
        "clamp_warnings": list(result.clamp_warnings),
        "ensemble_comparison": result.ensemble_comparison,
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
