"""Command line: run a configured search, validate a config, build fixtures.

Exit codes for ``run``: 0 success, 2 config error, 3 dataset error,
4 finished with failed cells (reports are still written).
"""

import argparse
import hashlib
import sys
import time
from pathlib import Path

from .config import ConfigError, load_config, validate_config
from .dataset import ColumnStandardizer, DatasetError, load_csv, stratified_split
from .fixtures import FIXTURE_KINDS, make_fixture
from .report import (
    write_figure_series,
    write_leaderboard_csv,
    write_leaderboard_json,
    write_manifest,
    write_timings_csv,
)
from .search import run_search


def build_parser():
    parser = argparse.ArgumentParser(
        prog="imbselect",
        description="Data-driven classifier selection for massively imbalanced data",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute the configured grid search")
    run_p.add_argument("--config", required=True, help="INI config file")
    run_p.add_argument("--seed", type=int, help="override grid.master_seed")
    run_p.add_argument("--workers", type=int, help="override output.workers")
    run_p.add_argument("--out", help="override output.dir")
    run_p.add_argument("--metric", help="override grid.metric")
    run_p.add_argument("--top-k", type=int, dest="top_k", help="override grid.top_k")
    run_p.set_defaults(func=cmd_run)

    val_p = sub.add_parser("validate", help="report config problems, change nothing")
    val_p.add_argument("--config", required=True)
    val_p.set_defaults(func=cmd_validate)

    fix_p = sub.add_parser("make-fixture", help="generate a synthetic dataset CSV")
    fix_p.add_argument("--kind", choices=FIXTURE_KINDS, default="gaussian-imbalanced")
    fix_p.add_argument("--rows", type=int, required=True)
    fix_p.add_argument("--ratio", type=float, required=True,
                       help="minority fraction in (0, 0.5]")
    fix_p.add_argument("--seed", type=int, default=0)
    fix_p.add_argument("--features", type=int, default=8)
    fix_p.add_argument("--separation", type=float, default=2.5,
                       help="minority shift scale; lower is harder")
    fix_p.add_argument("--out", required=True)
    fix_p.set_defaults(func=cmd_make_fixture)
    return parser


def _overrides(args):
    out = {}
    for key in ("seed", "workers", "out", "metric", "top_k"):
        value = getattr(args, key, None)
        if value is not None:
            out[key] = value
    return out


def _file_sha256(path):
    """Hex SHA-256 of a file, read through one reused 64 KB buffer."""
    digest = hashlib.sha256()
    block = bytearray(1 << 16)
    view = memoryview(block)
    with open(path, "rb", buffering=0) as handle:
        while size := handle.readinto(block):
            digest.update(view[:size])
    return digest.hexdigest()


def _lap(laps, name, started):
    """Record the wall seconds since ``started`` under ``name``; return now."""
    now = time.perf_counter()
    laps[name] = now - started
    return now


def cmd_run(args):
    try:
        config, warnings = load_config(args.config, _overrides(args))
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    for text in warnings:
        print(f"warning: {text}", file=sys.stderr)

    setup_seconds = {}
    started = time.perf_counter()
    try:
        dataset = load_csv(
            config.dataset_path,
            label_column=config.label_column,
            positive_label=config.positive_label,
        )
    except DatasetError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 3
    started = _lap(setup_seconds, "load_csv", started)
    sha256 = _file_sha256(config.dataset_path)
    started = _lap(setup_seconds, "checksum", started)
    if config.expected_sha256 and sha256 != config.expected_sha256:
        print(
            f"dataset error: checksum mismatch: expected {config.expected_sha256}, "
            f"got {sha256}",
            file=sys.stderr,
        )
        return 3

    grid = config.grid
    try:
        split = stratified_split(dataset.labels, grid.test_fraction, seed=grid.master_seed)
    except ValueError as exc:
        print(f"dataset error: {exc}", file=sys.stderr)
        return 3
    train = dataset.subset(split.train_idx)
    test = dataset.subset(split.test_idx)
    started = _lap(setup_seconds, "split", started)
    columns = (
        list(dataset.feature_names)
        if config.standardize_all
        else list(config.standardize_columns)
    )
    # train and test hold copies of their rows; dropping the loaded matrix
    # keeps the search's forked workers from inheriting it
    del dataset
    if columns:
        scaler = ColumnStandardizer(columns=columns).fit(train)
        train = scaler.transform(train)
        test = scaler.transform(test)
    _lap(setup_seconds, "standardize", started)

    result = run_search(train, test, grid, workers=config.workers)

    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if "csv" in config.report_formats:
        write_leaderboard_csv(out_dir / "leaderboard.csv", result)
        write_timings_csv(out_dir / "timings.csv", result)
        write_figure_series(out_dir / "figures", result)
    if "json" in config.report_formats:
        write_leaderboard_json(out_dir / "leaderboard.json", result)
    write_manifest(
        out_dir / "run_manifest.json",
        result,
        dataset_sha256=sha256,
        dataset_path=config.dataset_path,
        setup_seconds=setup_seconds,
    )

    best = next((r for r in result.leaderboard.records if r.ok), None)
    if best is not None:
        print(
            f"best {grid.metric_key}: {best.metrics.value(grid.metric_key):.4f} "
            f"({best.model_label}, sampler={best.sampler_label}, dims={best.dims_label})"
        )
    if result.ensemble_comparison:
        print(result.ensemble_comparison)
    print(f"reports written to {out_dir}")
    if result.failed_cells:
        print(f"{result.failed_cells} grid cell(s) failed; see leaderboard", file=sys.stderr)
        return 4
    return 0


def cmd_validate(args):
    diagnostics = validate_config(args.config)
    for line in diagnostics:
        print(line)
    has_errors = any(line.startswith("error:") for line in diagnostics)
    return 2 if has_errors else 0


def cmd_make_fixture(args):
    try:
        path = make_fixture(
            args.kind, args.rows, args.ratio, args.seed, args.out,
            n_features=args.features, separation=args.separation,
        )
    except (ValueError, OSError) as exc:
        print(f"fixture error: {exc}", file=sys.stderr)
        return 1
    print(f"fixture written to {path}")
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
