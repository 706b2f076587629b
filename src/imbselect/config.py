"""Run configuration: flat INI-style files, fully captured per run.

Sections: ``[dataset]`` (path, label column, encoding flags), ``[grid]``
(dims, samplers, classifiers, metric, seeds), ``[output]`` (directory,
formats, workers), plus optional ``[sampler.<kind>]`` and
``[classifier.<kind>]`` override sections.

Diagnostics come in two severities: errors block a run, warnings do not
(dims beyond the dataset width are clamped at run time, an even top_k
only breaks the hard-voting row).
"""

import configparser
import csv
import dataclasses
import os

from .classifiers import CLASSIFIER_REGISTRY, ClassifierSpec
from .dataset import DatasetError, parse_header
from .decomposition import encoded_column_names
from .metrics import METRIC_KEYS
from .sampling import SAMPLER_KINDS, SamplerSpec
from .search import GridConfig, clamp_dims

SAMPLER_ALIASES = {"iht": "instance_hardness_threshold"}
SAMPLER_OPTIONS = {f.name for f in dataclasses.fields(SamplerSpec)} - {"kind"}


class ConfigError(ValueError):
    pass


@dataclasses.dataclass(frozen=True)
class RunConfig:
    dataset_path: str
    label_column: str
    positive_label: object
    grid: GridConfig
    standardize_columns: tuple = ()
    standardize_all: bool = False
    expected_sha256: str = ""
    output_dir: str = "runs/out"
    report_formats: tuple = ("csv", "json")
    workers: int = 1


def _parse_list(text):
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_dims(text):
    dims = []
    for part in _parse_list(text):
        if ".." in part:
            lo, hi = part.split("..", 1)
            lo, hi = int(lo), int(hi)
            if hi < lo:
                raise ValueError(f"empty dims range {part!r}")
            dims.extend(range(lo, hi + 1))
        else:
            dims.append(int(part))
    return tuple(dims)


def _parse_value(text):
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text.strip()


def _section_params(parser, name):
    if not parser.has_section(name):
        return {}
    return {key: _parse_value(value) for key, value in parser.items(name)}


def _build_sampler_spec(kind, overrides, cv_folds):
    fields = {"iht_folds": cv_folds} if kind == "instance_hardness_threshold" else {}
    fields.update(overrides)
    unknown = set(fields) - SAMPLER_OPTIONS
    if unknown:
        raise ValueError(f"unknown sampler option(s): {sorted(unknown)}")
    return SamplerSpec(kind, **fields)


def load_config(path, overrides=None):
    """Parsed RunConfig plus warnings; raises ConfigError on any error."""
    errors, warnings, config = _read(path, overrides or {})
    if errors:
        raise ConfigError("; ".join(errors))
    return config, warnings


def validate_config(path, overrides=None):
    """Every problem found, prefixed with its severity; no side effects."""
    errors, warnings, _ = _read(path, overrides or {})
    return [f"error: {text}" for text in errors] + [
        f"warning: {text}" for text in warnings
    ]


def _read(path, overrides):
    errors = []
    warnings = []
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        return [f"config parse failure: {exc}"], [], None
    if not read:
        return [f"config file not found or unreadable: {path}"], [], None

    for section in ("dataset", "grid"):
        if not parser.has_section(section):
            errors.append(f"missing [{section}] section")
    if errors:
        return errors, warnings, None

    ds = parser["dataset"]
    grid_section = parser["grid"]
    out_section = parser["output"] if parser.has_section("output") else {}

    dataset_path = ds.get("path", "")
    if not dataset_path:
        errors.append("dataset.path is required")
    label_column = ds.get("label_column", "")
    if not label_column:
        errors.append("dataset.label_column is required")
    positive_label = _parse_value(ds.get("positive_label", "1"))
    pre_encoded = _parse_value(ds.get("pre_encoded", "false")) is True
    encoded_prefix = ds.get("encoded_prefix", "V")
    standardize_all = _parse_value(ds.get("standardize_all", "false")) is True
    standardize_columns = tuple(_parse_list(ds.get("standardize_columns", "")))
    keep_raw_columns = tuple(_parse_list(ds.get("keep_raw_columns", "")))
    expected_sha256 = ds.get("sha256", "").strip()

    try:
        dims_list = _parse_dims(grid_section.get("dims", ""))
    except ValueError as exc:
        errors.append(f"grid.dims: {exc}")
        dims_list = ()
    if not dims_list:
        errors.append("grid.dims must name at least one dimensionality")

    try:
        cv_folds = int(grid_section.get("cv_folds", "5"))
    except ValueError:
        errors.append("grid.cv_folds must be an integer")
        cv_folds = 5
    if cv_folds < 2:
        errors.append("grid.cv_folds must be >= 2")
        cv_folds = 5

    sampler_specs = []
    for raw in _parse_list(grid_section.get("samplers", "none")):
        kind = SAMPLER_ALIASES.get(raw, raw)
        if kind not in SAMPLER_KINDS:
            errors.append(f"unknown sampler {raw!r}; known: {SAMPLER_KINDS}")
            continue
        try:
            sampler_specs.append(
                _build_sampler_spec(
                    kind, _section_params(parser, f"sampler.{kind}"), cv_folds
                )
            )
        except (ValueError, TypeError) as exc:
            errors.append(f"sampler {kind!r}: {exc}")

    classifier_specs = []
    classifier_names = _parse_list(grid_section.get("classifiers", ""))
    for raw in classifier_names:
        if raw not in CLASSIFIER_REGISTRY:
            errors.append(
                f"unknown classifier {raw!r}; known: {sorted(CLASSIFIER_REGISTRY)}"
            )
            continue
        try:
            classifier_specs.append(
                ClassifierSpec(raw, _section_params(parser, f"classifier.{raw}"))
            )
        except (ValueError, TypeError) as exc:
            errors.append(f"classifier {raw!r}: {exc}")
    if not classifier_names:
        errors.append("grid.classifiers must name at least one classifier")
    # repeated entries would give leaderboard rows that cannot be told apart
    for option, labels in (
        ("dims", list(dims_list)),
        ("samplers", [spec.label for spec in sampler_specs]),
        ("classifiers", [spec.label for spec in classifier_specs]),
    ):
        for label in sorted({label for label in labels if labels.count(label) > 1}):
            errors.append(f"grid.{option} lists {label!r} more than once")

    metric_key = str(overrides.get("metric", grid_section.get("metric", "f1")))
    if metric_key not in METRIC_KEYS:
        errors.append(f"unknown metric {metric_key!r}; known: {METRIC_KEYS}")

    try:
        top_k = int(overrides.get("top_k", grid_section.get("top_k", "3")))
        test_fraction = float(grid_section.get("test_fraction", "0.2"))
        master_seed = int(overrides.get("seed", grid_section.get("master_seed", "0")))
        workers = int(overrides.get("workers", out_section.get("workers", "1")))
    except ValueError as exc:
        errors.append(f"numeric option: {exc}")
        return errors, warnings, None

    if top_k >= 1 and top_k % 2 == 0:
        warnings.append(
            f"top_k={top_k} is even: the hard-voting row will fail (odd count needed)"
        )
    if workers < 1:
        errors.append("output.workers must be >= 1")
    output_dir = str(overrides.get("out", out_section.get("dir", "runs/out")))
    report_formats = tuple(_parse_list(out_section.get("formats", "csv, json")))
    for fmt in report_formats:
        if fmt not in ("csv", "json"):
            errors.append(f"unknown report format {fmt!r}")

    ds_errors, ds_warnings, width = _dataset_diagnostics(
        dataset_path, label_column, pre_encoded, encoded_prefix, dims_list,
        standardize_columns, keep_raw_columns,
    )
    errors.extend(ds_errors)
    warnings.extend(ds_warnings)

    grid = None
    if not errors:
        try:
            grid = GridConfig(
                dims_list=dims_list,
                sampler_specs=tuple(sampler_specs),
                classifier_specs=tuple(classifier_specs),
                metric_key=metric_key,
                top_k=top_k,
                test_fraction=test_fraction,
                master_seed=master_seed,
                pre_encoded=pre_encoded,
                encoded_prefix=encoded_prefix,
                keep_raw_columns=keep_raw_columns,
            )
            if width:
                # dims entries that clamp to one width run once, which can
                # leave fewer cells than top_k
                clamp_dims(grid, width)
        except ValueError as exc:
            errors.append(str(exc))
    if errors:
        return errors, warnings, None

    return [], warnings, RunConfig(
        dataset_path=dataset_path,
        label_column=label_column,
        positive_label=positive_label,
        grid=grid,
        standardize_columns=standardize_columns,
        standardize_all=standardize_all,
        expected_sha256=expected_sha256,
        output_dir=output_dir,
        report_formats=report_formats,
        workers=workers,
    )


def _dataset_diagnostics(path, label_column, pre_encoded, prefix, dims_list,
                         standardize_columns, keep_raw_columns):
    """Header-only checks; the dataset body is not read here. Also returns
    the width dims are clamped to, or 0 when the header cannot tell."""
    errors = []
    warnings = []
    if not path or not label_column:
        return errors, warnings, 0
    if not os.path.exists(path):
        errors.append(f"dataset file not found: {path}")
        return errors, warnings, 0
    try:
        with open(path, newline="", encoding="utf-8") as handle:
            header = next(csv.reader(handle), None)
    except OSError as exc:
        errors.append(f"dataset file unreadable: {exc}")
        return errors, warnings, 0
    if not header:
        errors.append(f"dataset file has no header row: {path}")
        return errors, warnings, 0
    try:
        _, features = parse_header(header, label_column)
    except DatasetError as exc:
        errors.append(str(exc))
        return errors, warnings, 0
    for name in list(standardize_columns) + list(keep_raw_columns):
        if name not in features:
            errors.append(f"column {name!r} not in dataset header")
    if pre_encoded:
        width = len(encoded_column_names(features, prefix))
        if width == 0:
            errors.append(f"pre_encoded is set but no {prefix}<n> columns are present")
    else:
        width = len(features)
    for dims in sorted(set(dims_list)):
        if width and dims > width:
            warnings.append(
                f"dims={dims} exceeds dataset width {width}; it will be clamped"
            )
    return errors, warnings, width
