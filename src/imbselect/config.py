"""Run configuration: flat INI-style files, fully captured per run.

Sections: ``[dataset]`` (path, label column, encoding flags), ``[grid]``
(dims, samplers, classifiers, metric, seeds), ``[output]`` (directory,
formats, workers), plus optional ``[sampler.<kind>]`` and
``[classifier.<kind>]`` override sections. Any other section, and any key
those three sections do not read, is an error: a misspelt name would
otherwise fall back to its default without a word.

An override section's keys are options of that kind, checked against its
``options`` table when its spec is made, whether or not the grid lists that
kind; ``none`` in any case reads as None there. Diagnostics come in two
severities: errors block a run, warnings do not (dims beyond the dataset
width are clamped at run time, an even top_k only breaks the hard-voting
row).
"""

import configparser
import dataclasses

from .classifiers import ClassifierSpec
from .dataset import DatasetError, check_utf8, parse_header, read_header
from .metrics import METRIC_KEYS
from .sampling import SamplerSpec
from .search import GridConfig, clamp_dims, usable_width

SPEC_FAMILIES = {"sampler": SamplerSpec, "classifier": ClassifierSpec}
SAMPLER_ALIASES = {"iht": "instance_hardness_threshold"}
SECTION_KEYS = {
    "dataset": ("path", "label_column", "positive_label", "pre_encoded", "encoded_prefix",
                "standardize_columns", "standardize_all", "keep_raw_columns", "sha256"),
    "grid": ("dims", "samplers", "classifiers", "metric", "top_k", "test_fraction",
             "master_seed"),
    "output": ("dir", "formats", "workers"),
}


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


def _option_value(text):
    """An estimator option's value: ``none`` in any case is None, the
    default of options such as ``max_depth``."""
    return None if text.strip().lower() == "none" else _parse_value(text)


def _section_params(parser, name):
    if not parser.has_section(name):
        return {}
    return {key: _option_value(value) for key, value in parser.items(name)}


def _layout_errors(parser):
    """Every unknown section and every unknown key of a fixed section, named."""
    errors = []
    for section in parser.sections():
        family, _, kind = section.partition(".")
        if section in SECTION_KEYS:
            known = SECTION_KEYS[section]
            for key in parser[section]:
                if key not in known:
                    errors.append(f"unknown key {key!r} in [{section}]; known: {known}")
        elif family == "sampler" and kind in SAMPLER_ALIASES:
            errors.append(
                f"section [{section}] must be spelt [sampler.{SAMPLER_ALIASES[kind]}]"
            )
        elif family not in SPEC_FAMILIES or kind not in SPEC_FAMILIES[family].registry:
            errors.append(
                f"unknown section [{section}]; expected [dataset], [grid], [output], "
                "[sampler.<kind>] or [classifier.<kind>] with a known kind"
            )
    return errors


def load_config(path, overrides=None):
    """Parsed RunConfig plus warnings; raises ConfigError on any error."""
    errors, warnings, config = _read(path, overrides or {}, whole_file=False)
    if errors:
        raise ConfigError("; ".join(errors))
    return config, warnings


def validate_config(path, overrides=None):
    """Every problem found, prefixed with its severity; no side effects.
    Unlike a run's own check, this also reads every dataset line once to
    find bytes that are not UTF-8; a run reports those as a dataset error."""
    errors, warnings, _ = _read(path, overrides or {}, whole_file=True)
    return [f"error: {text}" for text in errors] + [
        f"warning: {text}" for text in warnings
    ]


def _read(path, overrides, whole_file):
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
    errors.extend(_layout_errors(parser))

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
    if not pre_encoded:
        # only the V<n> slice reads these; the PCA path would drop them unseen
        for key in ("encoded_prefix", "keep_raw_columns"):
            if key in ds:
                errors.append(f"[dataset] {key} is read only when pre_encoded = true")

    try:
        dims_list = _parse_dims(grid_section.get("dims", ""))
    except ValueError as exc:
        errors.append(f"grid.dims: {exc}")
        dims_list = ()
    if not dims_list:
        errors.append("grid.dims must name at least one dimensionality")

    made = {}  # (family, kind) -> its spec, or None when making it failed

    def spec_of(family, kind):
        if (family, kind) not in made:
            params = _section_params(parser, f"{family}.{kind}")
            try:
                made[family, kind] = SPEC_FAMILIES[family](kind, params)
            except (ValueError, TypeError) as exc:
                errors.append(f"{family} {kind!r}: {exc}")
                made[family, kind] = None
        return made[family, kind]

    # every override section is checked, listed in the grid or not, so a bad
    # key does not wait until its kind is added
    for section in parser.sections():
        family, _, kind = section.partition(".")
        if family in SPEC_FAMILIES and kind in SPEC_FAMILIES[family].registry:
            spec_of(family, kind)
    specs = {}
    for family, spec_cls in SPEC_FAMILIES.items():
        is_sampler = family == "sampler"
        aliases = SAMPLER_ALIASES if is_sampler else {}
        names = _parse_list(grid_section.get(f"{family}s", "none" if is_sampler else ""))
        if not names:
            errors.append(f"grid.{family}s must name at least one {family}")
        specs[family] = []
        for raw in names:
            kind = aliases.get(raw, raw)
            if kind not in spec_cls.registry:
                errors.append(
                    f"unknown {family} {raw!r}; known: {sorted(spec_cls.registry)}"
                )
                continue
            spec = spec_of(family, kind)
            if spec is not None:
                specs[family].append(spec)
    sampler_specs, classifier_specs = specs["sampler"], specs["classifier"]
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

    ds_errors, width = _dataset_diagnostics(
        dataset_path, label_column, pre_encoded, encoded_prefix,
        standardize_columns, keep_raw_columns, whole_file,
    )
    errors.extend(ds_errors)

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
                warnings.extend(clamp_dims(grid, width)[1])
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


def _dataset_diagnostics(path, label_column, pre_encoded, prefix,
                         standardize_columns, keep_raw_columns, whole_file):
    """Header checks, plus a UTF-8 check of every line when ``whole_file``;
    the cells are not read here. Also returns the width dims are clamped
    to, or 0 when the header cannot tell."""
    errors = []
    if not path or not label_column:
        return errors, 0
    try:
        header, _ = read_header(path)
        _, features = parse_header(header, label_column)
    except DatasetError as exc:
        errors.append(str(exc))
        return errors, 0
    if whole_file:
        try:
            check_utf8(path)
        except DatasetError as exc:
            errors.append(str(exc))
    for name in list(standardize_columns) + list(keep_raw_columns):
        if name not in features:
            errors.append(f"column {name!r} not in dataset header")
    width = usable_width(features, pre_encoded, prefix)
    if pre_encoded and width == 0:
        errors.append(f"pre_encoded is set but no {prefix}<n> columns are present")
    return errors, width
