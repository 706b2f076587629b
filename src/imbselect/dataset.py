"""Dataset container, CSV ingestion and leakage-safe splitting.

A Dataset is immutable after construction: the arrays are marked read-only
so concurrent grid evaluations can share one snapshot safely. Label 1 is
always the positive/minority class.
"""

import csv
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .base import BaseEstimator, derive_rng
from .validation import check_array, check_labels


class DatasetError(ValueError):
    """Raised for any ingestion problem; the message names the location."""


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple
    source_tag: str = ""

    def __post_init__(self):
        features = check_array(self.features, "features")
        labels = check_labels(self.labels, "labels")
        if features.shape[0] != labels.shape[0]:
            raise DatasetError(
                f"{features.shape[0]} feature rows vs {labels.shape[0]} labels"
            )
        names = tuple(str(n) for n in self.feature_names)
        if len(names) != features.shape[1]:
            raise DatasetError(
                f"{len(names)} feature names for {features.shape[1]} columns"
            )
        features = features.copy()
        labels = labels.copy()
        features.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    @property
    def n_positive(self):
        return int(self.labels.sum())

    @property
    def n_negative(self):
        return self.n_rows - self.n_positive

    def subset(self, indices, tag=None):
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            features=self.features[idx],
            labels=self.labels[idx],
            feature_names=self.feature_names,
            source_tag=self.source_tag if tag is None else tag,
        )

    def with_features(self, features, feature_names, tag=None):
        """Same rows, new feature view (post-transform)."""
        return Dataset(
            features=features,
            labels=self.labels,
            feature_names=tuple(feature_names),
            source_tag=self.source_tag if tag is None else tag,
        )

    def column(self, name):
        try:
            j = self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"unknown feature column {name!r}") from None
        return self.features[:, j]


def _cell_is_positive(cell, positive_label):
    text = cell.strip()
    if isinstance(positive_label, (int, float)) and not isinstance(positive_label, bool):
        try:
            return float(text) == float(positive_label)
        except ValueError:
            return False
    return text == str(positive_label)


def parse_header(header, label_column):
    """The label's index and the feature names, stripped of whitespace.

    Raises DatasetError when the label column is absent or a name repeats:
    a repeated name would make every lookup by name see its first copy only.
    """
    names = [h.strip() for h in header]
    if label_column not in names:
        raise DatasetError(
            f"missing label column {label_column!r}; header has {names}"
        )
    seen = set()
    for name in names:
        if name in seen:
            raise DatasetError(f"column {name!r} appears more than once in the header")
        seen.add(name)
    label_idx = names.index(label_column)
    return label_idx, tuple(names[:label_idx] + names[label_idx + 1 :])


def _parse_cells(cells, row_no, feature_names):
    """Each cell as a finite float, or the DatasetError for the first bad one."""
    values = []
    for name, cell in zip(feature_names, cells):
        try:
            value = float(cell)
        except ValueError:
            raise DatasetError(
                f"non-numeric cell at row {row_no}, column {name!r}: {cell!r}"
            ) from None
        if not math.isfinite(value):
            raise DatasetError(
                f"non-finite cell at row {row_no}, column {name!r}: {cell!r}"
            )
        values.append(value)
    return values


def load_csv(path, label_column, positive_label=1, source_tag=None):
    """Read a headered CSV into a Dataset.

    Every non-label cell must parse with Python's ``float`` to a finite
    number; the first bad cell in file order is the one reported. Header
    names must be unique. Rows whose label cell equals ``positive_label``
    map to 1, everything else to 0.
    """
    try:
        handle = open(path, newline="", encoding="utf-8")
    except FileNotFoundError:
        raise DatasetError(f"dataset file not found: {path}") from None
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError(f"empty dataset: {path} has no header row") from None
        label_idx, feature_names = parse_header(header, label_column)

        # one flat buffer, filled a row at a time; a row that fails the
        # cheap whole-row check is parsed again cell by cell, which raises
        # the exact error or accepts a finite row whose sum overflowed
        features = array("d")
        labels = array("q")
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetError(
                    f"row {row_no}: expected {len(header)} cells, got {len(row)}"
                )
            label_cell = row.pop(label_idx)
            try:
                values = list(map(float, row))
                finite = math.isfinite(sum(values))
            except ValueError:
                finite = False
            if not finite:
                values = _parse_cells(row, row_no, feature_names)
            features.fromlist(values)
            labels.append(_cell_is_positive(label_cell, positive_label))

    if not labels:
        raise DatasetError(f"empty dataset: {path} has a header but no rows")

    labels = np.frombuffer(labels, dtype=np.int64)
    n_pos = int(labels.sum())
    if n_pos > labels.shape[0] - n_pos:
        warnings.warn(
            f"positive class ({n_pos}) outnumbers negative ({labels.shape[0] - n_pos}); "
            "label 1 is expected to be the minority",
            stacklevel=2,
        )
    return Dataset(
        features=np.frombuffer(features, dtype=np.float64).reshape(
            labels.shape[0], len(feature_names)
        ),
        labels=labels,
        feature_names=feature_names,
        source_tag=source_tag if source_tag is not None else str(path),
    )


class ColumnStandardizer(BaseEstimator):
    """Standardize named columns to zero mean and unit population stddev.

    Constant columns get scale 1 (values shift to 0). ``columns=None``
    standardizes every feature column; an empty list is the identity.
    Fit on the training split only, then applied to both splits.
    """

    def __init__(self, columns=None):
        self.columns = columns

    def fit(self, dataset):
        names = (
            list(dataset.feature_names) if self.columns is None else list(self.columns)
        )
        for name in names:
            if name not in dataset.feature_names:
                raise KeyError(f"unknown feature column {name!r}")
        means = []
        scales = []
        constant = []
        for name in names:
            col = dataset.column(name)
            mu = float(col.mean())
            sigma = float(col.std())  # population
            if sigma == 0.0:
                sigma = 1.0
                constant.append(name)
            means.append(mu)
            scales.append(sigma)
        self.columns_ = tuple(names)
        self.mean_ = np.asarray(means)
        self.scale_ = np.asarray(scales)
        self.constant_columns_ = tuple(constant)
        return self

    def transform(self, dataset):
        if not hasattr(self, "columns_"):
            raise RuntimeError("ColumnStandardizer is not fitted")
        if not self.columns_:
            return dataset
        features = dataset.features.copy()
        for name, mu, sigma in zip(self.columns_, self.mean_, self.scale_):
            if name not in dataset.feature_names:
                raise KeyError(f"unknown feature column {name!r}")
            j = dataset.feature_names.index(name)
            features[:, j] = (features[:, j] - mu) / sigma
        return dataset.with_features(features, dataset.feature_names)

    def fit_transform(self, dataset):
        return self.fit(dataset).transform(dataset)


@dataclass(frozen=True)
class SplitIndices:
    train_idx: np.ndarray
    test_idx: np.ndarray
    fold_assignments: np.ndarray = None

    def __post_init__(self):
        object.__setattr__(self, "train_idx", np.asarray(self.train_idx, np.int64))
        object.__setattr__(self, "test_idx", np.asarray(self.test_idx, np.int64))


def round_half_away(x):
    return int(np.floor(x + 0.5))


def stratified_split(labels, test_fraction, seed):
    """Per-class sampling without replacement into train/test indices.

    Per-class test counts round half away from zero; any residual row
    against the overall target goes to the majority class.
    """
    labels = check_labels(labels)
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    n = labels.shape[0]
    pos_idx = np.flatnonzero(labels == 1)
    neg_idx = np.flatnonzero(labels == 0)
    if len(pos_idx) < 2 or len(neg_idx) < 2:
        raise ValueError("both classes need at least 2 members to split")

    n_test_pos = round_half_away(test_fraction * len(pos_idx))
    n_test_neg = round_half_away(test_fraction * len(neg_idx))
    residual = round_half_away(test_fraction * n) - (n_test_pos + n_test_neg)
    if len(neg_idx) >= len(pos_idx):
        n_test_neg += residual
    else:
        n_test_pos += residual

    for count, idx, name in (
        (n_test_pos, pos_idx, "positive"),
        (n_test_neg, neg_idx, "negative"),
    ):
        if count < 1 or count > len(idx) - 1:
            raise ValueError(
                f"{name} class with {len(idx)} members cannot place at least one "
                f"row in each side at test_fraction={test_fraction}"
            )

    rng = derive_rng(seed, "stratified_split")
    test_parts = []
    for idx, count in ((neg_idx, n_test_neg), (pos_idx, n_test_pos)):
        perm = rng.permutation(len(idx))
        test_parts.append(idx[perm[:count]])
    test_idx = np.sort(np.concatenate(test_parts))
    mask = np.ones(n, dtype=bool)
    mask[test_idx] = False
    train_idx = np.flatnonzero(mask)
    return SplitIndices(train_idx=train_idx, test_idx=test_idx)


def stratified_folds(labels, n_folds, seed):
    """Fold id in [0, n_folds) per row, class proportions kept within 1.

    Each class's remainder rows go to the currently smallest folds, so fold
    sizes stay within 1 of each other overall as well.
    """
    labels = check_labels(labels)
    if n_folds < 2:
        raise ValueError(f"n_folds must be >= 2, got {n_folds}")
    class_order = sorted(
        np.unique(labels), key=lambda c: (-int(np.sum(labels == c)), c)
    )
    for c in class_order:
        count = int(np.sum(labels == c))
        if count < n_folds:
            raise ValueError(
                f"class {c} has {count} members, fewer than n_folds={n_folds}"
            )

    rng = derive_rng(seed, "stratified_folds")
    assignments = np.full(labels.shape[0], -1, dtype=np.int64)
    fold_totals = np.zeros(n_folds, dtype=np.int64)
    for c in class_order:
        idx = np.flatnonzero(labels == c)
        counts = np.full(n_folds, len(idx) // n_folds, dtype=np.int64)
        for _ in range(len(idx) % n_folds):
            target = int(np.argmin(fold_totals + counts))
            counts[target] += 1
        shuffled = idx[rng.permutation(len(idx))]
        start = 0
        for fold, count in enumerate(counts):
            assignments[shuffled[start : start + count]] = fold
            start += count
        fold_totals += counts
    return assignments
