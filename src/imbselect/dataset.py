"""Dataset container, CSV ingestion and leakage-safe splitting.

A Dataset is immutable: its arrays are read-only and C-ordered, so
concurrent grid evaluations can share one snapshot safely. A writeable
(or non-C-ordered) input is copied, so a caller's later writes never reach
the Dataset; a read-only input is taken as frozen and shared. The package's
producers freeze the fresh array they have just made, so it is made once.
Label 1 is always the positive/minority class.
"""

import csv
import functools
import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np

from .base import derive_rng
from .validation import check_array, check_labels


class DatasetError(ValueError):
    """Raised for any ingestion problem; the message names the location."""


def freeze(array):
    """Mark ``array`` read-only in place and return it; for fresh arrays only."""
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class Dataset:
    features: np.ndarray
    labels: np.ndarray
    feature_names: tuple

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
        for field, array in (("features", features), ("labels", labels)):
            if array.flags.writeable or not array.flags.c_contiguous:
                array = np.array(array, order="C")  # a copy the Dataset owns
            object.__setattr__(self, field, freeze(array))
        object.__setattr__(self, "feature_names", names)

    @property
    def n_rows(self):
        return self.features.shape[0]

    @property
    def n_features(self):
        return self.features.shape[1]

    def subset(self, indices):
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            freeze(self.features[idx]), freeze(self.labels[idx]), self.feature_names
        )

    def with_features(self, features, feature_names):
        """Same rows (the labels are shared), new feature view (post-transform)."""
        return Dataset(features, self.labels, tuple(feature_names))

    def column(self, name):
        try:
            j = self.feature_names.index(name)
        except ValueError:
            raise KeyError(f"unknown feature column {name!r}") from None
        return self.features[:, j]


def _is_number(label):
    return isinstance(label, (int, float)) and not isinstance(label, bool)


def _cell_is_positive(cell, positive_label):
    text = cell.strip()
    if _is_number(positive_label):
        try:
            return float(text) == float(positive_label)
        except ValueError:
            return False
    return text == str(positive_label)


def _not_utf8(cells):
    """Index of the first cell holding bytes that are not UTF-8, or None.

    The row parser decodes with ``surrogateescape``, so such bytes arrive
    as lone surrogates, which only a strict encode refuses."""
    for j, cell in enumerate(cells):
        if not cell.isascii():
            try:
                cell.encode("utf-8")
            except UnicodeEncodeError:
                return j
    return None


def _raw(cell):
    return cell.encode("utf-8", "surrogateescape")


def read_header(path):
    """The header row's cells and the number of lines it spans.

    Only the header is checked: bytes that are not UTF-8 further down do
    not stop it. Raises DatasetError when the file is missing or unreadable,
    is empty, or its header is not UTF-8.
    """
    try:
        handle = open(path, newline="", encoding="utf-8", errors="surrogateescape")
    except FileNotFoundError:
        raise DatasetError(f"dataset file not found: {path}") from None
    except OSError as exc:
        raise DatasetError(f"dataset file unreadable: {exc}") from None
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        lines = reader.line_num
    if header is None:
        raise DatasetError(f"empty dataset: {path} has no header row")
    j = _not_utf8(header)
    if j is not None:
        raise DatasetError(f"header cell {j + 1} is not UTF-8: {_raw(header[j])!r}")
    return header, lines


def check_utf8(path):
    """Raise DatasetError naming the first line of ``path`` that is not UTF-8."""
    with open(path, "rb") as handle:
        for line_no, line in enumerate(handle, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DatasetError(
                    f"line {line_no} of {path} is not UTF-8: "
                    f"{line[exc.start : exc.end]!r} at byte {exc.start + 1}"
                ) from None


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


# rows moved per step when the label column is cut out of the bulk matrix;
# the step's copy (1024 rows of 30 floats, 240 kB) is all the extra memory
_MOVE_ROWS = 1024


def _drop_column(values, j):
    """``values`` without column ``j``, moved up inside its own buffer."""
    n, width = values.shape
    flat = values.reshape(-1)
    for start in range(0, n, _MOVE_ROWS):
        # a copy, taken before these rows are overwritten; the rows written
        # end before the next step's rows begin
        block = np.delete(values[start : start + _MOVE_ROWS], j, axis=1)
        at = start * (width - 1)
        flat[at : at + block.size] = block.ravel()
    return flat[: n * (width - 1)].reshape(n, width - 1)


def _read_bulk(path, skip_lines, width, label_idx, positive_label):
    """Features and labels from numpy's C reader, or None where it gives up.

    numpy splits lines, quotes and cells as ``csv`` does, and every float
    text it accepts is one ``float`` accepts, with the same bits. Where the
    two can part ways, this returns None and the row parser decides: any
    ValueError or warning (bad bytes, a text numpy refuses, a short or long
    row, no rows), a non-finite feature, or a line break inside a label
    cell matched as text (numpy's reader turns a quoted ``\\r`` into ``\\n``).
    """
    if _is_number(positive_label):
        # a label text numpy parses is one float() parses to the same value
        converters, positive = None, float(positive_label)
    else:

        @functools.cache
        def label_value(text):
            if "\n" in text:
                raise ValueError("line break in a label cell")
            return _cell_is_positive(text, positive_label)

        converters, positive = {label_idx: label_value}, 1.0
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = np.loadtxt(
                path, delimiter=",", comments=None, quotechar='"',
                skiprows=skip_lines, encoding="utf-8", ndmin=2,
                converters=converters,
            )
    except (ValueError, Warning):
        return None
    # without usecols, numpy refuses a row whose width differs from the
    # first row's; the first row's must be the header's
    if values.shape[1] != width:
        return None
    # the labels first: the move overwrites their column
    labels = (values[:, label_idx] == positive).astype(np.int64)
    features = _drop_column(values, label_idx)
    if not np.isfinite(features).all():
        return None
    return features, labels


def _read_rows(path, header, label_idx, feature_names, positive_label):
    """The row parser: every cell through ``float``, in file order, so the
    first bad row or cell is the one reported."""
    features = array("d")
    labels = array("q")
    width = len(header)
    with open(path, newline="", encoding="utf-8", errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        next(reader)
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != width:
                raise DatasetError(
                    f"row {row_no}: expected {width} cells, got {len(row)}"
                )
            j = _not_utf8(row)
            if j is not None:
                raise DatasetError(
                    f"bytes that are not UTF-8 at row {row_no}, column {header[j].strip()!r}: "
                    f"{_raw(row[j])!r}"
                )
            label_cell = row.pop(label_idx)
            features.fromlist(_parse_cells(row, row_no, feature_names))
            labels.append(_cell_is_positive(label_cell, positive_label))
    labels = np.frombuffer(labels, dtype=np.int64)
    features = np.frombuffer(features, dtype=np.float64)
    return features.reshape(labels.shape[0], len(feature_names)), labels


def load_csv(path, label_column, positive_label=1):
    """Read a headered CSV into a Dataset.

    Every non-label cell must parse with Python's ``float`` to a finite
    number; the first bad cell in file order is the one reported. Header
    names must be unique. Rows whose label cell equals ``positive_label``
    map to 1, everything else to 0. numpy's C reader parses the file; the
    row parser runs only where numpy's reader gives up, and either accepts
    the file with the same values or reports its first bad cell.
    """
    header, header_lines = read_header(path)
    label_idx, feature_names = parse_header(header, label_column)
    features, labels = _read_bulk(
        path, header_lines, len(header), label_idx, positive_label
    ) or _read_rows(path, header, label_idx, feature_names, positive_label)

    if not labels.shape[0]:
        raise DatasetError(f"empty dataset: {path} has a header but no rows")
    n_pos = int(labels.sum())
    if n_pos > labels.shape[0] - n_pos:
        warnings.warn(
            f"positive class ({n_pos}) outnumbers negative ({labels.shape[0] - n_pos}); "
            "label 1 is expected to be the minority",
            stacklevel=2,
        )
    return Dataset(
        features=freeze(features), labels=freeze(labels), feature_names=feature_names
    )


class ColumnStandardizer:
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
        for name in names:
            col = dataset.column(name)
            mu = float(col.mean())
            sigma = float(col.std())  # population
            if sigma == 0.0:
                sigma = 1.0
            means.append(mu)
            scales.append(sigma)
        self.columns_ = tuple(names)
        self.mean_ = np.asarray(means)
        self.scale_ = np.asarray(scales)
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
        return dataset.with_features(freeze(features), dataset.feature_names)


@dataclass(frozen=True)
class SplitIndices:
    train_idx: np.ndarray
    test_idx: np.ndarray

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
