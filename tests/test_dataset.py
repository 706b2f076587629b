import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imbselect import dataset
from imbselect.dataset import (
    ColumnStandardizer,
    Dataset,
    DatasetError,
    _cell_is_positive,
    load_csv,
    stratified_folds,
    stratified_split,
)
from imbselect.fixtures import make_fixture


def write_csv(path, text):
    path.write_text(text, encoding="utf-8")
    return path


@pytest.fixture
def five_row_csv(tmp_path):
    return write_csv(
        tmp_path / "five.csv",
        "a,b,Class\n1,10,0\n2,20,0\n3,30,1\n4,40,0\n5,50,1\n",
    )


class TestLoadCsv:
    def test_five_row_fixture(self, five_row_csv):
        ds = load_csv(five_row_csv, label_column="Class", positive_label=1)
        assert ds.n_rows == 5
        assert int(ds.labels.sum()) == 2
        assert ds.feature_names == ("a", "b")
        assert ds.features[2].tolist() == [3.0, 30.0]
        assert ds.labels.tolist() == [0, 0, 1, 0, 1]

    def test_row_order_preserved_and_features_readonly(self, five_row_csv):
        ds = load_csv(five_row_csv, label_column="Class")
        assert ds.features[:, 0].tolist() == [1, 2, 3, 4, 5]
        with pytest.raises(ValueError):
            ds.features[0, 0] = 99.0

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="not found"):
            load_csv(tmp_path / "nope.csv", label_column="Class")

    def test_empty_rows(self, tmp_path):
        path = write_csv(tmp_path / "empty.csv", "a,b,Class\n")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_csv(path, label_column="Class")

    def test_empty_file(self, tmp_path):
        path = write_csv(tmp_path / "blank.csv", "")
        with pytest.raises(DatasetError, match="empty dataset"):
            load_csv(path, label_column="Class")

    def test_missing_label_column(self, tmp_path):
        path = write_csv(tmp_path / "nolabel.csv", "a,b\n1,2\n")
        with pytest.raises(DatasetError, match="missing label column 'Class'"):
            load_csv(path, label_column="Class")

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = write_csv(tmp_path / "bad.csv", "a,b,Class\n1,2,0\n1,oops,1\n")
        with pytest.raises(DatasetError, match="row 3, column 'b'"):
            load_csv(path, label_column="Class")

    def test_non_finite_cell_rejected(self, tmp_path):
        path = write_csv(tmp_path / "nan.csv", "a,b,Class\n1,nan,0\n2,3,1\n")
        with pytest.raises(DatasetError, match="non-finite"):
            load_csv(path, label_column="Class")

    def test_string_positive_label(self, tmp_path):
        path = write_csv(
            tmp_path / "str.csv", "x,Class\n1,fraud\n2,ok\n3,ok\n4,fraud\n5,ok\n"
        )
        ds = load_csv(path, label_column="Class", positive_label="fraud")
        assert ds.labels.tolist() == [1, 0, 0, 1, 0]

    def test_quoted_fields(self, tmp_path):
        path = write_csv(tmp_path / "q.csv", 'x,Class\n"1.5","1"\n"2.5","0"\n"3","0"\n')
        ds = load_csv(path, label_column="Class", positive_label=1)
        assert ds.features[:, 0].tolist() == [1.5, 2.5, 3.0]
        assert ds.labels.tolist() == [1, 0, 0]

    def test_majority_positive_warns(self, tmp_path):
        path = write_csv(tmp_path / "maj.csv", "x,Class\n1,1\n2,1\n3,0\n")
        with pytest.warns(UserWarning, match="minority"):
            load_csv(path, label_column="Class")


    @pytest.mark.parametrize("row", ["1,0,5", "1,0,"])
    def test_row_longer_than_header_is_rejected(self, tmp_path, row):
        path = write_csv(tmp_path / "long.csv", f"a,Class\n2,0\n{row}\n3,1\n")
        with pytest.raises(DatasetError, match="row 3: expected 2 cells, got 3"):
            load_csv(path, label_column="Class")

    def test_bytes_that_are_not_utf8_name_row_and_column(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,b,Class\n1,2,0\n3,\xff4,1\n5,6,0\n")
        with pytest.raises(DatasetError, match=r"not UTF-8 at row 3, column 'b': b'\\xff4'"):
            load_csv(path, label_column="Class")

    def test_header_that_is_not_utf8_is_rejected(self, tmp_path):
        path = tmp_path / "latin.csv"
        path.write_bytes(b"a,\xe9,Class\n1,2,0\n3,4,1\n5,6,0\n")
        with pytest.raises(DatasetError, match="header cell 2 is not UTF-8"):
            load_csv(path, label_column="Class")

    def test_text_label_keeps_a_quoted_carriage_return(self, tmp_path):
        # numpy's reader would hand the label over as "a\nb"
        path = write_csv(tmp_path / "cr.csv", 'x,Class\n1,"a\rb"\n2,a\n3,b\n')
        ds = load_csv(path, label_column="Class", positive_label="a\rb")
        assert ds.labels.tolist() == [1, 0, 0]

    @pytest.mark.parametrize(
        "header, repeated",
        [("V1,V2,V1,Class", "V1"), ("V1,Class,V2,Class", "Class")],
    )
    def test_repeated_header_name_is_rejected(self, tmp_path, header, repeated):
        # a repeated feature name would make select_encoded and
        # ColumnStandardizer see its first copy only; a repeated label
        # would turn its second copy into a feature
        path = write_csv(tmp_path / "dup.csv", f"{header}\n1,2,3,0\n4,5,6,1\n7,8,9,0\n")
        with pytest.raises(DatasetError, match=f"column '{repeated}' appears more than once"):
            load_csv(path, label_column="Class")

    def test_ingest_peak_memory_is_bounded(self, tmp_path):
        path = make_fixture(
            "gaussian-imbalanced", 20_000, 0.02, seed=4, out_path=tmp_path / "big.csv",
            n_features=28,
        )
        tracemalloc.start()
        try:
            ds = load_csv(path, label_column="Class")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ds.features.shape == (20_000, 30)
        # the parsed buffer becomes the Dataset's array: no second copy
        assert peak <= 1.5 * ds.features.nbytes


def reference_load_csv(path, label_column, positive_label=1):
    """The per-cell loader: a list of Python floats per row, every cell
    checked as it is parsed, then one array built from the row lists."""
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
        header = [h.strip() for h in header]
        if label_column not in header:
            raise DatasetError(
                f"missing label column {label_column!r}; header has {header}"
            )
        label_idx = header.index(label_column)
        feature_names = tuple(h for i, h in enumerate(header) if i != label_idx)
        rows = []
        labels = []
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise DatasetError(
                    f"row {row_no}: expected {len(header)} cells, got {len(row)}"
                )
            values = []
            for i, cell in enumerate(row):
                if i == label_idx:
                    continue
                try:
                    value = float(cell)
                except ValueError:
                    raise DatasetError(
                        f"non-numeric cell at row {row_no}, column {header[i]!r}: {cell!r}"
                    ) from None
                if not np.isfinite(value):
                    raise DatasetError(
                        f"non-finite cell at row {row_no}, column {header[i]!r}: {cell!r}"
                    )
                values.append(value)
            rows.append(values)
            labels.append(1 if _cell_is_positive(row[label_idx], positive_label) else 0)
    if not rows:
        raise DatasetError(f"empty dataset: {path} has a header but no rows")
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int(labels.sum())
    if n_pos > labels.shape[0] - n_pos:
        warnings.warn(
            f"positive class ({n_pos}) outnumbers negative ({labels.shape[0] - n_pos}); "
            "label 1 is expected to be the minority",
            stacklevel=2,
        )
    return Dataset(
        features=np.asarray(rows, dtype=np.float64),
        labels=labels,
        feature_names=feature_names,
    )


# texts numpy's reader and float() both accept, then texts only float() does
NUMBER_CELLS = [
    "0", "-0.0", "1.5", "+1", ".5", "1e-320", "3E2", "-7.25", " 2 ", "1e308",
    "-1e308", "0.1", "123456789.123456789", "2.", "\xa04", '"1"2',
]
FLOAT_ONLY_CELLS = ["1_000", "\u0661\u0662", "\uff13"]
BAD_CELLS = [
    "nan", "inf", "-Infinity", "1e999", "abc", "", '1"2', "1,5",
    "short", "long", "trailing comma",
]
NUMBER_LABELS = ["0", "0", "1", " 1 ", "1.0", "nan"]
TEXT_LABELS = ["1_0", "x", "fraud", " fraud ", "fr\raud", "fr\naud"]
BLANK_LINES = ["", "", "", "", "", " ", "\t"]


@st.composite
def csv_texts(draw):
    """A headered CSV: the label at any position, quoted and padded cells,
    blank and whitespace-only lines, \\n, \\r\\n or \\r line ends, maybe a
    header name quoted over two lines, rows of 1e308 whose sum overflows,
    texts only ``float`` accepts, text labels, and up to three bad cells,
    short rows or long rows anywhere (a long row may end in a trailing
    comma, and every row may). Most files are clean for numpy's reader."""
    n_features = draw(st.integers(1, 5))
    names = [f"f{j}" for j in range(n_features)]
    if draw(st.integers(0, 4)) == 0:
        names[draw(st.integers(0, n_features - 1))] += "\nz"
    names.insert(draw(st.integers(0, n_features)), "Class")
    width = len(names)
    cell_texts = NUMBER_CELLS + (FLOAT_ONLY_CELLS if draw(st.integers(0, 3)) == 0 else [])
    label_texts = NUMBER_LABELS + (TEXT_LABELS if draw(st.integers(0, 2)) == 0 else [])
    n_rows = draw(st.integers(0, 8))
    rows = []
    for _ in range(n_rows):
        if draw(st.booleans()) and n_features > 1:
            cells = ["1e308"] * width
        else:
            cells = [draw(st.sampled_from(cell_texts)) for _ in range(width)]
        cells[names.index("Class")] = draw(st.sampled_from(label_texts))
        rows.append(cells)
    n_bad = draw(st.sampled_from([0, 0, 0, 0, 0, 0, 1, 2, 3])) if rows else 0
    for _ in range(n_bad):
        i = draw(st.integers(0, len(rows) - 1))
        if not rows[i]:  # "short" took every cell of a two-column row
            continue
        j = draw(st.integers(0, len(rows[i]) - 1))
        bad = draw(st.sampled_from(BAD_CELLS))
        if bad == "short":
            del rows[i][j]
        elif bad == "long":
            rows[i].insert(j, draw(st.sampled_from(cell_texts)))
        elif bad == "trailing comma":
            rows[i].append("")
        else:
            rows[i][j] = bad
    if draw(st.integers(0, 9)) == 0:
        rows = [cells + [""] for cells in rows]

    def render(cells):
        out = []
        for cell in cells:
            if any(c in cell for c in "\r\n,") or draw(st.integers(0, 3)) == 0:
                cell = f'"{cell}"'
            out.append(cell)
        return ",".join(out)

    header = [f" {n} " if draw(st.booleans()) else n for n in names]
    lines = [render(header)]
    for cells in rows:
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(BLANK_LINES)))
        lines.append(render(cells))
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + end


def _load_outcome(loader, path, positive_label=1):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            ds = loader(path, label_column="Class", positive_label=positive_label)
        except DatasetError as exc:
            return ("error", str(exc))
    return (
        ds.features.shape,
        ds.features.tobytes(),
        ds.labels.tolist(),
        ds.feature_names,
        [str(w.message) for w in caught],
    )


@settings(
    max_examples=600, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(text=csv_texts(), positive_label=st.sampled_from([1, 0, "fraud"]))
def test_load_csv_matches_per_cell_reference(tmp_path, monkeypatch, text, positive_label):
    # a few rows per move, so that these short files take several
    monkeypatch.setattr(dataset, "_MOVE_ROWS", 3)
    path = tmp_path / "oracle.csv"
    path.write_bytes(text.encode("utf-8"))
    assert _load_outcome(load_csv, path, positive_label) == _load_outcome(
        reference_load_csv, path, positive_label
    )


CLEAN_FILES = {
    # the shape of the published credit-card file: quoted names and labels
    "quoted": ('"Time","V1","Amount","Class"\r\n0,-1.35,149.62,"0"\r\n'
               '1,1.19,2.69,"1"\r\n2,-0.9,3.5,"0"\r\n', 1),
    "text labels": ("x,y,Class\n1, 2 ,ok\n\n3,4e-3, fraud\n5,.5,ok\n", "fraud"),
    "two-line header": ('"x\ny",Class\n1.5,0\n2.5,1\n3,0\n', 1),
}


@pytest.mark.parametrize("name", sorted(CLEAN_FILES))
def test_clean_file_never_reaches_the_row_parser(tmp_path, monkeypatch, name):
    text, positive_label = CLEAN_FILES[name]
    path = tmp_path / "clean.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = _load_outcome(reference_load_csv, path, positive_label)

    def row_parser(*args):
        raise AssertionError("the row parser ran on a clean file")

    monkeypatch.setattr(dataset, "_read_rows", row_parser)
    assert _load_outcome(load_csv, path, positive_label) == expected
    # more rows than one move of the label column takes
    fixture = make_fixture("gaussian-imbalanced", 2500, 0.1, seed=1, out_path=tmp_path / "f.csv")
    assert _load_outcome(load_csv, fixture) == _load_outcome(reference_load_csv, fixture)


def toy(features, labels, names=None):
    features = np.asarray(features, dtype=float)
    if names is None:
        names = [f"c{i}" for i in range(features.shape[1])]
    return Dataset(features=features, labels=labels, feature_names=tuple(names))


class TestOwnership:
    def test_later_writes_to_a_writeable_input_never_reach_the_dataset(self):
        features = np.array([[1.0, 2.0], [3.0, 4.0]])
        labels = np.array([0, 1])
        ds = Dataset(features=features, labels=labels, feature_names=("a", "b"))
        features[0, 0] = 99.0
        labels[0] = 1
        assert ds.features.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert ds.labels.tolist() == [0, 1]
        assert not ds.features.flags.writeable and not ds.labels.flags.writeable

    def test_read_only_input_is_shared(self):
        features = np.array([[1.0, 2.0], [3.0, 4.0]])
        labels = np.array([0, 1], dtype=np.int64)
        features.flags.writeable = False
        labels.flags.writeable = False
        ds = Dataset(features=features, labels=labels, feature_names=("a", "b"))
        assert np.shares_memory(ds.features, features)
        assert np.shares_memory(ds.labels, labels)

    def test_read_only_input_out_of_c_order_is_copied_into_c_order(self):
        features = np.asfortranarray([[1.0, 2.0], [3.0, 4.0]])
        features.flags.writeable = False
        ds = Dataset(features=features, labels=[0, 1], feature_names=("a", "b"))
        assert ds.features.flags.c_contiguous
        assert not np.shares_memory(ds.features, features)
        assert np.array_equal(ds.features, features)

    def test_with_features_keeps_the_parents_labels(self):
        ds = toy([[1.0], [2.0]], [0, 1])
        child = ds.with_features(np.array([[5.0], [6.0]]), ["z"])
        assert child.labels is ds.labels


class TestStandardizer:
    def test_hand_computed_moments(self):
        ds = toy([[2.0], [4.0], [6.0]], [0, 0, 1])
        sc = ColumnStandardizer().fit(ds)
        assert sc.mean_[0] == pytest.approx(4.0)
        assert sc.scale_[0] == pytest.approx(math.sqrt(8.0 / 3.0))

    def test_constant_column_rule(self):
        ds = toy([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]], [0, 1, 0])
        sc = ColumnStandardizer().fit(ds)
        assert sc.mean_[0] == 5.0
        assert sc.scale_[0] == 1.0
        assert sc.scale_[1] == pytest.approx(math.sqrt(2.0 / 3.0))
        out = sc.transform(ds)
        assert out.column("c0").tolist() == [0.0, 0.0, 0.0]

    def test_empty_column_set_is_identity(self):
        ds = toy([[1.0, 2.0]], [1])
        out = ColumnStandardizer(columns=[]).fit(ds).transform(ds)
        assert out.features.tolist() == ds.features.tolist()

    def test_self_standardization_is_zero_mean_unit_std(self):
        rng = np.random.default_rng(3)
        ds = toy(rng.normal(5, 3, (40, 3)), rng.integers(0, 2, 40))
        out = ColumnStandardizer().fit(ds).transform(ds)
        assert np.all(np.abs(out.features.mean(axis=0)) < 1e-10)
        assert np.all(np.abs(out.features.std(axis=0) - 1.0) < 1e-10)

    def test_train_params_leave_test_mean_nonzero(self):
        train = toy([[0.0], [1.0], [2.0]], [0, 1, 0])
        test = toy([[10.0], [11.0]], [0, 1])
        sc = ColumnStandardizer().fit(train)
        out = sc.transform(test)
        assert abs(out.features.mean()) > 1.0

    def test_identity_params_leave_data_unchanged(self):
        ds = toy([[1.0, -2.0], [3.5, 0.0]], [0, 1])
        sc = ColumnStandardizer().fit(ds)
        sc.mean_ = np.zeros(2)
        sc.scale_ = np.ones(2)
        out = sc.transform(ds)
        assert np.array_equal(out.features, ds.features)

    def test_unknown_column(self):
        ds = toy([[1.0]], [1])
        with pytest.raises(KeyError, match="unknown feature column"):
            ColumnStandardizer(columns=["zz"]).fit(ds)

    def test_selected_columns_only(self):
        ds = toy([[2.0, 100.0], [4.0, 200.0], [6.0, 300.0]], [0, 0, 1])
        out = ColumnStandardizer(columns=["c1"]).fit(ds).transform(ds)
        assert np.array_equal(out.column("c0"), ds.column("c0"))
        assert abs(out.column("c1").mean()) < 1e-12


class TestStratifiedSplit:
    def test_exact_small_case(self):
        labels = np.array([1] * 5 + [0] * 5)
        split = stratified_split(labels, 0.2, seed=1)
        assert len(split.test_idx) == 2
        assert labels[split.test_idx].sum() == 1

    def test_primary_shape_counts(self):
        labels = np.zeros(284807, dtype=int)
        labels[:492] = 1
        split = stratified_split(labels, 0.2, seed=9)
        assert abs(len(split.test_idx) - 56962) <= 1
        assert abs(int(labels[split.test_idx].sum()) - 98) <= 1

    def test_same_seed_identical(self):
        labels = np.array([0] * 90 + [1] * 10)
        a = stratified_split(labels, 0.3, seed=77)
        b = stratified_split(labels, 0.3, seed=77)
        assert np.array_equal(a.train_idx, b.train_idx)
        assert np.array_equal(a.test_idx, b.test_idx)

    def test_different_seed_differs(self):
        labels = np.array([0] * 90 + [1] * 10)
        a = stratified_split(labels, 0.3, seed=1)
        b = stratified_split(labels, 0.3, seed=2)
        assert not np.array_equal(a.test_idx, b.test_idx)

    def test_tiny_class_errors(self):
        labels = np.array([0] * 9 + [1])
        with pytest.raises(ValueError):
            stratified_split(labels, 0.2, seed=0)

    @settings(max_examples=60, deadline=None)
    @given(
        n_pos=st.integers(3, 40),
        n_neg=st.integers(10, 200),
        fraction=st.floats(0.1, 0.9),
        seed=st.integers(0, 2**63 - 1),
    )
    def test_partition_and_stratification(self, n_pos, n_neg, fraction, seed):
        labels = np.array([1] * n_pos + [0] * n_neg)
        n = n_pos + n_neg
        try:
            split = stratified_split(labels, fraction, seed)
        except ValueError:
            return  # class too small for this fraction: rejected, not mis-split
        merged = np.concatenate([split.train_idx, split.test_idx])
        assert np.array_equal(np.sort(merged), np.arange(n))
        n_test = len(split.test_idx)
        for c in (0, 1):
            got = np.sum(labels[split.test_idx] == c) / n_test
            overall = np.sum(labels == c) / n
            assert abs(got - overall) <= 1.0 / n_test + 1e-12


class TestStratifiedFolds:
    def test_divisible_case(self):
        labels = np.array([1] * 10 + [0] * 90)
        folds = stratified_folds(labels, 5, seed=4)
        for f in range(5):
            assert np.sum(folds == f) == 20
            assert np.sum((folds == f) & (labels == 1)) == 2

    def test_remainder_distribution(self):
        labels = np.array([1] * 11 + [0] * 92)
        folds = stratified_folds(labels, 5, seed=11)
        sizes = sorted(int(np.sum(folds == f)) for f in range(5))
        pos = sorted(int(np.sum((folds == f) & (labels == 1))) for f in range(5))
        assert sizes == [20, 20, 21, 21, 21]
        assert pos == [2, 2, 2, 2, 3]

    def test_two_folds_four_rows(self):
        labels = np.array([1, 1, 0, 0])
        folds = stratified_folds(labels, 2, seed=0)
        for f in (0, 1):
            assert np.sum(folds == f) == 2
            assert np.sum((folds == f) & (labels == 1)) == 1

    def test_class_smaller_than_folds(self):
        labels = np.array([1] * 3 + [0] * 50)
        with pytest.raises(ValueError, match="fewer than n_folds"):
            stratified_folds(labels, 5, seed=0)

    def test_determinism(self):
        labels = np.array([1] * 9 + [0] * 33)
        a = stratified_folds(labels, 3, seed=5)
        b = stratified_folds(labels, 3, seed=5)
        assert np.array_equal(a, b)

    @settings(max_examples=60, deadline=None)
    @given(
        n_pos=st.integers(6, 50),
        n_neg=st.integers(6, 300),
        n_folds=st.integers(2, 6),
        seed=st.integers(0, 2**32),
    )
    def test_fold_balance_properties(self, n_pos, n_neg, n_folds, seed):
        if min(n_pos, n_neg) < n_folds:
            return
        labels = np.array([1] * n_pos + [0] * n_neg)
        folds = stratified_folds(labels, n_folds, seed)
        assert set(folds) == set(range(n_folds))
        sizes = [int(np.sum(folds == f)) for f in range(n_folds)]
        assert max(sizes) - min(sizes) <= 1
        for f in range(n_folds):
            for c, n_c in ((1, n_pos), (0, n_neg)):
                in_fold = int(np.sum((folds == f) & (labels == c)))
                assert abs(in_fold - n_c / n_folds) < 1.0 + 1e-12
