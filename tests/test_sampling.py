import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbselect.base import derive_rng, derive_seed
from imbselect.classifiers.forest import RandomForestClassifier
from imbselect.classifiers.neighbors import squared_distances
from imbselect.classifiers.tree import presort_rows, sort_orders
from imbselect.dataset import Dataset, round_half_away, stratified_folds
from imbselect.sampling import (
    Adasyn,
    InstanceHardnessThreshold,
    RandomOverSampler,
    RandomUnderSampler,
    SAMPLER_KINDS,
    SamplerSpec,
    Smote,
    _minority_neighbor_table,
    adasyn_generation_counts,
    resample,
    smote_synthesize,
)


def segment_distance(point, a, b):
    """Oracle: Euclidean distance from point to the segment [a, b]."""
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(point - a))
    t = np.clip(float((point - a) @ ab) / denom, 0.0, 1.0)
    return float(np.linalg.norm(point - (a + t * ab)))


def min_segment_distance(point, minority):
    return min(
        segment_distance(point, minority[i], minority[j])
        for i in range(len(minority))
        for j in range(len(minority))
        if i != j
    )


def imbalanced_blobs(n_pos=12, n_neg=60, p=3, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack([rng.normal(0, 1, (n_neg, p)), rng.normal(2.5, 1, (n_pos, p))])
    y = np.array([0] * n_neg + [1] * n_pos)
    perm = rng.permutation(n_pos + n_neg)
    return X[perm], y[perm]


def row_multiset(X):
    return sorted(map(tuple, X.tolist()))


# every option but ``seed``, each set away from its default
NON_DEFAULT_OPTIONS = {
    "none": {},
    "random_under": {"target_ratio": 0.5, "with_replacement": True},
    "instance_hardness_threshold": {"target_ratio": 0.5, "iht_folds": 4},
    "random_over": {"target_ratio": 0.5},
    "smote": {"target_ratio": 0.5, "k_neighbors": 3},
    "adasyn": {"target_ratio": 0.5, "k_neighbors": 3},
}


class TestSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown sampler kind"):
            SamplerSpec("tomek")

    def test_ratio_bounds(self):
        with pytest.raises(ValueError, match="target_ratio"):
            SamplerSpec("smote", {"target_ratio": 1.5})
        with pytest.raises(ValueError, match="target_ratio"):
            SamplerSpec("smote", {"target_ratio": 0.0})

    def test_constructors_check_ranges(self):
        for cls in (RandomUnderSampler, InstanceHardnessThreshold, RandomOverSampler,
                    Smote, Adasyn):
            for ratio in (1.5, math.inf, math.nan, True):
                with pytest.raises(ValueError, match="target_ratio must be in"):
                    cls(target_ratio=ratio)
        for cls in (Smote, Adasyn):
            with pytest.raises(ValueError, match="k_neighbors must be >= 1"):
                cls(k_neighbors=0)
            with pytest.raises(ValueError, match="k_neighbors must be >= 1"):
                cls(k_neighbors=2.5)
        with pytest.raises(ValueError, match="iht_folds must be >= 2"):
            InstanceHardnessThreshold(iht_folds=1)
        with pytest.raises(ValueError, match="iht_folds must be >= 2"):
            InstanceHardnessThreshold(iht_folds=2.5)

    def test_labels(self):
        # leaderboard rows carry these strings: their bytes must not drift
        cases = [
            ("none", {}, "none"),
            ("random_under", {}, "random_under(ratio=1)"),
            ("random_under", {"target_ratio": 0.5, "with_replacement": True},
             "random_under(ratio=0.5,replacement)"),
            ("random_under", {"with_replacement": False}, "random_under(ratio=1)"),
            ("instance_hardness_threshold", {}, "instance_hardness_threshold(ratio=1)"),
            ("instance_hardness_threshold", {"target_ratio": 0.2, "iht_folds": 3},
             "instance_hardness_threshold(ratio=0.2)"),
            ("random_over", {}, "random_over(ratio=1)"),
            ("random_over", {"target_ratio": 0.75}, "random_over(ratio=0.75)"),
            ("smote", {}, "smote(ratio=1,k=5)"),
            ("smote", {"target_ratio": 0.5, "k_neighbors": 3}, "smote(ratio=0.5,k=3)"),
            ("adasyn", {}, "adasyn(ratio=1,k=5)"),
            ("adasyn", {"target_ratio": 1 / 3, "k_neighbors": 7},
             "adasyn(ratio=0.333333,k=7)"),
        ]
        assert {kind for kind, _, _ in cases} == set(SAMPLER_KINDS)
        for kind, options, label in cases:
            assert SamplerSpec(kind, options).label == label


class TestIdentity:
    def test_dataset_passthrough(self):
        X, y = imbalanced_blobs()
        ds = Dataset(X, y, tuple(f"f{i}" for i in range(X.shape[1])))
        assert resample(SamplerSpec("none"), ds, seed=1) is ds


class TestRandomUnder:
    def test_exact_balance_counts(self):
        X, y = imbalanced_blobs(n_pos=2, n_neg=10)
        Xr, yr = RandomUnderSampler(target_ratio=1.0, seed=0).fit_resample(X, y)
        assert int(yr.sum()) == 2
        assert len(yr) == 4

    def test_output_rows_are_input_rows(self):
        X, y = imbalanced_blobs()
        Xr, yr = RandomUnderSampler(target_ratio=0.5, seed=3).fit_resample(X, y)
        input_rows = set(map(tuple, X.tolist()))
        assert all(tuple(row) in input_rows for row in Xr.tolist())

    def test_minority_rows_never_removed(self):
        X, y = imbalanced_blobs()
        Xr, yr = RandomUnderSampler(seed=5).fit_resample(X, y)
        assert row_multiset(Xr[yr == 1]) == row_multiset(X[y == 1])

    def test_with_replacement_can_duplicate(self):
        X, y = imbalanced_blobs(n_pos=30, n_neg=40, seed=2)
        Xr, yr = RandomUnderSampler(
            target_ratio=1.0, with_replacement=True, seed=11
        ).fit_resample(X, y)
        majority_rows = Xr[yr == 0]
        assert len(majority_rows) == 30
        assert len(set(map(tuple, majority_rows.tolist()))) < 30  # dup expected

    def test_ratio_below_current_errors(self):
        X, y = imbalanced_blobs(n_pos=30, n_neg=40)
        with pytest.raises(ValueError, match="below the current class ratio"):
            RandomUnderSampler(target_ratio=0.2).fit_resample(X, y)

    def test_determinism(self):
        X, y = imbalanced_blobs()
        a = RandomUnderSampler(seed=9).fit_resample(X, y)
        b = RandomUnderSampler(seed=9).fit_resample(X, y)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestRandomOver:
    def test_counts(self):
        X, y = imbalanced_blobs(n_pos=2, n_neg=10)
        Xr, yr = RandomOverSampler(target_ratio=1.0, seed=0).fit_resample(X, y)
        assert int(yr.sum()) == 10
        assert int((yr == 0).sum()) == 10

    def test_appended_rows_duplicate_minority(self):
        X, y = imbalanced_blobs()
        Xr, yr = RandomOverSampler(seed=1).fit_resample(X, y)
        assert np.array_equal(Xr[: len(y)], X)
        minority_rows = set(map(tuple, X[y == 1].tolist()))
        for row in Xr[len(y):].tolist():
            assert tuple(row) in minority_rows


class TestSmote:
    def test_balance_count_ten_neg_two_pos(self):
        X = np.vstack([np.random.default_rng(0).normal(0, 1, (10, 2)),
                       [[5.0, 5.0], [7.0, 5.0]]])
        y = np.array([0] * 10 + [1] * 2)
        Xr, yr = Smote(target_ratio=1.0, k_neighbors=1, seed=2).fit_resample(X, y)
        assert int(yr.sum()) == 10  # 8 synthetic positives added
        synth = Xr[len(y):]
        # with two minority points every synthetic lies on their segment
        for row in synth:
            assert segment_distance(row, X[10], X[11]) < 1e-9
            assert 5.0 <= row[0] <= 7.0 and row[1] == 5.0

    def test_synthesize_segment_geometry(self):
        minority = np.array([[0.0, 0.0], [2.0, 0.0]])
        out = smote_synthesize(minority, 1, 3, derive_rng(4))
        assert out.shape == (3, 2)
        for a, b in out:
            assert 0.0 <= a <= 2.0 and b == 0.0

    def test_duplicate_minority_points_produce_exact_duplicates(self):
        minority = np.array([[1.5, -2.0], [1.5, -2.0], [1.5, -2.0]])
        out = smote_synthesize(minority, 2, 5, derive_rng(0))
        assert np.all(out == [1.5, -2.0])

    def test_zero_count(self):
        out = smote_synthesize(np.array([[0.0], [1.0]]), 1, 0, derive_rng(0))
        assert out.shape == (0, 1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            smote_synthesize(np.array([[0.0], [1.0]]), 1, -1, derive_rng(0))

    def test_k_at_least_minority_count_rejected(self):
        X, y = imbalanced_blobs(n_pos=3, n_neg=30)
        with pytest.raises(ValueError, match="below the minority count"):
            Smote(k_neighbors=3).fit_resample(X, y)

    def test_majority_rows_untouched(self):
        X, y = imbalanced_blobs(n_pos=6, n_neg=24, seed=5)
        Xr, yr = Smote(k_neighbors=3, seed=8).fit_resample(X, y)
        assert row_multiset(Xr[yr == 0]) == row_multiset(X[y == 0])


class TestAdasyn:
    def test_total_count_formula(self):
        X, y = imbalanced_blobs(n_pos=2, n_neg=10, seed=1)
        Xr, yr = Adasyn(target_ratio=1.0, k_neighbors=1, seed=0).fit_resample(X, y)
        assert int(yr.sum()) == 10  # 8 synthetics in total

    def test_hard_point_gets_all_synthetics(self):
        # minority point 0 sits inside the majority cloud (hardness 1),
        # point 1 sits in a tight minority cluster far away (hardness 0)
        majority = np.random.default_rng(3).normal(0, 0.3, (10, 2))
        minority_cluster = np.array([[10.0, 10.0], [10.1, 10.0], [10.0, 10.1]])
        X = np.vstack([majority, [[0.0, 0.0]], minority_cluster])
        y = np.array([0] * 10 + [1] * 4)
        sampler = Adasyn(target_ratio=1.0, k_neighbors=2, seed=7)
        Xr, yr = sampler.fit_resample(X, y)
        hardness = sampler._hardness(X, y, np.flatnonzero(y == 1))
        assert hardness[0] == 1.0
        assert np.all(hardness[2:] == 0.0)

    def test_uniform_fallback_when_no_majority_neighbors(self):
        counts = adasyn_generation_counts(np.zeros(4), 8)
        assert counts.tolist() == [2, 2, 2, 2]

    def test_counts_sum_exactly(self):
        counts = adasyn_generation_counts([0.7, 0.2, 0.1], 10)
        assert counts.sum() == 10
        assert counts[0] >= counts[1] >= counts[2]

    def test_synthetics_on_minority_segments(self):
        X, y = imbalanced_blobs(n_pos=8, n_neg=40, seed=9)
        Xr, yr = Adasyn(k_neighbors=3, seed=4).fit_resample(X, y)
        minority = X[y == 1]
        for row in Xr[len(y):]:
            assert min_segment_distance(row, minority) < 1e-9


class TestInstanceHardness:
    def test_count_arithmetic(self):
        X, y = imbalanced_blobs(n_pos=10, n_neg=100, seed=0)
        Xr, yr = InstanceHardnessThreshold(target_ratio=1.0, seed=1).fit_resample(X, y)
        assert int((yr == 0).sum()) == 10
        assert int(yr.sum()) == 10

    def test_confident_majority_retained_over_boundary_rows(self):
        rng = np.random.default_rng(8)
        deep = rng.normal(0.0, 1.0, (80, 2))  # far from minority
        overlapped = rng.normal(10.0, 0.4, (10, 2))  # inside minority cluster
        minority = rng.normal(10.0, 0.4, (20, 2))
        X = np.vstack([deep, overlapped, minority])
        y = np.array([0] * 90 + [1] * 20)
        sampler = InstanceHardnessThreshold(target_ratio=0.5, seed=3)
        Xr, yr = sampler.fit_resample(X, y)
        kept_majority = Xr[yr == 0]
        assert len(kept_majority) == 40
        deep_rows = set(map(tuple, deep.tolist()))
        assert all(tuple(row) in deep_rows for row in kept_majority.tolist())

    def test_outputs_are_row_subsets(self):
        X, y = imbalanced_blobs(n_pos=10, n_neg=60, seed=4)
        Xr, yr = InstanceHardnessThreshold(target_ratio=0.5, seed=2).fit_resample(X, y)
        input_rows = set(map(tuple, X.tolist()))
        assert all(tuple(row) in input_rows for row in Xr.tolist())
        assert row_multiset(Xr[yr == 1]) == row_multiset(X[y == 1])

    def test_no_headroom_errors(self):
        X, y = imbalanced_blobs(n_pos=10, n_neg=10, seed=4)
        with pytest.raises(ValueError, match="majority count"):
            InstanceHardnessThreshold(target_ratio=1.0).fit_resample(X, y)


def reference_iht(X, y, target_ratio, iht_folds, seed):
    """(kept rows, out-of-fold P(true class)) with every fold forest fitted
    on its training rows alone, so that it sorts them itself."""
    folds = stratified_folds(y, iht_folds, seed=derive_seed(seed, "iht_folds"))
    proba_true = np.empty(len(y))
    for f in range(iht_folds):
        held = folds == f
        model = RandomForestClassifier(
            n_trees=50, max_depth=10, probability_mode="leaf_mean",
            seed=derive_seed(seed, "iht_forest", f),
        ).fit(X[~held], y[~held])
        p1 = model.predict_score(X[held])
        proba_true[held] = np.where(y[held] == 1, p1, 1.0 - p1)
    pos_idx, neg_idx = np.flatnonzero(y == 1), np.flatnonzero(y == 0)
    keep = round_half_away(len(pos_idx) / target_ratio)
    order = np.argsort(-proba_true[neg_idx], kind="stable")
    return np.sort(np.concatenate([pos_idx, neg_idx[order[:keep]]])), proba_true


@pytest.mark.parametrize("iht_folds", [2, 3, 4, 5])
@pytest.mark.parametrize("seed", [0, 11, 2024])
def test_iht_shared_presort_matches_per_fold_presorts(iht_folds, seed):
    # values on a coarse grid and repeated rows, so the sort orders hold ties
    X, y = imbalanced_blobs(n_pos=8, n_neg=150, p=3, seed=seed)
    X = np.round(X, 1)
    X, y = np.vstack([X, X[:20]]), np.concatenate([y, y[:20]])
    sampler = InstanceHardnessThreshold(target_ratio=0.3, iht_folds=iht_folds, seed=seed)
    kept, proba_true = reference_iht(X, y, 0.3, iht_folds, seed)
    assert sampler._out_of_fold_true_class_probability(X, y).tobytes() == proba_true.tobytes()
    Xr, yr = sampler.fit_resample(X, y)
    assert np.array_equal(Xr, X[kept]) and np.array_equal(yr, y[kept])


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    p=st.integers(1, 4),
    levels=st.sampled_from([2, 5, None]),
    seed=st.integers(0, 2**32 - 1),
)
def test_presort_rows_is_the_presort_of_the_kept_rows(n, p, levels, seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p)) if levels is None else rng.integers(0, levels, (n, p)) * 0.5
    keep = rng.random(n) < 0.7
    orders = presort_rows(sort_orders(X), keep)
    expected = sort_orders(X[keep])
    assert np.array_equal(orders, expected) and orders.dtype == expected.dtype


class TestResampleContract:
    @pytest.mark.parametrize(
        "kind", ("random_under", "instance_hardness_threshold", "random_over",
                  "smote", "adasyn")
    )
    def test_ratio_tolerance_and_determinism(self, kind):
        X, y = imbalanced_blobs(n_pos=9, n_neg=70, seed=6)
        ds = Dataset(X, y, tuple(f"f{i}" for i in range(X.shape[1])))
        options = {"target_ratio": 0.8, "k_neighbors": 3, "iht_folds": 3}
        known = NON_DEFAULT_OPTIONS[kind]
        spec = SamplerSpec(kind, {k: v for k, v in options.items() if k in known})
        out = resample(spec, ds, seed=42)
        n_pos = int(out.labels.sum())
        n_neg = out.n_rows - n_pos
        assert abs(n_pos / n_neg - 0.8) <= 1.0 / n_neg + 1e-12
        again = resample(spec, ds, seed=42)
        assert np.array_equal(out.features, again.features)
        assert np.array_equal(out.labels, again.labels)

    def test_randomized_geometry_and_subset_sweep(self):
        rng = np.random.default_rng(123)
        for trial in range(100):
            n_pos = int(rng.integers(4, 12))
            n_neg = int(rng.integers(n_pos + 5, 60))
            p = int(rng.integers(2, 5))
            X = np.vstack(
                [rng.normal(0, 1, (n_neg, p)), rng.normal(2, 1, (n_pos, p))]
            )
            y = np.array([0] * n_neg + [1] * n_pos)
            k = int(rng.integers(1, n_pos))
            ratio = float(rng.uniform(max(0.3, n_pos / n_neg + 0.05), 1.0))

            for cls in (Smote, Adasyn):
                Xr, yr = cls(
                    target_ratio=ratio, k_neighbors=k, seed=trial
                ).fit_resample(X, y)
                minority = X[y == 1]
                for row in Xr[len(y):]:
                    assert min_segment_distance(row, minority) < 1e-9, (cls, trial)
                assert abs(yr.sum() / (yr == 0).sum() - ratio) <= 1 / (yr == 0).sum() + 1e-12

            Xr, yr = RandomUnderSampler(target_ratio=ratio, seed=trial).fit_resample(X, y)
            input_rows = set(map(tuple, X.tolist()))
            assert all(tuple(row) in input_rows for row in Xr.tolist())
            assert abs(yr.sum() / (yr == 0).sum() - ratio) <= 1 / (yr == 0).sum() + 1e-12


@pytest.mark.parametrize("kind", SAMPLER_KINDS)
def test_make_sampler_takes_every_argument_from_the_spec(kind):
    options = NON_DEFAULT_OPTIONS[kind]
    seed = {} if kind == "none" else {"seed": derive_seed(9, 0, kind)}
    # an unfitted sampler's attributes are its options
    assert vars(SamplerSpec(kind, options).build(seed=9)) == {**options, **seed}
    # another kind's option, and the always-derived seed, are not options
    other = "k_neighbors" if kind == "instance_hardness_threshold" else "iht_folds"
    for name in (other, "seed"):
        with pytest.raises(ValueError, match=rf"unknown option\(s\) \['{name}'\]"):
            SamplerSpec(kind, {name: 3})


@st.composite
def minority_with_repeats(draw):
    """Small minority sets on an integer grid, some rows repeated, so that
    equal distances (zero and otherwise) are common; plus a valid k."""
    n_distinct = draw(st.integers(1, 10))
    n_repeats = draw(st.integers(0 if n_distinct > 1 else 1, 6))
    p = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    distinct = rng.integers(-3, 4, (n_distinct, p)) * draw(st.sampled_from([1.0, 0.1, 7.3]))
    rows = np.vstack([distinct, distinct[rng.integers(0, n_distinct, n_repeats)]])
    minority = rows[rng.permutation(len(rows))]
    return minority, draw(st.integers(1, len(minority) - 1))


@settings(max_examples=150, deadline=None)
@given(minority_with_repeats())
def test_minority_neighbor_table_matches_the_written_out_formula(case):
    minority, k = case
    sq = (minority * minority).sum(axis=1)
    # the expression the neighbour table used before it called squared_distances
    reference = sq[:, None] - 2.0 * (minority @ minority.T) + sq[None, :]
    assert squared_distances(minority, minority, sq).tobytes() == reference.tobytes()
    np.fill_diagonal(reference, np.inf)
    expected = np.argsort(reference, axis=1, kind="stable")[:, :k]
    assert np.array_equal(_minority_neighbor_table(minority, k), expected)
