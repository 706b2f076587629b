from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbselect import search as search_module
from imbselect.base import derive_seed
from imbselect.classifiers import ClassifierSpec, make_classifier
from imbselect.dataset import Dataset, stratified_split
from imbselect.decomposition import PrincipalComponents, select_encoded
from imbselect.metrics import MetricRecord, metric_record
from imbselect.sampling import SamplerSpec, resample
from imbselect.search import (
    EvaluationRecord,
    GridCell,
    GridConfig,
    _reduce,
    build_ensemble,
    clamp_dims,
    dataset_checksum,
    enumerate_grid,
    evaluate_cell,
    evaluate_ensemble,
    rank,
    run_search,
    vote,
)


def fit_pca(train):
    """The basis run_search fits once on the training split."""
    return PrincipalComponents().fit(train.features)


def fixture_dataset(n_pos=24, n_neg=150, p=5, seed=0, encoded=False):
    rng = np.random.default_rng(seed)
    signal = 2.2 / np.sqrt(np.arange(1, p + 1))
    X = rng.normal(0, 1, (n_pos + n_neg, p))
    X[:n_pos] += signal
    y = np.array([1] * n_pos + [0] * n_neg)
    perm = rng.permutation(len(y))
    names = tuple(f"V{i}" for i in range(1, p + 1)) if encoded else tuple(
        f"f{i}" for i in range(p)
    )
    return Dataset(X[perm], y[perm], names)


def split_fixture(ds, seed=5):
    split = stratified_split(ds.labels, 0.25, seed=seed)
    return ds.subset(split.train_idx), ds.subset(split.test_idx)


def small_config(**overrides):
    defaults = dict(
        dims_list=(2, 5),
        sampler_specs=(SamplerSpec("none"), SamplerSpec("random_under")),
        classifier_specs=(
            ClassifierSpec("dummy"),
            ClassifierSpec("gaussian_nb"),
            ClassifierSpec("ridge"),
        ),
        metric_key="f1",
        top_k=3,
        master_seed=99,
    )
    defaults.update(overrides)
    return GridConfig(**defaults)


def top_records(leaderboard, k):
    """The first k evaluated records of a ranked leaderboard."""
    return [r for r in leaderboard.records if r.ok][:k]


def fake_record(label, f1, time_s=1.0, dims=1, index=0, status="ok"):
    metrics = None
    if status == "ok":
        metrics = MetricRecord(
            accuracy=f1, precision=f1, recall=f1, f1=f1, gmean=f1,
            auroc_curve=f1, auroc_point=f1, cohen_kappa=f1, matthews=f1,
            hamming_loss=1 - f1, train_time_seconds=time_s,
        )
    return EvaluationRecord(
        model_label=label,
        sampler_label="none",
        dims_label=str(dims),
        seed_used=0,
        metrics=metrics,
        status=status,
        error="" if status == "ok" else "boom",
        cell=GridCell(index, dims, SamplerSpec("none"), ClassifierSpec("dummy")),
    )


class TestEnumerate:
    def test_paper_shaped_unbalanced_count(self):
        cfg = small_config(
            dims_list=tuple(range(1, 29)),
            sampler_specs=(SamplerSpec("none"),),
            classifier_specs=tuple(
                ClassifierSpec("dummy") for _ in range(15)
            ),
            top_k=3,
        )
        assert len(enumerate_grid(cfg)) == 420

    def test_paper_shaped_balanced_count(self):
        cfg = small_config(
            dims_list=(28,),
            sampler_specs=tuple(
                SamplerSpec(k)
                for k in (
                    "random_under",
                    "instance_hardness_threshold",
                    "random_over",
                    "smote",
                    "adasyn",
                )
            ),
            classifier_specs=tuple(
                ClassifierSpec("dummy") for _ in range(15)
            ),
        )
        assert len(enumerate_grid(cfg)) == 75

    def test_singleton(self):
        cfg = small_config(
            dims_list=(3,),
            sampler_specs=(SamplerSpec("none"),),
            classifier_specs=(ClassifierSpec("dummy"),),
            top_k=1,
        )
        cells = enumerate_grid(cfg)
        assert len(cells) == 1
        assert cells[0].index == 0

    def test_order_dims_outer_classifier_inner(self):
        cfg = small_config()
        cells = enumerate_grid(cfg)
        assert [c.dims for c in cells[:6]] == [2] * 6
        assert cells[0].classifier.kind == "dummy"
        assert cells[1].classifier.kind == "gaussian_nb"
        assert cells[0].sampler.kind == "none"
        assert cells[3].sampler.kind == "random_under"


class TestGridConfig:
    def test_rejects_bad_metric(self):
        with pytest.raises(ValueError, match="metric_key"):
            small_config(metric_key="f2")

    def test_rejects_top_k_above_grid(self):
        with pytest.raises(ValueError, match="top_k"):
            small_config(top_k=13)

    def test_clamp_dims_warns(self):
        cfg, warnings = clamp_dims(small_config(dims_list=(2, 9)), width=5)
        assert cfg.dims_list == (2, 5)
        assert len(warnings) == 1 and "clamped" in warnings[0]

    def test_clamp_noop(self):
        cfg, warnings = clamp_dims(small_config(), width=5)
        assert warnings == []
        assert cfg.dims_list == (2, 5)

    def test_entries_clamped_to_one_width_run_once(self):
        cfg, warnings = clamp_dims(small_config(dims_list=(9, 2, 7, 5)), width=5)
        assert cfg.dims_list == (5, 2)
        assert sum("clamped" in w for w in warnings) == 2
        assert [w for w in warnings if "dropped" in w] == [
            "dims=7 repeats width 5 already in the grid; dropped",
            "dims=5 repeats width 5 already in the grid; dropped",
        ]


class TestEvaluateCell:
    def test_pipeline_produces_full_record(self):
        train, test = split_fixture(fixture_dataset())
        cfg = small_config()
        cell = enumerate_grid(cfg)[1]  # dims=2, none, gaussian_nb
        record = evaluate_cell(cell, train, test, cfg, fit_pca(train))
        assert record.ok
        assert record.metrics.f1 > 0.2
        assert record.metrics.train_time_seconds > 0
        assert record.model_label == "gaussian_nb"

    def test_dummy_cell_exact_baseline(self):
        train, test = split_fixture(fixture_dataset())
        cfg = small_config()
        record = evaluate_cell(enumerate_grid(cfg)[0], train, test, cfg, fit_pca(train))
        assert record.metrics.recall == 1.0
        assert record.metrics.gmean == 0.0

    def test_failed_cell_is_recorded_not_raised(self):
        train, test = split_fixture(fixture_dataset())
        cfg = small_config(
            sampler_specs=(SamplerSpec("smote", {"k_neighbors": 5000}),),
            classifier_specs=(ClassifierSpec("ridge"),),
            top_k=1,
        )
        record = evaluate_cell(enumerate_grid(cfg)[0], train, test, cfg, fit_pca(train))
        assert not record.ok
        assert "minority count" in record.error

    def test_pre_encoded_slices_instead_of_refitting(self):
        ds = fixture_dataset(encoded=True)
        train, test = split_fixture(ds)
        cfg = small_config(pre_encoded=True)
        cell = enumerate_grid(cfg)[1]
        reduced = _reduce(cell, cfg, None, test)
        assert reduced.feature_names == ("V1", "V2")
        assert np.array_equal(reduced.features[:, 0], test.column("V1"))

    def test_deterministic_records(self):
        train, test = split_fixture(fixture_dataset())
        cfg = small_config()
        cell = enumerate_grid(cfg)[4]
        a = evaluate_cell(cell, train, test, cfg, fit_pca(train))
        b = evaluate_cell(cell, train, test, cfg, fit_pca(train))
        assert a.metrics.f1 == b.metrics.f1
        assert a.seed_used == b.seed_used


class TestRank:
    def test_descending_metric(self):
        records = [fake_record("a", 0.81), fake_record("b", 0.83), fake_record("c", 0.80)]
        board = rank(records, "f1")
        assert [r.model_label for r in board.records] == ["b", "a", "c"]

    def test_default_tie_is_lexicographic(self):
        records = [
            fake_record("z_model", 0.8, time_s=1.0, dims=3),
            fake_record("a_model", 0.8, time_s=9.0, dims=3),
        ]
        board = rank(records, "f1")
        assert [r.model_label for r in board.records] == ["a_model", "z_model"]

    def test_failed_cells_rank_last(self):
        records = [
            fake_record("dead", 0.0, status="failed"),
            fake_record("weak", 0.1),
        ]
        board = rank(records, "f1")
        assert board.records[-1].model_label == "dead"

    def test_unknown_metric_key(self):
        with pytest.raises(KeyError, match="unknown metric key"):
            rank([fake_record("a", 0.5)], "f2")

    def test_total_order_is_stable_under_resort(self):
        rng = np.random.default_rng(0)
        records = [
            fake_record(f"m{i}", float(rng.choice([0.5, 0.7])), dims=int(rng.integers(1, 4)))
            for i in range(20)
        ]
        once = rank(records, "f1").records
        twice = rank(list(reversed(list(once))), "f1").records
        assert [r.model_label for r in once] == [r.model_label for r in twice]


def fixed_member(scores, proba=True):
    """A grid record as the votes see it: canned test scores."""
    return replace(
        fake_record("fixed", 0.5),
        test_scores=np.asarray(scores, dtype=float),
        decision_threshold=0.5 if proba else 0.0,
        supports_probability=proba,
    )


class TestVoting:
    def test_hard_vote_matches_exhaustive_majority_oracle(self):
        for pattern in range(8):
            bits = [(pattern >> i) & 1 for i in range(3)]
            scores, _ = vote([fixed_member([b]) for b in bits], "hard")
            expected = 1 if sum(bits) >= 2 else 0
            assert int(scores[0] >= 0.5) == expected, bits

    def test_hard_vote_rejects_even_membership(self):
        with pytest.raises(ValueError, match="odd"):
            vote([fixed_member([1]), fixed_member([0])], "hard")

    def test_soft_vote_mean_threshold(self):
        members = [fixed_member([0.9]), fixed_member([0.2]), fixed_member([0.2])]
        scores, _ = vote(members, "soft")
        assert scores[0] == pytest.approx(0.4333333333333333)
        assert int(scores[0] >= 0.5) == 0

    def test_soft_vote_normalizes_margin_members(self):
        margin_member = fixed_member([2.0, -1.0, 0.5], proba=False)
        scores, normalized = vote([margin_member], "soft")
        assert scores.tolist() == [1.0, 0.0, 0.5]
        assert normalized == ["fixed"]
        test = Dataset(np.zeros((3, 1)), [1, 0, 1], ("f0",))
        record = evaluate_ensemble([margin_member], "soft", test, seed_used=0)
        assert "soft_vote_margin_minmax" in record.metrics.degenerate_flags

    def test_identical_members_match_single_model(self):
        member_labels = [1, 0, 0, 1]
        scores, _ = vote([fixed_member(member_labels) for _ in range(3)], "hard")
        assert (scores >= 0.5).astype(int).tolist() == member_labels

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown vote mode"):
            vote([fixed_member([1])], "fuzzy")


class TestRunSearch:
    def test_end_to_end_small_grid(self):
        train, test = split_fixture(fixture_dataset())
        result = run_search(train, test, small_config())
        assert result.failed_cells == 0
        assert len(result.cell_records) == 12
        assert len(result.ensemble_records) == 2
        labels = [r.model_label for r in result.ensemble_records]
        assert labels == ["vote_hard", "vote_soft"]
        assert result.ensemble_comparison
        board_labels = {r.model_label for r in result.leaderboard.records}
        assert {"vote_hard", "vote_soft"} <= board_labels

    def test_clamped_repeats_give_distinct_cells_and_votes(self):
        train, test = split_fixture(fixture_dataset())
        result = run_search(train, test, small_config(dims_list=(2, 40, 50)))
        assert result.grid.dims_list == (2, 5)
        assert result.grid.grid_size == len(result.cell_records) == 12
        keys = [
            (r.cell.dims, r.sampler_label, r.model_label) for r in result.leaderboard.records
            if r.cell is not None
        ]
        assert len(keys) == len(set(keys)) == 12
        top = top_records(result.leaderboard, 3)
        assert len({(r.cell.dims, r.sampler_label, r.model_label) for r in top}) == 3

    def test_worker_counts_agree(self):
        train, test = split_fixture(fixture_dataset())
        cfg = small_config()
        serial = run_search(train, test, cfg, workers=1)
        parallel = run_search(train, test, cfg, workers=4)
        for a, b in zip(serial.leaderboard.records, parallel.leaderboard.records):
            assert a.model_label == b.model_label
            assert a.sampler_label == b.sampler_label
            assert a.dims_label == b.dims_label
            if a.ok:
                for key in ("f1", "gmean", "auroc_curve", "matthews"):
                    assert a.metrics.value(key) == b.metrics.value(key)

    def test_test_split_untouched(self):
        train, test = split_fixture(fixture_dataset())
        before = dataset_checksum(test)
        result = run_search(train, test, small_config())
        assert dataset_checksum(test) == before == result.test_checksum

    def test_record_self_consistency(self):
        train, test = split_fixture(fixture_dataset())
        result = run_search(train, test, small_config())
        for record in result.cell_records:
            m = record.metrics
            assert m.hamming_loss == pytest.approx(1 - m.accuracy, abs=1e-15)
            assert m.gmean**2 == pytest.approx(m.recall * (2 * m.auroc_point - m.recall), abs=1e-9)

    def test_ensemble_of_dummies_equals_dummy(self):
        train, test = split_fixture(fixture_dataset())
        cfg = small_config(
            dims_list=(2,),
            sampler_specs=(SamplerSpec("none"),),
            classifier_specs=(
                ClassifierSpec("dummy"),
                ClassifierSpec("dummy"),
                ClassifierSpec("dummy"),
            ),
        )
        result = run_search(train, test, cfg)
        dummy_f1 = result.cell_records[0].metrics.f1
        for record in result.ensemble_records:
            assert record.ok
            assert record.metrics.f1 == pytest.approx(dummy_f1, abs=1e-12)

    def test_clamped_dims_reported(self):
        train, test = split_fixture(fixture_dataset())
        result = run_search(train, test, small_config(dims_list=(2, 64)))
        assert len(result.clamp_warnings) == 1


def test_build_ensemble_members_use_own_pipelines():
    train, test = split_fixture(fixture_dataset())
    cfg = small_config(
        dims_list=(2, 4),
        sampler_specs=(SamplerSpec("none"),),
        classifier_specs=(ClassifierSpec("gaussian_nb"), ClassifierSpec("ridge")),
        top_k=3,
    )
    pca = fit_pca(train)
    records = [evaluate_cell(cell, train, test, cfg, pca) for cell in enumerate_grid(cfg)]
    members = []
    for record in records:
        members = build_ensemble(members, record, cfg)
    top = top_records(rank(records, cfg.metric_key), 3)
    assert [member.cell for member in members] == [record.cell for record in top]
    assert {member.cell.dims for member in members} <= {2, 4}
    record = evaluate_ensemble(members, "hard", test, seed_used=0)
    assert record.ok


def record_builds(monkeypatch):
    """Log every classifier the search builds."""
    built = []
    real = search_module.make_classifier

    def logged(spec, seed=0):
        built.append(spec)
        return real(spec, seed=seed)

    monkeypatch.setattr(search_module, "make_classifier", logged)
    return built


def test_ensemble_members_are_fit_once_for_both_votes(monkeypatch):
    train, test = split_fixture(fixture_dataset())
    cfg = small_config(top_k=2)
    built = record_builds(monkeypatch)
    result = run_search(train, test, cfg)
    assert len(built) == cfg.grid_size
    hard, soft = result.ensemble_records
    assert hard.error == "ValueError: hard voting requires an odd member count"
    assert soft.ok


# ---------------------------------------------------------------------------
# votes from the grid's scores against the refit path they replaced
# ---------------------------------------------------------------------------

def reference_votes(train, test, cfg, top_records):
    """Vote metrics as computed before the grid kept its scores.

    Each top cell's pipeline is refitted from its seed and scored on the
    test split again: ``predict`` for the hard vote, ``predict_score`` for
    the soft one. Returns {mode: MetricRecord}, without hard for an even
    member count.
    """
    pca = None if cfg.pre_encoded else PrincipalComponents().fit(train.features)

    def reduce(cell, dataset):
        if cfg.pre_encoded:
            return select_encoded(
                dataset, cell.dims, prefix=cfg.encoded_prefix, keep=cfg.keep_raw_columns
            )
        names = tuple(f"PC{i}" for i in range(1, cell.dims + 1))
        return dataset.with_features(
            pca.transform(dataset.features, n_components=cell.dims), names
        )

    members = []
    for record in top_records:
        seed = derive_seed(cfg.master_seed, "cell", record.cell.index)
        balanced = resample(record.cell.sampler, reduce(record.cell, train), seed=seed)
        model = make_classifier(record.cell.classifier, seed=seed).fit(
            balanced.features, balanced.labels
        )
        members.append((model, reduce(record.cell, test).features))

    votes = {}
    if len(members) % 2 == 1:
        total = np.zeros(test.n_rows)
        for model, X in members:
            total += model.predict(X)
        votes["hard"] = (total / len(members), set())
    total, flags = np.zeros(test.n_rows), set()
    for model, X in members:
        scores = model.predict_score(X)
        if not model.supports_probability:
            low, high = scores.min(), scores.max()
            scores = np.full_like(scores, 0.5) if high == low else (scores - low) / (high - low)
            flags = {"soft_vote_margin_minmax"}
        total += scores
    votes["soft"] = (total / len(members), flags)
    return {
        mode: metric_record(
            test.labels, (scores >= 0.5).astype(np.int64), scores, extra_flags=flags
        )
        for mode, (scores, flags) in votes.items()
    }


VOTE_GRIDS = {
    "encoded": dict(
        pre_encoded=True,
        classifier_specs=(
            ClassifierSpec("ridge"),
            ClassifierSpec("gaussian_nb"),
            ClassifierSpec("perceptron"),
        ),
    ),
    "pca": dict(
        classifier_specs=(
            ClassifierSpec("ridge"),
            ClassifierSpec("gaussian_nb"),
            ClassifierSpec("logistic_regression"),
        ),
    ),
    # every cell ties on every metric, and an even top_k fails the hard vote
    "tied": dict(classifier_specs=(ClassifierSpec("dummy"),) * 3, top_k=2),
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("grid", sorted(VOTE_GRIDS))
def test_votes_equal_refit_reference(grid, workers):
    # at data seed 6 the top 3 hold a margin member, and no vote scores 1.0
    train, test = split_fixture(fixture_dataset(seed=6, encoded=grid == "encoded"))
    cfg = small_config(**VOTE_GRIDS[grid])
    result = run_search(train, test, cfg, workers=workers)
    top = top_records(rank(result.cell_records, cfg.metric_key), cfg.top_k)
    expected = reference_votes(train, test, cfg, top)
    for row in result.ensemble_records:
        mode = row.model_label.removeprefix("vote_")
        if mode not in expected:
            assert row.error == "ValueError: hard voting requires an odd member count"
            continue
        assert row.ok, row.error
        assert replace(row.metrics, train_time_seconds=0.0) == expected[mode]
        assert row.metrics.train_time_seconds == sum(r.metrics.train_time_seconds for r in top)
        assert row.dims_label == ",".join(str(d) for d in sorted({r.cell.dims for r in top}))


# ---------------------------------------------------------------------------
# only the running top k keeps a score vector
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [1, 2])
def test_only_the_vote_members_keep_scores(monkeypatch, workers):
    train, test = split_fixture(fixture_dataset())
    # twelve cells tie on every metric; each dims and sampler has three equal rank keys
    cfg = small_config(classifier_specs=(ClassifierSpec("dummy"),) * 3)
    voted = []
    real = search_module.evaluate_ensemble

    def spy(members, mode, test, seed_used):
        voted.append(list(members))
        return real(members, mode, test, seed_used)

    monkeypatch.setattr(search_module, "evaluate_ensemble", spy)
    result = run_search(train, test, cfg, workers=workers)
    assert cfg.grid_size == 12 and len(voted) == 2
    for record in list(result.cell_records) + list(result.leaderboard.records):
        assert record.test_scores is None
    top = top_records(result.leaderboard, cfg.top_k)
    assert [r.cell.index for r in top] == [0, 1, 2]
    for members in voted:
        assert [m.cell for m in members] == [r.cell for r in top]
        assert all(len(m.test_scores) == test.n_rows for m in members)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from([0.2, 0.5, 0.9]),
            st.integers(1, 3),
            st.sampled_from(["a", "b"]),
            st.booleans(),
        ),
        min_size=1,
        max_size=14,
    ),
    k=st.integers(1, 5),
)
def test_running_top_k_equals_rank_top(rows, k):
    records = [
        fake_record(label, f1, dims=dims, index=i, status="ok" if ok else "failed")
        for i, (f1, dims, label, ok) in enumerate(rows)
    ]
    cfg = small_config(top_k=k)
    top = []
    for record in records:
        top = build_ensemble(top, record, cfg)
    assert [id(r) for r in top] == [id(r) for r in top_records(rank(records, "f1"), k)]
