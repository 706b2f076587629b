"""Desk-scale runs of the same pipelines the dataset-gated acceptance
criteria use, so those paths stay provably runnable offline."""

import numpy as np
import pytest

from imbselect import (
    ClassifierSpec,
    ColumnStandardizer,
    GridConfig,
    SamplerSpec,
    load_csv,
    metric_record,
    run_search,
    stratified_split,
)
from imbselect.classifiers.forest import RandomForestClassifier
from imbselect.fixtures import make_fixture


@pytest.fixture(scope="module")
def fraudlike_split(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "fraudlike.csv"
    make_fixture(
        "gaussian-imbalanced", 6000, 0.015, seed=9, out_path=path,
        n_features=10, separation=1.8,
    )
    ds = load_csv(path, label_column="Class", positive_label=1)
    split = stratified_split(ds.labels, 0.2, seed=7)
    train, test = ds.subset(split.train_idx), ds.subset(split.test_idx)
    scaler = ColumnStandardizer(columns=["Time", "Amount"]).fit(train)
    return scaler.transform(train), scaler.transform(test)


def test_direct_forest_evaluation_path(fraudlike_split):
    train, test = fraudlike_split
    model = RandomForestClassifier(n_trees=30, seed=1).fit(
        train.features, train.labels
    )
    record = metric_record(
        test.labels, model.predict(test.features), model.predict_score(test.features)
    )
    assert 0.0 <= record.f1 <= 1.0
    assert record.auroc_curve > 0.8  # separable by construction


def test_balancing_grid_path(fraudlike_split):
    train, test = fraudlike_split
    cfg = GridConfig(
        dims_list=(10,),
        sampler_specs=(
            SamplerSpec("none"),
            SamplerSpec("random_under", {"target_ratio": 1.0}),
            SamplerSpec("instance_hardness_threshold", {"target_ratio": 0.05}),
        ),
        classifier_specs=(ClassifierSpec("random_forest", {"n_trees": 30}),),
        metric_key="f1",
        top_k=1,
        master_seed=7,
        pre_encoded=True,
        keep_raw_columns=("Time", "Amount"),
    )
    result = run_search(train, test, cfg)
    assert result.failed_cells == 0
    by_sampler = {
        r.sampler_label.split("(")[0]: r.metrics.f1 for r in result.cell_records
    }
    assert set(by_sampler) == {"none", "random_under", "instance_hardness_threshold"}
    # mild hardness-based undersampling keeps far more signal than full
    # random balance on this overlap structure
    assert by_sampler["instance_hardness_threshold"] > by_sampler["random_under"]


def test_dims_sweep_path(fraudlike_split):
    train, test = fraudlike_split
    cfg = GridConfig(
        dims_list=(2, 4, 6, 8, 10),
        sampler_specs=(SamplerSpec("none"),),
        classifier_specs=(ClassifierSpec("random_forest", {"n_trees": 25}),),
        metric_key="f1",
        top_k=1,
        master_seed=7,
        pre_encoded=True,
        keep_raw_columns=("Time", "Amount"),
    )
    result = run_search(train, test, cfg)
    assert result.failed_cells == 0
    curve = {r.cell.dims: r.metrics.f1 for r in result.cell_records}
    assert sorted(curve) == [2, 4, 6, 8, 10]
    # the fixture concentrates signal in leading components by construction
    assert max(v for d, v in curve.items() if d <= 6) >= max(curve.values()) - 0.1
