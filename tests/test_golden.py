"""Golden bytes: the sha256 of ``leaderboard.csv`` for small fixed grids.

Reruns agreeing with each other (criterion 10) cannot show that a change
to a kernel left the output alone; these pins can. The first grid covers
the ``V<n>`` slice and the PCA path, the samplers ``none``,
instance-hardness threshold and SMOTE, and the tree, forest and k-NN
classifiers. The second covers every sampler kind and every classifier
that takes a seed, with each sampler option set away from its default,
so that a change to how specs become estimators and seeds shows here. The
third covers both AdaBoost flavours at the fixture's default separation,
where oversampled positives pack into long runs of the stump search. A
change that is meant to move the bytes re-pins here and says so in
CHANGES.md.
"""

import hashlib

import pytest

from imbselect.cli import main
from imbselect.fixtures import make_fixture

GOLDEN_SHA256 = {
    "encoded": "8a5fa9ac45dd4267cb77edd39dab61c3e3a09f3010a835fbd97be950971df4c7",
    "pca": "448bdad18471dee18a586477f6516de71afd8b5e1e805196777ed2aa6de370d0",
}
EVERY_SEEDED_KIND_SHA256 = "5c4c350aed6e42b26ffc70528e9a6248368cc317813fd554eea73dca9c910900"
ADABOOST_SHA256 = "7edd9d5e1ca3605999dc6b3be95c8bbc0de01c21f75f85586435c6d1fbdcd5a5"


def _leaderboard_sha256(tmp_path, pre_encoded, grid, sections, separation=1.5):
    data = tmp_path / "golden.csv"
    make_fixture(
        "gaussian-imbalanced", 600, 0.05, seed=5, out_path=data,
        n_features=6, separation=separation,
    )
    config = tmp_path / "golden.ini"
    config.write_text(
        f"""
[dataset]
path = {data}
label_column = Class
positive_label = 1
pre_encoded = {"true" if pre_encoded else "false"}
standardize_columns = Time, Amount

[grid]
{grid}
metric = f1
top_k = 3
test_fraction = 0.25
master_seed = 13

[output]
dir = {tmp_path / 'out'}
formats = csv
workers = 1

{sections}
""",
        encoding="utf-8",
    )
    assert main(["run", "--config", str(config)]) == 0
    board = (tmp_path / "out" / "leaderboard.csv").read_bytes()
    return hashlib.sha256(board).hexdigest()


@pytest.mark.parametrize("path", sorted(GOLDEN_SHA256))
def test_leaderboard_bytes_are_pinned(tmp_path, path):
    digest = _leaderboard_sha256(
        tmp_path,
        pre_encoded=path == "encoded",
        grid="""dims = 2, 5
samplers = none, iht, smote
classifiers = decision_tree, random_forest, knn""",
        sections="""[sampler.instance_hardness_threshold]
target_ratio = 0.2

[classifier.random_forest]
n_trees = 10""",
    )
    assert digest == GOLDEN_SHA256[path]


def test_every_sampler_and_seeded_classifier_is_pinned(tmp_path):
    digest = _leaderboard_sha256(
        tmp_path,
        pre_encoded=True,
        grid="""dims = 4
samplers = none, random_under, iht, random_over, smote, adasyn
classifiers = decision_tree, random_forest, perceptron, sgd_hinge, passive_aggressive
cv_folds = 3""",
        sections="""[sampler.random_under]
target_ratio = 0.5
with_replacement = true

[sampler.instance_hardness_threshold]
target_ratio = 0.2

[sampler.random_over]
target_ratio = 0.5

[sampler.smote]
k_neighbors = 3

[sampler.adasyn]
target_ratio = 0.8
k_neighbors = 4

[classifier.random_forest]
n_trees = 10""",
    )
    assert digest == EVERY_SEEDED_KIND_SHA256


def test_adaboost_is_pinned(tmp_path):
    digest = _leaderboard_sha256(
        tmp_path,
        pre_encoded=True,
        grid="""dims = 2, 6
samplers = none, random_over, smote
classifiers = adaboost_real, adaboost_discrete""",
        sections="",
        separation=2.5,
    )
    assert digest == ADABOOST_SHA256
