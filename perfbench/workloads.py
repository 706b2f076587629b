"""The three benchmark grids and the INI configs that run them.

Every workload searches a ``gaussian-imbalanced`` fixture shaped like the
public credit-card file (``Time``, ``V1..V28``, ``Amount``, ``Class``,
0.2% positives) with ``test_fraction=0.2``, ``top_k=3`` and metric
``f1``. Each grid puts its weight on a different layer; README.md in this
directory records why each was chosen and which layer metrics should move.
"""

from dataclasses import dataclass, field

POSITIVE_FRACTION = 0.002
# Far enough apart that nearly every cell reaches f1 = 1, so the top 3
# falls to the fixed (dims, sampler, classifier) tie order. At lower
# separations the top 3, and with it the cost of the serial ensemble
# refits, changes from seed to seed (README.md gives the figures).
SEPARATION = 8.0
ENCODED_FEATURES = 28
DEFAULT_SEED = 0
# The pool hands out cells in grid order (dims, then sampler, then
# classifier, as listed). Each grid lists its costliest dims and classifiers
# first, so that no heavy cell starts last and leaves one worker idle while
# the other finishes it: the longest-first order keeps search_s from
# swinging with the order in which two workers happen to take cells.


@dataclass(frozen=True)
class Workload:
    name: str
    rows: int
    dims: tuple
    samplers: tuple
    classifiers: tuple
    pre_encoded: bool
    sections: dict = field(default_factory=dict)

    @property
    def cells(self):
        return len(self.dims) * len(self.samplers) * len(self.classifiers)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cc-samplers",
            rows=4000,
            dims=(4, 16),
            samplers=("none", "random_under", "iht", "random_over", "smote", "adasyn"),
            classifiers=(
                "dummy",
                "gaussian_nb",
                "decision_tree",
                "ridge",
                "adaboost_discrete",
                "quadratic_da",
            ),
            pre_encoded=True,
            sections={"sampler.instance_hardness_threshold": {"target_ratio": 0.2}},
        ),
        Workload(
            name="cc-models",
            rows=6000,
            dims=(28, 8),
            samplers=("none",),
            classifiers=(
                "sgd_hinge",
                "passive_aggressive",
                "adaboost_real",
                "knn",
                "random_forest",
                "logistic_regression",
                "perceptron",
            ),
            pre_encoded=True,
            sections={"classifier.random_forest": {"n_trees": 40}},
        ),
        Workload(
            name="pca-oversample",
            rows=4000,
            dims=(12, 4),
            samplers=("random_over", "smote", "adasyn"),
            classifiers=(
                "knn",
                "random_forest",
                "logistic_regression",
                "gaussian_nb",
                "decision_tree",
            ),
            pre_encoded=False,
            sections={"classifier.random_forest": {"n_trees": 20}},
        ),
    )
}

# sha256 of leaderboard.csv for each workload at DEFAULT_SEED. A change that
# must move these bytes says so and re-pins them here.
PINNED_DIGESTS = {
    "cc-samplers": "952e6e4602ada81e2c1a0c6fa6e7bf7d3da159c3c97984e109bbda24c2a3dfcc",
    "cc-models": "6055cfd7ce4d6dae78af2423f1ef2adbf0ec9f8b3743566a2a6c9b63845b1194",
    "pca-oversample": "11591e8a40e8fc549b7c65c01239049e13c2e55f19c77dfa8797707adb911a3c",
}


def config_text(workload, csv_path, out_dir, seed, workers):
    """INI text for ``imbselect run`` on one workload."""
    if workload.pre_encoded:
        dataset = [
            "pre_encoded = true",
            "standardize_columns = Time, Amount",
            "keep_raw_columns = Time, Amount",
        ]
    else:
        dataset = ["pre_encoded = false", "standardize_all = true"]
    lines = [
        "[dataset]",
        f"path = {csv_path}",
        "label_column = Class",
        "positive_label = 1",
        *dataset,
        "",
        "[grid]",
        "dims = " + ", ".join(str(d) for d in workload.dims),
        "samplers = " + ", ".join(workload.samplers),
        "classifiers = " + ", ".join(workload.classifiers),
        "metric = f1",
        "top_k = 3",
        "test_fraction = 0.2",
        f"master_seed = {seed}",
        "",
        "[output]",
        f"dir = {out_dir}",
        "formats = csv, json",
        f"workers = {workers}",
    ]
    for section, params in workload.sections.items():
        lines += ["", f"[{section}]"] + [f"{k} = {v}" for k, v in params.items()]
    return "\n".join(lines) + "\n"
