"""Data-driven classifier selection for massively imbalanced binary data.

The pipeline has three intervention points: dimensionality reduction,
training-set rebalancing, and the classifier itself. The search module
scores every combination on a held-out stratified test split and reports
the best cells plus optional voting ensembles.
"""

__version__ = "0.1.0"

from .classifiers import CLASSIFIER_REGISTRY, ClassifierSpec, make_classifier
from .dataset import (
    ColumnStandardizer,
    Dataset,
    DatasetError,
    SplitIndices,
    load_csv,
    stratified_folds,
    stratified_split,
)
from .decomposition import PrincipalComponents, select_encoded
from .fixtures import make_fixture
from .metrics import (
    METRIC_KEYS,
    ConfusionMatrix,
    MetricRecord,
    auroc_curve,
    auroc_point,
    cohen_kappa,
    confusion,
    f1,
    gmean,
    matthews,
    metric_record,
)
from .sampling import SAMPLER_KINDS, SamplerSpec, make_sampler, resample
from .search import (
    EvaluationRecord,
    GridConfig,
    Leaderboard,
    VotingEnsemble,
    build_ensemble,
    enumerate_grid,
    evaluate_cell,
    evaluate_ensemble,
    rank,
    run_search,
)

__all__ = [
    "__version__",
    "CLASSIFIER_REGISTRY",
    "ClassifierSpec",
    "ColumnStandardizer",
    "ConfusionMatrix",
    "Dataset",
    "DatasetError",
    "EvaluationRecord",
    "GridConfig",
    "Leaderboard",
    "METRIC_KEYS",
    "MetricRecord",
    "PrincipalComponents",
    "SAMPLER_KINDS",
    "SamplerSpec",
    "SplitIndices",
    "VotingEnsemble",
    "auroc_curve",
    "auroc_point",
    "build_ensemble",
    "cohen_kappa",
    "confusion",
    "enumerate_grid",
    "evaluate_cell",
    "evaluate_ensemble",
    "f1",
    "gmean",
    "load_csv",
    "make_classifier",
    "make_fixture",
    "make_sampler",
    "matthews",
    "metric_record",
    "rank",
    "resample",
    "run_search",
    "select_encoded",
    "stratified_folds",
    "stratified_split",
]
