"""Classifier roster behind a declarative spec.

``ClassifierSpec`` names a kind plus hyperparameter overrides; the
registry turns it into a fresh estimator. New kinds (heavier models, a
plugged-in library wrapper) register themselves without touching the
search machinery.
"""

from dataclasses import dataclass, field

from ..base import build_estimator
from .base import BinaryClassifier
from .boosting import DiscreteAdaBoost, RealAdaBoost
from .dummy import ConstantPositive
from .forest import RandomForestClassifier
from .gaussian import GaussianNaiveBayes, QuadraticDiscriminant
from .linear import (
    HingeSGD,
    LogisticRegression,
    PassiveAggressive,
    Perceptron,
    RidgeClassifier,
)
from .neighbors import KNeighborsClassifier
from .tree import DecisionTreeClassifier

CLASSIFIER_REGISTRY = {
    "dummy": ConstantPositive,
    "logistic_regression": LogisticRegression,
    "gaussian_nb": GaussianNaiveBayes,
    "decision_tree": DecisionTreeClassifier,
    "random_forest": RandomForestClassifier,
    "knn": KNeighborsClassifier,
    "perceptron": Perceptron,
    "ridge": RidgeClassifier,
    "sgd_hinge": HingeSGD,
    "passive_aggressive": PassiveAggressive,
    "adaboost_discrete": DiscreteAdaBoost,
    "adaboost_real": RealAdaBoost,
    "quadratic_da": QuadraticDiscriminant,
}


def register_classifier(kind, cls):
    """Plug in an additional classifier kind; a constructor that takes
    ``seed`` gets a derived one, as the built-in kinds do."""
    if not issubclass(cls, BinaryClassifier):
        raise TypeError(f"{cls!r} must subclass BinaryClassifier")
    CLASSIFIER_REGISTRY[kind] = cls


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in CLASSIFIER_REGISTRY:
            raise ValueError(
                f"unknown classifier kind {self.kind!r}; "
                f"known kinds: {sorted(CLASSIFIER_REGISTRY)}"
            )
        known = CLASSIFIER_REGISTRY[self.kind]._param_names()
        unknown = sorted(set(self.params) - set(known))
        if unknown:
            raise ValueError(f"unknown option(s) {unknown}; known: {known}")

    @property
    def label(self):
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.kind}({inner})"


def make_classifier(spec, seed=0):
    """Fresh unfitted estimator for a ClassifierSpec, with a derived seed."""
    return build_estimator(CLASSIFIER_REGISTRY[spec.kind], spec.kind, spec.params, seed)
