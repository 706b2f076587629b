"""Classifier roster behind a declarative spec.

``ClassifierSpec`` names a kind plus hyperparameter overrides, checked
against the kind's ``options`` table; the registry turns it into a fresh
estimator.
"""

from ..base import Spec
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


class ClassifierSpec(Spec):
    family = "classifier"
    registry = CLASSIFIER_REGISTRY

    @property
    def label(self):
        if not self.params:
            return self.kind
        inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
        return f"{self.kind}({inner})"


def make_classifier(spec, seed=0):
    """Fresh unfitted estimator for a ClassifierSpec, with a derived seed.

    ``search`` calls this by module name, so a tracer can rebind it.
    """
    return spec.build(seed)
