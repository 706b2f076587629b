"""Bagged forest of Gini trees with per-split feature subsampling.

Each tree's randomness derives only from (seed, tree index), so fitting is
reproducible regardless of scheduling. Each feature is argsorted once per
fit and every tree reads that shared presort; a tree's bootstrap draw
reaches it as per-row counts, not as a copy of the drawn rows (``tree.py``
describes how nodes use both). The default score is the fraction of trees
voting positive; ``probability_mode="leaf_mean"`` averages the per-tree
leaf class fractions instead, which gives a finer-grained ranking signal
(used by the instance-hardness undersampler).
"""

import numpy as np

from ..base import derive_rng, derive_seed
from .base import BinaryClassifier
from .tree import DecisionTreeClassifier, presort


class RandomForestClassifier(BinaryClassifier):
    supports_probability = True

    def __init__(
        self,
        n_trees=100,
        max_depth=None,
        max_features="sqrt",
        bootstrap=True,
        probability_mode="vote",
        seed=0,
    ):
        if n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if probability_mode not in ("vote", "leaf_mean"):
            raise ValueError(f"unknown probability_mode {probability_mode!r}")
        self.n_trees = n_trees
        self.max_depth = max_depth
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.probability_mode = probability_mode
        self.seed = seed

    def _fit(self, X, y, presorted=None):
        """``presorted`` is ``presort(X)`` when the caller holds it already."""
        n = X.shape[0]
        if presorted is None:
            presorted = presort(X)
        counts = np.ones(n, dtype=np.int64)
        self.trees_ = []
        for t in range(self.n_trees):
            if self.bootstrap:
                idx = derive_rng(self.seed, "bootstrap", t).integers(0, n, size=n)
                counts = np.bincount(idx, minlength=n)
            tree = DecisionTreeClassifier(
                max_depth=self.max_depth,
                max_features=self.max_features,
                seed=derive_seed(self.seed, "tree", t),
            )
            tree._grow(X, y, counts, presorted)
            self.trees_.append(tree)

    def _score(self, X):
        if self.probability_mode == "vote":
            votes = np.zeros(X.shape[0])
            for tree in self.trees_:
                votes += tree._score(X) >= 0.5
            return votes / self.n_trees
        total = np.zeros(X.shape[0])
        for tree in self.trees_:
            total += tree._score(X)
        return total / self.n_trees
