"""Shared train/predict/score contract for every classifier.

Subclasses implement ``_fit`` and ``_score``. Scores are one number per
row, higher meaning more positive: probability-style classifiers emit
values in [0, 1] thresholded at 0.5, margin-style ones emit signed margins
thresholded at 0. ``predict`` is always the thresholded score, so the two
surfaces can never disagree.
"""

import numpy as np

from ..base import BaseEstimator
from ..validation import check_array, check_feature_width, check_X_y, require_both_classes


class BinaryClassifier(BaseEstimator):
    supports_probability = False
    requires_both_classes = True

    @property
    def decision_threshold(self):
        return 0.5 if self.supports_probability else 0.0

    def fit(self, X, y):
        X, y = check_X_y(X, y)
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        if self.requires_both_classes:
            require_both_classes(y)
        self.fit_flags_ = set()
        self._fit(X, y)
        self.n_features_in_ = X.shape[1]
        return self

    def _check_fitted_input(self, X):
        if not hasattr(self, "n_features_in_"):
            raise RuntimeError(f"{type(self).__name__} is not fitted")
        X = check_array(X)
        check_feature_width(X, self.n_features_in_)
        return X

    def predict_score(self, X):
        return self._score(self._check_fitted_input(X))

    def predict(self, X):
        scores = self.predict_score(X)
        return (scores >= self.decision_threshold).astype(np.int64)

    def _fit(self, X, y):
        raise NotImplementedError

    def _score(self, X):
        raise NotImplementedError
