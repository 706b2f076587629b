"""Gaussian generative models: naive Bayes and quadratic discriminant."""

import numpy as np

from ..validation import real
from .base import BinaryClassifier


def _posterior_from_log_scores(log0, log1):
    # P(1 | x) computed stably from the two unnormalized log posteriors
    diff = np.clip(log0 - log1, -700.0, 700.0)
    return 1.0 / (1.0 + np.exp(diff))


class GaussianNaiveBayes(BinaryClassifier):
    """Independent per-feature Gaussians per class, floored variances."""

    supports_probability = True

    options = {"var_floor_ratio": (1e-9, real(0, strict=True))}

    def _fit(self, X, y):
        floor = self.var_floor_ratio * float(X.var(axis=0).max())
        if floor <= 0.0:
            floor = self.var_floor_ratio
        self.theta_ = np.empty((2, X.shape[1]))
        self.var_ = np.empty((2, X.shape[1]))
        self.log_prior_ = np.empty(2)
        for c in (0, 1):
            rows = X[y == c]
            self.theta_[c] = rows.mean(axis=0)
            self.var_[c] = np.maximum(rows.var(axis=0), floor)
            self.log_prior_[c] = np.log(rows.shape[0] / X.shape[0])

    def _log_joint(self, X, c):
        diff = X - self.theta_[c]
        return self.log_prior_[c] - 0.5 * np.sum(
            np.log(2.0 * np.pi * self.var_[c]) + diff * diff / self.var_[c], axis=1
        )

    def _score(self, X):
        return _posterior_from_log_scores(self._log_joint(X, 0), self._log_joint(X, 1))


class QuadraticDiscriminant(BinaryClassifier):
    """Full per-class covariance with trace-scaled ridge regularization.

    A class covariance that stays singular after the base regularizer gets
    escalating jitter and the fit is flagged.
    """

    supports_probability = True

    options = {"reg_ratio": (1e-6, real(0))}

    def _fit(self, X, y):
        p = X.shape[1]
        self.means_ = []
        self._chols = []
        self._log_dets = []
        self.log_prior_ = np.empty(2)
        for c in (0, 1):
            rows = X[y == c]
            mean = rows.mean(axis=0)
            centered = rows - mean
            cov = centered.T @ centered / rows.shape[0]
            base = np.trace(cov) / p
            if base <= 0.0:
                base = 1.0
                self.fit_flags_.add("qda_covariance_jitter")
            jitter = self.reg_ratio * base
            for attempt in range(12):
                try:
                    chol = np.linalg.cholesky(cov + jitter * np.eye(p))
                    break
                except np.linalg.LinAlgError:
                    self.fit_flags_.add("qda_covariance_jitter")
                    jitter *= 10.0
            else:
                raise np.linalg.LinAlgError(
                    f"class {c} covariance not positive definite"
                )
            self.means_.append(mean)
            self._chols.append(chol)
            self._log_dets.append(2.0 * float(np.log(np.diag(chol)).sum()))
            self.log_prior_[c] = np.log(rows.shape[0] / X.shape[0])

    def _log_joint(self, X, c):
        diff = X - self.means_[c]
        solved = np.linalg.solve(self._chols[c], diff.T)
        mahalanobis = np.sum(solved * solved, axis=0)
        return self.log_prior_[c] - 0.5 * (self._log_dets[c] + mahalanobis)

    def _score(self, X):
        return _posterior_from_log_scores(self._log_joint(X, 0), self._log_joint(X, 1))
