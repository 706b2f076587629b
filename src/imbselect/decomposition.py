"""Principal-component basis from numpy's symmetric eigensolver (LAPACK).

The full basis is learned once on the training split; the dimensionality
sweep then projects onto the leading components without refitting. For
datasets that ship already encoded (columns V1, V2, ...) there is a
passthrough selector instead of a refit.
"""

import numpy as np

from .dataset import freeze
from .validation import check_array, check_feature_width


class PrincipalComponents:
    """Full PCA basis with orthonormal rows ordered by explained variance.

    ``components_[k]`` is the (k+1)-th principal direction; its
    largest-magnitude entry is made positive so the basis is canonical.
    Covariance uses the population convention (divide by n). Rank-deficient
    input is fine: trailing explained variances are zero.
    """

    def fit(self, X):
        X = check_array(X)
        n, p = X.shape
        if n < 2:
            raise ValueError(f"need at least 2 rows to fit, got {n}")
        self.mean_ = X.mean(axis=0)
        centered = X - self.mean_
        cov = (centered.T @ centered) / n
        eigenvalues, eigenvectors = np.linalg.eigh(cov)
        order = np.argsort(-eigenvalues, kind="stable")
        eigenvalues = np.maximum(eigenvalues[order], 0.0)
        components = eigenvectors[:, order].T
        for k in range(p):
            pivot = int(np.argmax(np.abs(components[k])))
            if components[k, pivot] < 0:
                components[k] = -components[k]
        self.components_ = components
        self.explained_variance_ = eigenvalues
        self.n_features_ = p
        return self

    def _require_fitted(self):
        if not hasattr(self, "components_"):
            raise RuntimeError("PrincipalComponents is not fitted")

    def _check_dims(self, n_components):
        if n_components is None:
            return self.n_features_
        if not 1 <= n_components <= self.n_features_:
            raise ValueError(
                f"n_components={n_components} out of range 1..{self.n_features_}"
            )
        return int(n_components)

    def transform(self, X, n_components=None):
        self._require_fitted()
        X = check_array(X)
        check_feature_width(X, self.n_features_)
        dims = self._check_dims(n_components)
        return (X - self.mean_) @ self.components_[:dims].T

    def inverse_transform(self, Z):
        self._require_fitted()
        Z = check_array(Z, "Z")
        dims = Z.shape[1]
        self._check_dims(dims)
        return Z @ self.components_[:dims] + self.mean_


def encoded_column_names(feature_names, prefix="V"):
    """Columns named like V1..V28, ordered by their numeric suffix."""
    pairs = []
    for name in feature_names:
        suffix = name[len(prefix):]
        if name.startswith(prefix) and suffix.isdigit():
            pairs.append((int(suffix), name))
    pairs.sort()
    return [name for _, name in pairs]


def select_encoded(dataset, dims, prefix="V", keep=()):
    """Keep the first ``dims`` encoded columns of a pre-encoded dataset.

    ``keep`` names extra (raw) columns appended after the encoded block.
    """
    encoded = encoded_column_names(dataset.feature_names, prefix)
    if not encoded:
        raise ValueError(
            f"dataset has no encoded columns with prefix {prefix!r}: "
            f"{dataset.feature_names}"
        )
    if not 1 <= dims <= len(encoded):
        raise ValueError(
            f"dims={dims} out of range: dataset has {len(encoded)} encoded columns"
        )
    names = list(encoded[:dims])
    for name in keep:
        if name not in dataset.feature_names:
            raise KeyError(f"unknown feature column {name!r}")
        if name not in names:
            names.append(name)
    indices = [dataset.feature_names.index(n) for n in names]
    # take, unlike [:, indices], gives the C-ordered array a Dataset keeps
    return dataset.with_features(freeze(dataset.features.take(indices, axis=1)), names)
