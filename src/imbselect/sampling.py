"""Training-set rebalancing: two undersamplers, three oversamplers.

Samplers expose ``fit_resample(X, y)`` and only ever see the training
split; the natural test distribution is preserved by construction.
Undersamplers return exact row subsets (a multiset when sampling with
replacement), oversamplers append to the original rows, and all synthetic
minority points lie on segments between minority neighbours. SMOTE and
ADASYN take them from a minority table made by ``neighbors.nearest``, the
exact kernel of kNN scoring, so no neighbour depends on BLAS.

``target_ratio`` is the desired minority/majority count ratio after
resampling; 1.0 means full balance. Each sampler lists its options, their
defaults and their rules in its ``options`` table; the base class builds
the sampler from it and checks every value, so a bad option fails when its
spec is made.
"""

import numpy as np

from .base import BaseEstimator, Spec, derive_rng, derive_seed
from .classifiers.forest import RandomForestClassifier
from .classifiers.neighbors import nearest
from .classifiers.tree import presort, presort_rows, sort_orders
from .dataset import Dataset, freeze, round_half_away, stratified_folds
from .validation import FLAG, SEED, check_X_y, count, real, require_both_classes

_TARGET_RATIO = (1.0, real(0, 1, strict=True))


def _class_indices(y):
    return np.flatnonzero(y == 1), np.flatnonzero(y == 0)


def _undersample_keep_count(n_pos, n_neg, target_ratio):
    keep = round_half_away(n_pos / target_ratio)
    if keep > n_neg:
        raise ValueError(
            f"target_ratio {target_ratio} is below the current class ratio "
            f"{n_pos}/{n_neg}; undersampling cannot reach it"
        )
    return keep


def _oversample_new_count(n_pos, n_neg, target_ratio):
    new = round_half_away(n_neg * target_ratio) - n_pos
    if new < 0:
        raise ValueError(
            f"target_ratio {target_ratio} is below the current class ratio "
            f"{n_pos}/{n_neg}; oversampling cannot reach it"
        )
    return new


def _minority_neighbor_table(minority, k):
    """k nearest minority neighbours per minority row, nearest first, self
    excluded, ties to the lower row index (``neighbors.nearest``)."""
    n = minority.shape[0]
    if k >= n:
        raise ValueError(f"k_neighbors={k} must be below the minority count {n}")
    norms = np.einsum("ij,ij->i", minority, minority)
    return nearest(minority, minority, norms, k, exclude=np.arange(n))


class IdentitySampler(BaseEstimator):
    def fit_resample(self, X, y):
        return X, y


class RandomUnderSampler(BaseEstimator):
    options = {"target_ratio": _TARGET_RATIO, "with_replacement": (False, FLAG), "seed": SEED}

    def fit_resample(self, X, y):
        X, y = check_X_y(X, y)
        require_both_classes(y, "resampling")
        pos_idx, neg_idx = _class_indices(y)
        keep = _undersample_keep_count(len(pos_idx), len(neg_idx), self.target_ratio)
        rng = derive_rng(self.seed, "random_under")
        chosen = rng.choice(neg_idx, size=keep, replace=self.with_replacement)
        kept = np.sort(np.concatenate([pos_idx, chosen]))
        return X[kept], y[kept]


class InstanceHardnessThreshold(BaseEstimator):
    """Keep the majority rows whose true class is easiest to predict.

    Hardness comes from out-of-fold class probabilities of an internal
    forest (50 leaf-averaging trees, depth cap 10) over a stratified CV of
    the training split. Minority rows are always kept. Each call sorts the
    training split once; every fold forest reads its training rows' sort
    orders off that one (``presort_rows``), which are the orders its own
    presort would give, so the kept rows are the same as with a sort per
    fold. The full orders are held across the folds.
    """

    options = {"target_ratio": _TARGET_RATIO, "iht_folds": (5, count(2)), "seed": SEED}

    def _out_of_fold_true_class_probability(self, X, y):
        folds = stratified_folds(y, self.iht_folds, seed=derive_seed(self.seed, "iht_folds"))
        orders = sort_orders(X)
        proba_true = np.empty(X.shape[0])
        for f in range(self.iht_folds):
            held = folds == f
            train = ~held
            model = RandomForestClassifier(
                n_trees=50,
                max_depth=10,
                probability_mode="leaf_mean",
                seed=derive_seed(self.seed, "iht_forest", f),
            )
            # X is checked and every fold's training rows hold both classes
            X_train = X[train]
            model._fit(X_train, y[train], presort(X_train, presort_rows(orders, train)))
            p1 = model._score(X[held])
            proba_true[held] = np.where(y[held] == 1, p1, 1.0 - p1)
        return proba_true

    def fit_resample(self, X, y):
        X, y = check_X_y(X, y)
        require_both_classes(y, "resampling")
        pos_idx, neg_idx = _class_indices(y)
        keep = _undersample_keep_count(len(pos_idx), len(neg_idx), self.target_ratio)
        if keep >= len(neg_idx):
            raise ValueError(
                f"instance hardness threshold needs majority count ({len(neg_idx)}) "
                f"above the retained count ({keep})"
            )
        proba_true = self._out_of_fold_true_class_probability(X, y)
        order = np.argsort(-proba_true[neg_idx], kind="stable")  # ties: lower index
        kept = np.sort(np.concatenate([pos_idx, neg_idx[order[:keep]]]))
        return X[kept], y[kept]


class RandomOverSampler(BaseEstimator):
    options = {"target_ratio": _TARGET_RATIO, "seed": SEED}

    def fit_resample(self, X, y):
        X, y = check_X_y(X, y)
        require_both_classes(y, "resampling")
        pos_idx, neg_idx = _class_indices(y)
        new = _oversample_new_count(len(pos_idx), len(neg_idx), self.target_ratio)
        rng = derive_rng(self.seed, "random_over")
        extra = rng.choice(pos_idx, size=new, replace=True)
        return np.vstack([X, X[extra]]), np.concatenate([y, y[extra]])


def smote_synthesize(minority, k_neighbors, count, rng):
    """``count`` synthetic rows, each on the segment from a random base
    minority point to one of its k neighbours in the minority table."""
    minority = np.asarray(minority, dtype=np.float64)
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if count == 0:
        return np.empty((0, minority.shape[1]))
    neighbors = _minority_neighbor_table(minority, k_neighbors)
    base = rng.integers(0, minority.shape[0], size=count)
    pick = rng.integers(0, k_neighbors, size=count)
    gaps = rng.random(count)
    partners = neighbors[base, pick]
    return minority[base] + gaps[:, None] * (minority[partners] - minority[base])


class Smote(BaseEstimator):
    options = {"target_ratio": _TARGET_RATIO, "k_neighbors": (5, count(1)), "seed": SEED}

    def fit_resample(self, X, y):
        X, y = check_X_y(X, y)
        require_both_classes(y, "resampling")
        pos_idx, neg_idx = _class_indices(y)
        new = _oversample_new_count(len(pos_idx), len(neg_idx), self.target_ratio)
        rng = derive_rng(self.seed, "smote")
        synthetic = smote_synthesize(X[pos_idx], self.k_neighbors, new, rng)
        return (
            np.vstack([X, synthetic]),
            np.concatenate([y, np.ones(len(synthetic), dtype=y.dtype)]),
        )


def adasyn_generation_counts(hardness, total):
    """Per-point synthetic counts proportional to hardness, summing to
    ``total`` exactly (largest-remainder apportionment, ties to the lower
    index). Zero hardness everywhere falls back to uniform weights."""
    hardness = np.asarray(hardness, dtype=np.float64)
    if total == 0:
        return np.zeros(len(hardness), dtype=np.int64)
    if hardness.sum() == 0.0:
        hardness = np.ones_like(hardness)
    weights = hardness / hardness.sum()
    raw = weights * total
    counts = np.floor(raw).astype(np.int64)
    short = total - int(counts.sum())
    if short > 0:
        remainder_order = np.argsort(-(raw - counts), kind="stable")
        counts[remainder_order[:short]] += 1
    return counts


class Adasyn(BaseEstimator):
    """SMOTE-style interpolation with density-adaptive allocation: minority
    points surrounded by majority neighbours receive more synthetics. Its
    partners come from SMOTE's minority table."""

    options = Smote.options

    def _hardness(self, X, y, pos_idx):
        k = self.k_neighbors
        if k >= X.shape[0]:
            raise ValueError(
                f"k_neighbors={k} must be below the training-set size {X.shape[0]}"
            )
        near = nearest(X[pos_idx], X, np.einsum("ij,ij->i", X, X), k, exclude=pos_idx)
        return (k - np.count_nonzero(y[near] == 1, axis=1)) / k

    def fit_resample(self, X, y):
        X, y = check_X_y(X, y)
        require_both_classes(y, "resampling")
        pos_idx, neg_idx = _class_indices(y)
        total = _oversample_new_count(len(pos_idx), len(neg_idx), self.target_ratio)
        counts = adasyn_generation_counts(self._hardness(X, y, pos_idx), total)
        minority = X[pos_idx]
        neighbors = _minority_neighbor_table(minority, self.k_neighbors)
        rng = derive_rng(self.seed, "adasyn")
        pieces = []
        for i in range(len(pos_idx)):
            if counts[i] == 0:
                continue
            pick = rng.integers(0, self.k_neighbors, size=counts[i])
            gaps = rng.random(counts[i])
            partners = neighbors[i, pick]
            pieces.append(
                minority[i] + gaps[:, None] * (minority[partners] - minority[i])
            )
        synthetic = np.vstack(pieces) if pieces else np.empty((0, X.shape[1]))
        return (
            np.vstack([X, synthetic]),
            np.concatenate([y, np.ones(len(synthetic), dtype=y.dtype)]),
        )


SAMPLER_REGISTRY = {
    "none": IdentitySampler,
    "random_under": RandomUnderSampler,
    "instance_hardness_threshold": InstanceHardnessThreshold,
    "random_over": RandomOverSampler,
    "smote": Smote,
    "adasyn": Adasyn,
}
SAMPLER_KINDS = tuple(SAMPLER_REGISTRY)


class SamplerSpec(Spec):
    family = "sampler"
    registry = SAMPLER_REGISTRY

    @property
    def label(self):
        """Leaderboard name, read off the built sampler: its ratio, then
        ``k`` and ``replacement`` where the kind takes them."""
        if self.kind == "none":
            return "none"
        sampler = self.build()
        parts = [f"ratio={sampler.target_ratio:g}"]
        if hasattr(sampler, "k_neighbors"):
            parts.append(f"k={sampler.k_neighbors}")
        if getattr(sampler, "with_replacement", False):
            parts.append("replacement")
        return f"{self.kind}({','.join(parts)})"


def resample(spec, train, seed=0):
    """Dataset-level rebalancing; ``kind='none'`` returns the input as is."""
    if spec.kind == "none":
        return train
    sampler = spec.build(seed)
    X, y = sampler.fit_resample(train.features, train.labels)
    return Dataset(features=freeze(X), labels=freeze(y), feature_names=train.feature_names)
