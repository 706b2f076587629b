"""CART decision tree grown to purity unless capped.

Splits minimize the weighted child Gini impurity over midpoint thresholds.
Ties break to the lowest feature index, then the lowest threshold, so the
tree is a pure function of the training set. Building is iterative (an
explicit stack), which keeps deep trees off the Python recursion limit.

A tree grows from per-row counts over a shared matrix: a forest passes its
bootstrap draw as counts (how often each row was drawn) instead of copying
the drawn rows, and a plain fit uses all-one counts. Each feature is
stable-argsorted once per fit (``presort``), and a forest shares those
orders across its trees. A node that holds at least 1/``_PRESORT_SHARE``
of the fit's draws finds each sampled feature's sorted rows by filtering
the shared order by node membership, which costs O(rows of the fit) per
feature. A smaller node expands its rows by their counts and argsorts
per node, as do its descendants: there an O(node) sort is cheaper than an
O(fit) filter, and filtering at every node made a 7.7k-node tree on
20,000 rows about 1.6x slower to fit. Both paths give the same tree bit
for bit: ties among equal values never change a cut position, a count, a
threshold or the order of random draws.
"""

import numpy as np

from ..base import derive_rng
from .base import BinaryClassifier

_LEAF = -1
# Nodes holding at least 1/_PRESORT_SHARE of the fit's draws filter the
# shared presort; smaller ones argsort their own rows.
_PRESORT_SHARE = 16


def presort(X):
    """(orders, values), both (features, rows): row ``orders[f]`` sorts
    column f with equal values kept in row order; ``values[f]`` is the
    column in that order."""
    orders = np.argsort(X.T, axis=1, kind="stable")
    return orders, np.take_along_axis(X.T, orders, axis=1)


def _gini_cuts(xs, cum_pos, n, n_pos, cum_n=None):
    """(weighted child Gini, position) at every value boundary of sorted xs.

    ``cum_pos``/``cum_n`` are running positive and row counts along xs;
    ``cum_n=None`` means one row per entry.
    """
    cut = np.flatnonzero(xs[1:] > xs[:-1])
    n_left = cut + 1.0 if cum_n is None else cum_n[cut]
    pos_left = cum_pos[cut]
    n_right = n - n_left
    pos_right = n_pos - pos_left
    gini_left = 1.0 - (pos_left / n_left) ** 2 - ((n_left - pos_left) / n_left) ** 2
    gini_right = 1.0 - (pos_right / n_right) ** 2 - ((n_right - pos_right) / n_right) ** 2
    return (n_left * gini_left + n_right * gini_right) / n, cut


def midpoint(xs, c):
    """Threshold between sorted xs[c] and the larger xs[c + 1]."""
    lo, hi = xs[c], xs[c + 1]
    threshold = (lo + hi) / 2.0
    return lo if threshold >= hi else threshold  # adjacent floats: keep it strict


def _best_split(X, y, rows, feature_ids):
    """(weighted_gini, feature, threshold, left_rows, right_rows) or None.

    ``rows`` lists every draw of the node, repeats included.
    """
    n = rows.size
    y_rows = y[rows]
    n_pos = int(y_rows.sum())
    best = None
    best_score = np.inf
    for f in feature_ids:
        x = X[rows, f]
        order = np.argsort(x, kind="stable")
        xs = x[order]
        if xs[0] == xs[-1]:
            continue
        weighted, cut = _gini_cuts(xs, np.cumsum(y_rows[order]), n, n_pos)
        k = int(np.argmin(weighted))
        if weighted[k] < best_score:
            best_score = weighted[k]
            c = cut[k]
            best = (f, midpoint(xs, c), rows[order[: c + 1]], rows[order[c + 1 :]])
    if best is None:
        return None
    return (best_score, *best)


def _best_presorted_split(presorted, member, counts, pos_counts, n, n_pos, feature_ids):
    """``_best_split`` for a node read from the shared ``presort``.

    ``member`` masks the node's rows (None: every row of the fit); float
    ``counts`` weight them (None: one draw each) and ``pos_counts`` hold
    their positive draws.
    """
    orders, values = presorted
    best = None
    best_score = np.inf
    for f in feature_ids:
        node_rows, xs = orders[f], values[f]
        if member is not None:
            keep = member[node_rows]
            node_rows, xs = node_rows.compress(keep), xs.compress(keep)
        if xs[0] == xs[-1]:
            continue
        cum_n = None if counts is None else np.cumsum(counts[node_rows])
        weighted, cut = _gini_cuts(xs, np.cumsum(pos_counts[node_rows]), n, n_pos, cum_n)
        k = int(np.argmin(weighted))
        if weighted[k] < best_score:
            best_score = weighted[k]
            c = cut[k]
            best = (f, midpoint(xs, c), node_rows[: c + 1], node_rows[c + 1 :])
    if best is None:
        return None
    return (best_score, *best)


class DecisionTreeClassifier(BinaryClassifier):
    supports_probability = True

    def __init__(self, max_depth=None, min_samples_split=2, max_features=None, seed=0):
        self.max_depth = max_depth
        self.min_samples_split = min_samples_split
        self.max_features = max_features
        self.seed = seed

    def _feature_ids(self, p, rng):
        if self.max_features is None:
            return np.arange(p)
        if self.max_features == "sqrt":
            count = max(1, int(np.sqrt(p)))
        else:
            count = max(1, min(int(self.max_features), p))
        if count >= p:
            return np.arange(p)
        return np.sort(rng.choice(p, size=count, replace=False))

    def _fit(self, X, y):
        self._grow(X, y, np.ones(X.shape[0], dtype=np.int64), presort(X))

    def _grow(self, X, y, counts, presorted):
        """Fit to the rows of X drawn ``counts`` times each; ``presorted`` is
        ``presort(X)``. Neither is kept on the fitted tree."""
        p = X.shape[1]
        rng = derive_rng(self.seed, "feature_subsets") if self.max_features else None
        # float running sums of integer counts are exact, and the same
        # numbers as the integer sums the per-node path takes
        pos_weights = counts * y.astype(np.float64)
        weights = None if counts.max() == 1 else counts.astype(np.float64)
        total = int(counts.sum())
        feature = [0]
        threshold = [0.0]
        left = [0]
        right = [0]
        prob = [0.0]

        def new_node():
            feature.append(0)
            threshold.append(0.0)
            left.append(0)
            right.append(0)
            prob.append(0.0)
            return len(feature) - 1

        # nodes read from the presort hold distinct rows weighted by counts;
        # the others list every draw, so their rows repeat
        stack = [(np.flatnonzero(counts), 0, 0, True)]
        while stack:
            rows, depth, nid, from_presort = stack.pop()
            if from_presort:
                n = int(counts[rows].sum())
                n_pos = int(pos_weights[rows].sum())
                if n * _PRESORT_SHARE < total:
                    rows = np.repeat(rows, counts[rows])
                    from_presort = False
            else:
                n = rows.size
                n_pos = int(y[rows].sum())
            at_cap = self.max_depth is not None and depth >= self.max_depth
            split = None
            if not at_cap and 0 < n_pos < n and n >= self.min_samples_split:
                if from_presort:
                    member = None
                    if rows.size < X.shape[0]:
                        member = np.zeros(X.shape[0], dtype=bool)
                        member[rows] = True
                    search = _best_presorted_split
                    node = (presorted, member, weights, pos_weights, n, n_pos)
                else:
                    search, node = _best_split, (X, y, rows)
                feats = self._feature_ids(p, rng)
                split = search(*node, feats)
                if split is None and feats.size < p:
                    # sampled features were constant here: look at the rest
                    split = search(*node, np.setdiff1d(np.arange(p), feats))
            if split is None:
                feature[nid] = _LEAF
                prob[nid] = n_pos / n
                continue
            _, f, thr, left_rows, right_rows = split
            feature[nid] = f
            threshold[nid] = thr
            left[nid] = lid = new_node()
            right[nid] = rid = new_node()
            # left pushed last so it is processed first: stable node numbering
            stack.append((right_rows, depth + 1, rid, from_presort))
            stack.append((left_rows, depth + 1, lid, from_presort))

        self.feature_ = np.asarray(feature, dtype=np.int64)
        self.threshold_ = np.asarray(threshold)
        self.left_ = np.asarray(left, dtype=np.int64)
        self.right_ = np.asarray(right, dtype=np.int64)
        self.prob_ = np.asarray(prob)

    def _leaf_ids(self, X):
        idx = np.zeros(X.shape[0], dtype=np.int64)
        while True:
            feats = self.feature_[idx]
            active = np.flatnonzero(feats != _LEAF)
            if active.size == 0:
                return idx
            node = idx[active]
            goes_left = (
                X[active, self.feature_[node]] <= self.threshold_[node]
            )
            idx[active] = np.where(goes_left, self.left_[node], self.right_[node])

    def _score(self, X):
        return self.prob_[self._leaf_ids(X)]
