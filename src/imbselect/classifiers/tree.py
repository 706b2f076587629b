"""CART decision tree grown to purity unless capped.

A split is the midpoint threshold of the class-run end with the least
weighted child Gini. A class run is a stretch of cuts with the same
positive draws on their left. Along a run the weighted Gini, 2P - 2P²/W on
each side for P positive draws of W, is concave in the left draw count, so
in exact arithmetic the run's least value is at one of its ends (Fayyad &
Irani, 1992); a cut inside a run, whose computed Gini may tie or undercut
its ends by rounding, is never the split. Ties break to the lowest feature
index, then the lowest threshold, so the tree is a pure function of the
training set. Building is iterative (an explicit stack), which keeps deep
trees off the Python recursion limit.

A tree grows from per-row counts over a shared matrix: a forest passes its
bootstrap draw as counts (how often each row was drawn) instead of copying
the drawn rows, and a plain fit uses all-one counts. Every node holds its
distinct rows, weighted by their counts. Each feature is stable-argsorted
once per fit (``presort``), and a forest shares those orders across its
trees; ``presort_rows`` derives the orders of a subset of rows from the
full ones, as the instance-hardness undersampler does for its fold
forests. A node that holds at least 1/``_PRESORT_SHARE`` of the fit's
draws finds each sampled feature's sorted rows by filtering the shared
order by node membership, which costs O(rows of the fit) per feature. A
smaller node argsorts its own rows per feature, as do its descendants:
there an O(node) sort is cheaper than an O(fit) filter, and filtering at
every node made a 7.7k-node tree on 20,000 rows about 1.6x slower to fit.
Both give the same tree bit for bit: ties among equal values never change a
cut position, a count, a threshold or the order of random draws.

Every node searches one feature at a time: it finds the class-run ends from
the running positive draws (``run_ends``) and evaluates the Gini only
there. It holds the sorted rows of two features at most: the one it reads
and the best so far. A Gini of 0.0 ends a node's search: draw counts are
integer-valued floats, so no computed Gini is below 0.0, and a later
feature must be strictly lower to win. A split hands each child its draws
and positive draws off the winning cut's running sums.
"""

from functools import partial

import numpy as np

from ..base import derive_rng
from ..validation import SEED, count
from .base import BinaryClassifier

_LEAF = -1
# the rules of the options a forest passes on to its trees
MAX_DEPTH = count(1, None)
MAX_FEATURES = count(1, None, "sqrt")
# Nodes holding at least 1/_PRESORT_SHARE of the fit's draws filter the
# shared presort; smaller ones argsort their own rows.
_PRESORT_SHARE = 16


def sort_orders(X):
    """(features, rows): row f sorts column f of X, equal values kept in row
    order."""
    return np.argsort(X.T, axis=1, kind="stable")


def presort(X, orders=None):
    """(orders, values), both (features, rows): ``sort_orders(X)``, or
    ``orders`` when the caller has them, and each column in its order."""
    if orders is None:
        orders = sort_orders(X)
    return orders, np.take_along_axis(X.T, orders, axis=1)


def presort_rows(orders, keep):
    """``sort_orders(X[keep])`` from ``orders = sort_orders(X)``: a stable
    order filtered to the kept rows and renumbered in row order is the
    stable order of the kept rows."""
    kept = keep[orders]
    renumber = np.cumsum(keep) - 1
    return renumber[orders[kept]].reshape(orders.shape[0], np.count_nonzero(keep))


def _gini(n_left, pos_left, n, n_pos):
    """Weighted child Gini of cuts with n_left draws, pos_left of them
    positive, on their left."""
    n_right = n - n_left
    pos_right = n_pos - pos_left
    gini_left = 1.0 - (pos_left / n_left) ** 2 - ((n_left - pos_left) / n_left) ** 2
    gini_right = 1.0 - (pos_right / n_right) ** 2 - ((n_right - pos_right) / n_right) ** 2
    return (n_left * gini_left + n_right * gini_right) / n


def run_ends(left):
    """Whether each cut ends a class run, from the positive draws ``left``
    of each cut, which never fall: the first and last cut with each value."""
    change = left[1:] != left[:-1]
    ends = np.ones(left.size, dtype=bool)
    ends[1:-1] = change[:-1] | change[1:]
    return ends


def midpoint(xs, c):
    """Threshold between sorted xs[c] and the larger xs[c + 1]."""
    lo, hi = xs[c], xs[c + 1]
    threshold = (lo + hi) / 2.0
    return lo if threshold >= hi else threshold  # adjacent floats: keep it strict


def _own_sort(X, rows, f):
    """``rows`` sorted by feature f, and their values."""
    x = X[rows, f]
    order = np.argsort(x, kind="stable")
    return rows[order], x[order]


def _from_presort(presorted, member, f):
    """The rows that ``member`` masks (None: every row of the fit) sorted
    by feature f, and their values, read from the shared ``presort``."""
    orders, values = presorted
    if member is None:
        return orders[f], values[f]
    keep = member[orders[f]]
    return orders[f].compress(keep), values[f].compress(keep)


def _best_run_end(sorted_by, counts, pos_counts, n, n_pos, feature_ids):
    """(feature, threshold, left_rows, right_rows, n_left, pos_left) of the
    node's best class-run end over ``feature_ids``, or None where every one
    is constant; the left child holds n_left draws, pos_left positive.

    ``sorted_by(f)`` gives the node's distinct rows sorted by feature f and
    their values; float ``counts`` weight them (None: one draw each) and
    ``pos_counts`` hold their positive draws. A best Gini of 0.0 ends the
    search.
    """
    best = None
    best_score = np.inf
    for f in feature_ids:
        node_rows, xs = sorted_by(f)
        cut = (xs[1:] > xs[:-1]).nonzero()[0]
        if cut.size == 0:
            continue
        pos_left = pos_counts.take(node_rows).cumsum()[cut]
        ends = run_ends(pos_left)
        cut, pos_left = cut[ends], pos_left[ends]
        n_left = cut + 1.0 if counts is None else counts.take(node_rows).cumsum()[cut]
        weighted = _gini(n_left, pos_left, n, n_pos)
        k = weighted.argmin()
        if weighted[k] < best_score:
            best_score = weighted[k]
            c = cut[k]
            best = (f, midpoint(xs, c), node_rows[: c + 1], node_rows[c + 1 :],
                    int(n_left[k]), int(pos_left[k]))
            if best_score == 0.0:
                break
    return best


class DecisionTreeClassifier(BinaryClassifier):
    supports_probability = True

    options = {
        "max_depth": (None, MAX_DEPTH),
        "min_samples_split": (2, count(2)),
        "max_features": (None, MAX_FEATURES),
        "seed": SEED,
    }

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
        # float running sums of integer counts are exact
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

        # (rows, draws, positive draws, depth, node id)
        stack = [(np.flatnonzero(counts), total, int(pos_weights.sum()), 0, 0)]
        while stack:
            rows, n, n_pos, depth, nid = stack.pop()
            at_cap = self.max_depth is not None and depth >= self.max_depth
            split = None
            if not at_cap and 0 < n_pos < n and n >= self.min_samples_split:
                feats = self._feature_ids(p, rng)
                if n * _PRESORT_SHARE < total:
                    sorted_by = partial(_own_sort, X, rows)
                else:
                    member = None
                    if rows.size < X.shape[0]:
                        member = np.zeros(X.shape[0], dtype=bool)
                        member[rows] = True
                    sorted_by = partial(_from_presort, presorted, member)
                search = partial(_best_run_end, sorted_by, weights, pos_weights, n, n_pos)
                split = search(feats)
                if split is None and feats.size < p:
                    # sampled features were constant here: look at the rest
                    rest = np.ones(p, dtype=bool)
                    rest[feats] = False
                    split = search(np.flatnonzero(rest))
            if split is None:
                feature[nid] = _LEAF
                prob[nid] = n_pos / n
                continue
            f, thr, left_rows, right_rows, n_left, pos_left = split
            feature[nid] = f
            threshold[nid] = thr
            left[nid] = lid = new_node()
            right[nid] = rid = new_node()
            # left pushed last so it is processed first: stable node numbering
            stack.append((right_rows, n - n_left, n_pos - pos_left, depth + 1, rid))
            stack.append((left_rows, n_left, pos_left, depth + 1, lid))

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
