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

A presorted node with few positive draws evaluates the Gini only at the
run ends. The runs come from the node's positive rows: their values bound
the runs, and a binary search of each feature's sorted values finds each
run's first and last cut. A node with more positive draws per draw than
``_DENSE_POSITIVES``, where runs are a cut or two long, or with fewer node
rows times features than ``_RUN_CELLS``, where the fixed cost of the runs
exceeds the cuts they skip, evaluates every cut and falls back to the run
ends only where its least value lies inside a run. Either way the node
takes the same split, with the same bits.
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
# Run ends or every cut (module docstring). On IHT-like nodes of 2,500 and
# 10,000 rows with 2 and 4 features, the run-end search broke even between
# 5% and 10% positive draws. With 5 positives it won at 2,500 node rows
# times features and up (0.62-0.82 of every cut), was even near 2,000, and
# lost up to 2.4x on one feature or a few hundred rows below that.
_DENSE_POSITIVES = 0.05
_RUN_CELLS = 2500


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


def _gini_cuts(xs, cum_pos, n, n_pos, cum_n=None):
    """(weighted child Gini, position) at every value boundary of sorted xs.

    ``cum_pos``/``cum_n`` are running positive and row counts along xs;
    ``cum_n=None`` means one row per entry.
    """
    cut = np.flatnonzero(xs[1:] > xs[:-1])
    n_left = cut + 1.0 if cum_n is None else cum_n[cut]
    return _gini(n_left, cum_pos[cut], n, n_pos), cut


def run_ends(left):
    """Whether each cut ends a class run, from the positive draws ``left``
    of each cut, which never fall: the first and last cut with each value."""
    ends = np.ones(left.size, dtype=bool)
    ends[1:-1] = (left[1:-1] != left[:-2]) | (left[1:-1] != left[2:])
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


def _every_cut_split(sorted_by, counts, pos_counts, n, n_pos, feature_ids):
    """(weighted_gini, feature, threshold, left_rows, right_rows) or None:
    the best run end, found from the Gini at every cut.

    ``sorted_by(f)`` gives the node's distinct rows sorted by feature f and
    their values; float ``counts`` weight them (None: one draw each) and
    ``pos_counts`` hold their positive draws.
    """
    best = None
    best_score = np.inf
    for f in feature_ids:
        node_rows, xs = sorted_by(f)
        if xs[0] == xs[-1]:
            continue
        cum_n = None if counts is None else np.cumsum(counts[node_rows])
        cum_pos = np.cumsum(pos_counts[node_rows])
        weighted, cut = _gini_cuts(xs, cum_pos, n, n_pos, cum_n)
        k = int(np.argmin(weighted))
        if 0 < k < cut.size - 1 and cum_pos[cut[k - 1]] == cum_pos[cut[k + 1]]:
            # the first least lies inside a run: take the best run end
            ends = np.flatnonzero(run_ends(cum_pos[cut]))
            k = int(ends[np.argmin(weighted[ends])])
        if weighted[k] < best_score:
            best_score = weighted[k]
            c = cut[k]
            best = (f, midpoint(xs, c), node_rows[: c + 1], node_rows[c + 1 :])
    if best is None:
        return None
    return (best_score, *best)


def _run_end_split(X, presorted, member, counts, pos_counts, pos_rows, n, n_pos, feature_ids):
    """``_every_cut_split`` from the ends of class runs, all features of a
    node read from the shared ``presort`` at once. ``member`` masks the
    node's rows as in ``_from_presort``; ``pos_rows`` are those with positive
    draws."""
    orders, values = presorted
    lines = np.arange(len(feature_ids))[:, None]
    if member is None:
        node_rows, xs = orders[feature_ids], values[feature_ids]
    else:
        shape = (len(feature_ids), np.count_nonzero(member))
        node_rows, xs = np.empty(shape, dtype=orders.dtype), np.empty(shape)
        for i, f in enumerate(feature_ids.tolist()):
            keep = member[orders[f]]
            orders[f].compress(keep, out=node_rows[i])
            values[f].compress(keep, out=xs[i])
    n_feats, m = xs.shape
    # each feature's positive rows by value: run r lies between the r-th and
    # the (r + 1)-th, and its cuts hold the first r on their left
    pos_x = X[pos_rows[:, None], feature_ids].T
    by_value = np.argsort(pos_x, axis=1, kind="stable")
    k = pos_x.shape[1]
    bounds = np.empty((n_feats, k + 2))
    bounds[:, 0], bounds[:, 1:-1], bounds[:, -1] = xs[:, 0], pos_x[lines, by_value], xs[:, -1]
    pos_left = np.zeros((n_feats, 1, k + 1))
    np.cumsum(pos_counts[pos_rows][by_value], axis=1, out=pos_left[:, 0, 1:])
    # a run's first cut is the last row valued at its lower bound, and its
    # last cut the row before the first valued at its upper bound
    ends = np.empty((n_feats, 2, k + 1), dtype=np.intp)
    for i in range(n_feats):
        ends[i, 0] = xs[i].searchsorted(bounds[i, :-1], "right")
        ends[i, 1] = xs[i].searchsorted(bounds[i, 1:], "left")
    ends -= 1
    first, last = ends[:, 0], ends[:, 1]
    # empty runs; every run of a constant feature ends before it starts
    ruled_out = first > last
    if ruled_out.all():
        return None
    # read the ends of empty runs at some cut in range
    np.minimum(ends, m - 2, out=ends)
    np.maximum(ends, 0, out=ends)
    if counts is None:
        n_ends = ends + 1.0
    else:
        n_ends = np.cumsum(counts[node_rows], axis=1)[lines[:, :, None], ends]
    gini = _gini(n_ends, pos_left, n, n_pos)
    value = gini.min(axis=1)
    value[ruled_out] = np.inf
    at = np.where(gini[:, 1] < gini[:, 0], last, first)
    run = np.argmin(value, axis=1)
    best = None
    best_score = np.inf
    for i, score in enumerate(value[lines[:, 0], run].tolist()):
        if score < best_score:
            best_score, best = score, i
    c = at[best, run[best]]
    # a copy, so that the children do not hold the other features' rows
    node_rows = node_rows[best].copy()
    return best_score, int(feature_ids[best]), midpoint(xs[best], c), node_rows[: c + 1], node_rows[c + 1 :]


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

        stack = [(np.flatnonzero(counts), 0, 0)]
        while stack:
            rows, depth, nid = stack.pop()
            n = int(counts[rows].sum())
            n_pos = int(pos_weights[rows].sum())
            at_cap = self.max_depth is not None and depth >= self.max_depth
            split = None
            if not at_cap and 0 < n_pos < n and n >= self.min_samples_split:
                feats = self._feature_ids(p, rng)
                if n * _PRESORT_SHARE < total:
                    search = _every_cut_split
                    node = (partial(_own_sort, X, rows), weights, pos_weights, n, n_pos)
                else:
                    member = None
                    if rows.size < X.shape[0]:
                        member = np.zeros(X.shape[0], dtype=bool)
                        member[rows] = True
                    search = _every_cut_split
                    node = (partial(_from_presort, presorted, member), weights, pos_weights, n, n_pos)
                    if n_pos <= _DENSE_POSITIVES * n and rows.size * feats.size >= _RUN_CELLS:
                        search = _run_end_split
                        pos_rows = rows[pos_weights[rows] > 0]
                        node = (X, presorted, member, weights, pos_weights, pos_rows, n, n_pos)
                split = search(*node, feats)
                if split is None and feats.size < p:
                    # sampled features were constant here: look at the rest
                    rest = np.ones(p, dtype=bool)
                    rest[feats] = False
                    split = search(*node, np.flatnonzero(rest))
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
            stack.append((right_rows, depth + 1, rid))
            stack.append((left_rows, depth + 1, lid))

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
