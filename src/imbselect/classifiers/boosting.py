"""AdaBoost over decision stumps, discrete and real flavours.

The discrete variant picks the stump minimizing weighted 0-1 error and
combines votes with alpha = ln((1-err)/err)/2; its score is the alpha-
normalized margin mapped onto [0, 1]. The real variant picks the stump
minimizing weighted Gini, adds half log-odds of the leaf class
probabilities, and scores with the logistic of the summed margin. Both
threshold at 0.5 <=> margin 0.

Each fit sorts every feature once, in the tree's presort order
(``tree.sort_orders``), and splits its cuts (the positions where the sorted
value rises) into runs: the stretches of cuts with the same positive rows
on their left. A stump's cut is the best run end, ties going to the
earlier cut. In exact arithmetic that is the best cut of all: along a run
the positive weight on the left is fixed, so both errors are monotone in
the cut, and the weighted Gini, 2P - 2P²/W on each side, is concave in the
left weight W, so a run's best cut is one of its ends (the boundary-point
result of Fayyad & Irani, 1992). Computed values carry rounding, and a cut
inside a run may tie or undercut its ends by it; such cuts are never
candidates.

A fit keeps only each feature's run-end cuts. A round takes one feature
at a time: the running sums of the weights in sorted order, over the
positive rows and over every row (the real variant) or the negative rows
(the discrete variant), go to one reused scratch row each and are read at
the feature's run ends into a buffer that consecutive features share.
Once a group of features holds about n run ends, one vectorised pass
evaluates the Gini or both errors over the whole group, and each feature
offers its first least run end. Where positives are rare a group spans
many features with a few run ends each; on an oversampled set, where
nearly every cut ends a run, a group is one feature.
"""

from functools import cached_property

import numpy as np

from ..validation import count
from .base import BinaryClassifier
from .tree import midpoint, run_ends, sort_orders

_PROB_CLIP = 1e-7


class _Stump:
    __slots__ = ("feature", "threshold", "left_value", "right_value")

    def __init__(self, feature, threshold, left_value, right_value):
        self.feature = feature
        self.threshold = threshold
        self.left_value = left_value
        self.right_value = right_value

    def values(self, X):
        if self.feature < 0:
            return np.full(X.shape[0], self.right_value)
        go_left = X[:, self.feature] <= self.threshold
        return np.where(go_left, self.left_value, self.right_value)


def _gini(w_left, pos_left, total_w, total_pos):
    """(weighted child Gini, left and right P(y=1)) per cut."""
    w_right = total_w - w_left
    pos_right = total_pos - pos_left
    # a side can carry zero total weight (boosting drives easy rows to
    # exactly 0); its impurity contribution is zero, not NaN
    frac_l = np.divide(pos_left, w_left, out=np.zeros_like(pos_left), where=w_left > 0)
    frac_r = np.divide(pos_right, w_right, out=np.zeros_like(pos_right), where=w_right > 0)
    gini = (
        w_left * (2.0 * frac_l * (1.0 - frac_l))
        + w_right * (2.0 * frac_r * (1.0 - frac_r))
    ) / total_w
    return gini, frac_l, frac_r


def _compact(indices, bound):
    """``indices``, all below ``bound``, stored as int32 when they fit."""
    return indices.astype(np.int32) if bound < 2**31 else indices


class _SortedFeatures:
    """Per-feature stable orders and class-run ends of one training set.

    A cut is named by the number j of sorted rows on its left. Each
    non-constant feature keeps its run-end cuts j and the number k of
    positive rows left of each, int32 where they fit: where nearly every cut
    ends a run, int64 would add about X's size to a fit's peak memory.
    Consecutive features form groups of at most n run ends, so a round's
    buffers are no larger than one feature's running sums.
    """

    def __init__(self, X, y):
        self.X = X
        self.is_positive = y == 1
        n = X.shape[0]
        self.order = sort_orders(X)
        sorted_positive = self.is_positive[self.order]
        self.positive = self._rows(sorted_positive)
        self.groups, members, size = [], [], 0
        for f in range(X.shape[1]):
            xs = X[self.order[f], f]
            cuts = np.flatnonzero(xs[1:] > xs[:-1]) + 1
            if cuts.size == 0:
                continue
            # the positive rows left of each cut; a run ends where that changes
            left = np.cumsum(sorted_positive[f])[cuts - 1]
            ends = run_ends(left)
            j, k = _compact(cuts[ends], n + 1), _compact(left[ends], n + 1)
            if members and size + j.size > n:
                self.groups.append((members, size))
                members, size = [], 0
            members.append((f, j, k, slice(size, size + j.size)))
            size += j.size
        if members:
            self.groups.append((members, size))

    @cached_property
    def negative(self):
        return self._rows(~self.is_positive[self.order])

    def _rows(self, sorted_selected):
        """Per feature, the rows in sorted order where ``sorted_selected``."""
        rows = self.order[sorted_selected].reshape(len(self.order), -1)
        return _compact(rows, self.X.shape[0] + 1)

    def _threshold(self, f, j):
        return midpoint(self.X[self.order[f, j - 1 : j + 1], f], 0)

    def _at_ends(self, w, rows, column):
        """Per group: its members (f, j, k, their slice of the buffers) and
        two buffers of w's running sums in sorted order, over each member's
        positive rows at its run ends' k and over its ``rows`` at
        ``column(j, k)``. The next group overwrites the buffers."""
        parts = (self.positive, rows)
        scratch = [np.zeros(part.shape[1] + 1) for part in parts]
        buffers = [np.empty(max((size for _, size in self.groups), default=0)) for _ in parts]
        for members, size in self.groups:
            for f, j, k, at in members:
                for sums, part, cols, buffer in zip(scratch, parts, (k, column(j, k)), buffers):
                    w.take(part[f]).cumsum(out=sums[1:])
                    # "clip" writes straight to out, where "raise" buffers it
                    sums.take(cols, out=buffer[at], mode="clip")
            yield members, buffers[0][:size], buffers[1][:size]

    def gini_stump(self, w):
        """Stump minimizing weighted child Gini; leaves carry P(y=1). None
        when every feature is constant."""
        total_w = float(w.sum())
        total_pos = float(w[self.is_positive].sum())
        best_score, best = np.inf, None
        for members, pos_left, w_left in self._at_ends(w, self.order, lambda j, k: j):
            gini, left, right = _gini(w_left, pos_left, total_w, total_pos)
            # features in order, so that ties go to the lowest
            for f, j, _, at in members:
                i = int(gini[at].argmin())
                if gini[at][i] < best_score - 1e-15:
                    best_score = gini[at][i]
                    best = (f, int(j[i]), float(left[at][i]), float(right[at][i]))
        if best is None:
            return None
        f, j, left, right = best
        return _Stump(f, self._threshold(f, j), left, right)

    def error_stump(self, w):
        """(weighted 0-1 error, stump) minimizing it over both polarities."""
        total_pos = float(w[self.is_positive].sum())
        total_neg = float(w[~self.is_positive].sum())
        # constant fallbacks: always-positive vs always-negative
        if total_neg <= total_pos:
            best = (total_neg, None, 1.0, 1.0)
        else:
            best = (total_pos, None, 0.0, 0.0)
        for members, pos_left, neg_left in self._at_ends(w, self.negative, np.subtract):
            # left->0 right->1 errs the positives on the left and the
            # negatives on the right; left->1 right->0 the others
            rp = pos_left + (total_neg - neg_left)
            lp = neg_left + (total_pos - pos_left)
            for f, j, _, at in members:
                for err, lv, rv in ((rp[at], 0.0, 1.0), (lp[at], 1.0, 0.0)):
                    i = int(err.argmin())
                    if err[i] < best[0] - 1e-15:
                        best = (float(err[i]), (f, int(j[i])), lv, rv)
        err, at, lv, rv = best
        f, threshold = (-1, 0.0) if at is None else (at[0], self._threshold(*at))
        return err, _Stump(f, threshold, lv, rv)


class DiscreteAdaBoost(BinaryClassifier):
    supports_probability = True

    options = {"n_rounds": (50, count(1))}

    def _fit(self, X, y):
        sf = _SortedFeatures(X, y)
        w = np.full(X.shape[0], 1.0 / X.shape[0])
        signs = 2.0 * y - 1.0
        self.stumps_ = []
        self.alphas_ = []
        for _ in range(self.n_rounds):
            err, stump = sf.error_stump(w)
            if err >= 0.5 - 1e-12:
                break
            err = max(err, 1e-12)
            alpha = 0.5 * np.log((1.0 - err) / err)
            self.stumps_.append(stump)
            self.alphas_.append(float(alpha))
            h_signs = 2.0 * stump.values(X) - 1.0
            w = w * np.exp(-alpha * signs * h_signs)
            total = w.sum()
            if err <= 1e-12 or total <= 0.0:
                break
            w /= total
        if not self.stumps_:  # no stump beats chance: fall back to the prior
            majority = 1.0 if float(y.mean()) >= 0.5 else 0.0
            self.stumps_.append(_Stump(-1, 0.0, majority, majority))
            self.alphas_.append(1.0)

    def decision_margin(self, X):
        """Sum of alpha-weighted stump votes."""
        X = self._check_fitted_input(X)
        margin = np.zeros(X.shape[0])
        for stump, alpha in zip(self.stumps_, self.alphas_):
            margin += alpha * (2.0 * stump.values(X) - 1.0)
        return margin

    def _score(self, X):
        margin = self.decision_margin(X)
        alpha_sum = float(np.sum(self.alphas_))
        return (margin / alpha_sum + 1.0) / 2.0


class RealAdaBoost(BinaryClassifier):
    supports_probability = True

    options = {"n_rounds": (50, count(1))}

    def _fit(self, X, y):
        sf = _SortedFeatures(X, y)
        w = np.full(X.shape[0], 1.0 / X.shape[0])
        signs = 2.0 * y - 1.0
        self.stumps_ = []
        for _ in range(self.n_rounds):
            stump = sf.gini_stump(w)
            if stump is None:
                break
            probs = np.clip(stump.values(X), _PROB_CLIP, 1.0 - _PROB_CLIP)
            half_log_odds = 0.5 * (np.log(probs) - np.log1p(-probs))
            self.stumps_.append(stump)
            w = w * np.exp(-signs * half_log_odds)
            total = w.sum()
            if total <= 0.0:
                break
            w /= total
        if not self.stumps_:
            p1 = min(max(float(y.mean()), _PROB_CLIP), 1.0 - _PROB_CLIP)
            self.stumps_.append(_Stump(-1, 0.0, p1, p1))

    def decision_margin(self, X):
        X = self._check_fitted_input(X)
        margin = np.zeros(X.shape[0])
        for stump in self.stumps_:
            probs = np.clip(stump.values(X), _PROB_CLIP, 1.0 - _PROB_CLIP)
            margin += 0.5 * (np.log(probs) - np.log1p(-probs))
        return margin

    def _score(self, X):
        margin = self.decision_margin(X)
        return 1.0 / (1.0 + np.exp(-np.clip(margin, -700.0, 700.0)))
