"""AdaBoost over decision stumps, discrete and real flavours.

Feature orderings are sorted once and reused across rounds, so each round
costs O(p n) after the initial O(p n log n).

The discrete variant picks the stump minimizing weighted 0-1 error and
combines votes with alpha = ln((1-err)/err)/2; its score is the alpha-
normalized margin mapped onto [0, 1]. The real variant picks the stump
minimizing weighted Gini, adds half log-odds of the leaf class
probabilities, and scores with the logistic of the summed margin. Both
threshold at 0.5 <=> margin 0.
"""

import numpy as np

from .base import BinaryClassifier
from .tree import midpoint, presort

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


class _SortedFeatures:
    """Per-feature stable orderings plus candidate boundary positions."""

    def __init__(self, X):
        self.n, self.p = X.shape
        self.orders, self.values = presort(X)
        self.cuts = [np.flatnonzero(xs[1:] > xs[:-1]) for xs in self.values]

    def threshold_at(self, f, cut):
        return midpoint(self.values[f], cut)


def _best_error_stump(sf, y, w):
    """Stump minimizing weighted 0-1 error, considering both polarities."""
    total_pos = float(w[y == 1].sum())
    total_neg = float(w[y == 0].sum())
    # constant fallbacks: always-positive vs always-negative
    if total_neg <= total_pos:
        best = (total_neg, -1, 0.0, 1.0, 1.0)
    else:
        best = (total_pos, -1, 0.0, 0.0, 0.0)
    for f in range(sf.p):
        cuts = sf.cuts[f]
        if cuts.size == 0:
            continue
        order = sf.orders[f]
        ws = w[order]
        ys = y[order]
        cum_pos = np.cumsum(np.where(ys == 1, ws, 0.0))[cuts]
        cum_neg = np.cumsum(np.where(ys == 0, ws, 0.0))[cuts]
        # left->0 right->1 errs the positives on the left, negatives right
        err_rp = cum_pos + (total_neg - cum_neg)
        err_lp = cum_neg + (total_pos - cum_pos)
        k_rp = int(np.argmin(err_rp))
        k_lp = int(np.argmin(err_lp))
        for err, k, lv, rv in (
            (float(err_rp[k_rp]), k_rp, 0.0, 1.0),
            (float(err_lp[k_lp]), k_lp, 1.0, 0.0),
        ):
            if err < best[0] - 1e-15:
                best = (err, f, sf.threshold_at(f, cuts[k]), lv, rv)
    err, f, thr, lv, rv = best
    return err, _Stump(f, thr, lv, rv)


def _best_gini_stump(sf, y, w):
    """Stump minimizing weighted child Gini; leaves carry P(y=1)."""
    total_w = float(w.sum())
    total_pos = float(w[y == 1].sum())
    best_score = np.inf
    best = None
    for f in range(sf.p):
        cuts = sf.cuts[f]
        if cuts.size == 0:
            continue
        order = sf.orders[f]
        ws = w[order]
        ys = y[order]
        w_left = np.cumsum(ws)[cuts]
        pos_left = np.cumsum(np.where(ys == 1, ws, 0.0))[cuts]
        w_right = total_w - w_left
        pos_right = total_pos - pos_left
        # a side can carry zero total weight (boosting drives easy rows to
        # exactly 0); its impurity contribution is zero, not NaN
        frac_l = np.divide(pos_left, w_left, out=np.zeros_like(pos_left), where=w_left > 0)
        frac_r = np.divide(
            pos_right, w_right, out=np.zeros_like(pos_right), where=w_right > 0
        )
        gini = (
            w_left * (2.0 * frac_l * (1.0 - frac_l))
            + w_right * (2.0 * frac_r * (1.0 - frac_r))
        ) / total_w
        k = int(np.argmin(gini))
        if gini[k] < best_score - 1e-15:
            best_score = gini[k]
            best = (f, sf.threshold_at(f, cuts[k]), float(frac_l[k]), float(frac_r[k]))
    if best is None:
        return None
    f, thr, pl, pr = best
    return _Stump(f, thr, pl, pr)


class DiscreteAdaBoost(BinaryClassifier):
    supports_probability = True

    def __init__(self, n_rounds=50):
        self.n_rounds = n_rounds

    def _fit(self, X, y):
        sf = _SortedFeatures(X)
        w = np.full(X.shape[0], 1.0 / X.shape[0])
        signs = 2.0 * y - 1.0
        self.stumps_ = []
        self.alphas_ = []
        self.stump_errors_ = []
        for _ in range(self.n_rounds):
            err, stump = _best_error_stump(sf, y, w)
            if err >= 0.5 - 1e-12:
                break
            err = max(err, 1e-12)
            alpha = 0.5 * np.log((1.0 - err) / err)
            self.stumps_.append(stump)
            self.alphas_.append(float(alpha))
            self.stump_errors_.append(float(err))
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
            self.stump_errors_.append(0.5)

    def decision_margin(self, X, n_rounds=None):
        """Sum of alpha-weighted stump votes over the first n_rounds."""
        X = self._check_fitted_input(X)
        take = len(self.stumps_) if n_rounds is None else n_rounds
        margin = np.zeros(X.shape[0])
        for stump, alpha in zip(self.stumps_[:take], self.alphas_[:take]):
            margin += alpha * (2.0 * stump.values(X) - 1.0)
        return margin

    def _score(self, X):
        margin = self.decision_margin(X)
        alpha_sum = float(np.sum(self.alphas_))
        return (margin / alpha_sum + 1.0) / 2.0


class RealAdaBoost(BinaryClassifier):
    supports_probability = True

    def __init__(self, n_rounds=50):
        self.n_rounds = n_rounds

    def _fit(self, X, y):
        sf = _SortedFeatures(X)
        w = np.full(X.shape[0], 1.0 / X.shape[0])
        signs = 2.0 * y - 1.0
        self.stumps_ = []
        for _ in range(self.n_rounds):
            stump = _best_gini_stump(sf, y, w)
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

    def decision_margin(self, X, n_rounds=None):
        X = self._check_fitted_input(X)
        take = len(self.stumps_) if n_rounds is None else n_rounds
        margin = np.zeros(X.shape[0])
        for stump in self.stumps_[:take]:
            probs = np.clip(stump.values(X), _PROB_CLIP, 1.0 - _PROB_CLIP)
            margin += 0.5 * (np.log(probs) - np.log1p(-probs))
        return margin

    def _score(self, X):
        margin = self.decision_margin(X)
        return 1.0 / (1.0 + np.exp(-np.clip(margin, -700.0, 700.0)))
