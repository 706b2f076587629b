"""AdaBoost over decision stumps, discrete and real flavours.

The discrete variant picks the stump minimizing weighted 0-1 error and
combines votes with alpha = ln((1-err)/err)/2; its score is the alpha-
normalized margin mapped onto [0, 1]. The real variant picks the stump
minimizing weighted Gini, adds half log-odds of the leaf class
probabilities, and scores with the logistic of the summed margin. Both
threshold at 0.5 <=> margin 0.

Each fit sorts every feature once and splits its cuts (the positions where
the sorted value rises) into runs: the stretches of cuts with the same
positive rows on their left. A round takes each feature's running sums
of the weights in sorted order: over every row (the real variant), over
the positive rows, and over the negative rows (the discrete variant). The
first is the full scan's own sum; at every cut the class sums equal the
full scan's, whose other terms add 0.0, bit for bit.

Where positives are rare, a round evaluates the Gini or the two errors at
the ends of the runs only, many features in one vectorised pass. Along a
run the positive weight on the left is fixed, so both errors are monotone
in the cut, and the weighted Gini, 2P - 2P²/W on each side, is concave in
the left weight W: the best cut of a run is one of its ends (the
boundary-point result of Fayyad & Irani, 1992). A run is evaluated at every
cut wherever its interior could tie its feature's best end or come within
rounding slack of it. Where positives are spread all along a feature (an
oversampled training set), its runs are a cut or two long and their ends
cost more than the cuts, so the feature is scanned at every cut, one
feature at a time. Either way each round picks the stump a full scan
picks, with the same bits.
"""

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .base import BinaryClassifier
from .tree import _Chord, midpoint

_PROB_CLIP = 1e-7
# Rounding slack of the Gini screen, in units of a run's scale
#   B = (P (1 + 2 P/W_first) + |Q| (1 + 2 |Q|/R_last) + tiny (1 + T)) / T,
# for left/right positive weights P, Q, left/right weights W, R and total T.
# With u = 2**-53, each side's ~8 roundings move its term by at most
# 8u P (1 + 2 P/W) (resp. Q, R); P/W peaks at the run's first cut and |Q|/R
# at its last, and the sum and the division by T add 2u |gini| <= 4u B, so a
# cut's Gini is within 12u B of its exact value. The exact Gini lies on or
# above the chord of the run's exact end values; using the computed ends
# costs 2 * 12u B and the chord's own arithmetic about 22u B: 46u B in all.
# Underflow adds at most 2**-1075 per product or quotient, which the tiny
# term covers. 2**-46 is 128u, nearly three times that bound.
_GINI_SLACK = 2.0 ** -46
# A feature with more runs per cut than this is scanned at every cut. In
# 50-round fits at 4,800 x 8 with 1-50% positives, with and without
# duplicated positive rows, the two searches broke even near 0.1 runs per
# cut for the real variant and near 0.3 for the discrete one, whose run ends
# are cheaper; the discrete fits between lose at most ~15% to their runs.
_SCAN_RUNS_PER_CUT = 0.1


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
    """(weighted child Gini, left and right P(y=1), right weight) per cut."""
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
    return gini, frac_l, frac_r, w_right


def _sum_table(rows):
    """A (features, rows + 1) running-sum table for ``rows``, its rows unset
    but for their leading 0.0."""
    sums = np.empty((rows.shape[0], rows.shape[1] + 1))
    sums[:, 0] = 0.0
    return sums


def _fill_sums(sums, w, rows, features):
    """Set sums[f, j] to w summed over the first j of rows[f], in that order,
    for each f in features."""
    for f in features:
        np.cumsum(w.take(rows[f]), out=sums[f, 1:])


def _compact(indices, bound):
    """``indices``, all below ``bound``, stored as int32 when they fit."""
    return indices.astype(np.int32) if bound < 2**31 else indices


def _first_hits(values, best, segments, counts, at=None):
    """Per segment (start offsets, lengths), ``at`` at the first value equal
    to the segment's ``best``; its index when ``at`` is None."""
    hit = np.flatnonzero(values == np.repeat(best, counts))
    first = hit[np.searchsorted(hit, segments)]
    return first if at is None else at[first]


def _chord_slack(w_lo, w_hi, pos_left, total_w, total_pos):
    """The ``_GINI_SLACK`` bound for stretches of cuts from left weight w_lo
    to w_hi with left positive weight pos_left."""
    # P/W peaks at a stretch's low end and |Q|/R at its high end
    frac_l = np.divide(pos_left, w_lo, out=np.zeros_like(w_lo), where=w_lo > 0)
    w_right = total_w - w_hi
    pos_right = np.abs(total_pos - pos_left)
    frac_r = np.divide(pos_right, w_right, out=np.zeros_like(w_hi), where=w_right > 0)
    return _GINI_SLACK * (
        pos_left * (1.0 + 2.0 * frac_l)
        + pos_right * (1.0 + 2.0 * frac_r)
        + np.finfo(float).tiny * (1.0 + total_w)
    ) / total_w


class _Group(NamedTuple):
    """The runs of consecutive features, for one vectorised pass: the
    features, their slice of the runs, and each feature's first run and run
    count in it."""

    features: list
    runs: slice
    offsets: np.ndarray
    counts: np.ndarray


class _SortedFeatures:
    """Per-feature stable orders, cuts and runs of one training set.

    A cut is named by the number j of sorted rows on its left, which is its
    column in the (features, n + 1) running-sum table of the weights;
    ``*_at`` arrays hold flat indices into that table, and ``pos_at`` into
    the (features, positives + 1) table of the positive weights. Runs are
    stored feature by feature by their first and last cuts; no positive row
    lies inside a run. A round works through the features in groups of
    about n runs, which keeps its scratch arrays as small as one feature's
    full scan. A feature with more than ``_SCAN_RUNS_PER_CUT`` runs per cut
    has no runs and is scanned instead: ``scans`` holds, per such feature,
    its cuts' columns j and the columns k of their positive weights. Its
    running sums go to one scratch row per round, not to the tables.
    """

    def __init__(self, X, y):
        self.X = X
        self.is_positive = y == 1
        n, p = X.shape
        self.width = n + 1
        self.order = np.argsort(X.T, axis=1, kind="stable")
        sorted_positive = self.is_positive[self.order]
        self.positive = self._rows(sorted_positive)
        pos_width = self.positive.shape[1] + 1
        self.is_cut = np.zeros((p, self.width), dtype=bool)
        counts = np.zeros(p, dtype=np.intp)
        runs, self.scans = [(np.empty(0, dtype=np.int32),) * 3], []
        for f in range(p):
            xs = X[self.order[f], f]
            np.greater(xs[1:], xs[:-1], out=self.is_cut[f, 1:n])
            cuts = np.flatnonzero(self.is_cut[f])
            if cuts.size == 0:
                continue
            # the positive rows left of each cut; a run starts where that rises
            left = np.cumsum(sorted_positive[f])[cuts - 1]
            starts = np.flatnonzero(left[1:] != left[:-1]) + 1
            if starts.size + 1 > _SCAN_RUNS_PER_CUT * cuts.size:
                self.scans.append((f, _compact(cuts, self.width), _compact(left, self.width)))
                continue
            starts = np.concatenate(([0], starts))
            stops = np.append(starts[1:], cuts.size) - 1
            counts[f] = starts.size
            runs.append(tuple(_compact(part, p * self.width) for part in (
                f * self.width + cuts[starts],
                f * self.width + cuts[stops],
                f * pos_width + left[starts],
            )))
        self.first_at, self.last_at, self.pos_at = (np.concatenate(part) for part in zip(*runs))
        del runs
        self.groups, members, run = [], [], 0
        for f in np.flatnonzero(counts).tolist() + [None]:
            if members and (f is None or counts[members].sum() + counts[f] > n):
                size = counts[members]
                self.groups.append(
                    _Group(members, slice(run, run + size.sum()), np.cumsum(size) - size, size)
                )
                run, members = run + size.sum(), []
            members.append(f)

    @cached_property
    def negative(self):
        return self._rows(~self.is_positive[self.order])

    # one running-sum table per fit for each of order, positive and negative,
    # since a fresh pair each round made a round at 4,800 x 8 about a third
    # slower; a round refills the rows it reads

    @cached_property
    def sums(self):
        return _sum_table(self.order)

    @cached_property
    def pos_sums(self):
        return _sum_table(self.positive)

    @cached_property
    def neg_sums(self):
        return _sum_table(self.negative)

    def _rows(self, sorted_selected):
        """Per feature, the rows in sorted order where ``sorted_selected``."""
        rows = self.order[sorted_selected].reshape(len(self.order), -1)
        return _compact(rows, self.width)

    def _ends(self, group):
        """A group's first cuts, last cuts and positive indices, as intp:
        numpy gathers by int32 indices are slower."""
        return tuple(
            part[group.runs].astype(np.intp) for part in (self.first_at, self.last_at, self.pos_at)
        )

    def _run_cuts(self, first_at, last_at):
        """Table index of every cut from each first_at to its last_at, run
        after run, and the run each belongs to."""
        lengths = last_at - first_at + 1
        run = np.repeat(np.arange(lengths.size), lengths)
        at = np.arange(lengths.sum()) + np.repeat(first_at - (np.cumsum(lengths) - lengths), lengths)
        keep = self.is_cut.ravel()[at]
        return at[keep], run[keep]

    def _threshold(self, at):
        f, j = divmod(at, self.width)
        return f, midpoint(self.X[self.order[f, j - 1 : j + 1], f], 0)

    def _scanned(self, w, *rows):
        """Each scanned feature f with its cuts' columns j, the columns k of
        their positive weights, and a row of running sums of w over each of
        ``rows`` for f, in scratch that the next feature overwrites."""
        scratch = [np.zeros(part.shape[1] + 1) for part in rows]
        for f, j, k in self.scans:
            for sums, part in zip(scratch, rows):
                np.cumsum(w.take(part[f]), out=sums[1:])
            yield f, j, k, *scratch

    def gini_stump(self, w):
        """Stump minimizing weighted child Gini; leaves carry P(y=1). None
        when every feature is constant."""
        total_w = float(w.sum())
        total_pos = float(w[self.is_positive].sum())
        found = {}
        for group in self.groups:
            _fill_sums(self.sums, w, self.order, group.features)
            _fill_sums(self.pos_sums, w, self.positive, group.features)
            found.update(zip(group.features, zip(*self._gini_group(group, total_w, total_pos))))
        for f, j, k, sums, pos_sums in self._scanned(w, self.order, self.positive):
            gini, left, right, _ = _gini(sums.take(j), pos_sums.take(k), total_w, total_pos)
            i = int(np.argmin(gini))
            found[f] = (gini[i], f * self.width + int(j[i]), left[i], right[i])
        # features in order, so that ties go to the lowest as in a full scan
        best_score, best = np.inf, None
        for f in sorted(found):
            score, *stump = found[f]
            if score < best_score - 1e-15:
                best_score, best = score, stump
        if best is None:
            return None
        at, left, right = best
        return _Stump(*self._threshold(at), float(left), float(right))

    def _gini_group(self, group, total_w, total_pos):
        """Per feature of a group: the least Gini, the table index of the
        first cut reaching it, and that cut's left and right P(y=1)."""
        sums, pos_sums = self.sums, self.pos_sums
        first_at, last_at, pos_at = self._ends(group)
        n_runs = pos_at.size
        pos_left = np.take(pos_sums, pos_at)
        w_ends = np.take(sums, np.concatenate([first_at, last_at]))
        gini, _, _, w_right = _gini(w_ends, np.tile(pos_left, 2), total_w, total_pos)
        g_first, g_last = gini[:n_runs], gini[n_runs:]
        value = np.minimum(g_first, g_last)
        at = np.where(g_last < g_first, last_at, first_at)
        # runs with a position strictly inside them
        k = np.flatnonzero(last_at - first_at > 1)
        if k.size:
            floor = np.repeat(np.minimum.reduceat(value, group.offsets), group.counts)[k]
            # the Gini is concave only while the right weight stays positive
            straddle = (w_right[k] > 0.0) & (w_right[n_runs + k] <= 0.0)
            w_lo, w_hi = w_ends[k], w_ends[n_runs + k]
            chord = _Chord(
                first_at[k], last_at[k], w_lo, w_hi, g_first[k], g_last[k],
                _chord_slack(w_lo, w_hi, pos_left[k], total_w, total_pos),
            )
            # over a run's interior the chord is lowest next to the lower end
            near = np.flatnonzero(
                straddle | chord.reaches(np.take(sums, chord.inward(1)), floor)
            )
            if near.size:
                runs = k[near]
                value[runs], at[runs] = self._near_minima(
                    first_at[runs], last_at[runs], pos_left[runs], straddle[near],
                    floor[near], sums, total_w, total_pos,
                )
        best = np.minimum.reduceat(value, group.offsets)
        run = _first_hits(value, best, group.offsets, group.counts)
        _, left, right, _ = _gini(np.take(sums, at[run]), pos_left[run], total_w, total_pos)
        return best.tolist(), at[run].tolist(), left.tolist(), right.tolist()

    def _near_minima(self, first_at, last_at, pos_left, straddle, floor, sums, total_w, total_pos):
        """Least Gini and its first cut in each of the given runs, evaluated
        only where the chord bound does not rule the cuts out."""
        lo, hi, run = first_at, last_at, np.arange(first_at.size)
        split = np.flatnonzero(straddle)
        if split.size:
            # cut a straddling run where its right weight runs out: each
            # side of that is concave
            gone = np.array([
                a + np.searchsorted(sums.ravel()[a : b + 1], total_w)
                for a, b in zip(lo[split].tolist(), hi[split].tolist())
            ], dtype=lo.dtype)
            lo = np.concatenate([lo, gone])
            hi = np.concatenate([hi, hi[split]])
            hi[split] = gone - 1
            run = np.concatenate([run, split])
        w_ends = np.take(sums, np.concatenate([lo, hi]))
        g_ends = _gini(w_ends, np.tile(pos_left[run], 2), total_w, total_pos)[0]
        w_lo, w_hi = np.split(w_ends, 2)
        slack = _chord_slack(w_lo, w_hi, pos_left[run], total_w, total_pos)
        chord = _Chord(lo, hi, w_lo, w_hi, *np.split(g_ends, 2), slack)
        # probe 1, 2, 4, ... positions in from each piece's lower end: the
        # chord only rises away from it, so past the first probe it rules
        # out, nothing can reach the floor
        steps = 1 << np.arange(int((hi - lo).max()).bit_length() + 1)
        probes = chord.inward(np.minimum(steps, (hi - lo)[:, None]))
        out = ~chord.reaches(np.take(sums, probes), floor[run][:, None], (slice(None), None))
        out |= steps > (hi - lo)[:, None]
        reach = steps[np.argmax(out, axis=1)] - 1
        rising = chord.rising
        # evaluate each piece's ends and the stretch next to its lower end
        ranges_lo = np.concatenate([lo, np.where(rising, hi, np.maximum(hi - reach, lo))])
        ranges_hi = np.concatenate([np.where(rising, np.minimum(lo + reach, hi), lo), hi])
        order = np.lexsort((ranges_lo, np.tile(run, 2)))
        cut_at, piece = self._run_cuts(ranges_lo[order], ranges_hi[order])
        owner = np.tile(run, 2)[order][piece]
        cut_gini = _gini(np.take(sums, cut_at), pos_left[owner], total_w, total_pos)[0]
        segments = np.flatnonzero(np.diff(owner, prepend=-1))
        value = np.minimum.reduceat(cut_gini, segments)
        return value, _first_hits(cut_gini, value, segments, np.diff(segments, append=owner.size), cut_at)

    def error_stump(self, w):
        """(weighted 0-1 error, stump) minimizing it over both polarities."""
        total_pos = float(w[self.is_positive].sum())
        total_neg = float(w[~self.is_positive].sum())
        # constant fallbacks: always-positive vs always-negative
        if total_neg <= total_pos:
            best = (total_neg, None, 1.0, 1.0)
        else:
            best = (total_pos, None, 0.0, 0.0)
        found = {}
        for group in self.groups:
            _fill_sums(self.pos_sums, w, self.positive, group.features)
            _fill_sums(self.neg_sums, w, self.negative, group.features)
            found.update(zip(group.features, zip(*self._error_group(group, total_pos, total_neg))))
        for f, j, k, pos_sums, neg_sums in self._scanned(w, self.positive, self.negative):
            pos_left = pos_sums.take(k)
            neg_left = neg_sums.take(j - k)
            rp = pos_left + (total_neg - neg_left)
            lp = neg_left + (total_pos - pos_left)
            i_rp, i_lp = int(np.argmin(rp)), int(np.argmin(lp))
            found[f] = (
                float(rp[i_rp]), f * self.width + int(j[i_rp]),
                float(lp[i_lp]), f * self.width + int(j[i_lp]),
            )
        for f in sorted(found):
            rp_err, rp_at, lp_err, lp_at = found[f]
            for err, at, lv, rv in ((rp_err, rp_at, 0.0, 1.0), (lp_err, lp_at, 1.0, 0.0)):
                if err < best[0] - 1e-15:
                    best = (err, at, lv, rv)
        err, at, lv, rv = best
        f, threshold = (-1, 0.0) if at is None else self._threshold(at)
        return err, _Stump(f, threshold, lv, rv)

    def _error_group(self, group, total_pos, total_neg):
        """Per feature of a group, for left->0 right->1 and then for
        left->1 right->0: the least error and the table index of the first
        cut reaching it."""
        pos_sums, neg_sums = self.pos_sums, self.neg_sums
        first_at, last_at, pos_at = self._ends(group)
        pos_left = np.take(pos_sums, pos_at)
        # a cut's negatives on the left sit at its table index plus this
        to_neg = first_at // self.width - pos_at
        neg_first = np.take(neg_sums, first_at + to_neg)
        # left->0 right->1 errs the positives on the left, negatives right;
        # along a run it never rises, and left->1 right->0 never falls
        rp_last = pos_left + (total_neg - np.take(neg_sums, last_at + to_neg))
        lp = neg_first + (total_pos - pos_left)
        rp_best = np.minimum.reduceat(rp_last, group.offsets)
        lp_best = np.minimum.reduceat(lp, group.offsets)
        rp_run = _first_hits(rp_last, rp_best, group.offsets, group.counts)
        lp_run = _first_hits(lp, lp_best, group.offsets, group.counts)
        rp_first = pos_left[rp_run] + (total_neg - neg_first[rp_run])
        rp_at = np.where(rp_first == rp_best, first_at[rp_run], last_at[rp_run])
        # a run may reach its last cut's error before it: only where the
        # position just before that cut, inside the run, already has it
        scan = np.flatnonzero((rp_at == last_at[rp_run]) & (last_at[rp_run] > first_at[rp_run]))
        before = pos_left[rp_run[scan]] + (
            total_neg - np.take(neg_sums, last_at[rp_run[scan]] - 1 + to_neg[rp_run[scan]])
        )
        scan = scan[before == rp_best[scan]]
        if scan.size:
            scanned = rp_run[scan]
            cut_at, run = self._run_cuts(first_at[scanned], last_at[scanned])
            errors = pos_left[scanned][run] + (
                total_neg - np.take(neg_sums, cut_at + to_neg[scanned][run])
            )
            segments = np.flatnonzero(np.diff(run, prepend=-1))
            rp_at[scan] = _first_hits(
                errors, rp_best[scan], segments, np.diff(segments, append=run.size), cut_at
            )
        return rp_best.tolist(), rp_at.tolist(), lp_best.tolist(), first_at[lp_run].tolist()


class DiscreteAdaBoost(BinaryClassifier):
    supports_probability = True

    def __init__(self, n_rounds=50):
        self.n_rounds = n_rounds

    def _fit(self, X, y):
        sf = _SortedFeatures(X, y)
        w = np.full(X.shape[0], 1.0 / X.shape[0])
        signs = 2.0 * y - 1.0
        self.stumps_ = []
        self.alphas_ = []
        self.stump_errors_ = []
        for _ in range(self.n_rounds):
            err, stump = sf.error_stump(w)
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
