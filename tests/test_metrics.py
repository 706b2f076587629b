"""Metric suite vs. independent direct-definition oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbselect import metrics as M

# Confusion matrix reconstructed from the published forest row of the
# reference benchmark: precision 70/76, recall 70/98 on a 56,962-row split.
RF_MATRIX = M.ConfusionMatrix(tp=70, fp=6, fn=28, tn=56858)


# ---------------------------------------------------------------------------
# oracles: deliberately naive, no shared code with the implementation
# ---------------------------------------------------------------------------

def oracle_counts(y_true, y_pred):
    tp = fp = fn = tn = 0
    for t, p in zip(y_true, y_pred):
        if t == 1 and p == 1:
            tp += 1
        elif t == 0 and p == 1:
            fp += 1
        elif t == 1 and p == 0:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def oracle_metrics(tp, fp, fn, tn):
    total = tp + fp + fn + tn
    div = lambda a, b: a / b if b else 0.0
    prec = div(tp, tp + fp)
    rec = div(tp, tp + fn)
    tnr_ = div(tn, tn + fp)
    p_o = (tp + tn) / total
    p_e = ((tp + fp) * (tp + fn) + (fn + tn) * (fp + tn)) / total**2
    mcc_den = math.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    return {
        "accuracy": (tp + tn) / total,
        "precision": prec,
        "recall": rec,
        "f1": div(2 * prec * rec, prec + rec),
        "gmean": math.sqrt(rec * tnr_),
        "auroc_point": (rec + tnr_) / 2,
        "cohen_kappa": div(p_o - p_e, 1 - p_e),
        "matthews": div(tp * tn - fp * fn, mcc_den),
        "hamming_loss": (fp + fn) / total,
    }


def oracle_auroc_pairs(y_true, scores):
    """Concordant-pair count over every (positive, negative) pair."""
    pos = [s for t, s in zip(y_true, scores) if t == 1]
    neg = [s for t, s in zip(y_true, scores) if t == 0]
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def impl_metrics(c):
    return {
        "accuracy": M.accuracy(c),
        "precision": M.precision(c),
        "recall": M.recall(c),
        "f1": M.f1(c),
        "gmean": M.gmean(c),
        "auroc_point": M.auroc_point(c),
        "cohen_kappa": M.cohen_kappa(c),
        "matthews": M.matthews(c),
        "hamming_loss": M.hamming_loss(c),
    }


# ---------------------------------------------------------------------------
# frozen values
# ---------------------------------------------------------------------------

def test_confusion_counts_simple():
    c = M.confusion([1, 0, 1], [1, 0, 1])
    assert (c.tp, c.tn, c.fp, c.fn) == (2, 1, 0, 0)


def test_confusion_all_positive_prediction():
    c = M.confusion([0, 0, 1], [1, 1, 1])
    assert (c.tp, c.fp, c.fn, c.tn) == (1, 2, 0, 0)


def test_confusion_rejects_mismatched_lengths():
    with pytest.raises(ValueError, match="length mismatch"):
        M.confusion([1, 0], [1])


def test_confusion_rejects_non_binary():
    with pytest.raises(ValueError, match="only 0 and 1"):
        M.confusion([1, 2], [1, 0])


def test_published_forest_row_reconstruction():
    assert M.f1(RF_MATRIX) == pytest.approx(0.8045977011494253, abs=1e-12)
    assert M.gmean(RF_MATRIX) == pytest.approx(0.8451096653635405, abs=1e-12)
    assert M.auroc_point(RF_MATRIX) == pytest.approx(0.85709009968647, abs=1e-12)
    assert M.matthews(RF_MATRIX) == pytest.approx(0.8108304530764076, abs=1e-12)
    assert M.cohen_kappa(RF_MATRIX) == pytest.approx(0.8043035855533456, abs=1e-12)
    assert M.accuracy(RF_MATRIX) == pytest.approx(0.999403110845827, abs=1e-12)
    assert M.hamming_loss(RF_MATRIX) == pytest.approx(0.0005968891541729574, abs=1e-12)


def test_published_neighbors_row_single_point_area():
    # neighbours row of the same benchmark: recall 72/98, precision 72/79
    c = M.ConfusionMatrix(tp=72, fp=7, fn=26, tn=56857)
    assert M.auroc_point(c) == pytest.approx(0.8673, abs=5e-4)
    assert M.recall(c) == pytest.approx(0.7347, abs=5e-4)
    assert M.precision(c) == pytest.approx(0.9114, abs=5e-4)


def test_perfect_matrix():
    c = M.ConfusionMatrix(tp=10, fp=0, fn=0, tn=90)
    assert M.accuracy(c) == M.precision(c) == M.recall(c) == 1.0
    assert M.hamming_loss(c) == 0.0
    assert M.auroc_point(c) == 1.0


def test_zero_division_policy():
    c = M.ConfusionMatrix(tp=0, fp=0, fn=5, tn=95)
    assert M.precision(c) == 0.0
    assert M.f1(c) == 0.0
    assert "precision_zero_denominator" in M._flags(c)


def test_all_positive_prediction_on_imbalanced_data_has_zero_gmean():
    c = M.ConfusionMatrix(tp=98, fp=56864, fn=0, tn=0)
    assert M.gmean(c) == 0.0
    assert M.recall(c) == 1.0
    assert M.auroc_point(c) == 0.5


def test_single_class_all_correct_kappa_is_degenerate_zero():
    c = M.confusion([1, 1, 1], [1, 1, 1])
    assert M.cohen_kappa(c) == 0.0
    assert "kappa_degenerate" in M._flags(c)


def test_auroc_curve_perfect_ordering():
    assert M.auroc_curve([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1]) == 1.0


def test_auroc_curve_constant_scores():
    assert M.auroc_curve([1, 0, 1, 0], [0.3, 0.3, 0.3, 0.3]) == 0.5


def test_auroc_curve_single_class_raises():
    with pytest.raises(ValueError, match="both classes"):
        M.auroc_curve([1, 1], [0.1, 0.2])


def test_auroc_curve_random_case_matches_pair_oracle():
    rng = np.random.default_rng(20)
    y = rng.integers(0, 2, 20)
    y[0], y[1] = 0, 1
    s = np.round(rng.random(20), 1)  # coarse grid forces ties
    assert M.auroc_curve(y, s) == pytest.approx(oracle_auroc_pairs(y, s), abs=1e-15)


def test_metric_record_collects_everything():
    y = np.array([1, 0, 1, 0, 0])
    pred = np.array([1, 0, 0, 0, 1])
    scores = np.array([0.9, 0.1, 0.4, 0.2, 0.7])
    rec = M.metric_record(y, pred, scores, train_time_seconds=1.5)
    assert rec.train_time_seconds == 1.5
    assert rec.hamming_loss == pytest.approx(1 - rec.accuracy, abs=1e-15)
    assert rec.value("f1") == rec.f1
    with pytest.raises(KeyError):
        rec.value("nope")


# ---------------------------------------------------------------------------
# randomized oracle agreement + properties
# ---------------------------------------------------------------------------

def test_metrics_match_oracle_on_random_matrices():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 500, 4))
        if tp + fp + fn + tn == 0:
            tn = 1
        c = M.ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
        expected = oracle_metrics(tp, fp, fn, tn)
        got = impl_metrics(c)
        for key, val in expected.items():
            assert got[key] == pytest.approx(val, abs=1e-12), key


def test_auroc_matches_oracle_on_random_vectors():
    rng = np.random.default_rng(13)
    for _ in range(200):
        n = int(rng.integers(5, 60))
        y = rng.integers(0, 2, n)
        y[0], y[1] = 0, 1
        s = rng.choice([0.0, 0.1, 0.25, 0.5, 0.77, 1.0], size=n)
        assert M.auroc_curve(y, s) == pytest.approx(
            oracle_auroc_pairs(y, s), abs=1e-12
        )


@given(
    tp=st.integers(0, 10_000),
    fp=st.integers(0, 10_000),
    fn=st.integers(0, 10_000),
    tn=st.integers(1, 10_000),
    scale=st.integers(1, 50),
)
def test_count_scaling_invariance(tp, fp, fn, tn, scale):
    c = M.ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
    cs = M.ConfusionMatrix(tp=tp * scale, fp=fp * scale, fn=fn * scale, tn=tn * scale)
    for fun in (M.f1, M.gmean, M.precision, M.recall, M.auroc_point):
        assert fun(cs) == pytest.approx(fun(c), abs=1e-12)


@given(
    tp=st.integers(0, 10_000),
    fp=st.integers(0, 10_000),
    fn=st.integers(0, 10_000),
    tn=st.integers(1, 10_000),
)
def test_exact_identities(tp, fp, fn, tn):
    c = M.ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
    assert M.gmean(c) ** 2 == pytest.approx(M.recall(c) * M.tnr(c), abs=1e-15)
    assert M.hamming_loss(c) + M.accuracy(c) == pytest.approx(1.0, abs=1e-15)


@given(
    tp=st.integers(0, 5_000),
    fp=st.integers(0, 5_000),
    fn=st.integers(0, 5_000),
    tn=st.integers(1, 5_000),
)
def test_label_swap_symmetry(tp, fp, fn, tn):
    c = M.ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)
    swapped = M.ConfusionMatrix(tp=tn, fp=fn, fn=fp, tn=tp)
    assert M.matthews(swapped) == pytest.approx(M.matthews(c), abs=1e-12)
    assert M.cohen_kappa(swapped) == pytest.approx(M.cohen_kappa(c), abs=1e-12)


@settings(max_examples=60)
@given(st.data())
def test_auroc_monotone_transform_invariance(data):
    n = data.draw(st.integers(6, 40))
    y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
    if y.sum() == 0:
        y[0] = 1
    if y.sum() == n:
        y[-1] = 0
    # coarse grid: distinct values stay distinct through float transforms
    s = np.array(
        data.draw(
            st.lists(
                st.floats(-50, 50, allow_nan=False), min_size=n, max_size=n
            )
        )
    ).round(3)
    base = M.auroc_curve(y, s)
    # strictly monotone transforms preserve the ranking, hence the area
    assert M.auroc_curve(y, 3.0 * s + 11.0) == pytest.approx(base, abs=1e-12)
    assert M.auroc_curve(y, np.exp(s / 60.0)) == pytest.approx(base, abs=1e-12)
