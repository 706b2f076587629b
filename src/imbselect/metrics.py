"""Evaluation suite for imbalanced binary classification.

All metrics treat label 1 as the positive (minority) class. Ratios with a
zero denominator return 0.0 and raise a degenerate flag instead of NaN so
that leaderboards keep a total order.

Two ROC areas are reported: ``auroc_curve`` is the rank-based area over all
score thresholds, ``auroc_point`` is the single-threshold area
(recall + tnr) / 2, i.e. balanced accuracy.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .validation import check_labels

METRIC_KEYS = (
    "accuracy",
    "precision",
    "recall",
    "f1",
    "gmean",
    "auroc_curve",
    "auroc_point",
    "cohen_kappa",
    "matthews",
    "hamming_loss",
)


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    def __post_init__(self):
        for name in ("tp", "fp", "fn", "tn"):
            value = getattr(self, name)
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    @property
    def total(self):
        return self.tp + self.fp + self.fn + self.tn


@dataclass(frozen=True)
class MetricRecord:
    accuracy: float
    precision: float
    recall: float
    f1: float
    gmean: float
    auroc_curve: float
    auroc_point: float
    cohen_kappa: float
    matthews: float
    hamming_loss: float
    train_time_seconds: float = 0.0
    degenerate_flags: frozenset = field(default_factory=frozenset)

    def value(self, key):
        if key not in METRIC_KEYS:
            raise KeyError(f"unknown metric key {key!r}; valid keys: {METRIC_KEYS}")
        return getattr(self, key)


def confusion(y_true, y_pred):
    """Exact TP/FP/FN/TN counts for binary label vectors."""
    y_true = check_labels(y_true, "y_true")
    y_pred = check_labels(y_pred, "y_pred")
    if y_true.shape[0] != y_pred.shape[0]:
        raise ValueError(
            f"length mismatch: {y_true.shape[0]} true labels vs {y_pred.shape[0]} predictions"
        )
    if y_true.shape[0] == 0:
        raise ValueError("cannot build a confusion matrix from zero rows")
    tp = int(np.sum((y_true == 1) & (y_pred == 1)))
    fp = int(np.sum((y_true == 0) & (y_pred == 1)))
    fn = int(np.sum((y_true == 1) & (y_pred == 0)))
    tn = int(np.sum((y_true == 0) & (y_pred == 0)))
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


def _ratio(num, den):
    """num/den with the 0-denominator convention; returns (value, degenerate)."""
    if den == 0:
        return 0.0, True
    return num / den, False


def accuracy(c):
    return (c.tp + c.tn) / c.total


def hamming_loss(c):
    return (c.fp + c.fn) / c.total


def precision(c):
    return _ratio(c.tp, c.tp + c.fp)[0]


def recall(c):
    return _ratio(c.tp, c.tp + c.fn)[0]


def tnr(c):
    return _ratio(c.tn, c.tn + c.fp)[0]


def f1(c):
    p = precision(c)
    r = recall(c)
    return _ratio(2.0 * p * r, p + r)[0]


def gmean(c):
    return math.sqrt(recall(c) * tnr(c))


def cohen_kappa(c):
    n = c.total
    p_o = (c.tp + c.tn) / n
    p_e = ((c.tp + c.fp) * (c.tp + c.fn) + (c.fn + c.tn) * (c.fp + c.tn)) / (n * n)
    return _ratio(p_o - p_e, 1.0 - p_e)[0]


def matthews(c):
    # exact integer products: the four marginals can overflow float64 precision
    num = c.tp * c.tn - c.fp * c.fn
    den = (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn)
    if den == 0:
        return 0.0
    return num / math.sqrt(den)


def auroc_point(c):
    """Area under the one-point ROC: (recall + tnr) / 2."""
    return (recall(c) + tnr(c)) / 2.0


def auroc_curve(y_true, scores):
    """Rank-based ROC area; score ties contribute 1/2 per tied pair."""
    y_true = check_labels(y_true, "y_true")
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1 or scores.shape[0] != y_true.shape[0]:
        raise ValueError("scores must be a vector matching y_true in length")
    n_pos = int(np.sum(y_true == 1))
    n_neg = y_true.shape[0] - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("auroc_curve requires both classes in y_true")
    _, inverse, counts = np.unique(scores, return_inverse=True, return_counts=True)
    ends = np.cumsum(counts)
    avg_rank = ends - (counts - 1) / 2.0  # 1-based, tie groups share their mean rank
    ranks = avg_rank[inverse]
    rank_sum = float(np.sum(ranks[y_true == 1]))
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def _flags(c):
    flags = set()
    if c.tp + c.fp == 0:
        flags.add("precision_zero_denominator")
    if c.tp + c.fn == 0:
        flags.add("recall_zero_denominator")
    if c.tn + c.fp == 0:
        flags.add("tnr_zero_denominator")
    if precision(c) + recall(c) == 0:
        flags.add("f1_zero_denominator")
    n = c.total
    p_e = ((c.tp + c.fp) * (c.tp + c.fn) + (c.fn + c.tn) * (c.fp + c.tn)) / (n * n)
    if p_e == 1.0:
        flags.add("kappa_degenerate")
    if (c.tp + c.fp) * (c.tp + c.fn) * (c.tn + c.fp) * (c.tn + c.fn) == 0:
        flags.add("matthews_zero_denominator")
    return flags


def metric_record(y_true, y_pred, scores, train_time_seconds=0.0, extra_flags=()):
    """Full MetricRecord from predictions and scores on one evaluation set."""
    c = confusion(y_true, y_pred)
    flags = _flags(c)
    flags.update(extra_flags)
    return MetricRecord(
        accuracy=accuracy(c),
        precision=precision(c),
        recall=recall(c),
        f1=f1(c),
        gmean=gmean(c),
        auroc_curve=auroc_curve(y_true, scores),
        auroc_point=auroc_point(c),
        cohen_kappa=cohen_kappa(c),
        matthews=matthews(c),
        hamming_loss=hamming_loss(c),
        train_time_seconds=float(train_time_seconds),
        degenerate_flags=frozenset(flags),
    )
