"""Input validation helpers used across estimators, and the rules that
estimator options are checked against."""

import math
import numbers
from collections import namedtuple

import numpy as np


def is_count(value, low=1):
    """True for an int (a bool is not one) of at least ``low``, so that 2.5
    fails when its spec is made rather than in every fit."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def is_real(value):
    """True for a finite real number (a bool is not one), so that ``inf``
    fails when its spec is made rather than scoring NaN in every fit."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


# An option's rule: ``text`` completes "<name> must be ...", and ``accepts``
# says whether a value meets it. Estimators list theirs in ``options``.
Rule = namedtuple("Rule", "text accepts")


def _either(parts):
    return f"{', '.join(parts[:-1])} or {parts[-1]}"


def count(low, *also):
    """An int of at least ``low``, or one of the values ``also``."""
    if not also:
        return Rule(f">= {low} (an int)", lambda value: is_count(value, low))
    return Rule(
        _either([*map(repr, also), f"an int >= {low}"]),
        lambda value: value in also or is_count(value, low),
    )


def real(low, high=None, strict=False):
    """A finite real above ``low`` (or equal to it unless ``strict``), and
    at most ``high`` if given."""
    if high is None:
        text = f"{'>' if strict else '>='} {low}"
    else:
        text = f"in {'(' if strict else '['}{low}, {high}]"
    return Rule(
        text,
        lambda value: is_real(value)
        and (value > low if strict else value >= low)
        and (high is None or value <= high),
    )


def choice(*values):
    """One of the fixed ``values``."""
    return Rule(_either(list(map(repr, values))), lambda value: value in values)


FLAG = Rule("a bool", lambda value: isinstance(value, bool))
SEED = (0, count(0))  # the table entry of an estimator that takes a seed


def check_array(X, name="X"):
    """Coerce to a 2-D float64 array and reject non-finite values."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(-1, 1)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.isfinite(arr).all():
        raise ValueError(f"{name} contains NaN or infinite values")
    return arr


def check_labels(y, name="y"):
    """Coerce to a 1-D integer vector with values in {0, 1}."""
    arr = np.asarray(y)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if arr.size and not np.isin(arr, (0, 1)).all():
        bad = arr[~np.isin(arr, (0, 1))][0]
        raise ValueError(f"{name} must contain only 0 and 1, found {bad!r}")
    return arr.astype(np.int64, copy=False)


def check_X_y(X, y):
    X = check_array(X)
    y = check_labels(y)
    if X.shape[0] != y.shape[0]:
        raise ValueError(
            f"X and y have inconsistent lengths: {X.shape[0]} rows vs {y.shape[0]} labels"
        )
    return X, y


def check_feature_width(X, expected, name="X"):
    if X.shape[1] != expected:
        raise ValueError(
            f"{name} has {X.shape[1]} features, expected {expected}"
        )


def require_both_classes(y, context="training"):
    if not ((y == 0).any() and (y == 1).any()):
        raise ValueError(f"{context} requires at least one sample of each class")
