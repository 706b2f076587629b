"""Synthetic CSV fixtures with known generative structure.

``gaussian-imbalanced`` mirrors the shape of an encoded transaction file:
columns Time, V1..Vp, Amount, Class, where the minority class is shifted
with per-component decaying signal (so leading components carry most of
the separation). ``segment-minority`` puts every minority point exactly on
one line segment, which makes interpolation-based oversampling geometry
checkable to machine precision.
"""

import csv
from pathlib import Path

import numpy as np

from .base import derive_rng

FIXTURE_KINDS = ("gaussian-imbalanced", "segment-minority")


def _counts(n, imbalance_ratio):
    if n < 10:
        raise ValueError(f"n must be >= 10, got {n}")
    if not 0.0 < imbalance_ratio <= 0.5:
        raise ValueError(f"imbalance_ratio must be in (0, 0.5], got {imbalance_ratio}")
    n_pos = max(1, int(np.floor(n * imbalance_ratio + 0.5)))
    return n - n_pos, n_pos


def make_fixture(kind, n, imbalance_ratio, seed, out_path, n_features=8,
                 separation=2.5):
    """Write a fixture CSV; same arguments produce identical bytes. Rows are
    written one at a time, so no formatted copy of the data is held."""
    if kind not in FIXTURE_KINDS:
        raise ValueError(f"unknown fixture kind {kind!r}; known: {FIXTURE_KINDS}")
    n_neg, n_pos = _counts(n, imbalance_ratio)
    rng = derive_rng(seed, "fixture", kind)

    if kind == "gaussian-imbalanced":
        generate = _gaussian_imbalanced
    else:
        generate = _segment_minority
    header, row_values = generate(rng, n_neg, n_pos, n_features, separation)

    order = rng.permutation(n_neg + n_pos)
    Path(out_path).parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        # negatives come first, so row i is positive when i >= n_neg; csv
        # writes a float as its repr
        for i in order:
            writer.writerow(row_values(i) + [int(i >= n_neg)])
    return out_path


def _gaussian_imbalanced(rng, n_neg, n_pos, p, separation):
    shift = separation / np.sqrt(np.arange(1, p + 1))
    negatives = rng.normal(0.0, 1.0, (n_neg, p))
    positives = rng.normal(0.0, 1.0, (n_pos, p)) + shift
    time_col = np.sort(rng.uniform(0.0, 172_800.0, n_neg + n_pos))
    amount_col = np.round(np.exp(rng.normal(3.0, 1.2, n_neg + n_pos)), 2)
    header = ["Time"] + [f"V{j}" for j in range(1, p + 1)] + ["Amount", "Class"]
    features = np.vstack([negatives, positives])
    return header, lambda i: (
        [float(time_col[i])] + features[i].tolist() + [float(amount_col[i])]
    )


def _segment_minority(rng, n_neg, n_pos, p, separation):
    a = np.full(p, separation)
    b = np.full(p, separation)
    b[0] += 4.0  # the segment runs along the first axis
    t = rng.random(n_pos)
    positives = a + t[:, None] * (b - a)
    negatives = rng.normal(0.0, 1.0, (n_neg, p))
    header = [f"V{j}" for j in range(1, p + 1)] + ["Class"]
    features = np.vstack([negatives, positives])
    return header, lambda i: features[i].tolist()
