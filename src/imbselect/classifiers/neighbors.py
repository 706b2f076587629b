"""Exact brute-force k-nearest-neighbour voting.

Test rows are scored in chunks of ``CHUNK_ROWS``. Each chunk's squared
distances to the full training set are built in place in its matmul
result, so one chunk × train float buffer is alive at a time, and it is
dropped before the next chunk's is made. ``positive_counts`` selects the
k nearest columns of that buffer a few rows at a time, so no second
chunk-sized array is made; equal distances resolve to the lower
training-row index, making the neighbour set fully deterministic.
ADASYN's hardness uses the same two functions.
"""

import numpy as np

from .base import BinaryClassifier

# Test rows per distance chunk. OpenBLAS gemm bits depend on the operand
# shape (a 1-row product differs from a taller one), so this also fixes the
# scores' bits.
CHUNK_ROWS = 256
# Rows per np.partition call in positive_counts; its copy of the rows stays
# small next to the distance buffer.
SELECT_ROWS = 32


def squared_distances(Q, X, x_sq):
    """``|q|² - 2 q·x + |x|²`` for every row pair of Q and X, built in the
    matmul result; the same operations in the same order as the plain
    expression, so the bits are the same."""
    d2 = Q @ X.T
    d2 *= 2.0
    np.subtract((Q * Q).sum(axis=1)[:, None], d2, out=d2)
    d2 += x_sq
    return d2


def positive_counts(d2, positive, k):
    """How many of each row's k nearest columns are ``positive``, equal
    distances going to the lower column index; needs 1 <= k <= ``d2.shape[1]``."""
    counts = np.empty(d2.shape[0], dtype=np.intp)
    for start in range(0, d2.shape[0], SELECT_ROWS):
        block = d2[start : start + SELECT_ROWS]
        kth = np.partition(block, k - 1, axis=1)[:, k - 1, None]
        within = block <= kth
        counts[start : start + len(block)] = np.count_nonzero(within & positive, axis=1)
        # rows whose k-th distance is tied keep only the lowest-index ties
        for i in np.flatnonzero(np.count_nonzero(within, axis=1) != k):
            row = block[i]
            inner = row < kth[i]
            tied = np.flatnonzero(row == kth[i])[: k - np.count_nonzero(inner)]
            counts[start + i] = np.count_nonzero(inner & positive) + np.count_nonzero(
                positive[tied]
            )
    return counts


class KNeighborsClassifier(BinaryClassifier):
    supports_probability = True

    def __init__(self, k=5):
        self.k = k

    def _fit(self, X, y):
        if self.k < 1:
            raise ValueError("k must be >= 1")
        self._train_X = X
        self._train_y = y
        self._train_sq = (X * X).sum(axis=1)

    def _score(self, X):
        k = min(self.k, self._train_X.shape[0])
        positive = self._train_y == 1
        out = np.empty(X.shape[0])
        for start in range(0, X.shape[0], CHUNK_ROWS):
            d2 = squared_distances(
                X[start : start + CHUNK_ROWS], self._train_X, self._train_sq
            )
            out[start : start + len(d2)] = positive_counts(d2, positive, k) / k
            del d2  # before the next chunk's buffer is made
        return out
