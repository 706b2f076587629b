"""Exact brute-force k-nearest-neighbour voting.

Test rows are scored in chunks of ``CHUNK_ROWS``. One chunk × train float
buffer is made per score and reused: each chunk's squared distances to the
full training set are built in place in it, starting from the matmul
written into it, so no chunk allocates a buffer of its own (a fresh one
per chunk left freed heap behind in long-lived workers).
``positive_counts`` screens each row of that buffer with a strided column
sample and selects the k nearest among the few columns that pass, so it
copies only the sample and the survivors, never a chunk-sized array; equal
distances resolve to the lower training-row index, making the neighbour
set fully deterministic. It reads the distances as built and only compares
them, so the screen cannot change a score. ADASYN's hardness uses the same
two functions.
"""

import numpy as np

from ..validation import count
from .base import BinaryClassifier

# Test rows per distance chunk. OpenBLAS gemm bits depend on the operand
# shape (a 1-row product differs from a taller one), so this also fixes the
# scores' bits.
CHUNK_ROWS = 256
# Every SAMPLE_STRIDE-th column of a row is the sample whose k-th smallest
# distance bounds the row's own k-th from above. A wider stride copies a
# smaller sample but leaves more survivors (about k × stride a row); 128
# timed best both at 5-6k and at 228k train rows.
SAMPLE_STRIDE = 128


def squared_distances(Q, X, x_sq, out=None):
    """``|q|² - 2 q·x + |x|²`` for every row pair of Q and X, built in the
    matmul result (``out`` when given); the same operations in the same
    order as the plain expression, so the bits are the same."""
    d2 = np.matmul(Q, X.T, out=out)
    d2 *= 2.0
    np.subtract((Q * Q).sum(axis=1)[:, None], d2, out=d2)
    d2 += x_sq
    return d2


def positive_counts(d2, positive, k):
    """How many of each row's k nearest columns are ``positive``, equal
    distances going to the lower column index; needs 1 <= k <= ``d2.shape[1]``.

    A subset's k-th smallest is never below the whole row's, so every column
    at or below the row's k-th distance, ties included, is also at or below
    the k-th smallest of the strided sample. Only those survivors are
    selected from and counted; with fewer than k sampled columns the bound
    is ``inf`` and every column survives.
    """
    sample = d2[:, ::SAMPLE_STRIDE]
    if sample.shape[1] >= k:
        bounds = np.partition(sample, k - 1, axis=1)[:, k - 1]
    else:
        bounds = np.full(d2.shape[0], np.inf)
    counts = np.empty(d2.shape[0], dtype=np.intp)
    for i, (row, bound) in enumerate(zip(d2, bounds)):
        cols = (row <= bound).nonzero()[0]
        near = row[cols]
        kth = np.partition(near, k - 1)[k - 1]
        nearest = cols[near <= kth]
        if nearest.size > k:  # a tied k-th distance: the lowest-index ties fill the k
            inner = cols[near < kth]
            nearest = np.concatenate([inner, cols[near == kth][: k - inner.size]])
        counts[i] = np.count_nonzero(positive[nearest])
    return counts


class KNeighborsClassifier(BinaryClassifier):
    supports_probability = True

    options = {"k": (5, count(1))}

    def _fit(self, X, y):
        self._train_X = X
        self._train_y = y
        self._train_sq = (X * X).sum(axis=1)

    def _score(self, X):
        k = min(self.k, self._train_X.shape[0])
        positive = self._train_y == 1
        out = np.empty(X.shape[0])
        buffer = np.empty((min(CHUNK_ROWS, X.shape[0]), self._train_X.shape[0]))
        for start in range(0, X.shape[0], CHUNK_ROWS):
            chunk = X[start : start + CHUNK_ROWS]
            d2 = squared_distances(chunk, self._train_X, self._train_sq, out=buffer[: len(chunk)])
            out[start : start + len(chunk)] = positive_counts(d2, positive, k) / k
        return out
