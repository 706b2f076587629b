"""Exact brute-force k-nearest-neighbour voting.

A row's neighbours are the k training rows at the least distance
``Σ_c (x_c - q_c)²``, summed over the columns left to right, equal
distances going to the lower training-row index. That distance is
elementwise arithmetic in a fixed order, so the neighbours depend neither
on BLAS, nor on its thread count, nor on how the rows are chunked.

``nearest`` finds them in chunks of ``CHUNK_ROWS`` rows. One chunk
× train float buffer is made per call and reused: each chunk's squared
distances to the full training set are built in place in it from one
matrix product (``squared_distances``). Those computed distances only
screen. Their error against the fixed-order sum is bounded
(``_DISTANCE_SLACK``), so a column can be among a row's k nearest only if
its computed distance is within a per-row band of the row's computed k-th
distance. A strided column sample bounds that k-th distance from above,
so each row copies only the sample and the columns below the bound, a few
hundred. The columns within the band, usually exactly k a row, are
recomputed by the fixed-order sum for the whole chunk at once, and the k
nearest of them are returned in order. kNN scores, ADASYN's hardness
(each positive row left out of its own neighbours) and the SMOTE and
ADASYN minority tables all take their neighbours from it.
"""

import numpy as np

from ..validation import count
from .base import BinaryClassifier

# Rows per distance chunk. Neighbours do not depend on it: it sets the
# buffer, CHUNK_ROWS × train rows × 8 bytes (58 MB against 227,845 rows).
# Of 32, 64 and 256, 32 scored fastest at 4,800-6,388 train rows.
CHUNK_ROWS = 32
# Every SAMPLE_STRIDE-th column of a row is the sample whose k-th smallest
# distance bounds the row's own k-th from above. A wider stride copies a
# smaller sample but leaves more survivors (about k × stride a row); 128
# timed best both at 5-6k and at 228k train rows.
SAMPLE_STRIDE = 128
# The screen's band, per unit of (p + 2)(|q| + max |x|)² for p columns
# (Higham 2002, ch. 3; u = 2**-53, γ_n = nu / (1 - nu)). In any summation
# order, fused or not, the product's q·x is within γ_p |q||x| of exact and
# each squared norm within γ_p of its own; the subtraction and the addition
# that finish ``squared_distances`` round twice more, so a computed
# distance is within γ_{p+2} (|q| + |x|)² of the exact D. The fixed-order
# sum rounds each difference, its square and up to p - 1 partial sums:
# within γ_{p+2} D <= γ_{p+2} (|q| + |x|)². The two values thus differ by at
# most s = 2 γ_{p+2} (|q| + |x|)². The k columns at or below a row's
# computed k-th distance t have fixed-order distances at most t + s, so
# the k-th fixed-order distance is at most t + s too, and every column at
# or below it has a computed distance at most t + 2s, a band of
# 4 (p + 2) u (|q| + max |x|)² up to γ's 1 / (1 - (p + 2) u). 2**-50 is 8u,
# twice that, which also covers the roundings of |q|, max |x| and the band
# itself. Underflow adds at most 2**-1075 a product, which the tiny term
# per column covers.
_DISTANCE_SLACK = 2.0 ** -50


def squared_distances(Q, X, x_sq, out=None):
    """``|q|² - 2 q·x + |x|²`` for every row pair of Q and X, built in the
    matmul result (``out`` when given). Its low bits depend on BLAS."""
    d2 = np.matmul(Q, X.T, out=out)
    d2 *= 2.0
    np.subtract((Q * Q).sum(axis=1)[:, None], d2, out=d2)
    d2 += x_sq
    return d2


def nearest(Q, X, x_sq, k, exclude=None):
    """Each Q row's k nearest X rows, nearest first, equal distances going
    to the lower X row. ``x_sq`` holds X's squared row norms. ``exclude``,
    when given, names one X row per Q row that is not among its neighbours
    (the row itself); needs 1 <= k <= the X rows left."""
    near = np.empty((Q.shape[0], k), dtype=np.intp)
    buffer = np.empty((min(CHUNK_ROWS, Q.shape[0]), X.shape[0]))
    reach = np.sqrt(x_sq.max(initial=0.0))
    tiny = np.finfo(float).tiny
    for start in range(0, Q.shape[0], CHUNK_ROWS):
        chunk = Q[start : start + CHUNK_ROWS]
        d2 = squared_distances(chunk, X, x_sq, out=buffer[: len(chunk)])
        if exclude is not None:
            d2[np.arange(len(chunk)), exclude[start : start + len(chunk)]] = np.inf
        norms = np.sqrt((chunk * chunk).sum(axis=1))
        band = (X.shape[1] + 2) * (_DISTANCE_SLACK * (norms + reach) ** 2 + tiny)
        rows, cols = _candidates(d2, band, k)
        # d2.size alone would have a tiny X sum a few pairs a step
        limit = max(d2.size, CHUNK_ROWS * SAMPLE_STRIDE)
        near[start : start + len(chunk)] = _k_nearest(chunk, X, rows, cols, k, limit)
    return near


def _candidates(d2, band, k):
    """(row, column) pairs, by row, of the columns whose computed distance
    is at most the row's computed k-th distance plus its band.

    A subset's k-th smallest is never below the whole row's, so the strided
    sample's k-th distance plus the band keeps every such column; with
    fewer than k sampled columns the bound is ``inf`` and every column is
    kept. The row's k-th is taken among those kept.
    """
    sample = d2[:, ::SAMPLE_STRIDE]
    if sample.shape[1] >= k:
        bounds = np.partition(sample, k - 1, axis=1)[:, k - 1] + band
    else:
        bounds = np.full(d2.shape[0], np.inf)
    picks = []
    for row, bound, slack in zip(d2, bounds, band):
        cols = (row <= bound).nonzero()[0]
        near = row[cols]
        kth = np.partition(near, k - 1)[k - 1]
        picks.append(cols[near <= kth + slack])
    rows = np.repeat(np.arange(d2.shape[0]), [len(cols) for cols in picks])
    return rows, np.concatenate(picks)


def _k_nearest(Q, X, rows, cols, k, limit):
    """Per Q row, the k of its ``cols`` nearest by the fixed-order
    distance, nearest first, equal distances going to the lower column. At
    most ``limit`` differences are held at once: ties at the k-th distance,
    or a k near the training-set size, can make every pair near."""
    dist = np.zeros(len(rows))
    step = max(1, limit // max(1, X.shape[1]))
    for start in range(0, len(rows), step):
        diff = X[cols[start : start + step]] - Q[rows[start : start + step]]
        diff *= diff
        part = dist[start : start + step]
        for c in range(diff.shape[1]):  # left to right, elementwise
            part += diff[:, c]
    order = np.lexsort((cols, dist, rows))
    rows, cols = rows[order], cols[order]
    rank = np.arange(len(rows)) - np.searchsorted(rows, rows)  # place in its row
    return cols[rank < k].reshape(Q.shape[0], k)


class KNeighborsClassifier(BinaryClassifier):
    supports_probability = True

    options = {"k": (5, count(1))}

    def _fit(self, X, y):
        self._train_X = X
        self._train_y = y
        self._train_sq = np.einsum("ij,ij->i", X, X)  # no n x p temporary

    def _score(self, X):
        k = min(self.k, self._train_X.shape[0])
        near = nearest(X, self._train_X, self._train_sq, k)
        return np.count_nonzero(self._train_y[near] == 1, axis=1) / k
