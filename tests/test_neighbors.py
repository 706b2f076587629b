"""The shared k-nearest kernel against a brute-force reference over all
pairs, at several chunk heights, and the memory each caller holds."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from imbselect.classifiers import neighbors
from imbselect.classifiers.neighbors import KNeighborsClassifier
from imbselect.sampling import Adasyn

ROOT = Path(__file__).resolve().parents[1]
DIMS = (1, 2, 3, 4, 5, 6, 8, 16, 28, 33)
# 1 samples every column; 128 is the shipped stride
SAMPLE_STRIDES = (1, 2, 3, 7, 64, 128)
# 1 and 7 leave ragged last chunks; 256 is a taller chunk than shipped
CHUNK_HEIGHTS = (1, 7, neighbors.CHUNK_ROWS, 256)


def fixed_order_distances(Q, X):
    """Σ_c (x_c - q_c)² for every pair of Q and X rows, summed left to right."""
    dist = np.zeros((Q.shape[0], X.shape[0]))
    for c in range(X.shape[1]):
        diff = X[:, c] - Q[:, c, None]
        diff *= diff
        dist += diff
    return dist


def positives_among_nearest(dist, positive, k):
    """Per row of dist, the positives among its k least columns, equal
    distances going to the lower column."""
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    return np.count_nonzero(positive[nearest], axis=1)


def reference_knn_score(model, X):
    """Each row's share of positives among its k nearest training rows."""
    k = min(model.k, model._train_X.shape[0])
    dist = fixed_order_distances(X, model._train_X)
    return positives_among_nearest(dist, model._train_y == 1, k) / k


def reference_hardness(X, y, pos_idx, k):
    """Each positive row's share of negatives among its k nearest other rows."""
    dist = fixed_order_distances(X[pos_idx], X)
    dist[np.arange(len(pos_idx)), pos_idx] = np.inf  # self
    return (k - positives_among_nearest(dist, y == 1, k)) / k


def at_every_height(fn, *args):
    """The bytes of fn's result, asserted equal at every chunk height."""
    results = set()
    for height in CHUNK_HEIGHTS:
        with mock.patch.object(neighbors, "CHUNK_ROWS", height):
            results.add(fn(*args).tobytes())
    assert len(results) == 1
    return results.pop()


@st.composite
def train_sets(draw):
    """Rows that are often tied at the k-th distance: values rounded to a
    few levels, rows repeated the way random_over appends copies. 2-40 rows,
    or 200-3,000 so that a strided sample holds many columns. Also returns
    the rule that made the rows (rounding, then a scale of 1 or 1e6), for
    query rows made the same way."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from(DIMS))
    min_rows, max_rows = draw(st.sampled_from(((2, 40), (200, 3000))))
    n_base = draw(st.integers(1, max_rows))
    decimals = draw(st.sampled_from((0, 1, None)))
    scale = draw(st.sampled_from((1.0, 1e6)))

    def make_rows(count):
        rows = rng.normal(0.0, 2.0, (count, d))
        return (rows if decimals is None else np.round(rows, decimals)) * scale

    X = make_rows(n_base)
    n_copies = draw(st.integers(max(0, min_rows - n_base), max_rows - n_base))
    X = np.vstack([X, X[rng.integers(0, n_base, n_copies)]])
    if draw(st.booleans()):
        X = X[rng.permutation(X.shape[0])]
    y = rng.integers(0, 2, X.shape[0])
    y[rng.choice(X.shape[0], 2, replace=False)] = (0, 1)
    return rng, make_rows, np.ascontiguousarray(X), y


def pick_k(n, small_k, k_offset, from_end):
    """``small_k``, or ``n + k_offset`` (at least 1) when counting back from n."""
    return max(1, n + k_offset) if from_end else small_k


@settings(max_examples=300, deadline=None)
@given(
    data=train_sets(),
    small_k=st.integers(1, 40),
    k_offset=st.integers(-40, 3),
    from_end=st.booleans(),
    n_test=st.sampled_from((1, 2, 7, 257, 258, 513)),
    copied=st.floats(0.0, 1.0),
    sample_stride=st.sampled_from(SAMPLE_STRIDES),
)
def test_knn_scores_equal_reference(
    data, small_k, k_offset, from_end, n_test, copied, sample_stride
):
    rng, make_rows, X, y = data
    n = X.shape[0]
    k = pick_k(n, small_k, k_offset, from_end)  # a k above n is clamped to n
    Xq = make_rows(n_test)
    copies = rng.random(n_test) < copied
    Xq[copies] = X[rng.integers(0, n, copies.sum())]
    model = KNeighborsClassifier(k=k).fit(X, y)
    with mock.patch.object(neighbors, "SAMPLE_STRIDE", sample_stride):
        got = at_every_height(model.predict_score, Xq)
    assert got == reference_knn_score(model, Xq).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    data=train_sets(),
    small_k=st.integers(1, 40),
    k_offset=st.integers(-40, -1),
    from_end=st.booleans(),
    n_pos=st.integers(1, 40),
    sample_stride=st.sampled_from(SAMPLE_STRIDES),
)
def test_adasyn_hardness_equals_reference(
    data, small_k, k_offset, from_end, n_pos, sample_stride
):
    rng, _, X, _ = data
    n = X.shape[0]
    k = min(pick_k(n, small_k, k_offset, from_end), n - 1)  # 1 .. n-1
    pos_idx = np.sort(rng.choice(n, min(n_pos, n), replace=False))
    y = np.zeros(n, dtype=np.int64)
    y[pos_idx] = 1
    with mock.patch.object(neighbors, "SAMPLE_STRIDE", sample_stride):
        got = at_every_height(Adasyn(k_neighbors=k)._hardness, X, y, pos_idx)
    assert got == reference_hardness(X, y, pos_idx, k).tobytes()


def test_neighbours_do_not_follow_the_product_under_cancellation():
    # far from the origin the product's |q|² - 2 q·x + |x|² loses every
    # digit of these distances, so only the fixed-order sum orders them
    rng = np.random.default_rng(5)
    X = 1e4 + rng.normal(0.0, 1e-3, (500, 3))
    y = (rng.random(500) < 0.5).astype(np.int64)
    model = KNeighborsClassifier(k=5).fit(X, y)
    Xq = 1e4 + rng.normal(0.0, 1e-3, (40, 3))
    assert at_every_height(model.predict_score, Xq) == reference_knn_score(model, Xq).tobytes()
    pos_idx = np.flatnonzero(y)
    got = at_every_height(Adasyn(k_neighbors=5)._hardness, X, y, pos_idx)
    assert got == reference_hardness(X, y, pos_idx, 5).tobytes()


def traced_peak(fn, *args):
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_knn_score_holds_one_chunk_buffer():
    rng = np.random.default_rng(3)
    n_train = 8000
    X = rng.normal(size=(n_train, 8))
    y = (rng.random(n_train) < 0.3).astype(np.int64)
    model = KNeighborsClassifier(k=5).fit(X, y)
    Xq = rng.normal(size=(600, 8))  # many chunks, the last one short
    scores, peak = traced_peak(model.predict_score, Xq)
    assert scores.shape == (600,)
    assert peak <= 1.1 * neighbors.CHUNK_ROWS * n_train * 8


def test_knn_fit_holds_no_row_by_column_temporary():
    # the squared row norms come from einsum; (X * X).sum(axis=1) held an
    # n x p product first and peaked at 1.03x X
    rng = np.random.default_rng(6)
    X = rng.normal(size=(20_000, 30))
    y = (rng.random(X.shape[0]) < 0.5).astype(np.int64)
    _, peak = traced_peak(KNeighborsClassifier(k=5).fit, X, y)
    assert peak < 0.5 * X.nbytes


def test_adasyn_hardness_holds_one_distance_matrix():
    rng = np.random.default_rng(4)
    n, n_pos = 8000, 300
    X = rng.normal(size=(n, 8))
    y = np.zeros(n, dtype=np.int64)
    pos_idx = np.sort(rng.choice(n, n_pos, replace=False))
    y[pos_idx] = 1
    hardness, peak = traced_peak(Adasyn(k_neighbors=5)._hardness, X, y, pos_idx)
    assert hardness.shape == (n_pos,)
    assert peak <= 1.1 * neighbors.CHUNK_ROWS * n * 8


# scores kNN and ADASYN hardness against the credit-card train split's
# shape, where a distance chunk's product has other bits at 2 BLAS threads
# than at 1, and prints a digest of one raw chunk, then the scores' and the
# hardness' bytes
THREADED_NEIGHBOURS = """
import hashlib
import numpy as np
from imbselect.classifiers.neighbors import CHUNK_ROWS, KNeighborsClassifier, squared_distances
from imbselect.sampling import Adasyn
rng = np.random.default_rng(0)
X = rng.normal(size=(227_845, 30))
y = (rng.random(X.shape[0]) < 0.5).astype(np.int64)
pos_idx = rng.choice(np.flatnonzero(y), 2 * CHUNK_ROWS, replace=False)
Q = rng.normal(size=(2 * CHUNK_ROWS, 30))
block = squared_distances(Q[:CHUNK_ROWS], X, (X * X).sum(axis=1))
scores = KNeighborsClassifier(k=5).fit(X, y).predict_score(Q)
hardness = Adasyn(k_neighbors=5)._hardness(X, y, pos_idx)
print(hashlib.sha256(block.tobytes()).hexdigest(), scores.tobytes().hex(), hardness.tobytes().hex())
"""


@pytest.mark.skipif(
    (os.cpu_count() or 1) < 2, reason="one CPU runs BLAS at one thread: nothing to compare"
)
def test_neighbours_do_not_depend_on_blas_threads():
    # the thread count is read when numpy loads, so each setting gets a process
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", THREADED_NEIGHBOURS],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    blocks, scores, hardness = zip(*outputs)
    # the screen's own bits move, so equal neighbours below are not by luck
    assert blocks[0] != blocks[1]
    assert scores[0] == scores[1]
    assert hardness[0] == hardness[1]
    for values in (scores[0], hardness[0]):
        assert len(set(np.frombuffer(bytes.fromhex(values)))) > 1
