"""The shared k-nearest kernel against the per-row implementations it
replaced, bit for bit, and the memory each caller holds."""

import tracemalloc
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from imbselect.classifiers import neighbors
from imbselect.classifiers.neighbors import KNeighborsClassifier
from imbselect.sampling import Adasyn

DIMS = (1, 2, 3, 4, 5, 6, 8, 16, 28, 33)
SELECT_ROWS = (1, 3, 32, 10**9)


def reference_knn_score(model, X, chunk_rows=256):
    """kNN scores as a plain expression per chunk, with a per-row pick of
    the lowest-index ties at the k-th distance."""
    k = min(model.k, model._train_X.shape[0])
    out = np.empty(X.shape[0])
    for start in range(0, X.shape[0], chunk_rows):
        chunk = X[start : start + chunk_rows]
        d2 = (
            (chunk * chunk).sum(axis=1)[:, None]
            - 2.0 * (chunk @ model._train_X.T)
            + model._train_sq[None, :]
        )
        if k == model._train_X.shape[0]:
            votes = np.repeat(model._train_y.mean(), chunk.shape[0])
        else:
            kth = np.partition(d2, k - 1, axis=1)[:, k - 1]
            votes = np.empty(chunk.shape[0])
            for i in range(chunk.shape[0]):
                inner = np.flatnonzero(d2[i] < kth[i])
                need = k - inner.size
                boundary = np.flatnonzero(d2[i] == kth[i])[:need]
                neighbors_ = np.concatenate([inner, boundary])
                votes[i] = model._train_y[neighbors_].mean()
        out[start : start + chunk.shape[0]] = votes
    return out


def reference_hardness(X, y, pos_idx, k):
    """ADASYN hardness from a full stable argsort of the positives × train
    distances."""
    sq = (X * X).sum(axis=1)
    minority = X[pos_idx]
    d2 = (
        (minority * minority).sum(axis=1)[:, None]
        - 2.0 * (minority @ X.T)
        + sq[None, :]
    )
    d2[np.arange(len(pos_idx)), pos_idx] = np.inf  # self
    order = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return (y[order] == 0).mean(axis=1)


@st.composite
def train_sets(draw, min_rows=2, max_rows=40):
    """Rows that are often tied at the k-th distance: values rounded to a
    few levels, rows repeated the way random_over appends copies."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.sampled_from(DIMS))
    n_base = draw(st.integers(1, max_rows))
    decimals = draw(st.sampled_from((0, 1, None)))
    X = rng.normal(0.0, 2.0, (n_base, d))
    if decimals is not None:
        X = np.round(X, decimals)
    n_copies = draw(st.integers(0, max_rows - n_base))
    X = np.vstack([X, X[rng.integers(0, n_base, n_copies)]])
    if X.shape[0] < min_rows:
        X = np.vstack([X, X])
    if draw(st.booleans()):
        X = X[rng.permutation(X.shape[0])]
    y = rng.integers(0, 2, X.shape[0])
    y[rng.choice(X.shape[0], 2, replace=False)] = (0, 1)
    return rng, decimals, np.ascontiguousarray(X), y


@settings(max_examples=300, deadline=None)
@given(
    data=train_sets(),
    k_offset=st.integers(-40, 3),
    n_test=st.sampled_from((1, 2, 7, 257, 258, 513)),
    copied=st.floats(0.0, 1.0),
    select_rows=st.sampled_from(SELECT_ROWS),
)
def test_knn_scores_equal_reference(data, k_offset, n_test, copied, select_rows):
    rng, decimals, X, y = data
    n = X.shape[0]
    k = max(1, n + k_offset)  # 1 .. n-1, and n .. n+3
    Xq = rng.normal(0.0, 2.0, (n_test, X.shape[1]))
    if decimals is not None:
        Xq = np.round(Xq, decimals)
    copies = rng.random(n_test) < copied
    Xq[copies] = X[rng.integers(0, n, copies.sum())]
    model = KNeighborsClassifier(k=k).fit(X, y)
    with mock.patch.object(neighbors, "SELECT_ROWS", select_rows):
        got = model.predict_score(Xq)
    assert got.tobytes() == reference_knn_score(model, Xq).tobytes()


@settings(max_examples=300, deadline=None)
@given(
    data=train_sets(),
    k_offset=st.integers(-40, -1),
    n_pos=st.integers(1, 40),
    select_rows=st.sampled_from(SELECT_ROWS),
)
def test_adasyn_hardness_equals_reference(data, k_offset, n_pos, select_rows):
    rng, _, X, _ = data
    n = X.shape[0]
    k = max(1, n + k_offset)  # 1 .. n-1
    pos_idx = np.sort(rng.choice(n, min(n_pos, n), replace=False))
    y = np.zeros(n, dtype=np.int64)
    y[pos_idx] = 1
    with mock.patch.object(neighbors, "SELECT_ROWS", select_rows):
        got = Adasyn(k_neighbors=k)._hardness(X, y, pos_idx)
    assert got.tobytes() == reference_hardness(X, y, pos_idx, k).tobytes()


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
    Xq = rng.normal(size=(600, 8))  # three chunks
    scores, peak = traced_peak(model.predict_score, Xq)
    assert scores.shape == (600,)
    assert peak <= 1.5 * neighbors.CHUNK_ROWS * n_train * 8


def test_adasyn_hardness_holds_one_distance_matrix():
    rng = np.random.default_rng(4)
    n, n_pos = 8000, 300
    X = rng.normal(size=(n, 8))
    y = np.zeros(n, dtype=np.int64)
    pos_idx = np.sort(rng.choice(n, n_pos, replace=False))
    y[pos_idx] = 1
    hardness, peak = traced_peak(Adasyn(k_neighbors=5)._hardness, X, y, pos_idx)
    assert hardness.shape == (n_pos,)
    assert peak <= 1.5 * n_pos * n * 8
