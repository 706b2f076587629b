import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from imbselect.dataset import Dataset
from imbselect.decomposition import (
    PrincipalComponents,
    encoded_column_names,
    select_encoded,
)

ROOT = Path(__file__).resolve().parents[1]


def power_iteration_top_eigenvalue(matrix, iterations=20_000):
    """Independent oracle for the dominant eigenvalue of a PSD matrix."""
    rng = np.random.default_rng(0)
    vec = rng.normal(size=matrix.shape[0])
    vec /= np.linalg.norm(vec)
    for _ in range(iterations):
        nxt = matrix @ vec
        norm = np.linalg.norm(nxt)
        if norm == 0:
            return 0.0
        vec = nxt / norm
    return float(vec @ matrix @ vec)


def population_cov(X):
    centered = X - X.mean(axis=0)
    return centered.T @ centered / X.shape[0]


class TestPrincipalComponents:
    def test_axis_aligned_two_dim(self):
        rng = np.random.default_rng(1)
        X = np.column_stack([rng.normal(0, 2, 4000), rng.normal(0, 1, 4000)])
        # exact diagonal covariance fixture: decorrelate by construction
        X = X - X.mean(axis=0)
        X[:, 1] -= X[:, 0] * (X[:, 0] @ X[:, 1]) / (X[:, 0] @ X[:, 0])
        pca = PrincipalComponents().fit(X)
        assert np.allclose(np.abs(pca.components_), np.eye(2), atol=1e-12)
        assert pca.explained_variance_[0] > pca.explained_variance_[1]

    def test_collinear_points_fixture(self):
        X = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]])
        # oracle: covariance is [[2/3, 2/3], [2/3, 2/3]], eigenpairs by hand
        cov = population_cov(X)
        assert np.allclose(cov, [[2 / 3, 2 / 3], [2 / 3, 2 / 3]])
        pca = PrincipalComponents().fit(X)
        assert np.allclose(pca.components_[0], [1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert pca.explained_variance_[0] == pytest.approx(4 / 3, abs=1e-12)
        assert pca.explained_variance_[1] == pytest.approx(0.0, abs=1e-12)
        scores = pca.transform(X, n_components=1)
        assert np.allclose(
            scores.ravel(), [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12
        )

    def test_full_rank_round_trip(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(60, 7))
        pca = PrincipalComponents().fit(X)
        back = pca.inverse_transform(pca.transform(X))
        assert np.max(np.abs(back - X)) < 1e-8

    def test_mean_row_maps_to_origin(self):
        rng = np.random.default_rng(3)
        X = rng.normal(3.0, 1.5, size=(50, 5))
        pca = PrincipalComponents().fit(X)
        z = pca.transform(X.mean(axis=0).reshape(1, -1))
        assert np.max(np.abs(z)) < 1e-10

    def test_sign_convention(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(40, 6))
        pca = PrincipalComponents().fit(X)
        for row in pca.components_:
            assert row[np.argmax(np.abs(row))] > 0

    def test_dims_out_of_range(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        pca = PrincipalComponents().fit(X)
        with pytest.raises(ValueError, match="out of range"):
            pca.transform(X, n_components=4)
        with pytest.raises(ValueError, match="out of range"):
            pca.transform(X, n_components=0)

    def test_width_mismatch(self):
        pca = PrincipalComponents().fit(np.random.default_rng(0).normal(size=(10, 3)))
        with pytest.raises(ValueError, match="features"):
            pca.transform(np.zeros((2, 4)))

    def test_deterministic_fit(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(30, 9))
        a = PrincipalComponents().fit(X)
        b = PrincipalComponents().fit(X)
        assert np.array_equal(a.components_, b.components_)
        assert np.array_equal(a.explained_variance_, b.explained_variance_)

    def test_random_matrix_properties(self):
        rng = np.random.default_rng(8)
        for trial in range(100):
            n = int(rng.integers(5, 201))
            p = int(rng.integers(2, 31))
            X = rng.normal(size=(n, p)) * rng.uniform(0.1, 5.0, size=p)
            pca = PrincipalComponents().fit(X)
            gram = pca.components_ @ pca.components_.T
            assert np.max(np.abs(gram - np.eye(p))) < 1e-8, trial
            ev = pca.explained_variance_
            assert np.all(np.diff(ev) <= 1e-12), trial
            total = population_cov(X).trace()
            assert ev.sum() == pytest.approx(total, rel=1e-6), trial
            back = pca.inverse_transform(pca.transform(X))
            assert np.max(np.abs(back - X)) < 1e-8, trial

    def test_top_eigenvalue_matches_power_iteration(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            X = rng.normal(size=(80, 10)) * rng.uniform(0.5, 3.0, size=10)
            pca = PrincipalComponents().fit(X)
            oracle = power_iteration_top_eigenvalue(population_cov(X))
            assert pca.explained_variance_[0] == pytest.approx(oracle, rel=1e-6), trial

    def test_variance_preserved_by_full_transform(self):
        rng = np.random.default_rng(10)
        X = rng.normal(size=(120, 8)) * np.arange(1, 9)
        pca = PrincipalComponents().fit(X)
        Z = pca.transform(X)
        assert Z.var(axis=0).sum() == pytest.approx(X.var(axis=0).sum(), rel=1e-6)


def encoded_dataset(n=6, n_encoded=5):
    rng = np.random.default_rng(0)
    names = ["Time"] + [f"V{i}" for i in range(1, n_encoded + 1)] + ["Amount"]
    return Dataset(
        features=rng.normal(size=(n, len(names))),
        labels=[0, 1] * (n // 2),
        feature_names=tuple(names),
    )


class TestSelectEncoded:
    def test_orders_by_numeric_suffix(self):
        assert encoded_column_names(("V10", "V2", "Amount", "V1")) == ["V1", "V2", "V10"]

    def test_leading_columns(self):
        ds = encoded_dataset()
        out = select_encoded(ds, dims=3)
        assert out.feature_names == ("V1", "V2", "V3")
        assert np.array_equal(out.features[:, 0], ds.column("V1"))

    def test_full_width_is_identity_on_encoded(self):
        ds = encoded_dataset()
        out = select_encoded(ds, dims=5)
        for k in range(1, 6):
            assert np.array_equal(out.column(f"V{k}"), ds.column(f"V{k}"))

    def test_keep_raw_columns(self):
        ds = encoded_dataset()
        out = select_encoded(ds, dims=2, keep=("Time", "Amount"))
        assert out.feature_names == ("V1", "V2", "Time", "Amount")

    def test_dims_beyond_encoded_count(self):
        with pytest.raises(ValueError, match="out of range"):
            select_encoded(encoded_dataset(), dims=6)

    def test_no_encoded_columns(self):
        ds = Dataset(
            features=np.zeros((2, 2)), labels=[0, 1], feature_names=("a", "b")
        )
        with pytest.raises(ValueError, match="no encoded columns"):
            select_encoded(ds, dims=1)


def test_twenty_three_raw_features_yield_twenty_three_components():
    # the raw-feature companion dataset shape: encode all 23 columns
    rng = np.random.default_rng(23)
    X = rng.normal(size=(300, 23)) * rng.uniform(0.5, 2.0, size=23)
    pca = PrincipalComponents().fit(X)
    assert pca.components_.shape == (23, 23)
    assert pca.explained_variance_.shape == (23,)
    assert pca.transform(X).shape == (300, 23)


# fits a basis at the credit-card width (30 columns) and prints its bytes
THREADED_FIT = """
import numpy as np
from imbselect.decomposition import PrincipalComponents
X = np.random.default_rng(0).normal(size=(20_000, 30)) * np.linspace(0.5, 3.0, 30)
pca = PrincipalComponents().fit(X)
print(pca.components_.tobytes().hex(), pca.explained_variance_.tobytes().hex())
"""


def test_basis_does_not_depend_on_blas_threads():
    # the thread count is read when numpy loads, so each setting gets a process
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        )
        done = subprocess.run(
            [sys.executable, "-c", THREADED_FIT],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    components, variances = zip(*outputs)
    assert components[0] == components[1]
    assert variances[0] == variances[1]
