import hashlib
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from imbselect import base as base_module
from imbselect.base import derive_rng, derive_seed
from imbselect.classifiers import (
    CLASSIFIER_REGISTRY,
    ClassifierSpec,
    make_classifier,
)
from imbselect.classifiers import boosting as boosting_module
from imbselect.classifiers.boosting import DiscreteAdaBoost, RealAdaBoost
from imbselect.classifiers.dummy import ConstantPositive
from imbselect.classifiers.forest import RandomForestClassifier
from imbselect.classifiers.gaussian import GaussianNaiveBayes, QuadraticDiscriminant
from imbselect.classifiers import linear as linear_module
from imbselect.classifiers.linear import (
    HingeSGD,
    LogisticRegression,
    PassiveAggressive,
    Perceptron,
    RidgeClassifier,
    logistic_gradient,
    logistic_loss,
)
from imbselect.classifiers.neighbors import KNeighborsClassifier
from imbselect.classifiers import tree as tree_module
from imbselect.classifiers.tree import DecisionTreeClassifier
from imbselect.sampling import RandomUnderSampler
from imbselect.validation import SEED

ALL_KINDS = sorted(CLASSIFIER_REGISTRY)

PROBABILITY_KINDS = {
    "dummy",
    "logistic_regression",
    "gaussian_nb",
    "decision_tree",
    "random_forest",
    "knn",
    "adaboost_real",
    "adaboost_discrete",
    "quadratic_da",
}

SMALL_PARAMS = {
    "random_forest": {"n_trees": 15},
    "adaboost_discrete": {"n_rounds": 10},
    "adaboost_real": {"n_rounds": 10},
    "knn": {"k": 3},
    "sgd_hinge": {"epochs": 15},
    "perceptron": {"epochs": 15},
    "passive_aggressive": {"epochs": 15},
    "logistic_regression": {"max_epochs": 100},
}


def blob_data(n=80, p=4, separation=2.0, pos_frac=0.3, seed=0):
    rng = np.random.default_rng(seed)
    n_pos = max(2, int(n * pos_frac))
    n_neg = n - n_pos
    X = np.vstack(
        [
            rng.normal(0.0, 1.0, (n_neg, p)),
            rng.normal(separation, 1.0, (n_pos, p)),
        ]
    )
    y = np.array([0] * n_neg + [1] * n_pos)
    perm = rng.permutation(n)
    return X[perm], y[perm]


def fitted(kind, X, y, seed=0):
    return make_classifier(ClassifierSpec(kind, SMALL_PARAMS.get(kind, {})), seed).fit(X, y)


# ---------------------------------------------------------------------------
# shared contracts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("kind", ALL_KINDS)
def test_threshold_consistency(kind):
    X, y = blob_data(seed=3)
    model = fitted(kind, X, y)
    Xq = np.random.default_rng(9).normal(0.8, 1.5, (60, X.shape[1]))
    scores = model.predict_score(Xq)
    labels = model.predict(Xq)
    thr = 0.5 if model.supports_probability else 0.0
    assert np.array_equal(labels, (scores >= thr).astype(int))
    assert model.supports_probability == (kind in PROBABILITY_KINDS)
    if model.supports_probability:
        assert scores.min() >= 0.0 and scores.max() <= 1.0


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_determinism_and_train_time(kind):
    X, y = blob_data(seed=5)
    a = fitted(kind, X, y, seed=11)
    b = fitted(kind, X, y, seed=11)
    Xq = np.random.default_rng(2).normal(1.0, 1.0, (40, X.shape[1]))
    assert np.array_equal(a.predict_score(Xq), b.predict_score(Xq))
    assert a.n_features_in_ == X.shape[1]


@pytest.mark.parametrize("kind", ALL_KINDS)
def test_width_mismatch_rejected(kind):
    X, y = blob_data(seed=1)
    model = fitted(kind, X, y)
    with pytest.raises(ValueError, match="features"):
        model.predict(np.zeros((3, X.shape[1] + 1)))


@pytest.mark.parametrize("kind", sorted(set(ALL_KINDS) - {"dummy"}))
def test_single_class_training_rejected(kind):
    X = np.random.default_rng(0).normal(size=(10, 3))
    with pytest.raises(ValueError, match="each class"):
        fitted(kind, X, np.zeros(10, dtype=int))


@pytest.mark.parametrize("kind", ("decision_tree", "gaussian_nb", "ridge", "quadratic_da", "knn"))
def test_row_permutation_invariance(kind):
    X, y = blob_data(n=60, seed=7)
    perm = np.random.default_rng(1).permutation(len(y))
    Xq = np.random.default_rng(4).normal(1.0, 1.2, (50, X.shape[1]))
    a = fitted(kind, X, y)
    b = fitted(kind, X[perm], y[perm])
    assert np.allclose(a.predict_score(Xq), b.predict_score(Xq), atol=1e-10)


@pytest.mark.parametrize("kind", ("perceptron", "sgd_hinge", "passive_aggressive"))
def test_seeded_shuffle_reproducibility(kind):
    X, y = blob_data(n=60, seed=8)
    Xq = np.random.default_rng(4).normal(1.0, 1.2, (30, X.shape[1]))
    a = fitted(kind, X, y, seed=21)
    b = fitted(kind, X, y, seed=21)
    c = fitted(kind, X, y, seed=22)
    assert np.array_equal(a.predict_score(Xq), b.predict_score(Xq))
    # a different shuffle seed must be allowed to land elsewhere
    assert not np.array_equal(a.predict_score(Xq), c.predict_score(Xq)) or np.array_equal(
        a.predict(Xq), c.predict(Xq)
    )


# ---------------------------------------------------------------------------
# per-kind behavior
# ---------------------------------------------------------------------------

def test_dummy_predicts_constant_positive():
    X = np.random.default_rng(0).normal(size=(25, 3))
    model = ConstantPositive().fit(X, np.zeros(25, dtype=int))
    assert np.array_equal(model.predict(X), np.ones(25, dtype=int))
    assert np.array_equal(model.predict_score(X), np.ones(25))


def test_perceptron_converges_on_separable_four_points():
    X = np.array([[0.0, 0.0], [0.0, 1.0], [3.0, 3.0], [3.0, 4.0]])
    y = np.array([0, 0, 1, 1])
    model = fitted("perceptron", X, y)
    assert np.array_equal(model.predict(X), y)


def test_tree_memorizes_duplicate_free_training_set():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(50, 5))
    y = rng.integers(0, 2, 50)
    y[0], y[1] = 0, 1
    model = DecisionTreeClassifier().fit(X, y)
    assert np.array_equal(model.predict(X), y)


def test_tree_depth_cap_limits_memorization():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(200, 4))
    y = rng.integers(0, 2, 200)
    deep = DecisionTreeClassifier().fit(X, y)
    shallow = DecisionTreeClassifier(max_depth=1).fit(X, y)
    assert shallow.feature_.shape[0] <= 3 < deep.feature_.shape[0]


def test_knn_k1_returns_own_label():
    X, y = blob_data(n=30, seed=2)
    model = KNeighborsClassifier(k=1).fit(X, y)
    assert np.array_equal(model.predict(X), y)


def test_knn_distance_tie_breaks_by_row_index():
    X = np.array([[0.0], [1.0], [1.0], [1.0]])
    y = np.array([0, 1, 0, 0])
    model = KNeighborsClassifier(k=1).fit(X, y)
    # both duplicates at distance 0; the earlier row (label 1) must win
    assert model.predict(np.array([[1.0]]))[0] == 1


def test_gnb_separated_clusters_meet_tail_bound():
    # means differ by 4 sigma per coordinate in 4-D: Mahalanobis distance 8,
    # misclassification probability ~ Phi(-4) ~ 3e-5
    rng = np.random.default_rng(42)
    X = np.vstack([rng.normal(0, 1, (100, 4)), rng.normal(4, 1, (100, 4))])
    y = np.array([0] * 100 + [1] * 100)
    model = GaussianNaiveBayes().fit(X, y)
    assert (model.predict(X) == y).mean() >= 0.99
    # simulation oracle on a fresh big sample
    Xs = np.vstack([rng.normal(0, 1, (20000, 4)), rng.normal(4, 1, (20000, 4))])
    ys = np.array([0] * 20000 + [1] * 20000)
    assert (model.predict(Xs) != ys).mean() < 1e-3


def test_logistic_sigmoid_of_zero_margin_is_half():
    X, y = blob_data(seed=17)
    model = LogisticRegression().fit(X, y)
    model.coef_ = np.zeros(X.shape[1])
    model.intercept_ = 0.0
    assert model.predict_score(np.zeros((1, X.shape[1])))[0] == 0.5


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, 5))
    y = rng.integers(0, 2, 40).astype(float)
    w = rng.normal(size=5)
    b = 0.3
    l2 = 0.01
    signs = 2.0 * y - 1.0

    def loss(w, b):
        return logistic_loss(X @ w + b, signs, w, l2)

    grad_w, grad_b = logistic_gradient(X @ w + b, X, y, w, l2)
    eps = 1e-6
    for j in range(5):
        unit = np.zeros(5)
        unit[j] = eps
        numeric = (loss(w + unit, b) - loss(w - unit, b)) / (2 * eps)
        assert grad_w[j] == pytest.approx(numeric, rel=1e-5)
    numeric_b = (loss(w, b + eps) - loss(w, b - eps)) / (2 * eps)
    assert grad_b == pytest.approx(numeric_b, rel=1e-5)


def masked_sigmoid(z):
    """The sigmoid as two halves written through boolean masks."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


SIGMOID_EDGES = [0.0, -0.0, 700.0, -700.0, 745.2, -745.2, 1e-320, -1e-320, 5e-324, -5e-324]


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.one_of(st.floats(-800.0, 800.0), st.sampled_from(SIGMOID_EDGES)),
        min_size=1, max_size=300,
    ),
    stride=st.integers(1, 3),
)
def test_sigmoid_matches_the_masked_form_bit_for_bit(values, stride):
    # a strided z is a column of a wider array, as a slice of X @ W would be
    held = np.full((len(values), stride), 7.0)
    held[:, 0] = values
    z = held[:, 0]
    assert_same_bits(linear_module._sigmoid(z), masked_sigmoid(z))


def newton_logistic(X, y, iterations=60):
    """Independent optimum finder: Newton's method on augmented design."""
    A = np.column_stack([X, np.ones(len(y))])
    beta = np.zeros(A.shape[1])
    for _ in range(iterations):
        z = A @ beta
        p = 1.0 / (1.0 + np.exp(-z))
        grad = A.T @ (p - y) / len(y)
        H = (A * (p * (1 - p))[:, None]).T @ A / len(y)
        beta -= np.linalg.solve(H + 1e-12 * np.eye(A.shape[1]), grad)
    return beta


def test_logistic_unregularized_matches_newton_oracle():
    rng = np.random.default_rng(8)
    X = rng.normal(size=(120, 3))
    logits = 0.7 * X[:, 0] - 0.4 * X[:, 1] + 0.2
    y = (rng.random(120) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    model = LogisticRegression(l2=0.0, max_epochs=50_000, tol=1e-15).fit(X, y)
    beta = newton_logistic(X, y.astype(float))
    assert np.allclose(model.coef_, beta[:-1], atol=1e-6)
    assert model.intercept_ == pytest.approx(beta[-1], abs=1e-6)


def test_ridge_unregularized_matches_normal_equations():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(30, 4))
    y = rng.integers(0, 2, 30)
    y[0], y[1] = 0, 1
    model = RidgeClassifier(l2=0.0).fit(X, y)
    A = np.column_stack([X, np.ones(30)])
    beta, *_ = np.linalg.lstsq(A, 2.0 * y - 1.0, rcond=None)
    assert np.allclose(model.coef_, beta[:-1], atol=1e-6)
    assert model.intercept_ == pytest.approx(beta[-1], abs=1e-6)


def test_forest_score_is_vote_fraction():
    X, y = blob_data(n=100, separation=1.0, seed=6)
    model = RandomForestClassifier(n_trees=15, seed=4).fit(X, y)
    Xq = np.random.default_rng(0).normal(0.5, 1.0, (30, X.shape[1]))
    votes = sum((tree._score(Xq) >= 0.5).astype(float) for tree in model.trees_)
    assert np.allclose(model.predict_score(Xq), votes / 15)


def test_forest_beats_single_tree_on_noisy_data():
    X, y = blob_data(n=400, separation=1.2, seed=10)
    Xq, yq = blob_data(n=400, separation=1.2, seed=11)
    tree_acc = (DecisionTreeClassifier().fit(X, y).predict(Xq) == yq).mean()
    forest_acc = (
        RandomForestClassifier(n_trees=40, seed=1).fit(X, y).predict(Xq) == yq
    ).mean()
    assert forest_acc >= tree_acc - 0.02


def test_adaboost_single_stump_scores_saturate():
    X = np.array([[0.0], [1.0], [10.0], [11.0]])
    y = np.array([0, 0, 1, 1])
    model = DiscreteAdaBoost(n_rounds=10).fit(X, y)
    assert len(model.stumps_) == 1  # perfectly separable by one stump
    assert np.array_equal(model.predict_score(X), [0.0, 0.0, 1.0, 1.0])


def test_adaboost_weak_learner_error_bound_and_monotone_training_error():
    X, y = blob_data(n=150, separation=2.2, seed=13)
    model = DiscreteAdaBoost(n_rounds=25).fit(X, y)
    # alpha = ln((1 - err) / err) / 2 is positive exactly when err < 0.5
    assert all(alpha > 0.0 for alpha in model.alphas_)
    errors = []
    margin = np.zeros(X.shape[0])
    for stump, alpha in zip(model.stumps_, model.alphas_):
        margin += alpha * (2.0 * stump.values(X) - 1.0)
        errors.append(((margin >= 0.0).astype(int) != y).mean())
    assert errors[-1] <= errors[0] + 1e-12


def test_real_adaboost_learns_blobs():
    X, y = blob_data(n=150, separation=2.2, seed=14)
    model = RealAdaBoost(n_rounds=25).fit(X, y)
    assert (model.predict(X) == y).mean() >= 0.95


def test_qda_singular_covariance_falls_back_with_flag():
    # minority rows all identical: zero covariance, no usable trace scale
    X = np.vstack([np.random.default_rng(0).normal(size=(9, 3)), np.ones((3, 3))])
    y = np.array([0] * 9 + [1] * 3)
    model = QuadraticDiscriminant().fit(X, y)
    assert "qda_covariance_jitter" in model.fit_flags_
    assert len(model.predict(X)) == 12


def test_qda_recovers_different_covariances():
    rng = np.random.default_rng(15)
    X = np.vstack([rng.normal(0, 0.5, (200, 2)), rng.normal(0, 3.0, (200, 2))])
    y = np.array([0] * 200 + [1] * 200)
    model = QuadraticDiscriminant().fit(X, y)
    far = np.array([[6.0, 6.0], [0.05, -0.02]])
    pred = model.predict(far)
    assert pred[0] == 1  # far point only plausible under the wide class
    assert pred[1] == 0


# ---------------------------------------------------------------------------
# spec plumbing
# ---------------------------------------------------------------------------

def test_spec_rejects_unknown_kind():
    with pytest.raises(ValueError, match="unknown classifier kind"):
        ClassifierSpec("svm_rbf")


def test_spec_rejects_unknown_option():
    with pytest.raises(ValueError, match=r"unknown option\(s\) \['n_tree'\]"):
        ClassifierSpec("random_forest", {"n_tree": 10})


# A case whose message named several options before each option had its own
# message keeps the id it had then, so that case names stay stable.
@pytest.mark.parametrize(
    "cls, params, message",
    [
        (KNeighborsClassifier, {"k": 0}, "k must be >= 1"),
        (RandomForestClassifier, {"n_trees": 0}, "n_trees must be >= 1"),
        pytest.param(RandomForestClassifier, {"probability_mode": "mean"},
                     "probability_mode must be 'vote' or 'leaf_mean', got 'mean'",
                     id="RandomForestClassifier-params2-unknown probability_mode"),
        pytest.param(LogisticRegression, {"max_epochs": 0}, "max_epochs must be >= 1",
                     id="LogisticRegression-params3-max_epochs >= 1"),
        (RidgeClassifier, {"l2": -1.0}, "l2 must be >= 0"),
        pytest.param(Perceptron, {"learning_rate": 0.0}, "learning_rate must be > 0",
                     id="Perceptron-params5-learning_rate > 0"),
        (HingeSGD, {"eta0": 0.0}, "eta0 must be > 0"),
        pytest.param(PassiveAggressive, {"epochs": 0}, "epochs must be >= 1",
                     id="PassiveAggressive-params7-epochs >= 1"),
        (DecisionTreeClassifier, {"max_depth": 0}, "max_depth must be None or an int >= 1"),
        (RandomForestClassifier, {"max_depth": -1}, "max_depth must be None or an int >= 1"),
        (RandomForestClassifier, {"max_features": "log2"}, "max_features must be None, 'sqrt'"),
        (DecisionTreeClassifier, {"max_features": 0}, "max_features must be None, 'sqrt'"),
        (DecisionTreeClassifier, {"max_features": True}, "max_features must be None, 'sqrt'"),
        (DiscreteAdaBoost, {"n_rounds": 0}, "n_rounds must be >= 1"),
        (RealAdaBoost, {"n_rounds": -3}, "n_rounds must be >= 1"),
        # values that would fail every fit, or score NaN, are refused as well
        (DiscreteAdaBoost, {"n_rounds": 2.5}, "n_rounds must be >= 1"),
        (KNeighborsClassifier, {"k": 2.5}, "k must be >= 1"),
        (KNeighborsClassifier, {"k": True}, "k must be >= 1"),
        (RandomForestClassifier, {"n_trees": 2.5}, "n_trees must be >= 1"),
        (Perceptron, {"epochs": 1.5}, "epochs must be >= 1"),
        pytest.param(HingeSGD, {"epochs": 1.5}, "epochs must be >= 1",
                     id="HingeSGD-params20-epochs >= 1"),
        pytest.param(PassiveAggressive, {"epochs": 1.5}, "epochs must be >= 1",
                     id="PassiveAggressive-params21-epochs >= 1"),
        pytest.param(LogisticRegression, {"max_epochs": 2.5}, "max_epochs must be >= 1",
                     id="LogisticRegression-params22-max_epochs >= 1"),
        (RidgeClassifier, {"l2": math.nan}, "l2 must be >= 0"),
        (HingeSGD, {"eta0": math.nan}, "eta0 must be > 0"),
        pytest.param(Perceptron, {"learning_rate": math.nan}, "learning_rate must be > 0",
                     id="Perceptron-params25-learning_rate > 0"),
        (QuadraticDiscriminant, {"reg_ratio": -1}, "reg_ratio must be >= 0"),
        (GaussianNaiveBayes, {"var_floor_ratio": math.nan}, "var_floor_ratio must be > 0"),
        # inf passes every > and >= check, and a bool is an int to numpy
        pytest.param(HingeSGD, {"l2": math.inf}, "l2 must be > 0",
                     id="HingeSGD-params28-l2 and eta0 must be > 0"),
        pytest.param(HingeSGD, {"eta0": math.inf}, "eta0 must be > 0",
                     id="HingeSGD-params29-l2 and eta0 must be > 0"),
        (RidgeClassifier, {"l2": math.inf}, "l2 must be >= 0"),
        (RidgeClassifier, {"l2": True}, "l2 must be >= 0"),
        (LogisticRegression, {"l2": math.inf}, "l2 must be >= 0"),
        (LogisticRegression, {"tol": math.nan}, "tol must be >= 0"),
        (LogisticRegression, {"tol": -1}, "tol must be >= 0"),
        (LogisticRegression, {"tol": math.inf}, "tol must be >= 0"),
        pytest.param(Perceptron, {"learning_rate": math.inf}, "learning_rate must be > 0",
                     id="Perceptron-params36-learning_rate > 0"),
        (PassiveAggressive, {"aggressiveness": math.inf}, "aggressiveness must be > 0"),
        (PassiveAggressive, {"aggressiveness": True}, "aggressiveness must be > 0"),
        (GaussianNaiveBayes, {"var_floor_ratio": math.inf}, "var_floor_ratio must be > 0"),
        (QuadraticDiscriminant, {"reg_ratio": math.inf}, "reg_ratio must be >= 0"),
        # options without a check before the option tables: sklearn's
        # min_samples_split rule, and flags that must be bools
        (DecisionTreeClassifier, {"min_samples_split": 0}, "min_samples_split must be >= 2"),
        (DecisionTreeClassifier, {"min_samples_split": 1}, "min_samples_split must be >= 2"),
        (DecisionTreeClassifier, {"min_samples_split": math.inf}, "min_samples_split must be >= 2"),
        (DecisionTreeClassifier, {"min_samples_split": "abc"}, "min_samples_split must be >= 2"),
        (DecisionTreeClassifier, {"min_samples_split": True}, "min_samples_split must be >= 2"),
        (RandomForestClassifier, {"bootstrap": 2.5}, "bootstrap must be a bool, got 2.5"),
        (RandomUnderSampler, {"with_replacement": "maybe"},
         "with_replacement must be a bool, got 'maybe'"),
        (RandomUnderSampler, {"with_replacement": 1}, "with_replacement must be a bool, got 1"),
    ],
)
def test_constructors_check_ranges(cls, params, message):
    # checked before any fit, so making a spec rejects the value
    with pytest.raises(ValueError, match=message):
        cls(**params)


def test_spec_label_includes_params():
    assert ClassifierSpec("knn").label == "knn"
    assert ClassifierSpec("knn", {"k": 3}).label == "knn(k=3)"


def reference_seed_sequence(*keys):
    """The SeedSequence of the key path as a list of Python ints, one per
    int key and two (the sha256 halves) per string, which numpy splits
    into 32-bit words itself."""
    entropy = []

    def add(key):
        if isinstance(key, (tuple, list)):
            for part in key:
                add(part)
        elif isinstance(key, str):
            digest = hashlib.sha256(key.encode("utf-8")).digest()
            entropy.extend(int.from_bytes(digest[i : i + 8], "little") for i in (0, 8))
        else:
            entropy.append(int(key) & 0xFFFFFFFFFFFFFFFF)

    for key in keys:
        add(key)
    return np.random.SeedSequence(entropy)


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(
    st.one_of(
        st.integers(-(2**70), 2**70),
        st.sampled_from([0, 2**32 - 1, 2**32, 2**64 - 1, -1]),
        st.text(max_size=8),
        st.tuples(st.integers(0, 2**40), st.text(max_size=3)),
    ),
    min_size=1, max_size=5,
))
def test_seed_sequence_matches_numpys_own_reading_of_the_keys(keys):
    ours = base_module.seed_sequence(*keys)
    assert np.array_equal(ours.generate_state(8), reference_seed_sequence(*keys).generate_state(8))


def test_make_classifier_derives_distinct_seeds():
    a = make_classifier(ClassifierSpec("random_forest"), seed=1)
    b = make_classifier(ClassifierSpec("random_forest"), seed=2)
    assert a.seed != b.seed


def test_registered_kind_gets_a_seed_when_its_constructor_takes_one(monkeypatch):
    class SeededConstant(ConstantPositive):
        options = {"seed": SEED}

    monkeypatch.setitem(CLASSIFIER_REGISTRY, "seeded_constant", SeededConstant)
    model = make_classifier(ClassifierSpec("seeded_constant"), seed=5)
    assert model.seed == derive_seed(5, 0, "seeded_constant")
    # the seed is always derived: it is not an option
    with pytest.raises(ValueError, match=r"unknown option\(s\) \['seed'\]"):
        ClassifierSpec("seeded_constant", {"seed": 3})
    assert not hasattr(make_classifier(ClassifierSpec("dummy"), seed=5), "seed")


# ---------------------------------------------------------------------------
# presorted CART against the per-node argsort reference
# ---------------------------------------------------------------------------

def reference_cart(X, y, max_depth=None, max_features=None, seed=0):
    """The tree grown by argsorting every feature at every node, on the
    drawn rows themselves, each split taken at the best class-run end:
    (feature, threshold, left, right, prob)."""
    p = X.shape[1]
    rng = derive_rng(seed, "feature_subsets") if max_features else None
    if max_features is None:
        take = p
    elif max_features == "sqrt":
        take = max(1, int(np.sqrt(p)))
    else:
        take = max(1, min(int(max_features), p))

    def sample():
        if take >= p:
            return np.arange(p)
        return np.sort(rng.choice(p, size=take, replace=False))

    def best_split(rows, feats):
        n, n_pos = rows.size, int(y[rows].sum())
        best, best_score = None, np.inf
        for f in feats:
            order = np.argsort(X[rows, f], kind="stable")
            xs, ys = X[rows, f][order], y[rows][order]
            if xs[0] == xs[-1]:
                continue
            cut = np.flatnonzero(xs[1:] > xs[:-1])
            # a cut ends a class run when a neighbouring cut has other
            # positives on its left, or it has no neighbour on a side
            pos = np.cumsum(ys)[cut]
            cut = cut[[
                i for i in range(cut.size)
                if i == 0 or i == cut.size - 1 or pos[i - 1] != pos[i] or pos[i + 1] != pos[i]
            ]]
            n_l, pos_l = cut + 1.0, np.cumsum(ys)[cut]
            n_r, pos_r = n - n_l, n_pos - pos_l
            g_l = 1.0 - (pos_l / n_l) ** 2 - ((n_l - pos_l) / n_l) ** 2
            g_r = 1.0 - (pos_r / n_r) ** 2 - ((n_r - pos_r) / n_r) ** 2
            weighted = (n_l * g_l + n_r * g_r) / n
            k = int(np.argmin(weighted))
            if weighted[k] < best_score:
                best_score = weighted[k]
                lo, hi = xs[cut[k]], xs[cut[k] + 1]
                thr = lo if (lo + hi) / 2.0 >= hi else (lo + hi) / 2.0
                best = (f, thr, rows[order[: cut[k] + 1]], rows[order[cut[k] + 1 :]])
        return best

    nodes = [[0, 0.0, 0, 0, 0.0]]
    stack = [(np.arange(X.shape[0]), 0, 0)]
    while stack:
        rows, depth, nid = stack.pop()
        n, n_pos = rows.size, int(y[rows].sum())
        split = None
        if (max_depth is None or depth < max_depth) and 0 < n_pos < n and n >= 2:
            feats = sample()
            split = best_split(rows, feats)
            if split is None and feats.size < p:
                split = best_split(rows, np.setdiff1d(np.arange(p), feats))
        if split is None:
            nodes[nid][0], nodes[nid][4] = -1, n_pos / n
            continue
        f, thr, left_rows, right_rows = split
        lid, rid = len(nodes), len(nodes) + 1
        nodes += [[0, 0.0, 0, 0, 0.0], [0, 0.0, 0, 0, 0.0]]
        nodes[nid][:4] = [f, thr, lid, rid]
        stack += [(right_rows, depth + 1, rid), (left_rows, depth + 1, lid)]
    columns = list(zip(*nodes))
    return (
        np.array(columns[0], dtype=np.int64),
        np.array(columns[1]),
        np.array(columns[2], dtype=np.int64),
        np.array(columns[3], dtype=np.int64),
        np.array(columns[4]),
    )


def assert_same_tree(tree, reference):
    for name, expected in zip(("feature_", "threshold_", "left_", "right_", "prob_"), reference):
        assert np.array_equal(getattr(tree, name), expected), name


@st.composite
def tree_problems(draw):
    n = draw(st.integers(2, 120))
    p = draw(st.integers(1, 5))
    levels = draw(st.sampled_from([2, 3, 7, None]))  # None: continuous
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p)) if levels is None else rng.integers(0, levels, (n, p)) * 0.5
    constant = draw(st.lists(st.integers(0, p - 1), max_size=p))
    X[:, constant] = 1.25
    if draw(st.booleans()):  # duplicate rows, some with the other label
        X = np.vstack([X, X[: n // 2]])
    y = (rng.random(X.shape[0]) < draw(st.floats(0.05, 0.95))).astype(np.int64)
    y[0], y[-1] = 0, 1
    return X, y


def searching(share):
    """Nodes holding at least 1/share of the fit's draws read the presort."""
    return mock.patch.object(tree_module, "_PRESORT_SHARE", share)


@settings(max_examples=80, deadline=None)
@given(
    problem=tree_problems(),
    max_depth=st.sampled_from([None, 1, 2, 4]),
    max_features=st.sampled_from([None, "sqrt", 1, 2]),
    share=st.sampled_from([1, 2, 8, tree_module._PRESORT_SHARE, 10**9]),
    seed=st.integers(0, 2**31),
)
def test_presorted_tree_matches_per_node_reference(problem, max_depth, max_features, share, seed):
    # share 1 sends every node below the root to the per-node path and
    # 10**9 keeps every node on the presort, so both paths and the switch
    # between them are covered
    X, y = problem
    with searching(share):
        tree = DecisionTreeClassifier(max_depth=max_depth, max_features=max_features, seed=seed)
        tree.fit(X, y)
    assert_same_tree(tree, reference_cart(X, y, max_depth, max_features, seed))


def assert_forest_trees_match_reference(X, y, max_depth, max_features, bootstrap, seed, patch):
    n = X.shape[0]
    with patch:
        forest = RandomForestClassifier(
            n_trees=4, max_depth=max_depth, max_features=max_features,
            bootstrap=bootstrap, seed=seed,
        ).fit(X, y)
    for t, tree in enumerate(forest.trees_):
        idx = derive_rng(seed, "bootstrap", t).integers(0, n, size=n) if bootstrap else np.arange(n)
        tree_seed = derive_seed(seed, "tree", t)
        assert_same_tree(tree, reference_cart(X[idx], y[idx], max_depth, max_features, tree_seed))


@settings(max_examples=40, deadline=None)
@given(
    problem=tree_problems(),
    max_depth=st.sampled_from([None, 2]),
    max_features=st.sampled_from(["sqrt", None, 2]),
    bootstrap=st.booleans(),
    share=st.sampled_from([1, tree_module._PRESORT_SHARE, 10**9]),
    seed=st.integers(0, 2**31),
)
def test_presorted_forest_trees_match_reference(problem, max_depth, max_features, bootstrap, share, seed):
    X, y = problem
    patch = searching(share)
    assert_forest_trees_match_reference(X, y, max_depth, max_features, bootstrap, seed, patch)


@settings(max_examples=60, deadline=None)
@given(
    problem=tree_problems(),
    data=st.data(),
    max_depth=st.sampled_from([None, 2]),
    max_features=st.sampled_from([None, "sqrt", 1]),
    share=st.sampled_from([1, tree_module._PRESORT_SHARE, 10**9]),
    seed=st.integers(0, 2**31),
)
def test_tree_grown_from_draw_counts_matches_reference(problem, data, max_depth, max_features, share, seed):
    # arbitrary draw counts, zeros and up to 50 included, where forests
    # only ever pass bootstrap counts
    X, y = problem
    counts = np.array(data.draw(st.lists(
        st.one_of(st.just(0), st.integers(1, 3), st.integers(1, 50)), min_size=y.size, max_size=y.size
    )), dtype=np.int64)
    counts[data.draw(st.integers(0, y.size - 1))] += 1  # at least one draw
    with searching(share):
        tree = DecisionTreeClassifier(max_depth=max_depth, max_features=max_features, seed=seed)
        tree._grow(X, y, counts, tree_module.presort(X))
    idx = np.repeat(np.arange(y.size), counts)
    assert_same_tree(tree, reference_cart(X[idx], y[idx], max_depth, max_features, seed))


@st.composite
def sparse_tree_problems(draw):
    """1-8 positives in 50-2,000 rows, with tied values, constant columns
    and, at times, duplicated rows."""
    n = draw(st.integers(50, 2000))
    p = draw(st.integers(1, 5))
    levels = draw(st.sampled_from([3, 20, None]))  # None: continuous
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, p)) if levels is None else rng.integers(0, levels, (n, p)) * 0.5
    X[:, draw(st.lists(st.integers(0, p - 1), max_size=p))] = 1.25
    y = np.zeros(n, dtype=np.int64)
    y[rng.choice(n, draw(st.integers(1, 8)), replace=False)] = 1
    if draw(st.booleans()):  # duplicate rows, positives among them
        dup = np.concatenate([np.flatnonzero(y)[:2], rng.choice(n, n // 10)])
        X, y = np.vstack([X, X[dup]]), np.concatenate([y, y[dup]])
    return X, y


@settings(max_examples=40, deadline=None)
@given(
    problem=sparse_tree_problems(),
    max_depth=st.sampled_from([None, 3]),
    max_features=st.sampled_from([None, "sqrt"]),
    share=st.sampled_from([1, tree_module._PRESORT_SHARE, 10**9]),
    seed=st.integers(0, 2**31),
)
def test_sparse_positive_trees_match_reference(problem, max_depth, max_features, share, seed):
    X, y = problem
    with searching(share):
        tree = DecisionTreeClassifier(max_depth=max_depth, max_features=max_features, seed=seed)
        tree.fit(X, y)
    assert_same_tree(tree, reference_cart(X, y, max_depth, max_features, seed))


@settings(max_examples=20, deadline=None)
@given(
    problem=sparse_tree_problems(),
    max_features=st.sampled_from([None, "sqrt"]),
    share=st.sampled_from([1, tree_module._PRESORT_SHARE, 10**9]),
    seed=st.integers(0, 2**31),
)
def test_sparse_positive_forest_trees_match_reference(problem, max_features, share, seed):
    X, y = problem
    patch = searching(share)
    assert_forest_trees_match_reference(X, y, 4, max_features, True, seed, patch)


def cut_ginis(y, counts):
    """The weighted child Gini at each cut of rows valued 0, 1, 2, ..."""
    cum_n, cum_pos = np.cumsum(counts * 1.0), np.cumsum(counts * y)
    return tree_module._gini(cum_n[:-1], cum_pos[:-1], int(counts.sum()), int((counts * y).sum()))


@pytest.mark.parametrize("y, counts, threshold", [
    # one positive at each end: the one run's two ends mirror each other,
    # so their Gini ties to the bit and the first cut must win
    ([1, 0, 0, 0, 0, 0, 0, 0, 0, 1], [1] * 10, 0.5),
    # one positive above a run of negatives whose middle rows carry 2 and 3
    # draws beside rows carrying ~4e14: the run's last two cuts tie to the
    # bit, but the earlier of them lies inside the run, so the run's last
    # cut (2.5) wins
    ([0, 0, 0, 1, 0], [414158747367174, 2, 3, 17959927500807, 372227461735554], 2.5),
])
def test_run_end_search_breaks_ties_to_the_earlier_cut(y, counts, threshold):
    y, counts = np.array(y), np.array(counts)
    X = np.arange(y.size, dtype=float)[:, None]
    gini = cut_ginis(y, counts)
    assert np.count_nonzero(gini == gini.min()) == 2
    tree = DecisionTreeClassifier(max_depth=1)
    tree._grow(X, y, counts, tree_module.presort(X))
    assert tree.threshold_[0] == threshold


def test_tree_split_is_a_run_end_where_rounding_favours_an_interior_cut():
    # one positive between rows carrying 2 to ~4e14 draws, where each
    # computed Gini is ~1e-14 with rounding of ~1e-16: the least of them is
    # at 1.5, inside the run of cuts 0.5 to 3.5 and below both its ends,
    # so the best run end, the cut above the positive (4.5), must win
    y = np.array([0, 0, 0, 0, 1, 0])
    counts = np.array([2, 143671830240354, 420017465156689, 202132714110272, 4, 208540363962676])
    X = np.arange(y.size, dtype=float)[:, None]
    gini = cut_ginis(y, counts)
    assert gini[1] < gini[4] < min(gini[0], gini[3])
    tree = DecisionTreeClassifier(max_depth=1)
    tree._grow(X, y, counts, tree_module.presort(X))
    assert tree.threshold_[0] == 4.5


def test_fitted_trees_keep_no_presort_or_counts():
    # presorts and row counts are fit-time scratch; a fitted model keeps only its nodes
    X, y = blob_data(n=200, seed=8)
    tree_keys = {"max_depth", "min_samples_split", "max_features", "seed",
                 "feature_", "threshold_", "left_", "right_", "prob_"}
    tree = DecisionTreeClassifier().fit(X, y)
    assert set(vars(tree)) == tree_keys | {"fit_flags_", "n_features_in_"}
    forest = RandomForestClassifier(n_trees=3, seed=1).fit(X, y)
    assert all(set(vars(t)) == tree_keys for t in forest.trees_)


# ---------------------------------------------------------------------------
# block-screened online models against their per-row loops
# ---------------------------------------------------------------------------

def reference_perceptron(X, y, epochs, learning_rate, seed):
    signs = 2.0 * y - 1.0
    w, b = np.zeros(X.shape[1]), 0.0
    for epoch in range(epochs):
        mistakes = 0
        for i in derive_rng(seed, "shuffle", epoch).permutation(X.shape[0]):
            if signs[i] * (X[i] @ w + b) <= 0.0:
                w += learning_rate * signs[i] * X[i]
                b += learning_rate * signs[i]
                mistakes += 1
        if mistakes == 0:
            break
    return w, b


def reference_hinge_sgd(X, y, epochs, l2, eta0, seed):
    signs = 2.0 * y - 1.0
    w, b = np.zeros(X.shape[1]), 0.0
    t0, t = 1.0 / (l2 * eta0), 0
    for epoch in range(epochs):
        for i in derive_rng(seed, "shuffle", epoch).permutation(X.shape[0]):
            t += 1
            eta = 1.0 / (l2 * (t0 + t))
            w *= 1.0 - eta * l2
            if signs[i] * (X[i] @ w + b) < 1.0:
                w += eta * signs[i] * X[i]
                b += eta * signs[i]
    return w, b


def reference_passive_aggressive(X, y, epochs, aggressiveness, seed):
    signs = 2.0 * y - 1.0
    w, b = np.zeros(X.shape[1]), 0.0
    sq_norms = (X * X).sum(axis=1) + 1.0
    for epoch in range(epochs):
        for i in derive_rng(seed, "shuffle", epoch).permutation(X.shape[0]):
            loss = 1.0 - signs[i] * (X[i] @ w + b)
            if loss > 0.0:
                tau = min(aggressiveness, loss / sq_norms[i])
                w += tau * signs[i] * X[i]
                b += tau * signs[i]
    return w, b


# kind: (model, per-row loop, two parameter sets)
ONLINE_MODELS = {
    "perceptron": (
        Perceptron, reference_perceptron,
        [{"learning_rate": 1.0}, {"learning_rate": 0.37}],
    ),
    "sgd_hinge": (
        HingeSGD, reference_hinge_sgd,
        [{"l2": 1e-4, "eta0": 0.01}, {"l2": 0.05, "eta0": 0.5}],
    ),
    "passive_aggressive": (
        PassiveAggressive, reference_passive_aggressive,
        [{"aggressiveness": 1.0}, {"aggressiveness": 0.1}],
    ),
}


@st.composite
def online_problems(draw):
    n = draw(st.integers(2, 700))
    # the shipped grids fit d up to 28; wide rows take blocked summation orders
    d = draw(st.one_of(st.integers(1, 6), st.sampled_from([8, 16, 28, 33, 40])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # few levels: tied margins
        X = rng.integers(-2, 3, (n, d)) * 0.5
    else:
        X = rng.normal(size=(n, d))
    constant = draw(st.lists(st.integers(0, d - 1), max_size=d))
    X[:, constant] = 1.25
    # 50/50 updates on nearly every row; 0.2% positives update rarely
    y = (rng.random(n) < draw(st.sampled_from([0.5, 0.002]))).astype(np.int64)
    y[0], y[-1] = 0, 1
    X += draw(st.sampled_from([0.0, 2.0])) * y[:, None]
    X *= draw(st.sampled_from([1.0, 1e6]))
    if draw(st.booleans()):  # duplicate rows, some with the other label
        X = np.vstack([X, X[: n // 2]])
        y = np.concatenate([y, 1 - y[: n // 2] if draw(st.booleans()) else y[: n // 2]])
    return X, y


def assert_same_bits(actual, expected):
    assert np.array_equal(
        np.asarray(actual, dtype=np.float64).view(np.int64),
        np.asarray(expected, dtype=np.float64).view(np.int64),
    )


@pytest.mark.parametrize("kind", sorted(ONLINE_MODELS))
@settings(max_examples=40, deadline=None)
@given(
    problem=online_problems(),
    params=st.integers(0, 1),
    epochs=st.integers(1, 4),
    exact_run=st.sampled_from([1, linear_module._EXACT_RUN, 10**9]),
    min_block=st.sampled_from([1, 3, linear_module._MIN_BLOCK]),
    max_block=st.sampled_from([1, 2, 7, linear_module._MAX_BLOCK]),
    seed=st.integers(0, 2**31),
)
def test_screened_online_model_matches_per_row_loop(
    kind, problem, params, epochs, exact_run, min_block, max_block, seed
):
    # exact_run 10**9 keeps every row after the first update on the per-row
    # path; 1 screens blocks after every clean row; the short blocks put
    # updates on block edges
    X, y = problem
    model_cls, reference, param_sets = ONLINE_MODELS[kind]
    kwargs = param_sets[params]
    with mock.patch.multiple(
        linear_module,
        _EXACT_RUN=exact_run,
        _MIN_BLOCK=min(min_block, max_block),
        _MAX_BLOCK=max_block,
    ):
        model = model_cls(epochs=epochs, seed=seed, **kwargs).fit(X, y)
    w, b = reference(X, y, epochs=epochs, seed=seed, **kwargs)
    assert_same_bits(model.coef_, w)
    assert_same_bits(model.intercept_, b)


def test_passive_aggressive_stops_after_a_clean_epoch_with_the_full_loops_bits():
    # separable classes on which PA updates in each of its first four epochs
    # and in none after them
    rng = np.random.default_rng(1)
    X = np.vstack([rng.normal(-2.0, 0.5, (100, 3)), rng.normal(2.0, 0.5, (100, 3))])
    y = np.repeat([0, 1], 100)
    # (the late updates come from margins that round just below 1 and move
    # only the low bits of b)
    loops = {
        e: np.append(*reference_passive_aggressive(X, y, e, 1.0, seed=0)) for e in (3, 4, 30)
    }
    assert not np.array_equal(loops[3], loops[4])
    assert_same_bits(loops[4], loops[30])
    model = PassiveAggressive(epochs=30, seed=0).fit(X, y)
    assert_same_bits(np.append(model.coef_, model.intercept_), loops[30])


# ---------------------------------------------------------------------------
# AdaBoost's stump searches against plain scans of every run end
# ---------------------------------------------------------------------------

def reference_threshold(xs, c):
    lo, hi = xs[c], xs[c + 1]
    return lo if (lo + hi) / 2.0 >= hi else (lo + hi) / 2.0


def reference_sorted(X, y):
    """Per feature: the stable order, the sorted values, and the positions
    of the cuts that end a class run, the first and the last cut with each
    number of positive rows on their left."""
    orders = np.argsort(X.T, axis=1, kind="stable")
    values = np.take_along_axis(X.T, orders, axis=1)
    ends = []
    for order, xs in zip(orders, values):
        cut = np.flatnonzero(xs[1:] > xs[:-1])
        pos = np.cumsum(y[order] == 1)[cut]
        ends.append(cut[[
            i for i in range(cut.size)
            if i == 0 or i == cut.size - 1 or pos[i - 1] != pos[i] or pos[i + 1] != pos[i]
        ]])
    return orders, values, ends


def reference_error_stump(X, y, w):
    """Weighted 0-1 error at every run end of every feature, both
    polarities: (error, feature, threshold, left value, right value)."""
    total_pos = float(w[y == 1].sum())
    total_neg = float(w[y == 0].sum())
    if total_neg <= total_pos:
        best = (total_neg, -1, 0.0, 1.0, 1.0)
    else:
        best = (total_pos, -1, 0.0, 0.0, 0.0)
    orders, values, cuts = reference_sorted(X, y)
    for f in range(X.shape[1]):
        if cuts[f].size == 0:
            continue
        ws, ys = w[orders[f]], y[orders[f]]
        cum_pos = np.cumsum(np.where(ys == 1, ws, 0.0))[cuts[f]]
        cum_neg = np.cumsum(np.where(ys == 0, ws, 0.0))[cuts[f]]
        err_rp = cum_pos + (total_neg - cum_neg)
        err_lp = cum_neg + (total_pos - cum_pos)
        k_rp, k_lp = int(np.argmin(err_rp)), int(np.argmin(err_lp))
        for err, k, lv, rv in ((float(err_rp[k_rp]), k_rp, 0.0, 1.0), (float(err_lp[k_lp]), k_lp, 1.0, 0.0)):
            if err < best[0] - 1e-15:
                best = (err, f, reference_threshold(values[f], cuts[f][k]), lv, rv)
    return best


def reference_gini_stump(X, y, w):
    """Weighted child Gini at every run end of every feature: (feature,
    threshold, left P(y=1), right P(y=1)), or None with no cut."""
    total_w = float(w.sum())
    total_pos = float(w[y == 1].sum())
    orders, values, cuts = reference_sorted(X, y)
    best_score, best = np.inf, None
    for f in range(X.shape[1]):
        if cuts[f].size == 0:
            continue
        ws, ys = w[orders[f]], y[orders[f]]
        w_left = np.cumsum(ws)[cuts[f]]
        pos_left = np.cumsum(np.where(ys == 1, ws, 0.0))[cuts[f]]
        w_right = total_w - w_left
        pos_right = total_pos - pos_left
        frac_l = np.divide(pos_left, w_left, out=np.zeros_like(pos_left), where=w_left > 0)
        frac_r = np.divide(pos_right, w_right, out=np.zeros_like(pos_right), where=w_right > 0)
        gini = (
            w_left * (2.0 * frac_l * (1.0 - frac_l))
            + w_right * (2.0 * frac_r * (1.0 - frac_r))
        ) / total_w
        k = int(np.argmin(gini))
        if gini[k] < best_score - 1e-15:
            best_score = gini[k]
            best = (f, reference_threshold(values[f], cuts[f][k]), float(frac_l[k]), float(frac_r[k]))
    return best


def stump_tuple(stump):
    return (stump.feature, stump.threshold, stump.left_value, stump.right_value)


def assert_same_stump(actual, expected):
    assert (actual is None) == (expected is None)
    if expected is not None:
        assert actual[0] == expected[0]
        assert_same_bits(actual[1:], expected[1:])


def stump_case(seed, n, p, decimals, positives, spread, zeros, normalize):
    """(X, y, w): values rounded to ``decimals`` (ties) with some constant
    columns, a share of positives, and weights that are uniform, spread over
    hundreds of decades ("power") or rounded to ties, with a share of exact
    zeros; normalized or not."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, p))
    if decimals is not None:
        X = np.round(X, decimals)
    X[:, rng.random(p) < 0.2] = 0.75
    y = (rng.random(n) < positives).astype(np.int64)
    y[rng.integers(n)] = 1
    if y.all():
        y[0] = 0
    w = rng.random(n)
    if spread == "power":
        w = w**200
    elif spread == "rounded":
        w = np.round(w, 1)
    w[rng.random(n) < zeros] = 0.0
    if w.sum() == 0.0:
        w[rng.integers(n)] = 1.0
    return X, y, w / w.sum() if normalize else w


def oversampled(case, seed):
    """``case`` with copies of its positive rows, weights included, drawn
    until the classes balance, as random oversampling draws them."""
    X, y, w = case
    rng = np.random.default_rng(seed)
    copies = rng.choice(np.flatnonzero(y == 1), int((y == 0).sum() - (y == 1).sum()))
    return np.vstack([X, X[copies]]), np.append(y, y[copies]), np.append(w, w[copies])


@st.composite
def stump_cases(draw):
    return stump_case(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(2, 400)),
        draw(st.integers(1, 6)),
        draw(st.sampled_from([0, 1, 2, None])),
        draw(st.floats(0.01, 0.9)),
        draw(st.sampled_from(["uniform", "power", "rounded"])),
        draw(st.sampled_from([0.0, 0.2, 0.6, 0.9])),
        draw(st.booleans()),
    )


def regrouped(sorted_features, layout):
    """``sorted_features`` with its features grouped as ``layout`` says:
    "chosen" keeps the groups it built, "runs" puts every feature's run ends
    in one group and "scans" each feature in a group of its own."""
    members = [member for group, _ in sorted_features.groups for member in group]
    if layout == "chosen" or not members:
        return sorted_features
    sorted_features.groups = []
    for part in [members] if layout == "runs" else [[member] for member in members]:
        placed, size = [], 0
        for f, j, k, _ in part:
            placed.append((f, j, k, slice(size, size + j.size)))
            size += j.size
        sorted_features.groups.append((placed, size))
    return sorted_features


def grouped_as(layout):
    """Patch ``_SortedFeatures`` so that every set groups as ``layout``."""
    built = boosting_module._SortedFeatures
    return mock.patch.object(
        boosting_module, "_SortedFeatures", lambda X, y: regrouped(built(X, y), layout)
    )


# the stump must not depend on how features are grouped for one pass; on a
# single feature the three layouts coincide
GROUPINGS = pytest.mark.parametrize("layout", ["runs", "chosen", "scans"])


@GROUPINGS
@settings(max_examples=300, deadline=None)
@given(case=stump_cases())
# four cases where rounding brings the Gini of a cut inside a run level
# with or below its run's ends and to the least over all the feature's
# cuts, so that a scan of every cut would choose it
@example(case=stump_case(1899361569, 7, 2, None, 0.03, "uniform", 0.2, True))
@example(case=stump_case(3542336821, 25, 1, 1, 0.13, "power", 0.6, True))
@example(case=stump_case(3582073955, 105, 1, 1, 0.033, "power", 0.0, False))
@example(case=stump_case(1296288366, 229, 1, 2, 0.013, "power", 0.0, False))
# duplicated rows, as random oversampling leaves them, and a tiny wide set
# with 6 positives, shaped like the instance-hardness sampler's output
@example(case=oversampled(stump_case(2, 300, 6, 2, 0.02, "uniform", 0.0, True), seed=2))
@example(case=stump_case(0, 36, 18, None, 6 / 36, "uniform", 0.0, True))
def test_stump_search_matches_full_scan(case, layout):
    X, y, w = case
    with grouped_as(layout):
        sorted_features = boosting_module._SortedFeatures(X, y)
    gini = sorted_features.gini_stump(w)
    assert_same_stump(None if gini is None else stump_tuple(gini), reference_gini_stump(X, y, w))
    err, stump = sorted_features.error_stump(w)
    expected = reference_error_stump(X, y, w)
    assert_same_bits(err, expected[0])
    assert_same_stump(stump_tuple(stump), expected[1:])


def test_chord_bound_reaching_the_floor_exactly_counts():
    # the zero-weight row between the run's last two cuts gives them the same
    # Gini to the bit; the earlier of them lies inside the run, so it is no
    # candidate, and the run's last cut (0.6) wins
    X = np.array([[-0.9], [-0.8], [0.1], [1.1]])
    y = np.array([1, 0, 0, 1])
    w = np.array([0.3, 0.3, 0.0, 0.4])
    stump = boosting_module._SortedFeatures(X, y).gini_stump(w)
    assert_same_stump(stump_tuple(stump), reference_gini_stump(X, y, w))


@GROUPINGS
def test_stump_is_a_run_end_where_rounding_favours_an_interior_cut(layout):
    # rounding puts the computed Gini of the cut at -1.15, inside a run,
    # below both of its run's ends and level with the least run end, at
    # 0.25: the run end must win
    X, y, w = stump_case(3582073955, 105, 1, 1, 0.033, "power", 0.0, False)
    order = np.argsort(X[:, 0], kind="stable")
    xs, ws, ys = X[order, 0], w[order], y[order]
    cut = np.flatnonzero(xs[1:] > xs[:-1])
    gini = boosting_module._gini(
        np.cumsum(ws)[cut], np.cumsum(ws * ys)[cut], float(w.sum()), float(w[y == 1].sum())
    )[0]
    inside = int(np.argmin(gini))
    run = np.flatnonzero(np.cumsum(ys)[cut] == np.cumsum(ys)[cut[inside]])
    assert (xs[cut[inside]] + xs[cut[inside] + 1]) / 2.0 == -1.15
    assert run[0] < inside < run[-1] and gini[inside] < min(gini[run[0]], gini[run[-1]])
    with grouped_as(layout):
        stump = boosting_module._SortedFeatures(X, y).gini_stump(w)
    assert stump.threshold == 0.25
    assert_same_stump(stump_tuple(stump), reference_gini_stump(X, y, w))


@GROUPINGS
def test_error_stump_tie_within_a_run_goes_to_its_first_cut(layout):
    # the negatives inside the run of cuts 0.5 to 3.5 weigh 0, so both of
    # its ends err 0, and the first must win
    X = np.arange(6.0)[:, None]
    y = np.array([0, 0, 0, 0, 1, 1])
    w = np.array([0.5, 0.0, 0.0, 0.0, 0.25, 0.25])
    with grouped_as(layout):
        err, stump = boosting_module._SortedFeatures(X, y).error_stump(w)
    assert (err, stump.threshold) == (0.0, 0.5)
    assert_same_stump(stump_tuple(stump), reference_error_stump(X, y, w)[1:])


def test_ties_between_scanned_and_run_features_go_to_the_lowest():
    # feature 0 has zero-weight positives spread along it (runs a cut or two
    # long), feature 1 has them tied at its top (one run); both split the one
    # weighted positive off exactly, so both stumps tie at Gini 0 and error 0
    rng = np.random.default_rng(5)
    y = np.array([1] * 9 + [0] * 31)
    w = np.where(np.arange(40) == 0, 0.25, 0.0) + (y == 0) * 0.75 / 31
    X = np.empty((40, 2))
    X[:, 0] = np.concatenate([[-1.0], rng.permutation(39)])
    X[:, 1] = np.concatenate([[-1.0], np.full(8, 99.0), np.arange(31)])
    sorted_features = boosting_module._SortedFeatures(X, y)
    stump = sorted_features.gini_stump(w)
    assert stump.feature == 0
    assert_same_stump(stump_tuple(stump), reference_gini_stump(X, y, w))
    err, stump = sorted_features.error_stump(w)
    assert (err, stump.feature) == (0.0, 0)
    assert_same_stump(stump_tuple(stump), reference_error_stump(X, y, w)[1:])


def reference_search(method):
    """A stand-in for a _SortedFeatures search that runs the reference scan."""
    def search(sorted_features, w):
        X, y = sorted_features.X, sorted_features.is_positive.astype(np.int64)
        if method == "gini_stump":
            found = reference_gini_stump(X, y, w)
            return None if found is None else boosting_module._Stump(*found)
        err, *found = reference_error_stump(X, y, w)
        return err, boosting_module._Stump(*found)
    return search


@GROUPINGS
@settings(max_examples=40, deadline=None)
@given(case=stump_cases(), n_rounds=st.integers(1, 30))
def test_adaboost_fits_match_full_scan_fits(case, n_rounds, layout):
    X, y, _ = case
    for cls, method in ((RealAdaBoost, "gini_stump"), (DiscreteAdaBoost, "error_stump")):
        with grouped_as(layout):
            model = cls(n_rounds=n_rounds).fit(X, y)
        with mock.patch.object(boosting_module._SortedFeatures, method, reference_search(method)):
            reference = cls(n_rounds=n_rounds).fit(X, y)
        assert len(model.stumps_) == len(reference.stumps_)
        for ours, theirs in zip(model.stumps_, reference.stumps_):
            assert_same_stump(stump_tuple(ours), stump_tuple(theirs))
        if cls is DiscreteAdaBoost:
            assert_same_bits(model.alphas_, reference.alphas_)


def test_real_adaboost_fit_holds_little_beyond_its_input():
    # credit-card shaped: 4,800 rows, Time, V1..V28 and Amount, 0.2% positives
    rng = np.random.default_rng(7)
    n, p = 4800, 30
    y = (rng.random(n) < 0.002).astype(np.int64)
    y[:3] = 1
    X = rng.normal(size=(n, p)) + 2.5 * y[:, None] / np.sqrt(np.arange(1, p + 1))
    tracemalloc.start()
    try:
        RealAdaBoost().fit(X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one sort order the size of X, a few run ends and scratch rows: 1.35x;
    # a running-sum table the size of X besides read 2.3x, and a full scan
    # that held values and cuts too 3.6x
    assert peak <= 3.3 * X.nbytes


@pytest.mark.parametrize("cls", [RealAdaBoost, DiscreteAdaBoost])
@pytest.mark.parametrize("positives", [0.5, 0.002], ids=["dense", "rare"])
def test_adaboost_fit_keeps_its_run_ends_compact(cls, positives):
    # on the dense set nearly every cut ends a run; each run end keeps its
    # cut and positive count as int32, and as int64 the dense fits peaked
    # at 3.6x (real) and 3.9x (discrete) X
    rng = np.random.default_rng(13)
    n, p = 20000, 30
    y = (rng.random(n) < positives).astype(np.int64)
    y[:3] = 1
    X = rng.normal(size=(n, p))
    if positives < 0.5:
        X += 1.5 * y[:, None]
    tracemalloc.start()
    try:
        cls(n_rounds=5).fit(X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * X.nbytes


def test_tree_fit_holds_one_features_sorted_rows():
    # a node searches one feature's sorted rows at a time; holding every
    # feature's at once peaked at 4.4x X beside the presort's 2x
    rng = np.random.default_rng(11)
    n, p = 20000, 30
    y = (rng.random(n) < 0.002).astype(np.int64)
    y[:3] = 1
    X = rng.normal(size=(n, p)) + 1.5 * y[:, None]
    tracemalloc.start()
    try:
        DecisionTreeClassifier(max_depth=8).fit(X, y)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * X.nbytes
