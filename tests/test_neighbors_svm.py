import numpy as np
import pytest

from qflake.classifiers import sigmoid, train_knn, train_svm
from qflake.errors import PipelineError, QflakeError

from test_trees import separable_set


class TestKnn:
    def test_exact_match_uses_zero_distance_rule(self):
        X = np.array([[0.0, 0.0], [3.0, 0.0], [0.0, 3.0], [5.0, 5.0]])
        y = np.array([1, 0, 0, 0])
        model = train_knn(X, y, {"n_neighbors": 3})
        assert model.score(X[[0]])[0] == 1.0

    def test_all_rows_uniform_distance_gives_global_fraction(self):
        # four corners of a square, query at the center: all distances equal
        X = np.array([[1.0, 1.0], [-1.0, 1.0], [1.0, -1.0], [-1.0, -1.0]])
        y = np.array([1, 0, 0, 1])
        model = train_knn(X, y, {"n_neighbors": 4})
        assert model.score(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.5)

    def test_inverse_distance_weighting_hand_value(self):
        # neighbors: two flaky at distance 1, one nonflaky at distance 2
        # score = (1 + 1) / (1 + 1 + 0.5) = 0.8
        X = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 2.0]])
        y = np.array([1, 1, 0])
        model = train_knn(X, y, {"n_neighbors": 3})
        assert model.score(np.array([[0.0, 0.0]]))[0] == pytest.approx(0.8)

    def test_k1_predicts_training_labels_exactly(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(25, 3))
        y = (rng.random(25) < 0.5).astype(np.int8)
        model = train_knn(X, y, {"n_neighbors": 1})
        assert np.array_equal(model.score(X), y.astype(float))

    def test_k_too_large(self):
        X = np.zeros((3, 2))
        X[1, 0] = 1.0
        X[2, 1] = 1.0
        y = np.array([1, 0, 1])
        with pytest.raises(PipelineError, match="n_neighbors=4 exceeds the 3 training rows"):
            train_knn(X, y, {"n_neighbors": 4})

    def test_separable_train_accuracy(self):
        X, y = separable_set(seed=9)
        model = train_knn(X, y, {"n_neighbors": 3})
        assert np.array_equal((model.score(X) >= 0.5).astype(int), y)

    def test_distance_tie_broken_by_lowest_row_index(self):
        # two stored rows equidistant from the query; k=1 must pick row 0
        X = np.array([[1.0, 0.0], [-1.0, 0.0]])
        y = np.array([1, 0])
        model = train_knn(X, y, {"n_neighbors": 1})
        assert model.score(np.array([[0.0, 0.0]]))[0] == 1.0

    def test_serialization_roundtrip(self):
        X, y = separable_set(seed=10, n=30)
        model = train_knn(X, y, {"n_neighbors": 3})
        clone = type(model).from_dict(model.to_dict())
        query = np.array([[0.5, -0.5], [4.0, 4.0]])
        assert np.array_equal(clone.score(query), model.score(query))


class TestLinearSvm:
    def test_sigmoid_margin_symmetry(self):
        X, y = separable_set(seed=11, n=40)
        model = train_svm(X, y, {"C": 0.01}, seed=0)
        m = 1.7
        w_norm = np.linalg.norm(model.w)
        # points at margin +-m along w produce sigmoid(+-m*|w|) offsets of b
        point_pos = (model.w / w_norm**2) * (m - model.b)
        point_neg = (model.w / w_norm**2) * (-m - model.b)
        s_pos = model.score(point_pos[None, :])[0]
        s_neg = model.score(point_neg[None, :])[0]
        assert s_pos == pytest.approx(float(sigmoid(m)), abs=1e-9)
        assert s_pos + s_neg == pytest.approx(1.0, abs=1e-9)

    def test_separable_train_accuracy(self):
        X, y = separable_set(seed=12)
        model = train_svm(X, y, {"C": 0.01}, seed=3)
        acc = ((model.score(X) >= 0.5).astype(int) == y).mean()
        assert acc >= 0.95

    def test_label_flip_symmetry(self):
        X, y = separable_set(seed=13, n=50)
        model = train_svm(X, y, {"C": 0.01}, seed=1)
        flipped = train_svm(X, 1 - y, {"C": 0.01}, seed=1)
        # negating the separator scores the flipped problem identically
        manual = sigmoid(X @ (-flipped.w) - flipped.b)
        assert np.allclose(model.score(X), manual, atol=1e-6)

    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(PipelineError, match="SVM training needs both classes present"):
            train_svm(X, np.ones(10, dtype=int), {"C": 0.01}, seed=0)

    def test_determinism(self):
        X, y = separable_set(seed=14, n=60)
        a = train_svm(X, y, {"C": 0.01}, seed=5)
        b = train_svm(X, y, {"C": 0.01}, seed=5)
        assert np.array_equal(a.w, b.w) and a.b == b.b

    def test_c_must_be_positive(self):
        X, y = separable_set(seed=15, n=20)
        refused = "svm hyperparameter 'C' must be a finite number > 0, got 0.0"
        with pytest.raises(QflakeError, match=refused):
            train_svm(X, y, {"C": 0.0}, seed=0)

    def test_scores_in_unit_interval(self):
        X, y = separable_set(seed=16, n=40)
        model = train_svm(X, y, {"C": 0.01}, seed=0)
        s = model.score(X * 1e3)
        assert np.all((s >= 0) & (s <= 1)) and np.all(np.isfinite(s))

    def test_serialization_roundtrip(self):
        X, y = separable_set(seed=17, n=30)
        model = train_svm(X, y, {"C": 0.01}, seed=2)
        clone = type(model).from_dict(model.to_dict())
        assert np.array_equal(clone.score(X), model.score(X))
