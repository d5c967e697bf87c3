import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflake.classifiers import boosting, get_profile, sigmoid, train_gbt
from qflake.classifiers.tree import NodeArrays
from qflake.errors import PipelineError, QflakeError

from presorted_grower import append_tree, grow_presorted_tree
from recursive_predict import recursive_score, tree_predict_value
from test_trees import COLUMN_KINDS, fold0_training_matrix, make_columns, separable_set

LAM = 1.0


class TestGradientBoosting:
    def test_zero_rounds_scores_base_rate(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 0, 0, 1])
        model = train_gbt(
            X, y, {"learning_rate": 0.5, "max_depth": 3, "n_estimators": 0}
        )
        assert np.allclose(model.score(X), 0.25)

    def test_zero_learning_rate_equals_zero_rounds(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0, 1, 0, 1])
        frozen = train_gbt(
            X, y, {"learning_rate": 0.0, "max_depth": 3, "n_estimators": 25}
        )
        none = train_gbt(
            X, y, {"learning_rate": 0.5, "max_depth": 3, "n_estimators": 0}
        )
        assert np.array_equal(frozen.score(X), none.score(X))

    def test_separable_set_fits(self):
        X, y = separable_set(seed=7)
        model = train_gbt(
            X, y, {"learning_rate": 0.5, "max_depth": 5, "n_estimators": 100}
        )
        scores = model.score(X)
        assert np.array_equal((scores >= 0.5).astype(int), y)
        assert scores[y == 1].min() > 0.9

    def test_single_class_flagged_constant_prior(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([1, 1])
        model = train_gbt(
            X, y, {"learning_rate": 0.5, "max_depth": 2, "n_estimators": 10}
        )
        assert "degenerate_labels" in model.flags
        assert model.trees == [] and model.flat.roots.size == 0
        assert np.allclose(model.score(np.array([[99.0]])), 1.0)

    @pytest.mark.parametrize("seed", [0, 3, 7, 10, 13])
    def test_equal_partitions_tie_to_lowest_feature(self, seed):
        """Both columns split the rows into the same two sets, holding
        different values in a different order within each side, so each
        column sums the same gradients in its own order and the two gains
        can differ in the last ulp. Feature 0 must win either way.
        """
        rng = np.random.default_rng(seed)
        n = 30
        k = int(rng.integers(5, n - 4))
        g = np.concatenate([rng.uniform(-1, -0.2, k), rng.uniform(0.2, 1, n - k)])
        h = rng.uniform(0.05, 0.25, n)
        X = np.empty((n, 2))
        for j in range(2):
            X[:k, j] = rng.permutation(k)
            X[k:, j] = k + rng.permutation(n - k)
        tree, _ = grown_tree(boosting.ExactBins(X), g, h, max_depth=1)
        assert tree.threshold == k - 0.5
        assert tree.feature == 0

    def test_depth_cap(self):
        rng = np.random.default_rng(12)
        X = rng.normal(size=(60, 4))
        y = (rng.random(60) < 0.5).astype(np.int8)
        model = train_gbt(
            X, y, {"learning_rate": 0.3, "max_depth": 2, "n_estimators": 15}
        )
        assert model.flat.depth <= 2

    def test_leaf_values_match_closed_form(self):
        """Re-run the boosting recursion independently: walk each stored
        tree, route rows to leaves, and check value = -G/(H + lam) with
        gradients recomputed from scratch.
        """
        rng = np.random.default_rng(13)
        X = rng.normal(size=(30, 3)).round(1)
        y = (rng.random(30) < 0.4).astype(np.int8)
        lr = 0.4
        model = train_gbt(
            X, y, {"learning_rate": lr, "max_depth": 2, "n_estimators": 5}
        )
        p0 = y.mean()
        raw = np.full(len(y), np.log(p0 / (1 - p0)))
        for tree in model.trees:
            p = 1 / (1 + np.exp(-raw))
            g = p - y
            h = p * (1 - p)

            def check(node, idx):
                if node.is_leaf:
                    expected = -g[idx].sum() / (h[idx].sum() + LAM)
                    assert node.value == pytest.approx(expected, abs=1e-10)
                    return
                mask = X[idx, node.feature] <= node.threshold
                check(node.left, idx[mask])
                check(node.right, idx[~mask])

            check(tree, np.arange(len(y)))
            raw += lr * tree_predict_value(tree, X)
        # and the model's final scores match the recomputed raw trajectory
        assert np.allclose(model.score(X), sigmoid(raw), atol=1e-12)

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(14)
        X = rng.normal(size=(50, 4))
        y = (rng.random(50) < 0.5).astype(np.int8)
        model = train_gbt(
            X, y, {"learning_rate": 0.5, "max_depth": 5, "n_estimators": 60}
        )
        s = model.score(X)
        assert np.all((s >= 0) & (s <= 1)) and np.all(np.isfinite(s))

    def test_dimension_mismatch(self):
        X = np.array([[0.0, 1.0], [1.0, 0.0]])
        y = np.array([0, 1])
        model = train_gbt(
            X, y, {"learning_rate": 0.5, "max_depth": 2, "n_estimators": 3}
        )
        with pytest.raises(PipelineError, match="matrix has 3 features, model expects 2"):
            model.score(np.zeros((1, 3)))

    def test_missing_hyperparameters_rejected(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        with pytest.raises(QflakeError, match="xgb: missing hyperparameter 'max_depth'"):
            train_gbt(X, y, {"learning_rate": 0.5})

    def test_serialization_roundtrip(self):
        X, y = separable_set(seed=8, n=40)
        model = train_gbt(
            X, y, {"learning_rate": 0.5, "max_depth": 3, "n_estimators": 10}
        )
        clone = type(model).from_dict(model.to_dict())
        assert np.array_equal(clone.score(X), model.score(X))

    @pytest.mark.parametrize("key, value", [
        ("base_raw", float("inf")),
        ("base_raw", True),
        ("prior", -0.1),
        ("prior", "0.5"),
        ("learning_rate", -0.1),
        ("learning_rate", float("nan")),
    ])
    def test_from_dict_rejects_bad_scalars(self, key, value):
        """``1e999`` in JSON loads as inf, past the loader's NaN and
        Infinity refusal; bools are ints to ``float``."""
        X, y = separable_set(seed=8, n=40)
        payload = train_gbt(
            X, y, {"learning_rate": 0.5, "max_depth": 3, "n_estimators": 2}
        ).to_dict()
        with pytest.raises(QflakeError, match=key):
            boosting.GradientBoostingModel.from_dict({**payload, key: value})


class PresortedBins:
    """Stands in for ``ExactBins`` in ``train_gbt``, growing every tree
    with the presorted reference grower."""

    def __init__(self, X):
        self.X = X

    def grow(self, g, h, max_depth, nodes, lam=LAM):
        tree = grow_presorted_tree(self.X, g, h, max_depth, lam)
        append_tree(nodes, tree)
        return tree_predict_value(tree, self.X)


def grown_tree(bins, g, h, max_depth):
    """The tree ``bins`` grows, as its ``TreeNode`` view, and each row's
    leaf value."""
    nodes = NodeArrays()
    row_value = bins.grow(g, h, max_depth, nodes)
    (tree,) = nodes.flat().to_nodes()
    return tree, row_value


def assert_same_tree(tree, reference):
    """Same shape, features and thresholds; leaf values to 1e-12 relative."""
    assert tree.is_leaf == reference.is_leaf
    if reference.is_leaf:
        scale = max(1.0, abs(reference.value))
        assert abs(tree.value - reference.value) <= 1e-12 * scale
        return
    assert (tree.feature, tree.threshold) == (reference.feature, reference.threshold)
    assert_same_tree(tree.left, reference.left)
    assert_same_tree(tree.right, reference.right)


@settings(max_examples=200)
@given(
    n=st.integers(2, 60),
    kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=8),
    max_depth=st.integers(1, 5),
    constant_p=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_bins_grow_the_presorted_tree(n, kinds, max_depth, constant_p, seed):
    """The exact sparse-histogram grower builds the presorted reference
    grower's tree, round after round from the same bins, and each row's
    leaf value is the one walking the tree gives. ``constant_p`` gives the
    first round's gradients: one score for every row, so many splits tie
    exactly."""
    rng = np.random.default_rng(seed)
    X = make_columns(kinds, n, rng)
    y = rng.random(n) < 0.4
    bins = boosting.ExactBins(X)
    for scale in (0.0 if constant_p else 1.5, 1.5, 0.5):
        p = sigmoid(rng.normal() + rng.normal(0, scale, n))
        g = p - y
        h = p * (1.0 - p)
        reference = grow_presorted_tree(X, g, h, max_depth)
        tree, row_value = grown_tree(bins, g, h, max_depth)
        assert_same_tree(tree, reference)
        assert np.array_equal(row_value, tree_predict_value(tree, X))
        assert_same_tree(grown_tree(boosting.ExactBins(X), g, h, max_depth)[0], reference)


@pytest.mark.parametrize("profile", ["paper_vanilla", "paper_smote"])
def test_whole_fit_matches_presorted_grower(profile, tiny_corpus, monkeypatch):
    """``train_gbt`` on one fold's training matrix, vanilla or after SMOTE,
    grows the same trees and scores whichever grower it uses."""
    X, y = fold0_training_matrix(tiny_corpus, smote=profile == "paper_smote")
    params = get_profile("xgb", profile).hyperparameters

    model = train_gbt(X, y, params, seed=3)
    monkeypatch.setattr(boosting, "ExactBins", PresortedBins)
    reference = train_gbt(X, y, params, seed=3)

    assert len(model.trees) == len(reference.trees) == params["n_estimators"]
    for tree, ref in zip(model.trees, reference.trees):
        assert_same_tree(tree, ref)
    assert sum(not t.is_leaf for t in model.trees) > 0
    assert np.allclose(model.score(X), reference.score(X), rtol=1e-12, atol=0)
    assert np.array_equal(model.score(X), recursive_score(model, X))
