import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflake.classifiers import boosting, get_profile, sigmoid, train_gbt
from qflake.classifiers.tree import NodeArrays
from qflake.corpus import Label, load_manifest
from qflake.errors import PipelineError, QflakeError
from qflake.synthetic import generate_corpus
from qflake.text import fit_vocabulary, tokenize, transform

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

    def test_single_class_scores_constant_prior(self):
        """A one-class fit grows no trees and scores its prior, 0 or 1,
        exactly, wherever a row lies."""
        X = np.array([[0.0], [1.0]])
        for label in (0, 1):
            model = train_gbt(
                X, np.array([label, label]),
                {"learning_rate": 0.5, "max_depth": 2, "n_estimators": 10},
            )
            assert model.prior == label
            assert model.trees == [] and model.flat.roots.size == 0
            scores = model.score(np.array([[99.0], [-3.0]]))
            assert scores.tolist() == [float(label)] * 2

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
    """Same shape, features, thresholds and leaf values, bit for bit."""
    assert tree.is_leaf == reference.is_leaf
    if reference.is_leaf:
        assert tree.value == reference.value
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
    assert np.array_equal(model.score(X), reference.score(X))
    assert np.array_equal(model.score(X), recursive_score(model, X))


def corpus_matrix(corpus):
    """Count matrix and labels of every file, as ``qflake train`` fits."""
    docs = [tokenize(e.text) for e in corpus]
    X = transform(docs, fit_vocabulary(docs)).counts.astype(np.float64)
    y = np.array([e.label is Label.FLAKY for e in corpus], dtype=np.int8)
    return X, y


@pytest.mark.parametrize("n_flaky, n_nonflaky, profile, corpus_seed", [
    (5, 27, "paper_smote", 1011),
    (8, 43, "paper_vanilla", 1000),
])
def test_node_cache_holds_a_whole_fit(
    n_flaky, n_nonflaky, profile, corpus_seed, tmp_path, monkeypatch
):
    """At the benchmark's scales every node key's candidates are computed
    once per fit, and the kept nodes stay within the byte budget: fold 0
    of a 5:27 corpus after SMOTE (47 nodes; on some corpora every tree is
    a stump), and a whole 8:43 corpus (51 rows)."""
    corpus = load_manifest(generate_corpus(tmp_path, n_flaky, n_nonflaky, seed=corpus_seed))
    if profile == "paper_smote":
        X, y = fold0_training_matrix(corpus, smote=True)
    else:
        X, y = corpus_matrix(corpus)
        assert X.shape[0] == 51
    fits, computed = [], []
    compute = boosting.ExactBins._node

    def counted(self, key, *args):
        fits.append(self)
        computed.append(key)
        return compute(self, key, *args)

    monkeypatch.setattr(boosting.ExactBins, "_node", counted)
    model = train_gbt(X, y, get_profile("xgb", profile).hyperparameters, seed=3)

    assert len(set(map(id, fits))) == 1
    assert len(computed) == len(set(computed))
    # the fit grew far more nodes than it computed
    assert model.flat.right.size > 5 * len(computed)
    kept = fits[0]._seen.values()
    held = sum(boosting._NODE_BYTES + sum(a.nbytes for a in node if a is not None)
               for node in kept)
    assert all(a.dtype == np.uint16 for node in kept for a in node if a is not None)
    assert held == boosting._CACHE_BYTES - fits[0]._room <= boosting._CACHE_BYTES


@settings(max_examples=100)
@given(
    n=st.integers(2, 40),
    kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=6),
    n_copies=st.integers(1, 6),
    max_depth=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
)
def test_copied_columns_grow_the_same_trees(n, kinds, n_copies, max_depth, seed):
    """Copies of random columns, each inserted after the column it copies,
    leave every tree as it is once split features are mapped to the first
    copy. An all-zero column, which has no cell at any node, is among the
    columns, and may be copied too."""
    rng = np.random.default_rng(seed)
    X = make_columns([*kinds, "zero"], n, rng)
    y = (rng.random(n) < 0.4).astype(np.int8)
    y[:2] = (0, 1)
    columns, source = list(X.T), list(range(X.shape[1]))
    for _ in range(n_copies):
        j = int(rng.integers(len(columns)))
        at = int(rng.integers(j + 1, len(columns) + 1))
        columns.insert(at, columns[j])
        source.insert(at, source[j])
    wide = np.column_stack(columns)
    params = {"learning_rate": 0.5, "max_depth": max_depth, "n_estimators": 4}

    model, copied = train_gbt(X, y, params), train_gbt(wide, y, params)

    first = {}
    for j, column in enumerate(X.T):
        first.setdefault(column.tobytes(), j)
    first_copy = np.array([first[column.tobytes()] for column in X.T])
    flat, flat_copied = model.flat, copied.flat
    for name in ("threshold", "right", "value", "roots"):
        assert np.array_equal(getattr(flat, name), getattr(flat_copied, name))
    split = flat.right != np.arange(flat.right.size)
    assert np.array_equal(
        first_copy[flat.feature[split]],
        first_copy[np.array(source)[flat_copied.feature[split]]],
    )
    assert np.array_equal(model.score(X), copied.score(wide))
