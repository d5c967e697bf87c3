import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflake.bundle import ModelBundle
from qflake.classifiers import (
    DecisionTreeModel,
    GradientBoostingModel,
    RandomForestModel,
    get_profile,
    model_from_dict,
    train_decision_tree,
    train_model,
    train_random_forest,
    tree,
)
from qflake.classifiers.tree import (
    CRITERIA,
    FlatTrees,
    NodeArrays,
    SplitSearch,
    _impurity_from_fraction,
)
from qflake.corpus import Label, stratified_folds
from qflake.errors import QflakeError
from qflake.eval import FittedPipeline
from qflake.resample import smote_resample
from qflake.text import Vocabulary, fit_vocabulary, tokenize, transform

from dense_class_split import DenseSearch, dense_class_split
from recursive_predict import recursive_score, tree_predict_value


def separable_set(seed=0, n=100):
    """Two well-separated Gaussian blobs; linearly separable by a margin."""
    rng = np.random.default_rng(seed)
    half = n // 2
    X = np.vstack(
        [rng.normal(-4.0, 1.0, (half, 2)), rng.normal(4.0, 1.0, (n - half, 2))]
    )
    y = np.array([0] * half + [1] * (n - half), dtype=np.int8)
    gap = X[y == 1].sum(axis=1).min() - X[y == 0].sum(axis=1).max()
    assert gap > 0, "blobs overlapped; pick another seed"
    return X, y


def fold0_training_matrix(corpus, smote):
    """Count matrix and labels of fold 0's training rows (4 folds, seed
    3), after SMOTE when ``smote``."""
    folds = stratified_folds(corpus, 4, seed=3)
    train = [e for e in corpus if folds[e.id] != 0]
    docs = [tokenize(e.text) for e in train]
    X = transform(docs, fit_vocabulary(docs)).counts.astype(np.float64)
    y = np.array([e.label is Label.FLAKY for e in train], dtype=np.int8)
    if smote:
        resampled = smote_resample(X, y, 5, seed=3)
        X, y = resampled.X, resampled.y
        assert not np.array_equal(X, X.round())  # fractional synthetic rows
    return X, y


COLUMN_KINDS = (
    "normal", "rounded", "few_levels", "constant", "zero", "duplicate", "partition", "smote"
)


def make_columns(kinds, n, rng):
    """One column per kind: continuous with negatives, rounded to one
    decimal (repeats and zeros), three levels (heavy duplication), all
    equal, all zero, a copy of the previous column, an equal-partition
    column (every such column splits the rows into the same two sets, in
    a different order within each side), and sparse counts with
    SMOTE-like fractional interpolations."""
    side = rng.permutation(n) < rng.integers(1, n) if n > 1 else np.ones(n, bool)
    columns = []
    for kind in kinds:
        if kind == "normal":
            col = rng.normal(size=n)
        elif kind == "rounded":
            col = rng.normal(size=n).round(1)
        elif kind == "few_levels":
            col = rng.integers(0, 3, n).astype(np.float64)
        elif kind == "constant":
            col = np.full(n, rng.normal())
        elif kind == "zero":
            col = np.zeros(n)
        elif kind == "duplicate":
            col = columns[-1].copy() if columns else np.zeros(n)
        elif kind == "partition":
            col = np.empty(n)
            col[side] = rng.permutation(int(side.sum()))
            col[~side] = side.sum() + rng.permutation(int((~side).sum()))
            col -= rng.integers(0, 3) * side.sum()
        else:
            counts = rng.poisson(0.7, size=(2, n)).astype(np.float64)
            u = rng.random(n) * (rng.random(n) < 0.5)
            col = counts[0] + u * (counts[1] - counts[0])
        columns.append(col)
    return np.column_stack(columns)


class TestImpurity:
    """Impurity of a node from its flaky fraction, as the split search
    computes it."""

    def test_uniform_two_class_entropy(self):
        assert _impurity_from_fraction([0.5], "entropy")[0] == pytest.approx(1.0)

    def test_pure_set_zero(self):
        assert _impurity_from_fraction([1.0], "entropy")[0] == 0.0
        assert _impurity_from_fraction([1.0], "gini")[0] == 0.0

    def test_three_to_one_entropy(self):
        # -(0.75*log2(0.75) + 0.25*log2(0.25))
        assert _impurity_from_fraction([0.75], "entropy")[0] == pytest.approx(
            0.811278, abs=1e-6
        )

    def test_gini_values(self):
        assert _impurity_from_fraction([0.5], "gini")[0] == pytest.approx(0.5)
        assert _impurity_from_fraction([0.75], "gini")[0] == pytest.approx(0.375)

    def test_bad_criterion(self):
        refused = "dt hyperparameter 'criterion' must be one of " '"entropy", "gini", got "variance"'
        with pytest.raises(QflakeError, match=refused):
            train_decision_tree(
                np.array([[0.0], [1.0]]), np.array([0, 1]), {"criterion": "variance"}
            )


class TestDecisionTree:
    def test_separable_one_feature(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = train_decision_tree(X, y, {"min_samples_split": 2})
        assert model.flat.depth == 1
        assert 1.0 < model.root.threshold < 10.0
        assert np.array_equal((model.score(X) >= 0.5).astype(int), y)

    def test_pure_labels_single_leaf(self):
        X = np.array([[0.0], [5.0], [9.0]])
        y = np.array([1, 1, 1])
        model = train_decision_tree(X, y)
        assert model.root.is_leaf
        assert model.score(np.array([[123.0]]))[0] == 1.0

    def test_max_depth_zero_is_prior_stump(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 0, 1])
        model = train_decision_tree(X, y, {"max_depth": 0})
        assert model.root.is_leaf
        assert model.score(X).tolist() == [0.25] * 4

    def test_depth_never_exceeds_cap(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(120, 5))
        y = (rng.random(120) < 0.4).astype(np.int8)
        for cap in (1, 2, 3):
            model = train_decision_tree(X, y, {"max_depth": cap, "criterion": "gini"})
            assert model.flat.depth <= cap

    def test_min_samples_leaf_respected(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(60, 3))
        y = (rng.random(60) < 0.5).astype(np.int8)
        model = train_decision_tree(X, y, {"min_samples_leaf": 7})

        def leaf_sizes(node, idx):
            if node.is_leaf:
                return [len(idx)]
            mask = X[idx, node.feature] <= node.threshold
            return leaf_sizes(node.left, idx[mask]) + leaf_sizes(
                node.right, idx[~mask]
            )

        assert min(leaf_sizes(model.root, np.arange(len(X)))) >= 7

    def test_min_samples_split_respected(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(50, 3))
        y = (rng.random(50) < 0.5).astype(np.int8)
        model = train_decision_tree(X, y, {"min_samples_split": 20})

        def node_sizes(node, idx):
            if node.is_leaf:
                return []
            mask = X[idx, node.feature] <= node.threshold
            return (
                [len(idx)]
                + node_sizes(node.left, idx[mask])
                + node_sizes(node.right, idx[~mask])
            )

        assert all(s >= 20 for s in node_sizes(model.root, np.arange(len(X))))

    def test_tie_break_prefers_lower_feature_index(self):
        # identical columns: the split must land on feature 0
        col = np.array([0.0, 1.0, 10.0, 11.0])
        X = np.column_stack([col, col])
        y = np.array([0, 0, 1, 1])
        model = train_decision_tree(X, y)
        assert model.root.feature == 0

    def test_unknown_hyperparameter_rejected(self):
        X = np.array([[0.0], [1.0]])
        y = np.array([0, 1])
        with pytest.raises(QflakeError, match=r"dt: unknown hyperparameter\(s\) \['depth'\]"):
            train_decision_tree(X, y, {"depth": 3})

    def test_scores_in_unit_interval(self):
        rng = np.random.default_rng(6)
        X = rng.normal(size=(80, 4))
        y = (rng.random(80) < 0.3).astype(np.int8)
        model = train_decision_tree(X, y, {"max_depth": 4})
        s = model.score(X)
        assert np.all((s >= 0) & (s <= 1))

    def test_serialization_roundtrip(self):
        X = np.array([[0.0], [1.0], [10.0], [11.0]])
        y = np.array([0, 0, 1, 1])
        model = train_decision_tree(X, y)
        clone = type(model).from_dict(model.to_dict())
        assert np.array_equal(clone.score(X), model.score(X))


class TestRandomForest:
    def test_singleton_forest_equals_its_tree(self):
        X, y = separable_set(seed=1, n=40)
        model = train_random_forest(X, y, {"n_estimators": 1}, seed=5)
        assert np.array_equal(model.score(X), tree_predict_value(model.trees[0], X))

    def test_separable_train_accuracy(self):
        X, y = separable_set(seed=2)
        model = train_random_forest(
            X, y, {"n_estimators": 50, "max_depth": 10}, seed=0
        )
        assert np.array_equal((model.score(X) >= 0.5).astype(int), y)

    def test_determinism(self):
        X, y = separable_set(seed=3, n=60)
        a = train_random_forest(X, y, {"n_estimators": 10}, seed=9)
        b = train_random_forest(X, y, {"n_estimators": 10}, seed=9)
        assert a.to_dict() == b.to_dict()
        assert np.array_equal(a.score(X), b.score(X))
        c = train_random_forest(X, y, {"n_estimators": 10}, seed=10)
        # different seed, different bootstraps: the trees themselves differ
        # even though both forests classify the separable set perfectly
        assert c.to_dict()["trees"] != a.to_dict()["trees"]

    def test_score_is_mean_of_tree_scores(self):
        X, y = separable_set(seed=4, n=50)
        model = train_random_forest(X, y, {"n_estimators": 7}, seed=2)
        per_tree = np.stack([tree_predict_value(t, X) for t in model.trees])
        assert np.allclose(model.score(X), per_tree.mean(axis=0), atol=1e-15)

    def test_depth_cap_holds_for_every_tree(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(80, 6))
        y = (rng.random(80) < 0.5).astype(np.int8)
        model = train_random_forest(
            X, y, {"n_estimators": 12, "max_depth": 3}, seed=1
        )
        assert model.flat.depth <= 3

    def test_empty_input_scores_empty(self):
        X, y = separable_set(seed=5, n=30)
        model = train_random_forest(X, y, {"n_estimators": 3}, seed=0)
        assert model.score(np.empty((0, 2))).shape == (0,)


@settings(max_examples=300)
@given(
    n=st.integers(1, 40),
    kinds=st.lists(st.sampled_from(COLUMN_KINDS), min_size=1, max_size=8),
    criterion=st.sampled_from(CRITERIA),
    min_samples_leaf=st.integers(1, 4),
    bootstrap=st.booleans(),
    flaky_share=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_table_split_matches_dense_search(
    n, kinds, criterion, min_samples_leaf, bootstrap, flaky_share, seed
):
    """The table-driven search returns the dense search's (feature,
    threshold), or None when it does, on a bootstrap sample (repeated
    rows) or a subset of the rows, over a random sorted column subset."""
    rng = np.random.default_rng(seed)
    X = make_columns(kinds, n, rng)
    y = (rng.random(n) < flaky_share).astype(np.int8)
    if bootstrap:
        idx = rng.integers(0, n, size=n)
    else:
        idx = np.sort(rng.choice(n, size=int(rng.integers(1, n + 1)), replace=False))
    d = X.shape[1]
    feats = np.sort(rng.choice(d, size=int(rng.integers(1, d + 1)), replace=False))
    expected = dense_class_split(X, y, idx, feats, criterion, min_samples_leaf)
    found = SplitSearch(X, y, criterion).best_split(idx, feats, min_samples_leaf)
    assert found == expected


@pytest.mark.parametrize("family", ["dt", "rf"])
@pytest.mark.parametrize("profile", ["paper_vanilla", "paper_smote"])
def test_whole_fit_matches_dense_search(family, profile, tiny_corpus, monkeypatch):
    """A fit on fold 0's training matrix, vanilla or after SMOTE, grows
    the same trees whichever split search it uses."""
    X, y = fold0_training_matrix(tiny_corpus, smote=profile == "paper_smote")
    params = get_profile(family, profile).hyperparameters
    model = train_model(family, X, y, params, seed=3)
    monkeypatch.setattr(tree, "SplitSearch", DenseSearch)
    reference = train_model(family, X, y, params, seed=3)

    assert model.to_dict() == reference.to_dict()
    roots = [model.root] if family == "dt" else model.trees
    assert sum(not r.is_leaf for r in roots) > 0
    assert np.array_equal(model.score(X), recursive_score(model, X))


@pytest.mark.parametrize(
    "family, params",
    [
        ("dt", {"max_depth": None, "min_samples_leaf": 1, "min_samples_split": 2}),
        ("xgb", {"max_depth": 5000, "n_estimators": 1, "learning_rate": 0.3}),
    ],
)
def test_deep_chain_grows_scores_and_round_trips(family, params, tmp_path):
    """One column holding 0..1299 with alternating labels takes a tree
    1,299 levels deep, far past Python's recursion limit. It grows, its
    ``TreeNode`` view prints and compares (by identity), it separates its
    training rows, and a bundle holding it scores the same
    after a save and load (the recursive test oracles would recurse too
    deep to compare against)."""
    X = np.arange(1300, dtype=np.float64)[:, None]
    y = np.arange(1300) % 2
    model = train_model(family, X, y, params, seed=0)
    assert model.flat.depth == 1299
    view = model.root if family == "dt" else model.trees[0]
    assert repr(view).startswith("TreeNode(feature=0, threshold=")
    assert view == view and view != model.flat.to_nodes()[0]
    scores = model.score(X)
    assert np.array_equal(scores > 0.5, y == 1)

    pipeline = FittedPipeline(
        vocabulary=Vocabulary(("aa",)), pca=None, model=model, threshold=0.5,
        curve=None, smote_synthetic=0,
    )
    bundle = ModelBundle(tokenizer="default", pipeline=pipeline, metadata={})
    bundle.save(tmp_path / "deep.json")
    loaded = ModelBundle.load(tmp_path / "deep.json")
    assert loaded.to_json() == bundle.to_json()
    assert loaded.pipeline.model.flat.depth == 1299
    assert np.array_equal(loaded.pipeline.score_counts(X), scores)
    counts = [1, 2, 1298, 1299]
    texts = [" ".join(["aa"] * c) for c in counts]
    assert np.array_equal(loaded.score_texts(texts), scores[counts])


def random_tree(rng, X, depth, classification, nodes):
    """Append a random tree of at most ``depth`` levels over X's columns
    to ``nodes`` and return its own depth; the draws are made node by
    node in pre-order. Most thresholds are values some row of X holds, so
    rows land exactly on them and the ``<=`` side matters."""
    leaf_levels = []

    def expand(level):
        if level == depth or rng.random() < 0.3:
            leaf_levels.append(level)
            if classification:
                m = int(rng.integers(1, 60))
                return int(rng.integers(0, m + 1)) / m
            return float(rng.normal())
        j = int(rng.integers(X.shape[1]))
        threshold = float(rng.choice(X[:, j])) if rng.random() < 0.8 else float(rng.normal())
        return j, threshold, level + 1, level + 1

    nodes.grow(0, expand)
    return max(leaf_levels)


def count_nodes(node):
    if node.is_leaf:
        return 1
    return 1 + count_nodes(node.left) + count_nodes(node.right)


@settings(max_examples=300)
@given(
    family=st.sampled_from(["dt", "rf", "xgb", "xgb-degenerate"]),
    n_trees=st.integers(0, 40),
    n_rows=st.integers(1, 12),
    n_features=st.integers(1, 5),
    max_depth=st.integers(0, 6),
    with_stump=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_scores_equal_recursive_walk(
    family, n_trees, n_rows, n_features, max_depth, with_stump, seed
):
    """Scores from the flat arrays equal the recursive walk of the
    ``TreeNode`` view bit for bit, on all rows at once and on each row
    alone, for trees of mixed depth (a single-leaf tree among them when
    ``with_stump``), before and after a round trip through the bundle's
    array payload; the arrays hold the depth the trees were grown to, the
    view holds one node per array entry, the payload decodes to the same
    arrays, and a reloaded model re-encodes to the same payload."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n_rows, n_features)).round(1)
    classification = family in ("dt", "rf")
    if family == "dt":
        n_trees = 1
    elif family == "rf":
        n_trees = max(n_trees, 1)
    elif family == "xgb-degenerate":
        n_trees = 0
    stump = int(rng.integers(n_trees)) if with_stump and n_trees else -1
    nodes = NodeArrays()
    depths = [
        random_tree(rng, X, 0 if t == stump else max_depth, classification, nodes)
        for t in range(n_trees)
    ]
    flat = nodes.flat()
    assert flat.depth == max(depths, default=0)
    common = {"flat": flat, "n_features": n_features}
    if family == "dt":
        model = DecisionTreeModel(**common)
    elif family == "rf":
        model = RandomForestModel(**common)
    else:
        # a one-class fit has prior 0 or 1, any other 0 < prior < 1
        one_class = family == "xgb-degenerate"
        model = GradientBoostingModel(
            base_raw=float(rng.normal()),
            prior=float(rng.integers(2) if one_class else rng.uniform(0.01, 0.99)),
            learning_rate=float(rng.uniform(0.01, 1.0)),
            **common,
        )
    views = [model.root] if family == "dt" else model.trees
    sizes = np.diff(np.append(flat.roots, flat.right.size))
    assert [count_nodes(v) for v in views] == sizes.tolist()
    assert sum(sizes) == len(nodes.right)

    payload = model.to_dict()["root" if family == "dt" else "trees"]
    assert set(payload) == {"feature", "threshold", "right", "value", "roots"}
    decoded = FlatTrees.from_payload(payload, n_features)
    assert decoded.depth == flat.depth
    for name in ("feature", "threshold", "left", "right", "value", "roots"):
        a, b = getattr(decoded, name), getattr(flat, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name

    reloaded = model_from_dict(model.to_dict())
    assert reloaded.to_dict() == model.to_dict()
    for m in (model, reloaded):
        assert np.array_equal(m.score(X), recursive_score(m, X))
        for i in range(n_rows):
            assert np.array_equal(m.score(X[i : i + 1]), recursive_score(m, X[i : i + 1]))
