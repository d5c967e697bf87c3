import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflake.corpus import Label, stratified_folds
from qflake.errors import PipelineError
from qflake.eval import (
    ConfusionMatrix,
    PipelineConfig,
    aggregate_reports,
    compute_metrics,
    confusion,
    cross_validate,
    tune_threshold,
)


def metrics_oracle(tp, fp, fn, tn):
    """Direct-definition metric oracle, coded independently of the
    implementation under test (plain Python arithmetic only).
    """
    total = tp + fp + fn + tn
    accuracy = (tp + tn) / total
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = (
        2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = (tp * tn - fp * fn) / math.sqrt(denom) if denom > 0 else 0.0
    return accuracy, precision, recall, f1, mcc


def training_sizes(corpus, n_folds, seed):
    """Rows each fold's model trains on: every row outside the fold, as
    ``stratified_folds`` deals them."""
    folds = list(stratified_folds(corpus, n_folds, seed).values())
    return [len(folds) - folds.count(f) for f in range(n_folds)]


class TestConfusion:
    def test_perfect_prediction(self):
        y = np.array([1, 0, 1, 0, 1])
        cm = confusion(y, y)
        assert cm.fp == 0 and cm.fn == 0
        assert cm.tp == 3 and cm.tn == 2

    def test_all_predicted_flaky_on_corpus_ratio(self):
        y_true = np.array([1] * 45 + [0] * 243)
        cm = confusion(y_true, np.ones_like(y_true))
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (45, 243, 0, 0)

    def test_enumeration(self):
        cm = confusion([1, 1, 0, 0], [1, 0, 1, 0])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (1, 1, 1, 1)

    def test_length_mismatch(self):
        with pytest.raises(PipelineError, match="y_true has"):
            confusion([1, 0], [1])


class TestComputeMetrics:
    def test_perfect(self):
        report = compute_metrics(ConfusionMatrix(tp=45, fp=0, fn=0, tn=243))
        assert report.values() == {
            "accuracy": 1.0, "precision": 1.0, "recall": 1.0, "f1": 1.0, "mcc": 1.0
        }
        assert not report.flags

    def test_hand_evaluated_case(self):
        report = compute_metrics(ConfusionMatrix(tp=2, fp=1, fn=1, tn=2))
        assert report.precision == pytest.approx(2 / 3, abs=1e-9)
        assert report.recall == pytest.approx(2 / 3, abs=1e-9)
        assert report.f1 == pytest.approx(2 / 3, abs=1e-9)
        assert report.mcc == pytest.approx(1 / 3, abs=1e-9)

    def test_degenerate_all_flaky_predictor(self):
        report = compute_metrics(ConfusionMatrix(tp=45, fp=243, fn=0, tn=0))
        assert report.recall == 1.0
        assert report.mcc == 0.0
        assert "mcc" in report.flags

    def test_zero_denominators_flagged(self):
        report = compute_metrics(ConfusionMatrix(tp=0, fp=0, fn=3, tn=5))
        assert report.precision == 0.0 and "precision" in report.flags
        assert report.f1 == 0.0 and "f1" in report.flags

    def test_empty_matrix(self):
        with pytest.raises(PipelineError, match="confusion matrix counts sum to zero"):
            compute_metrics(ConfusionMatrix(0, 0, 0, 0))

    def test_oracle_equivalence_on_random_matrices(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            tp, fp, fn, tn = (int(v) for v in rng.integers(0, 501, size=4))
            if tp + fp + fn + tn == 0:
                continue
            report = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
            expected = metrics_oracle(tp, fp, fn, tn)
            for got, want in zip(
                (report.accuracy, report.precision, report.recall, report.f1, report.mcc),
                expected,
            ):
                assert abs(got - want) < 1e-12

    @settings(max_examples=50)
    @given(
        y=st.lists(st.booleans(), min_size=1, max_size=60),
        p=st.lists(st.booleans(), min_size=1, max_size=60),
        seed=st.integers(min_value=0, max_value=9999),
    )
    def test_joint_permutation_invariance(self, y, p, seed):
        n = min(len(y), len(p))
        y_true = np.array(y[:n], dtype=int)
        y_pred = np.array(p[:n], dtype=int)
        base = compute_metrics(confusion(y_true, y_pred))
        perm = np.random.default_rng(seed).permutation(n)
        shuffled = compute_metrics(confusion(y_true[perm], y_pred[perm]))
        assert base == shuffled

    @settings(max_examples=50)
    @given(
        tp=st.integers(0, 50), fp=st.integers(0, 50),
        fn=st.integers(0, 50), tn=st.integers(0, 50),
    )
    def test_class_role_swap_preserves_accuracy_and_abs_mcc(self, tp, fp, fn, tn):
        if tp + fp + fn + tn == 0:
            return
        a = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        b = compute_metrics(ConfusionMatrix(tp=tn, fp=fn, fn=fp, tn=tp))
        assert a.accuracy == pytest.approx(b.accuracy, abs=1e-12)
        assert abs(a.mcc) == pytest.approx(abs(b.mcc), abs=1e-12)


class TestTuneThreshold:
    def test_tie_break_to_lowest_threshold(self):
        scores = np.array([0.2, 0.4, 0.6, 0.8])
        y = np.array([0, 0, 1, 1])
        curve = tune_threshold(scores, y)
        f1 = dict(curve.grid)
        assert f1[0.5] == 1.0
        assert f1[0.6] == 1.0
        assert curve.best_threshold == 0.5

    def test_constant_scores_pick_lowest_grid_point(self):
        scores = np.ones(5)
        y = np.ones(5, dtype=int)
        curve = tune_threshold(scores, y)
        assert all(f1 == 1.0 for _, f1 in curve.grid)
        assert curve.best_threshold == 0.1

    def test_grid_shape(self):
        curve = tune_threshold(np.array([0.3]), np.array([1]))
        thresholds = [t for t, _ in curve.grid]
        assert thresholds == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
        assert all(b > a for a, b in zip(thresholds, thresholds[1:]))

    def test_best_dominates_default(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            scores = rng.random(40)
            y = (rng.random(40) < 0.3).astype(int)
            curve = tune_threshold(scores, y)
            f1 = dict(curve.grid)
            assert f1[curve.best_threshold] >= f1[0.5]

    def test_empty_input(self):
        with pytest.raises(PipelineError, match="no scores to tune on"):
            tune_threshold(np.array([]), np.array([]))


class TestAggregation:
    def test_constant_folds(self):
        reports = [
            compute_metrics(ConfusionMatrix(tp=4, fp=1, fn=0, tn=5)) for _ in range(5)
        ]
        agg = aggregate_reports(reports)
        assert agg.std["accuracy"] == 0.0
        assert agg.mean["accuracy"] == pytest.approx(0.9)

    def test_population_std(self):
        # fold accuracies {1, 1, 1, 1, 0}: mean 0.8, population std 0.4
        reports = [compute_metrics(ConfusionMatrix(tp=1, fp=0, fn=0, tn=0))] * 4
        reports.append(compute_metrics(ConfusionMatrix(tp=0, fp=0, fn=1, tn=0)))
        agg = aggregate_reports(reports)
        assert agg.mean["accuracy"] == pytest.approx(0.8, abs=1e-12)
        assert agg.std["accuracy"] == pytest.approx(0.4, abs=1e-12)

    def test_aggregate_recomputable_from_folds(self, tiny_corpus):
        config = PipelineConfig.from_profile("dt", "paper_vanilla")
        result = cross_validate(tiny_corpus, config, n_folds=4, seed=3)
        for name in ("accuracy", "f1", "mcc"):
            vals = np.array([getattr(fr.report, name) for fr in result.folds])
            assert result.aggregate.mean[name] == pytest.approx(
                vals.mean(), abs=1e-12
            )
            assert result.aggregate.std[name] == pytest.approx(
                vals.std(), abs=1e-12
            )


class TestCrossValidate:
    def test_fold_shapes_and_determinism(self, tiny_corpus):
        config = PipelineConfig.from_profile("dt", "paper_vanilla")
        a = cross_validate(tiny_corpus, config, n_folds=4, seed=5)
        b = cross_validate(tiny_corpus, config, n_folds=4, seed=5)
        assert len(a.folds) == 4
        assert a.aggregate == b.aggregate
        assert [fr.report for fr in a.folds] == [fr.report for fr in b.folds]

    def test_smote_runs_only_on_training_rows(self, tiny_corpus):
        config = PipelineConfig.from_profile("knn", "paper_smote", smote=True)
        result = cross_validate(tiny_corpus, config, n_folds=4, seed=5)
        counts = tiny_corpus.class_counts
        n_flaky = counts[Label.FLAKY]
        n_nonflaky = counts[Label.NONFLAKY]
        n_train = training_sizes(tiny_corpus, 4, 5)
        for fr in result.folds:
            # synthetic rows = majority - minority within the training fold
            train_flaky = n_flaky - round(n_flaky / 4)
            train_nonflaky = n_nonflaky - round(n_nonflaky / 4)
            assert abs(fr.smote_synthetic - (train_nonflaky - train_flaky)) <= 2
            assert fr.cm.total + n_train[fr.fold] == len(tiny_corpus)

    def test_pca_clamped_to_training_rows(self, tiny_corpus):
        config = PipelineConfig.from_profile("svm", "paper_vanilla")
        result = cross_validate(tiny_corpus, config, n_folds=4, seed=5)
        assert result.config.pca_components == 220
        n_train = training_sizes(tiny_corpus, 4, 5)
        for fr in result.folds:
            assert fr.pca_effective <= n_train[fr.fold] - 1

    def test_smote_runs_before_pca(self, tiny_corpus):
        """With SMOTE on, PCA is fitted on the resampled matrix: its
        admissible ceiling exceeds what the raw training rows would allow.
        """
        config = PipelineConfig.from_profile("svm", "paper_smote", smote=True)
        result = cross_validate(tiny_corpus, config, n_folds=4, seed=5)
        n_train = training_sizes(tiny_corpus, 4, 5)
        for fr in result.folds:
            raw_ceiling = n_train[fr.fold] - 1
            resampled_ceiling = n_train[fr.fold] + fr.smote_synthetic - 1
            assert fr.smote_synthetic > 0
            assert raw_ceiling < fr.pca_effective <= resampled_ceiling

    def test_vocab_scope_flag_changes_vocabulary(self, tiny_corpus):
        leak_free = cross_validate(
            tiny_corpus, PipelineConfig.from_profile("dt", "paper_vanilla"),
            n_folds=4, seed=5,
        )
        full = cross_validate(
            tiny_corpus, PipelineConfig.from_profile("dt", "paper_vanilla"),
            n_folds=4, seed=5, fit_vocab_on_all=True,
        )
        # fitting on every document can only grow the per-fold vocabulary
        for lf, fl in zip(leak_free.folds, full.folds):
            assert fl.vocab_size >= lf.vocab_size
        assert any(
            fl.vocab_size > lf.vocab_size
            for lf, fl in zip(leak_free.folds, full.folds)
        )

    def test_tuned_threshold_recorded_with_curve(self, tiny_corpus):
        config = PipelineConfig.from_profile("dt", "paper_vanilla", tune_threshold=True)
        result = cross_validate(tiny_corpus, config, n_folds=4, seed=5)
        for fr in result.folds:
            assert fr.threshold_curve is not None
            assert fr.threshold == fr.threshold_curve.best_threshold
            f1 = dict(fr.threshold_curve.grid)
            assert f1[fr.threshold] >= f1[0.5]

    def test_eval_fold_tuning_mode(self, tiny_corpus):
        config = PipelineConfig.from_profile("dt", "paper_vanilla", tune_threshold=True)
        result = cross_validate(tiny_corpus, config, n_folds=4, seed=5, tune_on_eval_fold=True)
        for fr in result.folds:
            assert fr.threshold_curve is not None
