import json

import pytest

from qflake import eval as eval_mod, experiment
from qflake.corpus import SubsetMode, select_subset
from qflake.errors import ConfigError
from qflake.eval import PipelineConfig, ThresholdPolicy, cross_validate
from qflake.experiment import (
    METHODS,
    REFERENCE_RESULTS,
    ExperimentConfig,
    pipeline_config_for,
    run_configuration,
    run_paper_suite,
    table_to_csv,
    write_results,
)


class TestExperimentConfig:
    def test_balanced_admits_only_vanilla(self):
        for method in ("smote", "threshold", "hybrid"):
            with pytest.raises(ConfigError):
                ExperimentConfig(dataset_mode="balanced", method=method)
        ExperimentConfig(dataset_mode="balanced", method="vanilla")

    def test_unknown_family_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(
                dataset_mode="imbalanced", method="vanilla", families=("mlp",)
            )


class TestMethodWiring:
    def test_vanilla_wiring(self):
        cfg = pipeline_config_for("vanilla", "svm", ExperimentConfig("imbalanced", "vanilla"))
        assert cfg.profile_name == "paper_vanilla"
        assert not cfg.smote
        assert cfg.threshold.mode == "fixed"
        assert cfg.pca_components == 220

    def test_smote_wiring_switches_profile(self):
        cfg = pipeline_config_for("smote", "svm", ExperimentConfig("imbalanced", "smote"))
        assert cfg.profile_name == "paper_smote"
        assert cfg.smote
        assert cfg.pca_components == 180

    def test_threshold_keeps_vanilla_profile(self):
        cfg = pipeline_config_for(
            "threshold", "xgb", ExperimentConfig("imbalanced", "threshold")
        )
        assert cfg.profile_name == "paper_vanilla"
        assert not cfg.smote
        assert cfg.threshold.mode == "tuned"

    def test_hybrid_combines_smote_and_tuning(self):
        cfg = pipeline_config_for("hybrid", "knn", ExperimentConfig("imbalanced", "hybrid"))
        assert cfg.profile_name == "paper_smote"
        assert cfg.smote and cfg.threshold.mode == "tuned"
        assert cfg.pca_components == 200

    def test_tree_families_never_get_pca(self):
        for method in METHODS:
            for family in ("xgb", "dt", "rf"):
                cfg = pipeline_config_for(
                    method, family, ExperimentConfig("imbalanced", method)
                )
                assert cfg.pca_components is None


class TestRunConfiguration:
    def test_table_covers_requested_cells(self, tiny_corpus):
        config = ExperimentConfig(
            dataset_mode="imbalanced",
            method="vanilla",
            families=("dt", "knn"),
            seed=3,
            n_folds=4,
        )
        table = run_configuration(tiny_corpus, config)
        assert [(r.method, r.family) for r in table.rows] == [
            ("vanilla", "dt"),
            ("vanilla", "knn"),
        ]
        row = table.row("vanilla", "dt")
        assert set(row.mean) == {"accuracy", "precision", "recall", "f1", "mcc"}
        assert all(v >= 0 for v in row.std.values())

    def test_metadata_is_auditable(self, tiny_corpus):
        config = ExperimentConfig(
            dataset_mode="imbalanced",
            method="hybrid",
            families=("knn",),
            seed=3,
            n_folds=4,
        )
        table = run_configuration(tiny_corpus, config)
        meta = table.row("hybrid", "knn").metadata
        assert meta["profile"] == "paper_smote"
        assert meta["smote"] is True
        assert meta["threshold_mode"] == "tuned"
        assert len(meta["selected_threshold_per_fold"]) == 4
        assert all(c is not None for c in meta["threshold_curves_per_fold"])
        assert meta["pca_requested"] == 200

    def test_determinism(self, tiny_corpus):
        config = ExperimentConfig(
            dataset_mode="imbalanced",
            method="smote",
            families=("dt",),
            seed=11,
            n_folds=4,
        )
        a = run_configuration(tiny_corpus, config)
        b = run_configuration(tiny_corpus, config)
        assert table_to_csv(a) == table_to_csv(b)


class TestWiringEquivalences:
    def test_hybrid_with_frozen_threshold_reproduces_smote_cell(self, tiny_corpus):
        smote_cfg = PipelineConfig.from_profile("dt", "paper_smote", smote=True)
        frozen_hybrid = PipelineConfig.from_profile(
            "dt", "paper_smote", smote=True,
            threshold=ThresholdPolicy(mode="fixed", value=0.5),
        )
        a = cross_validate(tiny_corpus, smote_cfg, n_folds=4, seed=9)
        b = cross_validate(tiny_corpus, frozen_hybrid, n_folds=4, seed=9)
        assert a.aggregate == b.aggregate
        assert [fr.cm for fr in a.folds] == [fr.cm for fr in b.folds]

    def test_threshold_pipeline_at_half_reproduces_vanilla(self, tiny_corpus):
        vanilla = PipelineConfig.from_profile("rf", "paper_vanilla")
        fixed_half = PipelineConfig.from_profile(
            "rf", "paper_vanilla", threshold=ThresholdPolicy(mode="fixed", value=0.5)
        )
        a = cross_validate(tiny_corpus, vanilla, n_folds=4, seed=9)
        b = cross_validate(tiny_corpus, fixed_half, n_folds=4, seed=9)
        assert a.aggregate == b.aggregate

    def test_tuning_machinery_does_not_disturb_model_training(self, tiny_corpus):
        """The tuned pipeline must train the same model as the fixed one:
        folds where it selects 0.5 yield the vanilla confusion matrix.
        """
        vanilla = PipelineConfig.from_profile("dt", "paper_vanilla")
        tuned = PipelineConfig.from_profile(
            "dt", "paper_vanilla", threshold=ThresholdPolicy(mode="tuned")
        )
        a = cross_validate(tiny_corpus, vanilla, n_folds=4, seed=9)
        b = cross_validate(tiny_corpus, tuned, n_folds=4, seed=9)
        for fa, fb in zip(a.folds, b.folds):
            if fb.threshold == 0.5:
                assert fa.cm == fb.cm


class TestSuite:
    @pytest.mark.parametrize(
        "flags", [{}, {"tune_on_eval_fold": True}, {"fit_vocab_on_all": True}]
    )
    def test_rows_equal_cross_validation_alone(self, tiny_corpus, monkeypatch, flags):
        """Every suite row, balanced and imbalanced, equals ``cross_validate``
        run alone on its (method, family): means, stds and every fold,
        confusion matrices included.
        """
        walked = {}
        real = experiment.cross_validate_policies

        def recording(data, config, policies, **kwargs):
            results = real(data, config, policies, **kwargs)
            for r in results:
                key = (data.content_hash(), r.config.profile_name, r.config.smote,
                       r.config.family, r.config.threshold.mode)
                walked[key] = r
            return results

        monkeypatch.setattr(experiment, "cross_validate_policies", recording)
        tables = run_paper_suite(tiny_corpus, seed=5, n_folds=4, **flags)
        rows = tables["table_balanced"].rows + tables["table_imbalanced"].rows
        assert len(rows) == 25
        for row in rows:
            config = ExperimentConfig(row.dataset_mode, row.method, seed=5, n_folds=4, **flags)
            data = select_subset(tiny_corpus, SubsetMode(row.dataset_mode), 5)
            pipeline = pipeline_config_for(row.method, row.family, config)
            alone = cross_validate(data, pipeline, n_folds=4, seed=5)
            assert row.mean == alone.aggregate.mean
            assert row.std == alone.aggregate.std
            key = (data.content_hash(), pipeline.profile_name, pipeline.smote,
                   row.family, pipeline.threshold.mode)
            assert [fr.cm for fr in walked[key].folds] == [fr.cm for fr in alone.folds]
            assert walked[key] == alone

    def test_default_suite_trains_each_model_once(self, tiny_corpus, monkeypatch):
        """15 distinct models per fold: 5 balanced vanilla, 5 imbalanced
        vanilla (shared with threshold), 5 imbalanced SMOTE (shared with
        hybrid).
        """
        keys = []
        real = eval_mod.train_model

        def counting(family, X, y, hyperparameters, seed):
            keys.append((family, X.tobytes(), y.tobytes(),
                         json.dumps(hyperparameters, sort_keys=True), seed))
            return real(family, X, y, hyperparameters, seed=seed)

        monkeypatch.setattr(eval_mod, "train_model", counting)
        run_paper_suite(tiny_corpus, seed=5, n_folds=4)
        assert len(keys) == 15 * 4
        assert len(set(keys)) == len(keys)

    def test_tiny_suite_shape_and_rendering(self, tiny_corpus, tmp_path):
        tables = run_paper_suite(tiny_corpus, seed=5, n_folds=4)
        assert len(tables["table_balanced"].rows) == 5
        assert len(tables["table_imbalanced"].rows) == 20
        out = write_results(tables, tmp_path / "run", {"seed": 5})
        balanced_csv = (out / "table_balanced.csv").read_text()
        assert balanced_csv.count("\n") == 6  # header + 5 rows
        imb_csv = (out / "table_imbalanced.csv").read_text()
        assert imb_csv.count("\n") == 21
        run = json.loads((out / "run.json").read_text())
        assert run["config"]["seed"] == 5
        assert len(run["tables"]["table_imbalanced"]["rows"]) == 20

    def test_no_methods_rejected(self, tiny_corpus):
        with pytest.raises(ConfigError):
            run_paper_suite(tiny_corpus, seed=5, n_folds=4, methods=())

    def test_method_filter_drops_balanced_table(self, tiny_corpus):
        tables = run_paper_suite(
            tiny_corpus, seed=5, n_folds=4, methods=("smote",), families=("dt",)
        )
        assert "table_balanced" not in tables
        assert len(tables["table_imbalanced"].rows) == 1

    def test_reference_tables_complete(self):
        assert len(REFERENCE_RESULTS) == 25
        for key, metrics in REFERENCE_RESULTS.items():
            assert set(metrics) == {"accuracy", "precision", "recall", "f1", "mcc"}
            for mean, std in metrics.values():
                assert 0.0 <= mean <= 1.0 and std >= 0.0

    def test_csv_best_markers(self, tiny_corpus, tmp_path):
        tables = run_paper_suite(
            tiny_corpus, seed=5, n_folds=4, methods=("vanilla",), families=("dt", "knn")
        )
        csv = table_to_csv(tables["table_imbalanced"])
        header = csv.splitlines()[0].split(",")
        assert "f1_best_method" in header and "f1_best_overall" in header
        rows = [line.split(",") for line in csv.splitlines()[1:]]
        col = header.index("f1_best_overall")
        assert any(r[col] == "true" for r in rows)
