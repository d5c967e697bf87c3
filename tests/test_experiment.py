import json
import multiprocessing
import os
import subprocess
import sys
import textwrap
import time

import pytest

from qflake import eval as eval_mod, experiment
from qflake.corpus import SubsetMode, select_subset
from qflake.errors import PipelineError, QflakeError
from qflake.eval import PipelineConfig, cross_validate
from qflake.experiment import (
    METHODS,
    REFERENCE_RESULTS,
    pipeline_config_for,
    run_paper_suite,
    table_to_csv,
    write_results,
)


class TestSuiteSettings:
    def test_balanced_admits_only_vanilla(self, tiny_corpus):
        tables = run_paper_suite(
            tiny_corpus, seed=3, n_folds=4, methods=("hybrid", "vanilla"), families=("dt",)
        )
        assert [r.method for r in tables["table_balanced"].rows] == ["vanilla"]
        assert [r.method for r in tables["table_imbalanced"].rows] == ["hybrid", "vanilla"]

    def test_unknown_family_rejected(self, tiny_corpus):
        with pytest.raises(QflakeError, match=r"unknown families: \['mlp'\]"):
            run_paper_suite(tiny_corpus, families=("mlp",))
        with pytest.raises(QflakeError, match="no families requested"):
            run_paper_suite(tiny_corpus, families=())

    def test_unknown_method_rejected(self, tiny_corpus):
        with pytest.raises(QflakeError, match=r"unknown methods: \['bagging'\]"):
            run_paper_suite(tiny_corpus, methods=("vanilla", "bagging"))


class TestMethodWiring:
    def test_vanilla_wiring(self):
        cfg = pipeline_config_for("vanilla", "svm")
        assert cfg.profile_name == "paper_vanilla"
        assert not cfg.smote
        assert not cfg.tune_threshold
        assert cfg.pca_components == 220

    def test_smote_wiring_switches_profile(self):
        cfg = pipeline_config_for("smote", "svm")
        assert cfg.profile_name == "paper_smote"
        assert cfg.smote
        assert cfg.pca_components == 180

    def test_threshold_keeps_vanilla_profile(self):
        cfg = pipeline_config_for("threshold", "xgb")
        assert cfg.profile_name == "paper_vanilla"
        assert not cfg.smote
        assert cfg.tune_threshold

    def test_hybrid_combines_smote_and_tuning(self):
        cfg = pipeline_config_for("hybrid", "knn")
        assert cfg.profile_name == "paper_smote"
        assert cfg.smote and cfg.tune_threshold
        assert cfg.pca_components == 200

    def test_tree_families_never_get_pca(self):
        for method in METHODS:
            for family in ("xgb", "dt", "rf"):
                cfg = pipeline_config_for(method, family)
                assert cfg.pca_components is None


class TestRunConfiguration:
    def test_table_covers_requested_cells(self, tiny_corpus):
        table = run_paper_suite(
            tiny_corpus, seed=3, n_folds=4, methods=("vanilla",), families=("dt", "knn")
        )["table_imbalanced"]
        assert [(r.method, r.family) for r in table.rows] == [
            ("vanilla", "dt"),
            ("vanilla", "knn"),
        ]
        row = table.row("vanilla", "dt")
        assert set(row.mean) == {"accuracy", "precision", "recall", "f1", "mcc"}
        assert all(v >= 0 for v in row.std.values())

    def test_metadata_is_auditable(self, tiny_corpus):
        table = run_paper_suite(
            tiny_corpus, seed=3, n_folds=4, methods=("hybrid",), families=("knn",)
        )["table_imbalanced"]
        meta = table.row("hybrid", "knn").metadata
        assert meta["profile"] == "paper_smote"
        assert meta["smote"] is True
        assert meta["threshold_mode"] == "tuned"
        assert len(meta["selected_threshold_per_fold"]) == 4
        assert all(c is not None for c in meta["threshold_curves_per_fold"])
        assert meta["pca_requested"] == 200

    def test_determinism(self, tiny_corpus):
        def table():
            return run_paper_suite(
                tiny_corpus, seed=11, n_folds=4, methods=("smote",), families=("dt",)
            )["table_imbalanced"]

        assert table_to_csv(table()) == table_to_csv(table())


class TestWiringEquivalences:
    def test_hybrid_with_frozen_threshold_reproduces_smote_cell(self, tiny_corpus):
        smote_cfg = PipelineConfig.from_profile("dt", "paper_smote", smote=True)
        frozen_hybrid = PipelineConfig.from_profile(
            "dt", "paper_smote", smote=True, tune_threshold=False
        )
        a = cross_validate(tiny_corpus, smote_cfg, n_folds=4, seed=9)
        b = cross_validate(tiny_corpus, frozen_hybrid, n_folds=4, seed=9)
        assert a.aggregate == b.aggregate
        assert [fr.cm for fr in a.folds] == [fr.cm for fr in b.folds]

    def test_threshold_pipeline_at_half_reproduces_vanilla(self, tiny_corpus):
        vanilla = PipelineConfig.from_profile("rf", "paper_vanilla")
        fixed_half = PipelineConfig.from_profile("rf", "paper_vanilla", tune_threshold=False)
        a = cross_validate(tiny_corpus, vanilla, n_folds=4, seed=9)
        b = cross_validate(tiny_corpus, fixed_half, n_folds=4, seed=9)
        assert a.aggregate == b.aggregate

    def test_tuning_machinery_does_not_disturb_model_training(self, tiny_corpus):
        """The tuned pipeline must train the same model as the fixed one:
        folds where it selects 0.5 yield the vanilla confusion matrix.
        """
        vanilla = PipelineConfig.from_profile("dt", "paper_vanilla")
        tuned = PipelineConfig.from_profile("dt", "paper_vanilla", tune_threshold=True)
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
        real = experiment.cross_validate_all

        def recording(data, configs, **kwargs):
            results = real(data, configs, **kwargs)
            for r in results:
                key = (data.content_hash(), r.config.profile_name, r.config.smote,
                       r.config.family, r.config.tune_threshold)
                walked[key] = r
            return results

        monkeypatch.setattr(experiment, "cross_validate_all", recording)
        tables = run_paper_suite(tiny_corpus, seed=5, n_folds=4, **flags)
        rows = tables["table_balanced"].rows + tables["table_imbalanced"].rows
        assert len(rows) == 25
        for row in rows:
            data = select_subset(tiny_corpus, SubsetMode(row.dataset_mode), 5)
            pipeline = pipeline_config_for(row.method, row.family, **flags)
            alone = cross_validate(data, pipeline, n_folds=4, seed=5)
            assert row.mean == alone.aggregate.mean
            assert row.std == alone.aggregate.std
            key = (data.content_hash(), pipeline.profile_name, pipeline.smote,
                   row.family, pipeline.tune_threshold)
            assert [fr.cm for fr in walked[key].folds] == [fr.cm for fr in alone.folds]
            assert walked[key] == alone

    def test_default_suite_trains_each_model_once(self, tiny_corpus, monkeypatch):
        """15 distinct models per fold: 5 balanced vanilla, 5 imbalanced
        vanilla (shared with threshold), 5 imbalanced SMOTE (shared with
        hybrid). One cross-validation call per table, which tokenizes
        each of its documents once: 16 balanced + 24 imbalanced.
        """
        keys = []
        tokenized = []
        tables = []
        real_train, real_tokenize = eval_mod.train_model, eval_mod.tokenize
        real_cv = experiment.cross_validate_all

        def counting(family, X, y, hyperparameters, seed):
            keys.append((family, X.tobytes(), y.tobytes(),
                         json.dumps(hyperparameters, sort_keys=True), seed))
            return real_train(family, X, y, hyperparameters, seed=seed)

        def tokenizing(text, profile):
            tokenized.append(text)
            return real_tokenize(text, profile)

        def cross_validating(data, configs, **kwargs):
            tables.append(len(configs))
            return real_cv(data, configs, **kwargs)

        monkeypatch.setattr(eval_mod, "train_model", counting)
        monkeypatch.setattr(eval_mod, "tokenize", tokenizing)
        monkeypatch.setattr(experiment, "cross_validate_all", cross_validating)
        # in-process: calls made in forked workers would not reach these lists
        monkeypatch.setattr(eval_mod, "_worker_count", lambda n_tasks: 1)
        run_paper_suite(tiny_corpus, seed=5, n_folds=4)
        assert len(keys) == 15 * 4
        assert len(set(keys)) == len(keys)
        assert len(tokenized) == 16 + 24
        assert tables == [5, 20]

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
        with pytest.raises(QflakeError, match="no methods requested"):
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


# Two workers, but never more than the CPUs this process may run on.
POOL_WORKERS = min(2, len(os.sched_getaffinity(0))) if hasattr(os, "sched_getaffinity") else 1
needs_pool = pytest.mark.skipif(POOL_WORKERS < 2, reason="needs two usable CPUs")


@needs_pool
class TestWorkerPool:
    @pytest.mark.parametrize(
        "flags", [{}, {"fit_vocab_on_all": True}, {"tune_on_eval_fold": True}]
    )
    def test_pool_matches_serial(self, tiny_corpus, tmp_path, monkeypatch, flags):
        """One worker and two give equal cross-validation results (every
        FoldResult: confusion matrix, threshold, curve) and byte-identical
        result files."""
        real_cv = experiment.cross_validate_all
        outcomes, files = {}, {}
        for workers in (1, POOL_WORKERS):
            walked = outcomes.setdefault(workers, [])

            def recording(data, configs, **kwargs):
                results = real_cv(data, configs, **kwargs)
                walked.extend(results)
                return results

            monkeypatch.setattr(eval_mod, "_worker_count", lambda n_tasks: workers)
            monkeypatch.setattr(experiment, "cross_validate_all", recording)
            tables = run_paper_suite(tiny_corpus, seed=5, n_folds=4, **flags)
            out = write_results(tables, tmp_path / str(workers), {"seed": 5, **flags})
            files[workers] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
        serial, pooled = outcomes[1], outcomes[POOL_WORKERS]
        assert len(serial) == 25
        for a, b in zip(serial, pooled):
            assert [fr.cm for fr in a.folds] == [fr.cm for fr in b.folds]
            assert [fr.threshold_curve for fr in a.folds] == [fr.threshold_curve for fr in b.folds]
        assert serial == pooled
        assert files[1] == files[POOL_WORKERS]

    @pytest.mark.parametrize("workers", [1, POOL_WORKERS])
    def test_failing_cell_raises_first_in_task_order(
        self, tiny_corpus, tmp_path, monkeypatch, workers
    ):
        """Tasks go fold by fold, family by family. Task 1 fails late and
        task 2 at once; both worker counts raise task 1's error. With a
        pool, tasks not started when it is read are cancelled, and no
        worker is left running."""
        families = ("dt", "rf", "xgb", "knn", "svm")
        configs = [PipelineConfig.from_profile(f, "paper_vanilla") for f in families]
        started = tmp_path / "started"
        real_fit = eval_mod.fit_pipeline

        def fitting(docs, y, config, seed, tag, *args):
            with open(started, "a") as log:
                log.write(f"{tag} {config.family}\n")
            if (tag, config.family) == (0, "rf"):
                time.sleep(0.5)
                raise PipelineError("task 1 failed")
            if (tag, config.family) == (0, "xgb"):
                raise PipelineError("task 2 failed")
            time.sleep(0.2)
            return real_fit(docs, y, config, seed, tag, *args)

        monkeypatch.setattr(eval_mod, "_worker_count", lambda n_tasks: workers)
        monkeypatch.setattr(eval_mod, "fit_pipeline", fitting)
        with pytest.raises(PipelineError, match="^task 1 failed$"):
            eval_mod.cross_validate_all(tiny_corpus, configs, n_folds=4, seed=5)
        assert len(started.read_text().splitlines()) < 4 * len(families)
        assert multiprocessing.active_children() == []

    def test_workers_exit_when_parent_is_killed(self, tiny_manifest, tmp_path):
        """A parent killed without cleanup cannot shut its pool down; its
        workers still exit instead of waiting for tasks forever."""
        pids = tmp_path / "worker_pids"
        script = textwrap.dedent(f"""
            import os, time
            from qflake import eval as ev
            from qflake.corpus import load_manifest

            def fitting(*args):
                with open({str(pids)!r}, "a") as log:
                    log.write(f"{{os.getpid()}}\\n")
                time.sleep(60)

            ev.fit_pipeline = fitting
            ev._worker_count = lambda n_tasks: {POOL_WORKERS}
            config = ev.PipelineConfig.from_profile("dt", "paper_vanilla")
            ev.cross_validate_all(load_manifest({str(tiny_manifest)!r}), [config], n_folds=4)
        """)
        parent = subprocess.Popen([sys.executable, "-c", script])
        try:
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline and _lines(pids) < POOL_WORKERS:
                time.sleep(0.05)
            workers = [int(pid) for pid in pids.read_text().split()]
            assert len(workers) == POOL_WORKERS
        finally:
            parent.kill()
            parent.wait(timeout=10)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and any(map(_running, workers)):
            time.sleep(0.05)
        assert not any(map(_running, workers))


def _lines(path) -> int:
    return len(path.read_text().splitlines()) if path.exists() else 0


def _running(pid: int) -> bool:
    """Whether process ``pid`` exists and has not exited (a zombie has)."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


def test_cli_import_leaves_pool_modules_unloaded():
    """Train and predict never cross-validate: importing the CLI does not
    load the pool's modules."""
    probe = "import sys, qflake.cli; print([m for m in ('multiprocessing', " \
            "'concurrent.futures') if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
