import json
import subprocess
import sys

import numpy as np
import pytest

from qflake import cli, linalg
from qflake.bundle import ModelBundle, train_bundle
from qflake.eval import PipelineConfig, ThresholdPolicy


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qflake", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestBundle:
    def test_save_load_save_is_byte_stable(self, tiny_corpus, tmp_path):
        config = PipelineConfig.from_profile("dt", "paper_vanilla")
        bundle = train_bundle(tiny_corpus, config, seed=3)
        p1 = tmp_path / "a.json"
        p2 = tmp_path / "b.json"
        bundle.save(p1)
        ModelBundle.load(p1).save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_retrain_same_seed_identical_bytes(self, tiny_corpus, tmp_path):
        config = PipelineConfig.from_profile("xgb", "paper_vanilla")
        a = train_bundle(tiny_corpus, config, seed=5).to_json()
        b = train_bundle(tiny_corpus, config, seed=5).to_json()
        assert a == b

    def test_roundtrip_preserves_predictions_exactly(self, tiny_corpus, tmp_path):
        config = PipelineConfig.from_profile("knn", "paper_vanilla")
        bundle = train_bundle(tiny_corpus, config, seed=7)
        path = tmp_path / "knn.json"
        bundle.save(path)
        loaded = ModelBundle.load(path)
        texts = [e.text for e in tiny_corpus]
        assert np.array_equal(bundle.score_texts(texts), loaded.score_texts(texts))

    def test_default_threshold_is_half(self, tiny_corpus):
        config = PipelineConfig.from_profile("xgb", "paper_vanilla")
        bundle = train_bundle(tiny_corpus, config, seed=1)
        assert bundle.threshold == 0.5
        assert bundle.metadata["threshold_mode"] == "fixed"

    def test_tuned_threshold_lands_on_grid(self, tiny_corpus):
        config = PipelineConfig.from_profile(
            "dt", "paper_vanilla", threshold=ThresholdPolicy(mode="tuned")
        )
        bundle = train_bundle(tiny_corpus, config, seed=1)
        grid = [round(0.1 + 0.1 * i, 10) for i in range(9)]
        assert bundle.threshold in grid
        assert bundle.metadata["threshold_curve"] is not None

    def test_training_flaky_file_scores_one_through_knn(self, tiny_corpus):
        config = PipelineConfig.from_profile("knn", "paper_vanilla")
        bundle = train_bundle(tiny_corpus, config, seed=2)
        flaky_texts = [e.text for e in tiny_corpus if e.label.value == "flaky"]
        scores = bundle.score_texts(flaky_texts[:3])
        assert np.allclose(scores, 1.0)

    def test_out_of_vocabulary_text_is_scored(self, tiny_corpus):
        config = PipelineConfig.from_profile("dt", "paper_vanilla")
        bundle = train_bundle(tiny_corpus, config, seed=2)
        scores, labels = bundle.predict_texts(["zzz unseen tokens only"])
        assert 0.0 <= scores[0] <= 1.0
        assert labels[0] in ("flaky", "nonflaky")

    def test_smote_recorded_in_metadata(self, tiny_corpus):
        config = PipelineConfig.from_profile("xgb", "paper_smote", smote=True)
        bundle = train_bundle(tiny_corpus, config, seed=2)
        assert bundle.metadata["smote"] is True
        assert bundle.metadata["smote_synthetic"] > 0

    def test_unsupported_format_version_rejected(self, tiny_corpus, tmp_path):
        config = PipelineConfig.from_profile("dt", "paper_vanilla")
        bundle = train_bundle(tiny_corpus, config, seed=3)
        payload = bundle.to_dict()
        payload["format_version"] = 999
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(Exception):
            ModelBundle.load(path)


class TestCliIngest:
    def test_scan_and_summary(self, tiny_manifest):
        root = tiny_manifest.parent
        proc = run_cli("ingest", "--root", root)
        assert proc.returncode == 0
        assert "8 flaky / 16 nonflaky" in proc.stdout

    def test_empty_dir_exits_2(self, tmp_path):
        proc = run_cli("ingest", "--root", tmp_path)
        assert proc.returncode == 2
        assert "no entries" in proc.stderr

    def test_duplicate_ids_listed(self, tmp_path):
        f = tmp_path / "a.py"
        f.write_text("x = 1\n")
        manifest = tmp_path / "m.jsonl"
        record = {"id": "dup", "path": "a.py", "label": "flaky", "repo": "r"}
        manifest.write_text(
            json.dumps(record) + "\n" + json.dumps(record) + "\n"
        )
        proc = run_cli("ingest", "--manifest", manifest)
        assert proc.returncode == 2
        assert "duplicate id" in proc.stderr

    def test_validate_good_manifest(self, tiny_manifest):
        proc = run_cli("ingest", "--manifest", tiny_manifest)
        assert proc.returncode == 0


class TestCliTrainPredict:
    def test_train_then_predict_line_per_file(self, tiny_manifest, tmp_path):
        bundle_path = tmp_path / "dt.json"
        proc = run_cli(
            "train", "--manifest", tiny_manifest, "--family", "dt",
            "--seed", 3, "--out", bundle_path,
        )
        assert proc.returncode == 0, proc.stderr
        corpus_root = tiny_manifest.parent
        files = sorted((corpus_root / "flaky").rglob("*.py"))[:3]
        proc = run_cli("predict", "--bundle", bundle_path, *files)
        assert proc.returncode == 0
        lines = [json.loads(l) for l in proc.stdout.strip().splitlines()]
        assert len(lines) == 3
        assert [l["path"] for l in lines] == [str(f) for f in files]
        for line in lines:
            assert 0.0 <= line["score"] <= 1.0
            assert line["label"] in ("flaky", "nonflaky")

    def test_predict_missing_file_exits_2(self, tiny_manifest, tmp_path):
        bundle_path = tmp_path / "dt.json"
        run_cli(
            "train", "--manifest", tiny_manifest, "--family", "dt",
            "--seed", 3, "--out", bundle_path,
        )
        proc = run_cli("predict", "--bundle", bundle_path, tmp_path / "nope.py")
        assert proc.returncode == 2

    def test_predict_does_not_mutate_bundle(self, tiny_manifest, tmp_path):
        bundle_path = tmp_path / "dt.json"
        run_cli(
            "train", "--manifest", tiny_manifest, "--family", "dt",
            "--seed", 3, "--out", bundle_path,
        )
        before = bundle_path.read_bytes()
        files = sorted((tiny_manifest.parent / "flaky").rglob("*.py"))[:1]
        run_cli("predict", "--bundle", bundle_path, *files)
        assert bundle_path.read_bytes() == before

    def test_retrain_same_seed_identical_bundle_file(self, tiny_manifest, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            proc = run_cli(
                "train", "--manifest", tiny_manifest, "--family", "svm",
                "--seed", 9, "--out", out,
            )
            assert proc.returncode == 0, proc.stderr
        assert a.read_bytes() == b.read_bytes()

    def test_tuned_threshold_flag(self, tiny_manifest, tmp_path):
        bundle_path = tmp_path / "tuned.json"
        proc = run_cli(
            "train", "--manifest", tiny_manifest, "--family", "dt",
            "--tune-threshold", "--seed", 3, "--out", bundle_path,
        )
        assert proc.returncode == 0
        payload = json.loads(bundle_path.read_text())
        grid = [round(0.1 + 0.1 * i, 10) for i in range(9)]
        assert payload["threshold"] in grid


class TestCliEvaluateExperiment:
    def test_evaluate_writes_report(self, tiny_manifest, tmp_path):
        out = tmp_path / "eval"
        proc = run_cli(
            "evaluate", "--manifest", tiny_manifest, "--family", "dt",
            "--folds", 4, "--seed", 3, "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert len(report["folds"]) == 4
        assert (out / "report.csv").exists()

    def test_evaluate_config_file_precedence(self, tiny_manifest, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"folds": 4, "seed": 1}))
        out = tmp_path / "eval"
        # CLI --seed wins over config file; folds comes from the file
        proc = run_cli(
            "evaluate", "--manifest", tiny_manifest, "--family", "dt",
            "--config", cfg, "--seed", 2, "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 2
        assert report["n_folds"] == 4

    def test_experiment_missing_manifest_exits_2(self, tmp_path):
        proc = run_cli(
            "experiment", "--manifest", tmp_path / "missing.jsonl",
            "--out", tmp_path / "results",
        )
        assert proc.returncode == 2

    def test_experiment_filtered_single_cell(self, tiny_manifest, tmp_path):
        out = tmp_path / "results"
        proc = run_cli(
            "experiment", "--manifest", tiny_manifest, "--suite", "paper",
            "--methods", "smote", "--models", "xgb", "--folds", 4,
            "--seed", 3, "--out", out,
        )
        assert proc.returncode == 0, proc.stderr
        run_dirs = list(out.iterdir())
        assert len(run_dirs) == 1
        imb = (run_dirs[0] / "table_imbalanced.csv").read_text()
        assert imb.count("\n") == 2  # header + one cell
        assert not (run_dirs[0] / "table_balanced.csv").exists()

    def test_experiment_rerun_byte_identical(self, tiny_manifest, tmp_path):
        outs = []
        for sub in ("r1", "r2"):
            out = tmp_path / sub
            proc = run_cli(
                "experiment", "--manifest", tiny_manifest, "--methods", "vanilla",
                "--models", "dt", "knn", "--folds", 4, "--seed", 3, "--out", out,
            )
            assert proc.returncode == 0, proc.stderr
            run_dir = next(out.iterdir())
            outs.append(
                {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
            )
        assert outs[0].keys() == outs[1].keys()
        for name in outs[0]:
            assert outs[0][name] == outs[1][name], f"{name} differs between reruns"


def _manifest_with(tmp_path, line):
    (tmp_path / "a.py").write_text("x = 1\n")
    manifest = tmp_path / "m.jsonl"
    good = {"id": "a", "path": "a.py", "label": "flaky", "repo": "r"}
    manifest.write_text(json.dumps(good) + "\n" + line + "\n")
    return ["evaluate", "--manifest", manifest, "--family", "dt"]


def _bundle_with(tmp_path, text):
    (tmp_path / "a.py").write_text("x = 1\n")
    bundle = tmp_path / "bundle.json"
    bundle.write_text(text)
    return ["predict", "--bundle", bundle, tmp_path / "a.py"]


def _bundle_at(tmp_path, name):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "a_directory").mkdir()
    return ["predict", "--bundle", tmp_path / name, tmp_path / "a.py"]


def _labelled_manifest(tmp_path, labels):
    records = []
    for i, label in enumerate(labels):
        (tmp_path / f"t{i}.py").write_text(f"x = {i}\n")
        records.append({"id": f"t{i}", "path": f"t{i}.py", "label": label, "repo": "r"})
    manifest = tmp_path / "m.jsonl"
    manifest.write_text("".join(json.dumps(r) + "\n" for r in records))
    return manifest


def _experiment_on(tmp_path, labels):
    manifest = _labelled_manifest(tmp_path, labels)
    return ["experiment", "--manifest", manifest, "--out", tmp_path / "out"]


def _evaluate_in_folds(tmp_path, folds):
    manifest = _labelled_manifest(tmp_path, ["flaky"] * 2 + ["nonflaky"] * 4)
    return ["evaluate", "--manifest", manifest, "--family", "dt", "--folds", folds]


def _configured(tmp_path, payload):
    command, config = payload
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    manifest = _labelled_manifest(tmp_path, ["flaky"] * 2 + ["nonflaky"] * 4)
    args = {
        "ingest": ["--manifest", manifest],
        "train": ["--manifest", manifest, "--family", "dt", "--out", tmp_path / "b.json"],
        "evaluate": ["--manifest", manifest, "--family", "dt", "--folds", 2],
        "experiment": ["--manifest", manifest, "--folds", 2, "--out", tmp_path / "out"],
    }[command]
    return [command, *args, "--config", cfg]


def _tokenless(tmp_path, command):
    """Every file is ``x = 1``: no token reaches the two-character floor."""
    manifest = _labelled_manifest(tmp_path, ["flaky"] * 2 + ["nonflaky"] * 4)
    for source in tmp_path.glob("t*.py"):
        source.write_text("x = 1\n")
    args = {
        "train": ["--family", "xgb", "--out", tmp_path / "b.json"],
        "evaluate": ["--family", "knn", "--folds", 2],
        "experiment": ["--folds", 2, "--out", tmp_path / "out"],
    }[command]
    return [command, "--manifest", manifest, *args]


def _out_is_directory(tmp_path, command):
    """A trainable manifest, and for predict a saved bundle; --out names an
    existing directory."""
    manifest = _labelled_manifest(tmp_path, ["flaky"] * 2 + ["nonflaky"] * 4)
    for i, source in enumerate(sorted(tmp_path.glob("t*.py"))):
        source.write_text(f"def test_case{i}():\n    assert qubit_{i % 2} == expected\n")
    (tmp_path / "out_dir").mkdir()
    if command == "train":
        return ["train", "--manifest", manifest, "--family", "dt", "--out", tmp_path / "out_dir"]
    bundle = tmp_path / "bundle.json"
    assert cli.main(["train", "--manifest", str(manifest), "--family", "dt",
                     "--out", str(bundle)]) == 0
    return ["predict", "--bundle", bundle, tmp_path / "t0.py", "--out", tmp_path / "out_dir"]


MALFORMED_INPUTS = {
    "record-without-label": (_manifest_with, '{"id": "b", "path": "a.py"}'),
    "record-is-json-array": (_manifest_with, '["b", "a.py", "flaky"]'),
    "record-invalid-json": (_manifest_with, '{"id": "b", "path"'),
    "bundle-not-json": (_bundle_with, "not json at all"),
    "bundle-missing-keys": (_bundle_with, '{"format_version": 1}'),
    "bundle-missing-file": (_bundle_at, "missing.json"),
    "bundle-unreadable": (_bundle_at, "a_directory"),
    "experiment-empty-manifest": (_experiment_on, []),
    "experiment-one-class-manifest": (_experiment_on, ["nonflaky"] * 6),
    "evaluate-more-folds-than-flaky": (_evaluate_in_folds, 3),
    "config-seed-not-integer": (_configured, ("ingest", {"seed": "abc"})),
    "config-folds-not-integer": (_configured, ("experiment", {"folds": "x"})),
    "config-tokenizer-unknown": (_configured, ("train", {"tokenizer": "bogus"})),
    "config-dataset-unknown": (_configured, ("evaluate", {"dataset": "bogus"})),
    "config-hyperparameters-not-object": (_configured, ("train", {"hyperparameters": [1]})),
    "config-hyperparameter-invalid": (
        _configured, ("evaluate", {"hyperparameters": {"max_depth": "x"}})
    ),
    "config-models-not-list": (_configured, ("experiment", {"models": "dt"})),
    "train-empty-vocabulary": (_tokenless, "train"),
    "evaluate-empty-vocabulary": (_tokenless, "evaluate"),
    "experiment-empty-vocabulary": (_tokenless, "experiment"),
    "train-out-is-directory": (_out_is_directory, "train"),
    "predict-out-is-directory": (_out_is_directory, "predict"),
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_2_with_one_line(case, tmp_path):
    build, payload = MALFORMED_INPUTS[case]
    proc = run_cli(*build(tmp_path, payload))
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr


def test_train_and_predict_create_missing_out_directories(tiny_manifest, tmp_path):
    bundle = tmp_path / "new" / "nested" / "bundle.json"
    proc = run_cli("train", "--manifest", tiny_manifest, "--family", "dt", "--out", bundle)
    assert proc.returncode == 0, proc.stderr
    assert ModelBundle.load(bundle).threshold == 0.5

    source = next(tiny_manifest.parent.rglob("*.py"))
    scores = tmp_path / "other" / "deep" / "scores.jsonl"
    proc = run_cli("predict", "--bundle", bundle, source, "--out", scores)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(scores.read_text())["path"] == str(source)


def test_config_file_error_names_the_key(tmp_path):
    proc = run_cli(*_configured(tmp_path, ("experiment", {"models": "dt"})))
    assert proc.returncode == 2
    assert "'models' must be a list" in proc.stderr, proc.stderr


def test_unconverged_svd_exits_3_with_one_line(tiny_manifest, tmp_path, monkeypatch, capsys):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(linalg.np.linalg, "svd", no_convergence)
    code = cli.main([
        "experiment", "--manifest", str(tiny_manifest), "--methods", "vanilla",
        "--models", "knn", "--folds", "4", "--out", str(tmp_path),
    ])
    err = capsys.readouterr().err
    assert code == 3
    assert len(err.splitlines()) == 1 and "SVD did not converge" in err
