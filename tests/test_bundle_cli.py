import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

from qflake import cli, linalg
from qflake.bundle import FORMAT_VERSION, ModelBundle, train_bundle
from qflake.classifiers.tree import FlatTrees
from qflake.corpus import Corpus, Label
from qflake.eval import PipelineConfig

from recursive_predict import node_to_dict


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "qflake", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


class TestBundle:
    def test_save_load_save_is_byte_stable(self, tiny_corpus, tmp_path):
        """Bundles of every family, vanilla and SMOTE, and an xgb bundle
        trained on one class (no trees) save identical bytes after a load."""
        nonflaky = Corpus(tuple(e for e in tiny_corpus if e.label is Label.NONFLAKY))
        cases = [
            (tiny_corpus, family, profile)
            for family in ("dt", "rf", "xgb", "knn", "svm")
            for profile in ("paper_vanilla", "paper_smote")
        ] + [(nonflaky, "xgb", "paper_vanilla")]
        for corpus, family, profile in cases:
            config = PipelineConfig.from_profile(family, profile, smote=profile == "paper_smote")
            bundle = train_bundle(corpus, config, seed=3)
            assert bundle.metadata["smote"] is (profile == "paper_smote")
            one_class = bundle.to_dict()["model"]["flags"] == ["degenerate_labels"]
            assert one_class is (corpus is nonflaky)
            p1 = tmp_path / f"{family}-{profile}-{len(corpus)}.a.json"
            p2 = tmp_path / f"{family}-{profile}-{len(corpus)}.b.json"
            bundle.save(p1)
            ModelBundle.load(p1).save(p2)
            assert p1.read_bytes() == p2.read_bytes()

    def test_retrain_same_seed_identical_bytes(self, tiny_corpus, tmp_path):
        config = PipelineConfig.from_profile("xgb", "paper_vanilla")
        a = train_bundle(tiny_corpus, config, seed=5).to_json()
        b = train_bundle(tiny_corpus, config, seed=5).to_json()
        assert a == b

    def test_roundtrip_preserves_predictions_exactly(self, tiny_corpus, tmp_path):
        """A pipeline of each family (PCA for the linear ones) scores
        exactly as trained after a save and load, on all texts at once and
        on each alone."""
        texts = [e.text for e in tiny_corpus]
        for family in ("dt", "rf", "xgb", "knn", "svm"):
            config = PipelineConfig.from_profile(family, "paper_vanilla")
            bundle = train_bundle(tiny_corpus, config, seed=7)
            path = tmp_path / f"{family}.json"
            bundle.save(path)
            loaded = ModelBundle.load(path)
            assert (loaded.pipeline.pca is not None) is (family in ("knn", "svm"))
            assert np.array_equal(bundle.score_texts(texts), loaded.score_texts(texts))
            for text in texts[:5]:
                assert np.array_equal(bundle.score_texts([text]), loaded.score_texts([text]))

    @pytest.mark.parametrize("family", ["dt", "rf"])
    def test_leaf_nonflaky_fractions_are_ignored_on_load(self, family, tiny_corpus, tmp_path):
        """A dt or rf bundle that also stores each leaf's nonflaky fraction,
        as bundles written before leaves held one value did, loads and
        scores bit for bit as the same bundle without it, and saves
        without it."""
        texts = [e.text for e in tiny_corpus]
        bundle = train_bundle(tiny_corpus, PipelineConfig.from_profile(family, "paper_vanilla"))
        plain = tmp_path / "plain.json"
        bundle.save(plain)
        data = bundle.to_dict()
        arrays = data["model"]["root" if family == "dt" else "trees"]
        right, value = _decoded(arrays, "right"), _decoded(arrays, "value")
        leaf = right == np.arange(right.size)
        arrays["nonflaky"] = linalg.encode_array(np.where(leaf, 1.0 - value, 0.0))
        old = tmp_path / "with_nonflaky.json"
        old.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")

        loaded, expected = ModelBundle.load(old), ModelBundle.load(plain)
        assert np.array_equal(loaded.score_texts(texts), expected.score_texts(texts))
        for text in texts[:5]:
            assert np.array_equal(loaded.score_texts([text]), expected.score_texts([text]))
        assert loaded.to_json() == plain.read_text()

    def test_default_threshold_is_half(self, tiny_corpus):
        config = PipelineConfig.from_profile("xgb", "paper_vanilla")
        bundle = train_bundle(tiny_corpus, config, seed=1)
        assert bundle.threshold == 0.5
        assert bundle.metadata["threshold_mode"] == "fixed"

    def test_tuned_threshold_lands_on_grid(self, tiny_corpus):
        config = PipelineConfig.from_profile("dt", "paper_vanilla", tune_threshold=True)
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


# Labels of the six files a trainable manifest holds.
_TWO_FLAKY = ("flaky",) * 2 + ("nonflaky",) * 4


def _edited_bundle(tmp_path, payload, labels=_TWO_FLAKY):
    """A bundle of ``family``, trained on files of ``labels``, whose JSON
    ``edit`` changed."""
    family, edit = payload
    manifest = _trainable_manifest(tmp_path, labels)
    bundle = tmp_path / "bundle.json"
    assert cli.main(["train", "--manifest", str(manifest), "--family", family,
                     "--out", str(bundle)]) == 0
    data = json.loads(bundle.read_text())
    edit(data)
    bundle.write_text(json.dumps(data))
    return ["predict", "--bundle", bundle, tmp_path / "t0.py"]


def _one_class_bundle(tmp_path, payload):
    """A bundle trained on nonflaky files only, whose JSON ``edit`` changed."""
    return _edited_bundle(tmp_path, payload, ("nonflaky",) * 6)


def _tampered_bundle(tmp_path, payload):
    """A trained bundle whose model payload ``edit`` changed."""
    family, edit = payload
    return _edited_bundle(tmp_path, (family, lambda data: edit(data["model"])))


def _decoded(holder, key):
    kind = "int64le" if "int64le" in holder[key] else "float64le"
    return linalg.decode_array(holder[key], len(holder[key]["shape"]), kind)


def _edit_array(holder, key, change):
    """Re-encode the float array ``holder[key]`` as ``change`` makes it."""
    holder[key] = linalg.encode_array(change(_decoded(holder, key).copy()))


def _nan_first(a):
    a.flat[0] = np.nan
    return a


def _to_format_1(data):
    """A format-2 knn bundle as format 1 wrote it: float arrays as nested lists."""
    data["format_version"] = 1
    for holder, keys in (
        (data["pca"], ("mean", "components", "explained_variance")),
        (data["model"], ("X_train",)),
    ):
        for key in keys:
            holder[key] = _decoded(holder, key).tolist()


def _edit_trees(model, key, edit):
    """Decode the tree arrays of ``model[key]`` into a dict, let ``edit``
    change it, and encode what it holds then."""
    arrays = {name: _decoded(model[key], name).copy() for name in model[key]}
    edit(arrays)
    model[key] = {name: linalg.encode_array(a) for name, a in arrays.items()}


def _edit_dt(edit):
    return _tampered_bundle, ("dt", lambda m: _edit_trees(m, "root", edit))


def _split_root(arrays, feature=0, threshold=0.5):
    """Put one split over a one-tree model's root: both children are
    copies of the old tree."""
    n, right = arrays["right"].size, arrays["right"]
    top = {"feature": feature, "threshold": threshold, "value": 0.0}
    for name, first in top.items():
        arrays[name] = np.concatenate([[first], arrays[name], arrays[name]])
    arrays["right"] = np.concatenate([[1 + n], right + 1, right + 1 + n])
    return arrays


def _split_twice(arrays):
    """Two levels of splits over the old tree: nodes 0 and 1 are internal."""
    return _split_root(_split_root(arrays))


def _two_trees(arrays):
    """The one tree twice, as a two-tree forest."""
    n = arrays["right"].size
    for name in ("feature", "threshold", "value"):
        arrays[name] = np.concatenate([arrays[name], arrays[name]])
    arrays["right"] = np.concatenate([arrays["right"], arrays["right"] + n])
    arrays["roots"] = np.array([0, n])


def _set(name, index, value):
    """An edit that sets ``arrays[name][index]`` to ``value`` (or to what
    it gives for the arrays), after two levels of splits over the root."""

    def edit(arrays):
        _split_twice(arrays)
        arrays[name][index] = value(arrays) if callable(value) else value

    return edit


def _to_format_2(data):
    """A format-3 bundle as format 2 wrote it: trees as nested dicts."""
    data["format_version"] = 2
    model = data["model"]
    flat = FlatTrees.from_payload(model["trees"], model["n_features"])
    model["trees"] = [node_to_dict(tree, classification=True) for tree in flat.to_nodes()]


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


def _validated_with(tmp_path, line):
    """``ingest --manifest`` of the manifest ``_manifest_with`` writes."""
    _, _, manifest, *_ = _manifest_with(tmp_path, line)
    return ["ingest", "--manifest", manifest]


def _trained_with_config(tmp_path, text):
    """``train --family xgb`` on a trainable manifest, with a --config file
    holding ``text``."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    manifest = _trainable_manifest(tmp_path)
    return ["train", "--manifest", manifest, "--family", "xgb", "--out", tmp_path / "b.json",
            "--config", cfg]


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


def _trainable_manifest(tmp_path, labels=_TWO_FLAKY):
    manifest = _labelled_manifest(tmp_path, labels)
    for i, source in enumerate(sorted(tmp_path.glob("t*.py"))):
        source.write_text(f"def test_case{i}():\n    assert qubit_{i % 2} == expected\n")
    return manifest


def _out_is_directory(tmp_path, command):
    """A trainable manifest, and for predict a saved bundle; --out names an
    existing directory."""
    manifest = _trainable_manifest(tmp_path)
    (tmp_path / "out_dir").mkdir()
    if command == "train":
        return ["train", "--manifest", manifest, "--family", "dt", "--out", tmp_path / "out_dir"]
    if command == "ingest":
        return ["ingest", "--manifest", manifest, "--out", tmp_path / "out_dir"]
    bundle = tmp_path / "bundle.json"
    assert cli.main(["train", "--manifest", str(manifest), "--family", "dt",
                     "--out", str(bundle)]) == 0
    return ["predict", "--bundle", bundle, tmp_path / "t0.py", "--out", tmp_path / "out_dir"]


def _out_is_file(tmp_path, command):
    """A trainable manifest; --out, where the command writes a directory,
    names an existing regular file."""
    manifest = _trainable_manifest(tmp_path)
    (tmp_path / "out_file").write_text("taken\n")
    args = {
        "evaluate": ["--family", "dt", "--folds", 2],
        "experiment": ["--folds", 2, "--models", "dt", "--methods", "vanilla"],
    }[command]
    return [command, "--manifest", manifest, *args, "--out", tmp_path / "out_file"]


def _run_dir_is_file(tmp_path, _):
    """A finished experiment's run directory replaced by a regular file."""
    argv = ["experiment", "--manifest", _trainable_manifest(tmp_path), "--folds", 2,
            "--models", "dt", "--methods", "vanilla", "--out", tmp_path / "out"]
    assert cli.main([str(a) for a in argv]) == 0
    (run_dir,) = (tmp_path / "out").iterdir()
    shutil.rmtree(run_dir)
    run_dir.write_text("taken\n")
    return argv


MALFORMED_INPUTS = {
    "record-without-label": (_manifest_with, '{"id": "b", "path": "a.py"}'),
    "record-is-json-array": (_manifest_with, '["b", "a.py", "flaky"]'),
    "record-invalid-json": (_manifest_with, '{"id": "b", "path"'),
    "record-id-nan": (_validated_with, '{"id": NaN, "path": "a.py", "label": "nonflaky"}'),
    "bundle-not-json": (_bundle_with, "not json at all"),
    "bundle-missing-keys": (_bundle_with, f'{{"format_version": {FORMAT_VERSION}}}'),
    "bundle-format-version-1": (_edited_bundle, ("knn", _to_format_1)),
    "bundle-missing-file": (_bundle_at, "missing.json"),
    "bundle-unreadable": (_bundle_at, "a_directory"),
    "bundle-nested-too-deep": (_bundle_with, "[" * 5000 + "]" * 5000),
    "bundle-format-version-2": (_edited_bundle, ("rf", _to_format_2)),
    "bundle-vocabulary-duplicate": (
        _edited_bundle, ("dt", lambda d: d["vocabulary"].__setitem__(1, d["vocabulary"][0]))
    ),
    "bundle-vocabulary-not-string": (
        _edited_bundle, ("dt", lambda d: d["vocabulary"].__setitem__(0, 7))
    ),
    "bundle-tree-feature-out-of-range": (
        _tampered_bundle,
        ("dt", lambda m: _edit_trees(
            m, "root", lambda a: _split_root(a, feature=m["n_features"]))),
    ),
    "bundle-tree-feature-negative": _edit_dt(lambda a: _split_root(a, feature=-1)),
    "bundle-tree-feature-not-integer": _edit_dt(
        lambda a: a.update(feature=_split_root(a)["feature"].astype(np.float64))
    ),
    "bundle-tree-threshold-not-finite": _edit_dt(
        lambda a: _split_root(a, threshold=float("nan"))
    ),
    "bundle-tree-arrays-unequal": _edit_dt(
        lambda a: a.update(threshold=_split_root(a)["threshold"][:-1])
    ),
    "bundle-tree-right-past-end": _edit_dt(_set("right", 0, lambda a: a["right"].size)),
    "bundle-tree-right-to-own-node": _edit_dt(_set("right", 1, 1)),
    "bundle-tree-right-to-parent": _edit_dt(_set("right", 1, 0)),
    "bundle-tree-child-shared": _edit_dt(_set("right", 0, lambda a: a["right"][1])),
    "bundle-dt-two-roots": _edit_dt(_two_trees),
    "bundle-forest-without-trees": (
        _tampered_bundle,
        ("rf", lambda m: _edit_trees(m, "trees", lambda a: a.update(
            {name: v[:0] for name, v in a.items()}))),
    ),
    "bundle-boosting-leaf-without-value": (
        _tampered_bundle, ("xgb", lambda m: _edit_trees(m, "trees", lambda a: a.pop("value")))
    ),
    "bundle-svm-weight-nan": (
        _tampered_bundle, ("svm", lambda m: _edit_array(m, "w", _nan_first))
    ),
    "bundle-svm-bias-nan": (_tampered_bundle, ("svm", lambda m: m.update(b=float("nan")))),
    "bundle-pca-mean-nan": (
        _edited_bundle, ("knn", lambda d: _edit_array(d["pca"], "mean", _nan_first))
    ),
    "bundle-pca-mean-short": (
        _edited_bundle, ("svm", lambda d: _edit_array(d["pca"], "mean", lambda a: a[:-1]))
    ),
    "bundle-knn-rows-narrower-than-pca": (
        _tampered_bundle, ("knn", lambda m: _edit_array(m, "X_train", lambda a: a[:, :-1]))
    ),
    "bundle-knn-rows-not-base64": (
        _tampered_bundle, ("knn", lambda m: m["X_train"].update(float64le="not base64!"))
    ),
    "bundle-knn-zero-neighbors": (_tampered_bundle, ("knn", lambda m: m.update(n_neighbors=0))),
    "bundle-knn-label-missing": (
        _tampered_bundle, ("knn", lambda m: m.update(y_train=m["y_train"][:-1]))
    ),
    "bundle-knn-label-not-binary": (
        _tampered_bundle, ("knn", lambda m: m["y_train"].__setitem__(0, 3))
    ),
    "bundle-threshold-nan": (_edited_bundle, ("dt", lambda d: d.update(threshold=float("nan")))),
    "bundle-n-features-string": (
        _tampered_bundle, ("xgb", lambda m: m.update(n_features=str(m["n_features"])))
    ),
    "bundle-n-features-fraction": (
        _tampered_bundle, ("rf", lambda m: m.update(n_features=m["n_features"] + 0.7))
    ),
    "bundle-flags-not-list": (
        _one_class_bundle, ("xgb", lambda d: d["model"].update(flags="degenerate_labels"))
    ),
    "bundle-tokenizer-not-string": (
        _edited_bundle, ("dt", lambda d: d.update(tokenizer=["default"]))
    ),
    "bundle-tokenizer-unknown": (_edited_bundle, ("xgb", lambda d: d.update(tokenizer="bogus"))),
    "bundle-xgb-base-raw-nan": (
        _tampered_bundle, ("xgb", lambda m: m.update(base_raw=float("nan")))
    ),
    "bundle-xgb-learning-rate-string": (
        _tampered_bundle, ("xgb", lambda m: m.update(learning_rate="0.3"))
    ),
    "bundle-xgb-prior-out-of-range": (
        _one_class_bundle, ("xgb", lambda d: d["model"].update(prior=7.0))
    ),
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
    "config-hyperparameter-infinity": (
        _trained_with_config, '{"hyperparameters": {"learning_rate": Infinity}}'
    ),
    "config-hyperparameter-overflow": (
        _trained_with_config, '{"hyperparameters": {"learning_rate": 1e999}}'
    ),
    "config-nested-too-deep": (_trained_with_config, "[" * 5000 + "]" * 5000),
    "train-empty-vocabulary": (_tokenless, "train"),
    "evaluate-empty-vocabulary": (_tokenless, "evaluate"),
    "experiment-empty-vocabulary": (_tokenless, "experiment"),
    "train-out-is-directory": (_out_is_directory, "train"),
    "predict-out-is-directory": (_out_is_directory, "predict"),
    "ingest-out-is-directory": (_out_is_directory, "ingest"),
    "evaluate-out-is-file": (_out_is_file, "evaluate"),
    "experiment-out-is-file": (_out_is_file, "experiment"),
    "experiment-run-directory-is-file": (_run_dir_is_file, None),
}


# Cases whose one line must also say what to do, or which check failed.
_RETRAIN = "predates format 3; retrain it with `qflake train`"
_VOCABULARY = "vocabulary must be a list of distinct strings in sorted order"
MALFORMED_MESSAGES = {
    "bundle-format-version-1": f"format_version 1 {_RETRAIN}",
    "bundle-format-version-2": f"format_version 2 {_RETRAIN}",
    "bundle-vocabulary-duplicate": _VOCABULARY,
    "bundle-vocabulary-not-string": _VOCABULARY,
    "bundle-tree-feature-out-of-range": "tree node 0 has feature 11, not a column index below 11",
    "bundle-tree-feature-negative": "has feature -1, not a column index below",
    "bundle-tree-feature-not-integer": "tree feature: array int64le must be a base64 string",
    "bundle-tree-threshold-not-finite": "tree threshold: array holds NaN or infinite values",
    "bundle-tree-arrays-unequal": "tree node arrays differ in length",
    "bundle-tree-right-past-end": "tree node 0 has right child 7, not in (1, 7)",
    "bundle-tree-right-to-own-node": "tree node 2 is reached from 0 places",
    "bundle-tree-right-to-parent": "tree node 1 has right child 0, not in (2,",
    "bundle-tree-child-shared": "is reached from 2 places",
    "bundle-dt-two-roots": "dt model payload holds 2 trees, not one",
    "bundle-forest-without-trees": "rf model payload holds no trees",
    "bundle-boosting-leaf-without-value": "tree payload has no value array",
    "bundle-n-features-string": "n_features must be an integer >= 1, got '",
    "bundle-n-features-fraction": "n_features must be an integer >= 1, got ",
    "bundle-flags-not-list": "model flags must be a list of strings, got 'degenerate_labels'",
    "bundle-tokenizer-not-string": "bundle tokenizer must be a profile name, got ['default']",
    # the name is checked on load, so the line names the bundle
    "bundle-tokenizer-unknown": "bundle.json: unknown tokenizer profile 'bogus'",
    "bundle-xgb-base-raw-nan": "NaN is not a JSON number",
    "bundle-xgb-learning-rate-string": "xgb learning_rate must be a finite number, got '0.3'",
    "bundle-xgb-prior-out-of-range": "xgb prior must be in [0, 1], got 7.0",
    "record-id-nan": "m.jsonl:2: invalid JSON (NaN is not a JSON number)",
    "config-hyperparameter-infinity": "is not valid JSON: Infinity is not a JSON number",
    "config-hyperparameter-overflow": "xgb: invalid value for 'learning_rate': inf",
    "config-nested-too-deep": "is not valid JSON: maximum recursion depth exceeded",
}


@pytest.mark.parametrize("case", list(MALFORMED_INPUTS))
def test_malformed_input_exits_2_with_one_line(case, tmp_path):
    build, payload = MALFORMED_INPUTS[case]
    proc = run_cli(*build(tmp_path, payload))
    assert proc.returncode == 2, proc.stderr
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert MALFORMED_MESSAGES.get(case, "") in proc.stderr, proc.stderr


def test_in_process_calls_share_no_parser_state(tiny_manifest, tmp_path, capsys):
    """``cli.main`` builds its parser once per process, yet a flag given
    to one call does not reach the next."""
    source = next(tiny_manifest.parent.rglob("*.py"))
    bundles = {"smote": tmp_path / "smote.json", "plain": tmp_path / "plain.json"}
    train = ["train", "--manifest", str(tiny_manifest), "--family", "dt", "--seed", "3"]
    assert cli.main([*train, "--smote", "--out", str(bundles["smote"])]) == 0
    assert cli.main(["predict", "--bundle", str(bundles["smote"]), str(source)]) == 0
    assert cli.main([*train, "--out", str(bundles["plain"])]) == 0
    assert cli.build_parser() is cli.build_parser()
    assert json.loads(capsys.readouterr().out.splitlines()[1])["path"] == str(source)
    smote, plain = (ModelBundle.load(bundles[k]).metadata for k in ("smote", "plain"))
    assert (smote["smote"], smote["profile"]) == (True, "paper_smote")
    assert (plain["smote"], plain["profile"]) == (False, "paper_vanilla")


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


def _svd_never_converges(tmp_path, manifest, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(linalg.np.linalg, "svd", no_convergence)
    return ["experiment", "--manifest", manifest, "--methods", "vanilla", "--models", "knn",
            "--folds", 4, "--out", tmp_path]


def _smote_on_one_flaky_file(tmp_path, manifest, monkeypatch):
    """A 2:10 corpus in two folds: each training fold holds one flaky file."""
    manifest = _trainable_manifest(tmp_path, ["flaky"] * 2 + ["nonflaky"] * 10)
    return ["experiment", "--manifest", manifest, "--methods", "smote", "--models", "dt",
            "--folds", 2, "--out", tmp_path / "out"]


def _more_neighbors_than_rows(tmp_path, manifest, monkeypatch):
    """knn with 15 neighbors on the 8:16 corpus in two folds of 12 files."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"hyperparameters": {"n_neighbors": 15}}))
    return ["evaluate", "--manifest", manifest, "--family", "knn", "--folds", 2,
            "--config", cfg]


# Valid input that a stage cannot fit: case -> (argv builder, the line's start)
FAILED_RUNS = {
    "svd-not-converged": (_svd_never_converges, "experiment failed: SVD did not converge"),
    "smote-minority-of-one": (
        _smote_on_one_flaky_file,
        "experiment failed: minority class has 1 sample(s); SMOTE needs at least 2",
    ),
    "knn-more-neighbors-than-rows": (
        _more_neighbors_than_rows,
        "evaluate failed: n_neighbors=15 exceeds the 12 training rows",
    ),
}


@pytest.mark.parametrize("case", list(FAILED_RUNS))
def test_failed_run_exits_3_with_one_line(case, tiny_manifest, tmp_path, monkeypatch, capsys):
    build, message = FAILED_RUNS[case]
    code = cli.main([str(a) for a in build(tmp_path, tiny_manifest, monkeypatch)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert len(err.splitlines()) == 1 and err.startswith(message), err
