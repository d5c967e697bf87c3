"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Corpus-scale criteria run against the manifest named by
QFLAKE_CORPUS_MANIFEST when set; otherwise the bundled synthetic 45:243
generator stands in, and the result-table criterion checks completion,
shape, and determinism only (reference-value gates need the real corpus).
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from qflake.bundle import ModelBundle, train_bundle
from qflake.classifiers import get_profile, train_model
from qflake.eval import PipelineConfig, cross_validate
from qflake.linalg import pca_fit, pca_inverse_transform, pca_transform
from qflake.resample import smote_resample
from qflake.text import fit_vocabulary, tokenize, transform

from conftest import CORPUS_ENV
from test_resample import assert_convex_combinations

REAL_CORPUS = os.environ.get(CORPUS_ENV) is not None

FAMILIES = ("xgb", "dt", "rf", "knn", "svm")
TREE_FAMILIES = ("xgb", "dt", "rf")


def report(num, name, ok, detail=""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print("\n" + line, flush=True)
    assert ok, line


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "qflake", *[str(a) for a in args]],
        capture_output=True,
        text=True,
    )


@pytest.fixture(scope="session")
def suite_runs(corpus_manifest, tmp_path_factory):
    """Two ``qflake experiment --suite paper`` runs with the same seed.
    Returns the first run's wall time, both run directories, and the
    parsed run.json.
    """
    dirs = []
    elapsed = None
    for tag in ("a", "b"):
        out = tmp_path_factory.mktemp(f"suite_{tag}")
        t0 = time.time()
        proc = run_cli(
            "experiment", "--manifest", corpus_manifest, "--suite", "paper",
            "--seed", 42, "--out", out,
        )
        took = time.time() - t0
        assert proc.returncode == 0, proc.stderr
        if elapsed is None:
            elapsed = took
        dirs.append(next(out.iterdir()))
    run_payload = json.loads((dirs[0] / "run.json").read_text())
    return elapsed, dirs[0], dirs[1], run_payload


def metrics_oracle(tp, fp, fn, tn):
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
    return {
        "accuracy": accuracy, "precision": precision, "recall": recall,
        "f1": f1, "mcc": mcc,
    }


def test_criterion_1_metric_oracle_equivalence():
    from qflake.eval import ConfusionMatrix, compute_metrics

    rng = np.random.default_rng(20240101)
    t0 = time.time()
    checked = 0
    worst = 0.0
    while checked < 1000:
        tp, fp, fn, tn = (int(v) for v in rng.integers(0, 501, size=4))
        if tp + fp + fn + tn == 0:
            continue
        got = compute_metrics(ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn))
        want = metrics_oracle(tp, fp, fn, tn)
        for name, value in want.items():
            worst = max(worst, abs(getattr(got, name) - value))
        # zero-denominator cases must be flagged, not NaN
        if tp + fp == 0:
            assert "precision" in got.flags and got.precision == 0.0
        if tp + fn == 0:
            assert "recall" in got.flags and got.recall == 0.0
        checked += 1
    elapsed = time.time() - t0
    report(
        1,
        "metric oracle equivalence",
        worst < 1e-12 and elapsed < 1.0,
        f"1000 matrices, max |delta| {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_pca_oracle_equivalence():
    rng = np.random.default_rng(20240202)
    t0 = time.time()
    worst_ev = 0.0
    worst_orth = 0.0
    for _ in range(100):
        n = int(rng.integers(4, 21))
        d = int(rng.integers(2, 13))
        X = rng.normal(size=(n, d)) * rng.uniform(0.5, 3.0)
        k_max = min(n - 1, d)
        model = pca_fit(X, k_max)

        gram = model.components @ model.components.T
        worst_orth = max(worst_orth, float(np.abs(gram - np.eye(k_max)).max()))

        centered = X - X.mean(axis=0)
        cov = centered.T @ centered / (n - 1)
        oracle = np.sort(np.linalg.eigvalsh(cov))[::-1][:k_max]
        worst_ev = max(
            worst_ev, float(np.abs(model.explained_variance - oracle).max())
        )

        errors = []
        for k in range(1, k_max + 1):
            sub = pca_fit(X, k)
            recon = pca_inverse_transform(sub, pca_transform(sub, X))
            errors.append(float(np.linalg.norm(X - recon)))
        assert all(a >= b - 1e-10 for a, b in zip(errors, errors[1:]))
    elapsed = time.time() - t0
    report(
        2,
        "PCA oracle equivalence",
        worst_orth < 1e-8 and worst_ev < 1e-8 and elapsed < 5.0,
        f"100 matrices, orth {worst_orth:.2e}, ev {worst_ev:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_smote_geometry(corpus288):
    docs = [tokenize(e.text) for e in corpus288]
    vocab = fit_vocabulary(docs)
    X = transform(docs, vocab).counts.astype(np.float64)
    y = corpus288.labels()
    assert (y == 1).sum() == 45 and (y == 0).sum() == 243

    result = smote_resample(X, y, k_neighbors=5, seed=9)
    counts_ok = (
        result.n_synthetic == 198
        and (result.y == 1).sum() == 243
        and (result.y == 0).sum() == 243
    )
    assert_convex_combinations(result, X, y, 5, tol=1e-9)
    report(
        3,
        "SMOTE geometry on the 45:243 feature matrix",
        counts_ok,
        "198 synthetic rows, all on 5-NN minority segments (residual <= 1e-9)",
    )


def test_criterion_4_separable_data_sanity():
    rng = np.random.default_rng(20240404)
    X = np.vstack(
        [rng.normal(-4.0, 1.0, (50, 2)), rng.normal(4.0, 1.0, (50, 2))]
    )
    y = np.array([0] * 50 + [1] * 50, dtype=np.int8)
    assert X[y == 1].sum(axis=1).min() > X[y == 0].sum(axis=1).max()

    t0 = time.time()
    accuracies = {}
    for family in FAMILIES:
        profile = get_profile(family, "paper_vanilla")  # PCA left off
        model = train_model(family, X, y, profile.hyperparameters, seed=77)
        accuracies[family] = float(
            ((model.score(X) >= 0.5).astype(int) == y).mean()
        )
    elapsed = time.time() - t0
    exact = all(accuracies[f] == 1.0 for f in ("dt", "rf", "knn"))
    soft = all(accuracies[f] >= 0.95 for f in ("xgb", "svm"))
    report(
        4,
        "separable-data sanity under vanilla profiles",
        exact and soft and elapsed < 10.0,
        ", ".join(f"{k}={v:.2f}" for k, v in accuracies.items())
        + f", {elapsed:.1f}s",
    )


def _tuned_rows(run_payload):
    rows = run_payload["tables"]["table_imbalanced"]["rows"]
    return [r for r in rows if r["method"] in ("threshold", "hybrid")]


@pytest.mark.slow
def test_criterion_5_threshold_dominance(suite_runs):
    _, _, _, run_payload = suite_runs
    rows = _tuned_rows(run_payload)
    assert len(rows) == 10  # 2 tuned methods x 5 families
    checked = 0
    for row in rows:
        curves = row["metadata"]["threshold_curves_per_fold"]
        selected = row["metadata"]["selected_threshold_per_fold"]
        assert len(curves) == 5
        for curve, best_t in zip(curves, selected):
            assert curve is not None
            f1_by_t = {round(t, 10): f1 for t, f1 in curve}
            best_f1 = f1_by_t[round(best_t, 10)]
            # exact, no tolerance: 0.5 is a grid member
            assert best_f1 >= f1_by_t[0.5]
            assert best_f1 == max(f1_by_t.values())
            checked += 1
    report(
        5,
        "tuned threshold F1 >= fixed-0.5 F1 on every tuning set",
        checked == 50,
        f"{checked} model/fold cells checked, exact comparison",
    )


@pytest.mark.slow
def test_criterion_6_result_table_suite(suite_runs):
    elapsed, dir_a, dir_b, run_payload = suite_runs

    balanced_csv = (dir_a / "table_balanced.csv").read_text().splitlines()
    imbalanced_csv = (dir_a / "table_imbalanced.csv").read_text().splitlines()
    shape_ok = len(balanced_csv) == 1 + 5 and len(imbalanced_csv) == 1 + 20

    # every cell carries per-metric deltas against the reference values
    deltas = (dir_a / "table_balanced_deltas.csv").read_text().splitlines()
    deltas += (dir_a / "table_imbalanced_deltas.csv").read_text().splitlines()
    delta_rows = [l for l in deltas if l and not l.startswith("method")]
    deltas_ok = len(delta_rows) == (5 + 20) * 5

    identical = all(
        (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
        for name in (
            "table_balanced.csv",
            "table_imbalanced.csv",
            "table_balanced_deltas.csv",
            "table_imbalanced_deltas.csv",
            "run.json",
        )
    )

    balanced_rows = {
        r["model"]: r for r in run_payload["tables"]["table_balanced"]["rows"]
    }
    xgb_f1 = balanced_rows["xgb"]["mean"]["f1"]
    knn_f1 = balanced_rows["knn"]["mean"]["f1"]
    detail = (
        f"{elapsed:.0f}s, 5+20 rows, deltas per cell, rerun byte-identical; "
        f"balanced XGB F1 {xgb_f1:.3f} vs reference 0.934"
    )
    ok = elapsed < 600 and shape_ok and deltas_ok and identical
    if REAL_CORPUS:
        tree_beat_knn = all(
            balanced_rows[f]["mean"]["f1"] > knn_f1 for f in TREE_FAMILIES
        )
        ok = ok and 0.80 <= xgb_f1 <= 1.00 and tree_beat_knn
        detail += ", reference-value gates applied"
    else:
        detail += ", synthetic stand-in corpus: value gates reported only"
    report(6, "result-table suite on the 288-file corpus", ok, detail)


@pytest.mark.slow
def test_criterion_7_wiring_equivalences(suite_runs, corpus288):
    _, _, _, run_payload = suite_runs
    rows = {
        (r["method"], r["model"]): r
        for r in run_payload["tables"]["table_imbalanced"]["rows"]
    }

    # hybrid with the threshold frozen at 0.5 must reproduce the SMOTE cell
    # bit for bit, for every family
    frozen_matches = 0
    for family in FAMILIES:
        config = PipelineConfig.from_profile(
            family,
            "paper_smote",
            smote=True,
            tune_threshold=False,
        )
        outcome = cross_validate(corpus288, config, n_folds=5, seed=42)
        smote_row = rows[("smote", family)]
        assert outcome.aggregate.mean == smote_row["mean"], family
        assert outcome.aggregate.std == smote_row["std"], family
        frozen_matches += 1

    # threshold cells whose folds all selected 0.5 must equal vanilla cells
    all_half_cells = 0
    for family in FAMILIES:
        thr_row = rows[("threshold", family)]
        if all(t == 0.5 for t in thr_row["metadata"]["selected_threshold_per_fold"]):
            vanilla_row = rows[("vanilla", family)]
            assert thr_row["mean"] == vanilla_row["mean"], family
            assert thr_row["std"] == vanilla_row["std"], family
            all_half_cells += 1

    report(
        7,
        "wiring equivalences (hybrid@0.5 == smote; threshold@0.5 == vanilla)",
        frozen_matches == 5,
        f"5 hybrid-frozen cells bit-identical; {all_half_cells} threshold "
        f"cells selected 0.5 in every fold",
    )


def test_criterion_8_determinism_and_persistence(
    tiny_manifest, corpus288, tmp_path
):
    # each command rerun with the same seed produces byte-identical output
    outputs = {}
    for tag in ("x", "y"):
        bundle_path = tmp_path / f"{tag}.bundle.json"
        proc = run_cli(
            "train", "--manifest", tiny_manifest, "--family", "xgb",
            "--seed", 13, "--out", bundle_path,
        )
        assert proc.returncode == 0, proc.stderr
        files = sorted((tiny_manifest.parent / "flaky").rglob("*.py"))[:4]
        predict = run_cli("predict", "--bundle", bundle_path, *files)
        eval_dir = tmp_path / f"eval_{tag}"
        evaluate = run_cli(
            "evaluate", "--manifest", tiny_manifest, "--family", "dt",
            "--folds", 4, "--seed", 13, "--out", eval_dir,
        )
        assert evaluate.returncode == 0, evaluate.stderr
        outputs[tag] = (
            bundle_path.read_bytes(),
            predict.stdout,
            (eval_dir / "report.json").read_bytes(),
            (eval_dir / "report.csv").read_bytes(),
        )
    commands_identical = outputs["x"] == outputs["y"]

    # bundle round-trip preserves predictions exactly on all 288 files
    config = PipelineConfig.from_profile("knn", "paper_vanilla")
    bundle = train_bundle(corpus288, config, seed=21)
    path = tmp_path / "roundtrip.json"
    bundle.save(path)
    loaded = ModelBundle.load(path)
    resaved = tmp_path / "resaved.json"
    loaded.save(resaved)
    texts = [e.text for e in corpus288]
    before = bundle.score_texts(texts)
    after = loaded.score_texts(texts)
    roundtrip_ok = (
        np.array_equal(before, after)
        and path.read_bytes() == resaved.read_bytes()
    )
    report(
        8,
        "determinism and bundle persistence",
        commands_identical and roundtrip_ok,
        f"train/predict/evaluate reruns byte-identical; "
        f"{len(texts)} corpus files score identically through save/load",
    )
