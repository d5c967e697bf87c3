"""Self-test of the benchmark: every workload's shape on the 8:16 corpus.

    python3 -m pytest perfbench/tests -q

Checks that each run reports every metric BENCHMARK.json names, with its
unit; that a traced paper_suite pass reports the pinned call counts;
that the correctness checks fire on corrupted outputs; and that the
benchmark fails without the program's sources.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def small(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], n_flaky=8, n_nonflaky=16)


def units(report) -> dict:
    return {name: unit for name, (_, unit) in report.metrics.items()}


@pytest.fixture(scope="module")
def traced_suite(tmp_path_factory):
    work = tmp_path_factory.mktemp("traced")
    report, tracer = workloads.traced_run(small("paper_suite"), 3, work)
    return report, tracer


def test_workload_names_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_timed_run_reports_every_end_to_end_metric(name, tmp_path, monkeypatch):
    monkeypatch.setattr(workloads, "MIN_PREDICT_CALLS", 20)
    report = workloads.timed_run(small(name), 5, 0.1, tmp_path)
    assert units(report) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v, _ in report.metrics.values())
    assert report.tally.attempted > 0
    assert report.tally.failed == 0, report.tally.problems


def test_traced_run_reports_every_per_layer_metric(traced_suite):
    report, _ = traced_suite
    assert units(report) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert report.tally.failed == 0, report.tally.problems


def test_traced_paper_suite_matches_pinned_counts(traced_suite):
    report, _ = traced_suite
    pinned = report.detail["pinned_counts"]
    assert all(entry["match"] for entry in pinned.values()), pinned
    metrics = {k: v for k, (v, _) in report.metrics.items()}
    assert metrics["classifiers.train_unique_ratio"] == 0.6
    assert metrics["linalg.pca_fit_unique_ratio"] == 0.3
    assert metrics["text.transform_unique_ratio"] == 0.08
    assert metrics["resample.smote_unique_ratio"] == 0.1


def test_self_times_account_for_the_traced_pass(traced_suite):
    report, tracer = traced_suite
    metrics = {k: v for k, (v, _) in report.metrics.items()}
    self_sum = sum(metrics[f"{m}.self_s"] for m in workloads.spans.MODULES)
    traced = metrics["trace.traced_s"]
    assert abs(traced - self_sum - metrics["trace.digest_s"]) < 0.02 * traced
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["experiment.run_paper_suite", "experiment.write_results"]


def test_suite_check_fires_on_corrupted_run_json(tmp_path):
    w = workloads.Workload("linear", 8, 16, ("knn", "svm"), "suite", 1)
    [(_, corpus)], _ = workloads.setup(tmp_path, w, 5, 1, warm_up_s=0)
    run_json = workloads.suite_pass(corpus, w.families, tmp_path / "out")
    cells, problems = workloads.check_run_json(run_json, w.families)
    assert (cells, problems) == (10, {})

    run = json.loads(run_json.read_text())
    rows = run["tables"]["table_imbalanced"]["rows"]
    rows[0]["metadata"]["selected_threshold_per_fold"][0] = 0.55
    rows[1]["mean"]["f1"] = 1.5
    del rows[2]
    run_json.write_text(json.dumps(run))
    _, problems = workloads.check_run_json(run_json, w.families)
    assert len(problems) == 3
    assert "grid" in problems[("imbalanced", rows[0]["method"], rows[0]["model"])]
    run_json.write_text("{not json")
    _, problems = workloads.check_run_json(run_json, w.families)
    assert len(problems) == 10


def test_predict_check_fires_on_corrupted_output():
    line = {"path": "a.py", "score": 0.75, "label": "flaky"}
    good = json.dumps(line)
    assert workloads.check_predict(good, ["a.py"], [0.75], 0.5) == []
    # a label that disagrees with its score at the bundle's threshold
    assert workloads.check_predict(good, ["a.py"], [0.75], 0.8)
    # a score off the in-memory model's by one bit
    assert workloads.check_predict(good, ["a.py"], [0.7500000000000001], 0.5)
    assert workloads.check_predict(good.replace("a.py", "b.py"), ["a.py"], [0.75], 0.5)
    assert workloads.check_predict("", ["a.py"], [0.75], 0.5)
    assert workloads.check_predict("{oops", ["a.py"], [0.75], 0.5)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [*SPEC["command"], "--workload", "paper_suite", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    done = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
