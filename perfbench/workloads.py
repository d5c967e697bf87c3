"""The benchmark's workloads, correctness checks and metrics.

Each workload drives qflake in-process through its public functions and
its command line (``cli.main``). The benchmark's seed only chooses the
synthetic corpora; the program itself always runs with seed 42 and five
folds, as in the acceptance fixture.

* ``paper_suite``: passes of ``run_paper_suite`` + ``write_results`` over
  the full 25-cell grid (4 methods x 5 families), one corpus per pass.
* ``train_predict``: rounds of ``qflake train`` for the five families,
  closed-loop single-file ``qflake predict`` calls from one client,
  round-robin over the five bundles, and batch ``predict`` calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qflake import bundle, cli, corpus as corpus_mod, experiment, synthetic
from qflake.eval import PipelineConfig

import spans

FAMILIES = spans.FAMILIES
# the checks name the grid and the metrics themselves, not through qflake
METHODS = ("vanilla", "smote", "threshold", "hybrid")
METRICS = ("accuracy", "precision", "recall", "f1", "mcc")
RUN_SEED = 42
N_FOLDS = 5
# Timed set-ups after each suite pass or scorer round; setup_s is the
# median of all a run's timed set-ups, so it samples the whole run.
SETUPS_BETWEEN = {"suite": 4, "scorer": 1}
MIN_PREDICT_CALLS = 1100  # so p99 has at least 11 samples beyond it
CALLS_PER_ROUND = 100     # train_predict: single-file calls per round
BATCH_EVERY = 5           # train_predict: single-file calls per batch call
WARM_UP_S = 1.5           # untimed set-ups first, so the clock is at its sustained speed


@dataclass(frozen=True)
class Workload:
    name: str
    n_flaky: int
    n_nonflaky: int
    families: tuple[str, ...]
    kind: str  # "suite" | "scorer"
    corpora: int  # distinct corpora per run; passes or rounds cycle over them


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper_suite", 5, 27, FAMILIES, "suite", 5),
        Workload("train_predict", 8, 43, FAMILIES, "scorer", 4),
    )
}

# Exact counts of one traced paper_suite pass at the commit that defined
# this benchmark: (calls, distinct inputs). They follow from the grid's
# shape, not from the corpus size.
PINNED_COUNTS = {
    "classifiers.train": (125, 75),
    "linalg.pca_fit": (50, 15),
    "text.transform": (250, 20),
    "resample.smote": (50, 5),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "batch_files_per_s": "1/s",
    "peak_rss_mb": "MB",
}


@dataclass
class Tally:
    """Operations attempted and failed; an operation is a grid cell, a
    train call or a predict call."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, problems: list[str], weight: int = 1) -> None:
        self.attempted += weight
        if problems:
            self.failed += weight
            self.problems.extend(problems[:3])


# ------------------------------------------------------------ correctness


def _on_grid(t) -> bool:
    return (
        isinstance(t, (int, float))
        and 0.1 - 1e-9 <= t <= 0.9 + 1e-9
        and abs(t * 10 - round(t * 10)) < 1e-6
    )


def _metrics_problem(values: dict) -> str | None:
    for name in METRICS:
        v = values.get(name)
        lo = -1.0 if name == "mcc" else 0.0
        if not isinstance(v, (int, float)) or not lo <= v <= 1.0:
            return f"{name}={v!r} out of range"
    return None


def _row_problem(row: dict, n_folds: int) -> str | None:
    problem = _metrics_problem(row.get("mean", {}))
    if problem:
        return "mean " + problem
    meta = row.get("metadata", {})
    folds = meta.get("per_fold_metrics", [])
    if len(folds) != n_folds:
        return f"{len(folds)} fold results, expected {n_folds}"
    for fold in folds:
        problem = _metrics_problem(fold)
        if problem:
            return "fold " + problem
    thresholds = meta.get("selected_threshold_per_fold", [])
    if len(thresholds) != n_folds or not all(_on_grid(t) for t in thresholds):
        return f"thresholds {thresholds} not on the 0.1-0.9 grid"
    return None


def check_run_json(path: Path, families, methods=METHODS, n_folds=N_FOLDS):
    """Returns (cells expected, {cell: problem}) for one suite output."""
    expected = [("balanced", "vanilla", f) for f in families]
    expected += [("imbalanced", m, f) for m in methods for f in families]
    try:
        run = json.loads(path.read_text(encoding="utf-8"))
        rows = {
            (r["dataset_mode"], r["method"], r["model"]): r
            for table in run["tables"].values()
            for r in table["rows"]
        }
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return len(expected), {cell: f"unreadable run.json: {exc}" for cell in expected}
    problems = {}
    for cell in expected:
        row = rows.get(cell)
        problem = "missing" if row is None else _row_problem(row, n_folds)
        if problem:
            problems[cell] = problem
    for cell in set(rows) - set(expected):
        problems[cell] = "unexpected cell"
    return len(expected), problems


def check_predict(stdout: str, paths, expected, threshold: float) -> list[str]:
    """Each output line matches its input path, the in-memory model's
    score for that file (``expected``, aligned with ``paths``), and the
    label its score gives at the bundle's threshold."""
    lines = stdout.splitlines()
    if len(lines) != len(paths):
        return [f"{len(lines)} output lines for {len(paths)} files"]
    problems = []
    for line, path, want_score in zip(lines, paths, expected):
        try:
            rec = json.loads(line)
            score, label = rec["score"], rec["label"]
        except (ValueError, KeyError, TypeError):
            problems.append(f"unparseable line {line[:80]!r}")
            continue
        if rec.get("path") != path:
            problems.append(f"path {rec.get('path')!r} != {path!r}")
        if score != want_score:
            problems.append(f"{path}: score {score!r} != in-memory {want_score!r}")
        want = "flaky" if score >= threshold else "nonflaky"
        if label != want:
            problems.append(f"{path}: label {label!r} at score {score!r}, threshold {threshold!r}")
    return problems


# ------------------------------------------------------------ environment


def _git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cache_bytes() -> dict:
    sizes = {}
    for level in ("LEVEL1_DCACHE_SIZE", "LEVEL2_CACHE_SIZE", "LEVEL3_CACHE_SIZE"):
        try:
            out = subprocess.run(
                ["getconf", level], capture_output=True, text=True, timeout=10
            ).stdout.strip()
            sizes[level.lower()] = int(out) if out.isdigit() else None
        except (OSError, subprocess.SubprocessError):
            sizes[level.lower()] = None
    return sizes


def _blas() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def environment(root: Path, blas_threads: int) -> dict:
    src = root / "src" / "qflake"
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(p.relative_to(src).as_posix().encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": _git_sha(root),
        "source_sha256": h.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "blas_threads": blas_threads,
        "nproc": os.cpu_count(),
        "cache_bytes": _cache_bytes(),
    }


# ------------------------------------------------------------ workload steps


def corpus_seed(seed: int, j: int) -> int:
    """Generator seed of a run's j-th corpus; runs with distinct seeds
    share no corpus."""
    return seed * 1000 + j


def set_up(root: Path, w: Workload, seed: int):
    """Generates one corpus under ``root`` and loads its manifest: one
    set-up. Returns (manifest, corpus, seconds)."""
    shutil.rmtree(root, ignore_errors=True)
    t0 = time.perf_counter()
    manifest = synthetic.generate_corpus(root, w.n_flaky, w.n_nonflaky, seed=seed)
    corpus = corpus_mod.load_manifest(manifest)
    return manifest, corpus, time.perf_counter() - t0


def setup(work: Path, w: Workload, seed: int, count: int, warm_up_s: float = WARM_UP_S):
    """Sets up ``count`` corpora, round-robin: untimed for ``warm_up_s``,
    then until each is done. Returns ([(manifest, corpus)], [seconds of
    each timed set-up])."""
    times, corpora, start, i = [], {}, time.perf_counter(), 0
    while not times or len(corpora) < count:
        j = i % count
        timed = time.perf_counter() - start >= warm_up_s
        manifest, corpus, seconds = set_up(work / f"corpus{j}", w, corpus_seed(seed, j))
        corpora[j] = (manifest, corpus)
        if timed:
            times.append(seconds)
        i += 1
    return [corpora[j] for j in range(count)], times


def suite_pass(corpus, families, out_dir: Path) -> Path:
    """One ``qflake experiment --suite paper`` run, in-process."""
    tables = experiment.run_paper_suite(
        corpus, seed=RUN_SEED, families=families, n_folds=N_FOLDS
    )
    run_config = {
        "suite": "paper",
        "seed": RUN_SEED,
        "n_folds": N_FOLDS,
        "tokenizer": "default",
        "replicate_paper_vectorization": False,
        "replicate_paper_threshold": False,
        "methods": list(METHODS),
        "models": list(families),
        "corpus_hash": corpus.content_hash(),
    }
    experiment.write_results(tables, out_dir, run_config)
    return out_dir / "run.json"


def run_cli(argv) -> tuple[object, str, str, float]:
    """Runs ``qflake ARGV`` in-process: (exit code, stdout, stderr, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            code = f"raised {type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def _cli_problems(code, err) -> list[str]:
    return [] if code == 0 else [f"exit {code}: {err.strip()[:200]}"]


class Scorer:
    """The train_predict state: corpus files, bundle paths, and the scores
    the in-memory trained models give each file, scored alone (as in a
    single-file call) and in one batch of every file (as in a batch call).
    Scores may differ in the last bit between the two, so each call is
    checked against the in-memory scores of the same file set."""

    def __init__(self, manifest: Path, corpus, families, work: Path):
        self.manifest = str(manifest)
        self.families = families
        self.paths = [str(Path(e.path)) for e in corpus]
        texts = [Path(p).read_bytes().decode("utf-8") for p in self.paths]
        work.mkdir(parents=True, exist_ok=True)
        self.bundle_paths = {f: str(work / f"{f}.bundle.json") for f in families}
        self.single, self.batched, self.threshold = {}, {}, {}
        for f in families:
            trained = bundle.train_bundle(
                corpus, PipelineConfig.from_profile(f, "paper_vanilla"), seed=RUN_SEED
            )
            self.single[f] = [float(trained.score_texts([t])[0]) for t in texts]
            self.batched[f] = [float(s) for s in trained.score_texts(texts)]
            self.threshold[f] = trained.threshold

    # Each step returns the seconds spent inside cli.main, checks excluded.

    def train(self, tally: Tally) -> float:
        elapsed = 0.0
        for f in self.families:
            code, _, err, seconds = run_cli([
                "train", "--manifest", self.manifest, "--family", f,
                "--seed", str(RUN_SEED), "--out", self.bundle_paths[f],
            ])
            elapsed += seconds
            tally.record(_cli_problems(code, err))
        return elapsed

    def predict(self, f: str, paths, expected, tally: Tally) -> float:
        code, out, err, seconds = run_cli(["predict", "--bundle", self.bundle_paths[f], *paths])
        problems = _cli_problems(code, err) or check_predict(
            out, paths, expected, self.threshold[f]
        )
        tally.record(problems)
        return seconds

    def call(self, i: int, tally: Tally) -> float:
        """The i-th closed-loop call: round-robin over bundles, then files."""
        f = self.families[i % len(self.families)]
        j = (i // len(self.families)) % len(self.paths)
        return self.predict(f, [self.paths[j]], [self.single[f][j]], tally)

    def batch(self, f: str, tally: Tally) -> float:
        """One call of bundle ``f`` over every file of the corpus."""
        return self.predict(f, self.paths, self.batched[f], tally)


# ------------------------------------------------------------ runs


@dataclass
class Report:
    metrics: dict[str, tuple[float, str]]
    tally: Tally
    detail: dict

    def result(self) -> dict:
        return {
            "correct": self.tally.failed == 0,
            "attempted": self.tally.attempted,
            "failed": self.tally.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
        }


def _suite_checked(corpus, w: Workload, out_dir: Path, tally: Tally, shas: dict) -> float:
    """One suite pass, then its checks; returns the pass's seconds.
    ``shas`` maps corpus hash to the run.json sha256 of its first pass;
    a later pass on the same corpus must reproduce it byte for byte."""
    t0 = time.perf_counter()
    try:
        run_json = suite_pass(corpus, w.families, out_dir)
    except Exception as exc:  # the whole pass failed: every cell failed
        cells = len(w.families) * (1 + len(METHODS))
        tally.record([f"suite raised {type(exc).__name__}: {exc}"], weight=cells)
        return time.perf_counter() - t0
    seconds = time.perf_counter() - t0
    cells, problems = check_run_json(run_json, w.families)
    sha = hashlib.sha256(run_json.read_bytes()).hexdigest()
    first = shas.setdefault(corpus.content_hash(), sha)
    if sha != first:
        problems = {"pass": f"run.json sha256 {sha} differs from the first pass {first}"}
        bad = cells
    else:
        bad = len(problems)
    tally.attempted += cells
    tally.failed += bad
    tally.problems.extend(f"{cell}: {why}" for cell, why in list(problems.items())[:3])
    return seconds


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(w: Workload, seed: int, seconds: float, work: Path) -> Report:
    corpora, setup_times = setup(work, w, seed, w.corpora)

    def more_setups() -> None:
        """Times set-ups again between steps, into a spare directory."""
        for _ in range(SETUPS_BETWEEN[w.kind]):
            j = len(setup_times) % w.corpora
            setup_times.append(set_up(work / "spare", w, corpus_seed(seed, j))[2])

    tally = Tally()
    files = len(corpora[0][1])
    detail = {"files": files}
    if w.kind == "suite":
        # pass i runs on corpus i mod w.corpora
        shas, passes = {}, []
        start = time.perf_counter()
        while True:
            out_dir = work / f"results{len(passes)}"
            corpus = corpora[len(passes) % w.corpora][1]
            passes.append(_suite_checked(corpus, w, out_dir, tally, shas))
            shutil.rmtree(out_dir, ignore_errors=True)
            more_setups()
            if time.perf_counter() - start + statistics.median(passes) > seconds:
                break
        job = statistics.median(passes)
        ops = [p * 1000.0 for p in passes]
        batch = files / job
        detail.update(run_json_sha256=list(shas.values()), pass_s=passes)
    else:
        scorers = [
            Scorer(manifest, corpus, w.families, work / f"bundles{j}")
            for j, (manifest, corpus) in enumerate(corpora)
        ]
        # Rounds of: the writes (train the five bundles), then the reads
        # (one client's closed loop of single-file calls) with batch calls
        # (every file of a corpus through one bundle) between them, one
        # after every BATCH_EVERY reads. Interleaving spreads each kind
        # over the whole run, so a slow spell of the machine weighs on all
        # alike. Round r writes and reads on corpus r mod w.corpora; the
        # batch calls cycle over every (corpus, bundle) pair, because batch
        # throughput moves with the corpus (bundle sizes).
        pairs = [(j, f) for j in range(w.corpora) for f in w.families]
        trains, latencies, batch_calls = [], [], 0
        batches: dict[tuple[int, str], list[float]] = {}
        start = time.perf_counter()
        while (len(latencies) < MIN_PREDICT_CALLS or len(batches) < len(pairs)
               or time.perf_counter() - start < seconds):
            scorer = scorers[len(trains) % w.corpora]
            trains.append(scorer.train(tally))
            for k in range(CALLS_PER_ROUND):
                latencies.append(scorer.call(len(latencies), tally))
                if len(trains) >= w.corpora and k % BATCH_EVERY == 0:  # all bundles written
                    j, f = pairs[batch_calls % len(pairs)]
                    batches.setdefault((j, f), []).append(scorers[j].batch(f, tally))
                    batch_calls += 1
            more_setups()
        job = statistics.median(trains)
        ops = [t * 1000.0 for t in latencies]
        # Each (corpus, bundle) batch call counts at its median time, so
        # the figure stands for every pair at the run's typical speed.
        batch_s = sum(statistics.median(ts) for ts in batches.values())
        batch = files * len(batches) / batch_s
        detail.update(rounds=len(trains), predict_calls=len(latencies), batch_calls=batch_calls)
    detail["setups"] = len(setup_times)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "job_s": job,
        "op_p50_ms": statistics.median(ops),
        "op_p99_ms": float(np.percentile(ops, 99)),
        "batch_files_per_s": batch,
        "peak_rss_mb": _peak_rss_mb(),
    }
    return Report({k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}, tally, detail)


def _scorer_pass(scorer: Scorer, tally: Tally) -> float:
    """Fixed work for the traced run: train, one call per (bundle, file),
    batch. Returns its wall time, checks included."""
    t0 = time.perf_counter()
    scorer.train(tally)
    for i in range(len(scorer.paths) * len(scorer.families)):
        scorer.call(i, tally)
    for f in scorer.families:
        scorer.batch(f, tally)
    return time.perf_counter() - t0


def traced_run(w: Workload, seed: int, work: Path) -> tuple[Report, spans.Tracer]:
    """One untraced and one traced pass of the same fixed work."""
    [(manifest, corpus)], _ = setup(work, w, seed, 1)
    tally = Tally()
    detail = {"files": len(corpus)}
    if w.kind == "suite":
        shas = {}
        untraced = _suite_checked(corpus, w, work / "untraced", tally, shas)
        with spans.Tracer() as tracer:
            traced = _suite_checked(corpus, w, work / "traced", tally, shas)
        detail["run_json_sha256"] = list(shas.values())
    else:
        scorer = Scorer(manifest, corpus, w.families, work / "bundles")
        untraced = _scorer_pass(scorer, tally)
        with spans.Tracer() as tracer:
            traced = _scorer_pass(scorer, tally)
    metrics = spans.layer_metrics(tracer.spans)
    self_sum = sum(metrics[f"{m}.self_s"][0] for m in spans.MODULES)
    metrics.update({
        "trace.untraced_s": (untraced, "s"),
        "trace.traced_s": (traced, "s"),
        "trace.overhead_s": (traced - untraced, "s"),
        "trace.digest_s": (tracer.attrs_s, "s"),
        "trace.unaccounted_s": (traced - self_sum - tracer.attrs_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    })
    if w.name == "paper_suite":
        detail["pinned_counts"] = pinned_counts_report(tracer.spans)
    return Report(metrics, tally, detail), tracer


def pinned_counts_report(recorded) -> dict:
    """Compares a traced paper_suite pass with PINNED_COUNTS."""
    report = {}
    for name, (calls, distinct) in PINNED_COUNTS.items():
        keys = [s.attrs["key"] for s in recorded if s.name == name]
        seen = (len(keys), len(set(keys)))
        report[name] = {"calls": seen[0], "distinct": seen[1], "match": seen == (calls, distinct)}
    return report


def run(name: str, seed: int, seconds: float, trace: bool, root: Path, blas_threads: int):
    """Runs one workload; returns the report. Scratch files live under
    ``root/.perfbench`` and are removed, except the trace file."""
    w = WORKLOADS[name]
    base = root / ".perfbench"
    work = base / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            report, tracer = traced_run(w, seed, work)
            trace_file = base / f"trace-{name}-{seed}.json"
            trace_file.write_text(json.dumps(tracer.to_records()), encoding="utf-8")
            report.detail["trace_file"] = str(trace_file.relative_to(root))
        else:
            report = timed_run(w, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    t = report.tally
    report.detail.update(
        workload=name,
        seed=seed,
        trace=trace,
        environment=environment(root, blas_threads),
        failed_share=t.failed / t.attempted if t.attempted else None,
        problems=t.problems[:10],
    )
    return report
