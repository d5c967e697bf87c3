"""The pipeline fit, metrics, threshold tuning and stratified
cross-validation.

The flaky class is the positive class throughout. Metrics whose
denominator is zero are defined as 0 and flagged rather than propagating
NaN into result tables. Fold aggregates report the mean and population
standard deviation (divide by n_folds).
"""

from __future__ import annotations

import math
import os
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .classifiers import get_profile, predict_labels, train_model
from .corpus import Corpus, stratified_folds
from .errors import PipelineError, QflakeError
from .linalg import PcaModel, pca_ceiling, pca_fit, pca_transform
from .resample import smote_resample
from .seeding import STREAM_TUNE_SPLIT, derive_seed, rng_for
from .text import (
    Vocabulary,
    fit_vocabulary,
    get_tokenizer_profile,
    tokenize,
    transform,
)

METRIC_NAMES = ("accuracy", "precision", "recall", "f1", "mcc")

THRESHOLD_GRID = tuple(round(0.1 + i * 0.1, 10) for i in range(9))
TUNE_FRACTION = 0.2
SMOTE_K = 5


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    fn: int
    tn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


def confusion(y_true, y_pred) -> ConfusionMatrix:
    y_true = np.asarray(y_true).astype(np.int8)
    y_pred = np.asarray(y_pred).astype(np.int8)
    if y_true.shape != y_pred.shape:
        raise PipelineError(
            f"y_true has {y_true.shape} entries, y_pred has {y_pred.shape}"
        )
    tp = int(((y_true == 1) & (y_pred == 1)).sum())
    fp = int(((y_true == 0) & (y_pred == 1)).sum())
    fn = int(((y_true == 1) & (y_pred == 0)).sum())
    tn = int(((y_true == 0) & (y_pred == 0)).sum())
    return ConfusionMatrix(tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass(frozen=True)
class MetricReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    mcc: float
    flags: frozenset[str] = frozenset()

    def values(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in METRIC_NAMES}


def compute_metrics(cm: ConfusionMatrix) -> MetricReport:
    """Five metrics from a confusion matrix, with zero denominators
    yielding 0 and a flag naming the metric.
    """
    total = cm.total
    if total == 0:
        raise PipelineError("confusion matrix counts sum to zero")
    flags = set()
    accuracy = (cm.tp + cm.tn) / total

    if cm.tp + cm.fp == 0:
        precision = 0.0
        flags.add("precision")
    else:
        precision = cm.tp / (cm.tp + cm.fp)

    if cm.tp + cm.fn == 0:
        recall = 0.0
        flags.add("recall")
    else:
        recall = cm.tp / (cm.tp + cm.fn)

    if precision + recall == 0:
        f1 = 0.0
        flags.add("f1")
    else:
        f1 = 2.0 * precision * recall / (precision + recall)

    denom = (cm.tp + cm.fp) * (cm.tp + cm.fn) * (cm.tn + cm.fp) * (cm.tn + cm.fn)
    if denom == 0:
        mcc = 0.0
        flags.add("mcc")
    else:
        mcc = (cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(denom)

    return MetricReport(
        accuracy=accuracy,
        precision=precision,
        recall=recall,
        f1=f1,
        mcc=mcc,
        flags=frozenset(flags),
    )


@dataclass(frozen=True)
class ThresholdCurve:
    grid: tuple[tuple[float, float], ...]  # (threshold, f1), thresholds increasing
    best_threshold: float


def tune_threshold(scores, y_true) -> ThresholdCurve:
    """Sweep thresholds over 0.1, 0.2, ..., 0.9; best = max F1, ties to the
    lowest threshold. 0.5 is always a grid member.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y_true = np.asarray(y_true).astype(np.int8)
    if scores.size == 0:
        raise PipelineError("no scores to tune on")
    if scores.shape != y_true.shape:
        raise PipelineError("scores and y_true differ in length")
    grid = []
    best_t = None
    best_f1 = -1.0
    for t in THRESHOLD_GRID:
        report = compute_metrics(confusion(y_true, predict_labels(scores, t)))
        grid.append((t, report.f1))
        if report.f1 > best_f1:
            best_f1 = report.f1
            best_t = t
    return ThresholdCurve(grid=tuple(grid), best_threshold=best_t)


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one pipeline fit reads.

    ``tune_threshold`` sweeps the decision threshold over the 0.1-0.9
    grid instead of keeping 0.5. How cross-validation fits the vocabulary
    and where it tunes are arguments of ``cross_validate_all``, not
    settings of a pipeline.
    """

    family: str
    hyperparameters: dict = field(hash=False)
    pca_components: int | None = None
    smote: bool = False
    tune_threshold: bool = False
    tokenizer: str = "default"
    profile_name: str | None = None

    @classmethod
    def from_profile(cls, family: str, profile: str, **kwargs) -> "PipelineConfig":
        builtin = get_profile(family, profile)
        return cls(
            family=family,
            hyperparameters=builtin.hyperparameters,
            pca_components=builtin.pca_components,
            profile_name=profile,
            **kwargs,
        )

    @property
    def threshold_mode(self) -> str:
        """How outputs name the threshold policy: "tuned" or "fixed" (0.5)."""
        return "tuned" if self.tune_threshold else "fixed"


@dataclass(frozen=True)
class FoldResult:
    fold: int
    report: MetricReport
    cm: ConfusionMatrix
    threshold: float
    threshold_curve: ThresholdCurve | None
    vocab_size: int
    pca_effective: int | None
    smote_synthetic: int


@dataclass(frozen=True)
class AggregateReport:
    mean: dict[str, float]
    std: dict[str, float]


def aggregate_reports(reports) -> AggregateReport:
    """Per-metric mean and population std (divide by the fold count)."""
    reports = list(reports)
    mean = {}
    std = {}
    for name in METRIC_NAMES:
        vals = np.array([getattr(r, name) for r in reports], dtype=np.float64)
        mean[name] = float(vals.mean())
        std[name] = float(vals.std())
    return AggregateReport(mean=mean, std=std)


@dataclass(frozen=True)
class CrossValResult:
    config: PipelineConfig
    folds: tuple[FoldResult, ...]
    aggregate: AggregateReport


def _tuning_subset_positions(y_train: np.ndarray, seed: int, tag) -> np.ndarray:
    """Seeded stratified ~20% of the training rows, by position."""
    picked = []
    for class_idx, label in enumerate((1, 0)):
        positions = np.flatnonzero(y_train == label)
        take = max(1, int(round(TUNE_FRACTION * len(positions))))
        rng = rng_for(derive_seed(seed, "tune", tag), STREAM_TUNE_SPLIT, class_idx)
        order = rng.permutation(len(positions))
        picked.extend(positions[order[:take]])
    return np.sort(np.array(picked, dtype=np.int64))


@dataclass(frozen=True)
class FittedPipeline:
    """A trained vocabulary -> PCA -> model -> threshold chain.

    Holds no training matrices: scoring vectorizes its own input.
    """

    vocabulary: Vocabulary
    pca: PcaModel | None
    model: object
    threshold: float
    curve: ThresholdCurve | None
    smote_synthetic: int

    @property
    def pca_effective(self) -> int | None:
        """Components the PCA step keeps, or None without PCA."""
        return None if self.pca is None else self.pca.n_components

    def score(self, docs) -> np.ndarray:
        """Flaky-class scores of tokenized documents."""
        return self.score_counts(
            transform(docs, self.vocabulary).counts.astype(np.float64)
        )

    def score_counts(self, X) -> np.ndarray:
        """Flaky-class scores of count rows over this pipeline's vocabulary."""
        if self.pca is not None:
            X = pca_transform(self.pca, X)
        return self.model.score(X)

    def tuned(self, scores, y_true) -> "FittedPipeline":
        """This pipeline with its threshold tuned on (scores, y_true)."""
        curve = tune_threshold(scores, y_true)
        return replace(self, threshold=curve.best_threshold, curve=curve)


def fit_pipeline(
    docs, y, config: PipelineConfig, seed: int, tag, vocab_docs=None
) -> FittedPipeline:
    """Fit vectorize -> SMOTE -> PCA -> model -> threshold on tokenized
    training documents ``docs`` with labels ``y`` (1 = flaky).

    The vocabulary is fitted on ``vocab_docs`` when given, else on
    ``docs``. SMOTE always runs before PCA. Random streams derive from
    (seed, stage, tag). The threshold is 0.5, or with ``tune_threshold``
    tuned on a seeded stratified 20% of the pre-SMOTE training rows.
    """
    vocab = fit_vocabulary(docs if vocab_docs is None else vocab_docs)
    if not len(vocab):
        raise QflakeError(
            f"empty vocabulary: the {config.tokenizer!r} tokenizer finds no token "
            "in the training documents"
        )
    X = transform(docs, vocab).counts.astype(np.float64)

    X_fit, y_fit, smote_synthetic = X, y, 0
    if config.smote:
        resampled = smote_resample(X, y, SMOTE_K, seed=derive_seed(seed, "smote", tag))
        X_fit, y_fit = resampled.X, resampled.y
        smote_synthetic = resampled.n_synthetic

    pca_model = None
    X_model = X_fit
    if config.pca_components is not None:
        pca_model = pca_fit(X_fit, min(config.pca_components, pca_ceiling(*X_fit.shape)))
        X_model = pca_transform(pca_model, X_fit)

    model = train_model(
        config.family,
        X_model,
        y_fit,
        config.hyperparameters,
        seed=derive_seed(seed, "model", tag),
    )
    fitted = FittedPipeline(
        vocabulary=vocab,
        pca=pca_model,
        model=model,
        threshold=0.5,
        curve=None,
        smote_synthetic=smote_synthetic,
    )
    if config.tune_threshold:
        positions = _tuning_subset_positions(y, seed, tag)
        fitted = fitted.tuned(fitted.score_counts(X[positions]), y[positions])
    return fitted


@dataclass(frozen=True)
class _CrossValState:
    """What every (fold, group) fit of one ``cross_validate_all`` call reads:
    the configs, the groups of configs sharing one model (a config with
    ``tune_threshold`` off, and its members' indices), each fold's training
    and held-out corpus positions and labels, per tokenizer profile the
    tokenized documents in corpus order, and the call's protocol switches."""

    configs: tuple[PipelineConfig, ...]
    groups: tuple[tuple[PipelineConfig, tuple[int, ...]], ...]
    splits: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]
    docs: dict[str, list[list[str]]]
    seed: int
    fit_vocab_on_all: bool
    tune_on_eval_fold: bool


def _fit_cell(state: _CrossValState, f: int, g: int) -> tuple[FoldResult, ...]:
    """Fit group ``g`` on the training folds of fold ``f`` and score the
    held-out fold once; one FoldResult per member of the group, in order.
    The group's one fit is tuned when any member tunes, so the inner
    tuning rows are scored once; a fixed member keeps 0.5."""
    config, members = state.groups[g]
    train_pos, eval_pos, y_train, y_eval = state.splits[f]
    tokens = state.docs[config.tokenizer]
    tuned = [state.configs[i].tune_threshold for i in members]
    fitted = fit_pipeline(
        [tokens[i] for i in train_pos], y_train,
        replace(config, tune_threshold=any(tuned) and not state.tune_on_eval_fold),
        state.seed, f, tokens if state.fit_vocab_on_all else None,
    )
    eval_scores = fitted.score([tokens[i] for i in eval_pos])
    if any(tuned) and state.tune_on_eval_fold:
        fitted = fitted.tuned(eval_scores, y_eval)
    results = []
    for tune in tuned:
        threshold, curve = (fitted.threshold, fitted.curve) if tune else (0.5, None)
        cm = confusion(y_eval, predict_labels(eval_scores, threshold))
        results.append(
            FoldResult(
                fold=f,
                report=compute_metrics(cm),
                cm=cm,
                threshold=threshold,
                threshold_curve=curve,
                vocab_size=len(fitted.vocabulary),
                pca_effective=fitted.pca_effective,
                smote_synthetic=fitted.smote_synthetic,
            )
        )
    return tuple(results)


def _worker_count(n_tasks: int) -> int:
    """Processes to run ``n_tasks`` independent fits on: one per CPU this
    process may run on (``taskset`` and cpusets narrow the set), at most
    one per task. 1, which runs them in-process, where the platform has
    no ``fork`` or cannot say which CPUs are usable."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_tasks))


# Set only inside pool workers, by the pool's initializer.
_worker_state: _CrossValState | None = None


def _init_worker(state: _CrossValState, parent: int) -> None:
    global _worker_state
    _worker_state = state
    threading.Thread(target=_exit_with_parent, args=(parent,), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    """End this worker once process ``parent`` is gone. A parent killed
    without cleanup (SIGTERM, SIGKILL) cannot shut the pool down, and an
    orphaned worker would wait for tasks forever, holding the parent's
    stdout and stderr open."""
    while os.getppid() == parent:
        time.sleep(0.5)
    os._exit(1)


def _fit_cell_in_worker(f: int, g: int) -> tuple[FoldResult, ...]:
    return _fit_cell(_worker_state, f, g)


def _fit_cells(state: _CrossValState, tasks) -> list[tuple[FoldResult, ...]]:
    """``_fit_cell`` of every (fold, group) task, in task order.

    With more than one worker the tasks run on a pool of forked
    processes. Fork hands each worker the state without pickling it; only
    (fold, group) pairs go out and FoldResults come back. The first task,
    in task order, that fails raises its exception here, as it would in a
    serial run; tasks not yet started are cancelled, and every worker has
    exited before this returns or raises. Fork, not spawn: a spawned
    worker would import numpy again (about 0.15 s) and unpickle every
    document, per worker and per call, against a 1-3 s suite pass at the
    benchmark's scale; qflake starts no thread of its own before it forks.
    """
    workers = _worker_count(len(tasks))
    if workers == 1:
        return [_fit_cell(state, f, g) for f, g in tasks]
    # imported here: a process that never cross-validates (train, predict)
    # does not pay for them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers, multiprocessing.get_context("fork"), _init_worker, (state, os.getpid())
    )
    try:
        futures = [pool.submit(_fit_cell_in_worker, f, g) for f, g in tasks]
        return [future.result() for future in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def cross_validate_all(
    corpus: Corpus, configs, n_folds: int = 5, seed: int = 0,
    fit_vocab_on_all: bool = False, tune_on_eval_fold: bool = False,
) -> tuple[CrossValResult, ...]:
    """Stratified k-fold evaluation of several pipeline configurations on
    the same folds; result i equals ``cross_validate(configs[i])`` run
    alone with the same switches. The switches replay the reference
    protocol for every config: ``fit_vocab_on_all`` fits the vocabulary
    on every fold, ``tune_on_eval_fold`` tunes on the held-out fold.

    Each document is tokenized once per tokenizer profile. Configs that
    differ only in ``tune_threshold`` share one model per fold: one
    ``fit_pipeline`` on the training folds (seed tag = fold index) and
    one scoring of the held-out fold. Each config then takes its
    threshold: 0.5, tuned on the inner training split, or tuned on the
    held-out fold. Each model is freed before its task returns.
    The (fold, group) fits run on one worker process per usable CPU;
    results do not depend on the worker count.
    """
    configs = tuple(configs)
    folds = stratified_folds(corpus, n_folds, seed)
    fold_of = np.array([folds[e.id] for e in corpus])
    labels = corpus.labels()
    docs = {}
    for name in dict.fromkeys(c.tokenizer for c in configs):
        profile = get_tokenizer_profile(name)
        docs[name] = [tokenize(e.text, profile) for e in corpus]
    groups: dict[PipelineConfig, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(replace(config, tune_threshold=False), []).append(i)
    splits = []
    for f in range(n_folds):
        train_pos, eval_pos = np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)
        splits.append((train_pos, eval_pos, labels[train_pos], labels[eval_pos]))
    state = _CrossValState(
        configs=configs,
        groups=tuple((config, tuple(members)) for config, members in groups.items()),
        splits=tuple(splits),
        docs=docs,
        seed=seed,
        fit_vocab_on_all=fit_vocab_on_all,
        tune_on_eval_fold=tune_on_eval_fold,
    )
    tasks = [(f, g) for f in range(n_folds) for g in range(len(state.groups))]
    fold_results = tuple([] for _ in configs)
    for (f, g), results in zip(tasks, _fit_cells(state, tasks)):
        for i, result in zip(state.groups[g][1], results):
            fold_results[i].append(result)
    return tuple(
        CrossValResult(
            config=config,
            folds=tuple(results),
            aggregate=aggregate_reports([fr.report for fr in results]),
        )
        for config, results in zip(configs, fold_results)
    )


def cross_validate(
    corpus: Corpus, config: PipelineConfig, n_folds: int = 5, seed: int = 0,
    fit_vocab_on_all: bool = False, tune_on_eval_fold: bool = False,
) -> CrossValResult:
    """Stratified k-fold evaluation of one pipeline configuration: the
    one-config case of ``cross_validate_all``, with the same switches.
    """
    (result,) = cross_validate_all(
        corpus, (config,), n_folds, seed, fit_vocab_on_all, tune_on_eval_fold
    )
    return result
