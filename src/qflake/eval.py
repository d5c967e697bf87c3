"""The pipeline fit, metrics, threshold tuning, stratified cross-validation,
and grid search.

The flaky class is the positive class throughout. Metrics whose
denominator is zero are defined as 0 and flagged rather than propagating
NaN into result tables. Fold aggregates report the mean and population
standard deviation (divide by n_folds).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .classifiers import get_profile, predict_labels, train_model
from .corpus import Corpus, stratified_folds
from .errors import (
    ConfigError,
    EmptyGridError,
    EmptyInputError,
    EmptyMatrixError,
    EmptyVocabularyError,
    LengthMismatchError,
)
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
        raise LengthMismatchError(
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
        raise EmptyMatrixError("confusion matrix counts sum to zero")
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

    def f1_at(self, threshold: float) -> float:
        for t, f1 in self.grid:
            if abs(t - threshold) < 1e-9:
                return f1
        raise KeyError(f"threshold {threshold} not on the grid")

    @property
    def best_f1(self) -> float:
        return self.f1_at(self.best_threshold)


def tune_threshold(scores, y_true) -> ThresholdCurve:
    """Sweep thresholds over 0.1, 0.2, ..., 0.9; best = max F1, ties to the
    lowest threshold. 0.5 is always a grid member.
    """
    scores = np.asarray(scores, dtype=np.float64)
    y_true = np.asarray(y_true).astype(np.int8)
    if scores.size == 0:
        raise EmptyInputError("no scores to tune on")
    if scores.shape != y_true.shape:
        raise LengthMismatchError("scores and y_true differ in length")
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
class ThresholdPolicy:
    """Either a fixed cutoff or a tuned sweep over the 0.1-0.9 grid."""

    mode: str  # "fixed" | "tuned"
    value: float = 0.5

    def __post_init__(self):
        if self.mode not in ("fixed", "tuned"):
            raise ConfigError(f"threshold mode must be fixed or tuned, got {self.mode!r}")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything one cross-validated pipeline run needs.

    ``fit_vocab_on_all`` switches vocabulary fitting from the training
    folds (leak-free default) to the whole dataset; ``tune_on_eval_fold``
    switches threshold tuning from an inner training split to the
    evaluation fold. Both replicate the reference protocol when enabled.
    """

    family: str
    hyperparameters: dict = field(hash=False)
    pca_components: int | None = None
    smote: bool = False
    threshold: ThresholdPolicy = ThresholdPolicy(mode="fixed")
    tokenizer: str = "default"
    fit_vocab_on_all: bool = False
    tune_on_eval_fold: bool = False
    profile_name: str | None = None

    @classmethod
    def from_profile(
        cls,
        family: str,
        profile: str,
        smote: bool = False,
        threshold: ThresholdPolicy | None = None,
        **kwargs,
    ) -> "PipelineConfig":
        builtin = get_profile(family, profile)
        return cls(
            family=family,
            hyperparameters=builtin.hyperparameters,
            pca_components=builtin.pca_components,
            smote=smote,
            threshold=threshold or ThresholdPolicy(mode="fixed"),
            profile_name=builtin.name,
            **kwargs,
        )


@dataclass(frozen=True)
class FoldResult:
    fold: int
    report: MetricReport
    cm: ConfusionMatrix
    threshold: float
    threshold_curve: ThresholdCurve | None
    n_train: int
    n_eval: int
    vocab_size: int
    pca_requested: int | None
    pca_effective: int | None
    smote_synthetic: int


@dataclass(frozen=True)
class AggregateReport:
    mean: dict[str, float]
    std: dict[str, float]
    flags: frozenset[str] = frozenset()


def aggregate_reports(reports) -> AggregateReport:
    """Per-metric mean and population std (divide by the fold count)."""
    reports = list(reports)
    mean = {}
    std = {}
    flags = set()
    for name in METRIC_NAMES:
        vals = np.array([getattr(r, name) for r in reports], dtype=np.float64)
        mean[name] = float(vals.mean())
        std[name] = float(vals.std())
    for r in reports:
        flags |= r.flags
    return AggregateReport(mean=mean, std=std, flags=frozenset(flags))


@dataclass(frozen=True)
class CrossValResult:
    config: PipelineConfig
    n_folds: int
    seed: int
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
    pca_effective: int | None
    smote_synthetic: int

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
    docs, y, config: PipelineConfig, seed: int, tag, vocab_docs=None, policies=None
) -> tuple[FittedPipeline, ...]:
    """Fit vectorize -> SMOTE -> PCA -> model -> threshold on tokenized
    training documents ``docs`` with labels ``y`` (1 = flaky).

    The vocabulary is fitted on ``vocab_docs`` when given, else on
    ``docs``. SMOTE always runs before PCA. Random streams derive from
    (seed, stage, tag). Returns one pipeline per threshold policy in
    ``policies`` (default: ``config.threshold`` alone), all sharing one
    vocabulary, PCA and model. A fixed policy keeps its value. A tuned
    one is tuned on a seeded stratified 20% of the pre-SMOTE training
    rows, scored once for every tuned policy, unless ``tune_on_eval_fold``
    leaves tuning to the caller's evaluation fold.
    """
    policies = (config.threshold,) if policies is None else tuple(policies)
    vocab = fit_vocabulary(docs if vocab_docs is None else vocab_docs)
    if not len(vocab):
        raise EmptyVocabularyError(
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
    pca_effective = None
    X_model = X_fit
    if config.pca_components is not None:
        pca_effective = min(config.pca_components, pca_ceiling(*X_fit.shape))
        pca_model = pca_fit(X_fit, pca_effective)
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
        pca_effective=pca_effective,
        smote_synthetic=smote_synthetic,
    )
    tuning_set = None
    pipelines = []
    for policy in policies:
        if policy.mode == "tuned" and not config.tune_on_eval_fold:
            if tuning_set is None:
                positions = _tuning_subset_positions(y, seed, tag)
                tuning_set = (fitted.score_counts(X[positions]), y[positions])
            pipelines.append(fitted.tuned(*tuning_set))
        else:
            pipelines.append(replace(fitted, threshold=policy.value))
    return tuple(pipelines)


def cross_validate_all(
    corpus: Corpus, configs, n_folds: int = 5, seed: int = 0
) -> tuple[CrossValResult, ...]:
    """Stratified k-fold evaluation of several pipeline configurations on
    the same folds; result i equals ``cross_validate(configs[i])`` run alone.

    Each document is tokenized once per tokenizer profile. Configs that
    differ only in threshold policy share one model per fold: one
    ``fit_pipeline`` on the training folds (seed tag = fold index;
    vocabulary from every fold when ``fit_vocab_on_all``) and one scoring
    of the held-out fold. Each policy then takes its threshold: fixed,
    tuned on the inner training split, or tuned on the held-out fold when
    ``tune_on_eval_fold``. Each model is freed before the next is fitted.
    """
    configs = tuple(configs)
    folds = stratified_folds(corpus, n_folds, seed)
    all_ids = corpus.ids()
    labels = {e.id: 1 if e.label.value == "flaky" else 0 for e in corpus}
    docs = {}
    for name in dict.fromkeys(c.tokenizer for c in configs):
        profile = get_tokenizer_profile(name)
        docs[name] = {e.id: tokenize(e.text, profile) for e in corpus}
    groups: dict[PipelineConfig, list[int]] = {}
    for i, config in enumerate(configs):
        groups.setdefault(replace(config, threshold=ThresholdPolicy("fixed")), []).append(i)

    fold_results = tuple([] for _ in configs)
    for f in range(n_folds):
        train_ids = [i for i in all_ids if folds.assignment[i] != f]
        eval_ids = [i for i in all_ids if folds.assignment[i] == f]
        y_train = np.array([labels[i] for i in train_ids], dtype=np.int8)
        y_eval = np.array([labels[i] for i in eval_ids], dtype=np.int8)
        for config, members in groups.items():
            tokens = docs[config.tokenizer]
            vocab_docs = [tokens[i] for i in all_ids] if config.fit_vocab_on_all else None
            pipelines = fit_pipeline(
                [tokens[i] for i in train_ids], y_train, config, seed, f, vocab_docs,
                [configs[i].threshold for i in members],
            )
            eval_scores = pipelines[0].score([tokens[i] for i in eval_ids])
            for i, fitted in zip(members, pipelines):
                if configs[i].threshold.mode == "tuned" and config.tune_on_eval_fold:
                    fitted = fitted.tuned(eval_scores, y_eval)
                cm = confusion(y_eval, predict_labels(eval_scores, fitted.threshold))
                fold_results[i].append(
                    FoldResult(
                        fold=f,
                        report=compute_metrics(cm),
                        cm=cm,
                        threshold=fitted.threshold,
                        threshold_curve=fitted.curve,
                        n_train=len(train_ids),
                        n_eval=len(eval_ids),
                        vocab_size=len(fitted.vocabulary),
                        pca_requested=config.pca_components,
                        pca_effective=fitted.pca_effective,
                        smote_synthetic=fitted.smote_synthetic,
                    )
                )
            del pipelines, fitted
    return tuple(
        CrossValResult(
            config=config,
            n_folds=n_folds,
            seed=seed,
            folds=tuple(results),
            aggregate=aggregate_reports([fr.report for fr in results]),
        )
        for config, results in zip(configs, fold_results)
    )


def cross_validate(
    corpus: Corpus, config: PipelineConfig, n_folds: int = 5, seed: int = 0
) -> CrossValResult:
    """Stratified k-fold evaluation of one pipeline configuration: the
    one-config case of ``cross_validate_all``.
    """
    (result,) = cross_validate_all(corpus, (config,), n_folds=n_folds, seed=seed)
    return result


@dataclass(frozen=True)
class GridSearchResult:
    best_params: dict = field(hash=False)
    best_mean_f1: float
    results: tuple[tuple[dict, float], ...] = field(hash=False)


def _config_for_point(base: PipelineConfig, point: dict) -> PipelineConfig:
    """A grid point may carry 'pca_components' alongside model hyperparameters."""
    point = dict(point)
    pca = point.pop("pca_components", base.pca_components)
    return replace(base, hyperparameters=point, pca_components=pca)


def grid_search(
    corpus: Corpus,
    family: str,
    param_grid,
    n_folds: int = 5,
    seed: int = 0,
    base_config: PipelineConfig | None = None,
) -> GridSearchResult:
    """Flat grid search: every point is scored by cross-validated mean F1
    on the same folds; ties go to the first point in declared order.
    """
    grid = [dict(p) for p in param_grid]
    if not grid:
        raise EmptyGridError("parameter grid is empty")
    base = base_config or PipelineConfig(family=family, hyperparameters={})
    outcomes = cross_validate_all(
        corpus, [_config_for_point(base, p) for p in grid], n_folds=n_folds, seed=seed
    )
    results = []
    best_idx = 0
    best_f1 = -1.0
    for idx, (point, outcome) in enumerate(zip(grid, outcomes)):
        mean_f1 = outcome.aggregate.mean["f1"]
        results.append((point, mean_f1))
        if mean_f1 > best_f1:
            best_f1 = mean_f1
            best_idx = idx
    return GridSearchResult(
        best_params=grid[best_idx],
        best_mean_f1=best_f1,
        results=tuple(results),
    )
