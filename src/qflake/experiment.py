"""The full experiment matrix: {balanced, imbalanced} x {vanilla, smote,
threshold, hybrid} x five model families, rendered as result tables.

Published reference means and standard deviations are embedded so every
run emits per-cell absolute deltas; drift against the reference numbers
is reported, never hidden, and never gates a run. Exact digit matches are
not expected (seeds and solver internals differ).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import Corpus, SubsetMode, select_subset
from .errors import QflakeError
from .eval import (
    METRIC_NAMES,
    CrossValResult,
    PipelineConfig,
    cross_validate_all,
)
from .classifiers import FAMILIES
from .jsonio import dumps

METHODS = ("vanilla", "smote", "threshold", "hybrid")

# method -> (profile name, smote enabled, threshold tuned)
_METHOD_WIRING = {
    "vanilla": ("paper_vanilla", False, False),
    "smote": ("paper_smote", True, False),
    "threshold": ("paper_vanilla", False, True),
    "hybrid": ("paper_smote", True, True),
}

# Published reference tables: (dataset, method, family) ->
# {metric: (mean, std)}. The balanced dataset was only ever run vanilla.
REFERENCE_RESULTS = {
    ("balanced", "vanilla", "xgb"): {
        "accuracy": (0.933, 0.042), "precision": (0.924, 0.069),
        "recall": (0.956, 0.089), "f1": (0.934, 0.043), "mcc": (0.877, 0.075),
    },
    ("balanced", "vanilla", "dt"): {
        "accuracy": (0.889, 0.092), "precision": (0.938, 0.123),
        "recall": (0.867, 0.163), "f1": (0.883, 0.103), "mcc": (0.805, 0.156),
    },
    ("balanced", "vanilla", "rf"): {
        "accuracy": (0.889, 0.050), "precision": (0.878, 0.071),
        "recall": (0.911, 0.083), "f1": (0.891, 0.050), "mcc": (0.786, 0.100),
    },
    ("balanced", "vanilla", "knn"): {
        "accuracy": (0.744, 0.056), "precision": (0.872, 0.108),
        "recall": (0.600, 0.151), "f1": (0.690, 0.106), "mcc": (0.525, 0.099),
    },
    ("balanced", "vanilla", "svm"): {
        "accuracy": (0.833, 0.086), "precision": (0.858, 0.096),
        "recall": (0.800, 0.130), "f1": (0.824, 0.101), "mcc": (0.673, 0.171),
    },
    ("imbalanced", "vanilla", "xgb"): {
        "accuracy": (0.980, 0.040), "precision": (0.778, 0.122),
        "recall": (0.859, 0.055), "f1": (0.850, 0.055), "mcc": (0.441, 0.091),
    },
    ("imbalanced", "vanilla", "dt"): {
        "accuracy": (0.962, 0.025), "precision": (0.913, 0.121),
        "recall": (0.867, 0.129), "f1": (0.877, 0.079), "mcc": (0.864, 0.087),
    },
    ("imbalanced", "vanilla", "rf"): {
        "accuracy": (0.961, 0.020), "precision": (0.946, 0.065),
        "recall": (0.800, 0.083), "f1": (0.866, 0.082), "mcc": (0.849, 0.083),
    },
    ("imbalanced", "vanilla", "knn"): {
        "accuracy": (0.892, 0.013), "precision": (0.920, 0.098),
        "recall": (0.356, 0.109), "f1": (0.497, 0.110), "mcc": (0.522, 0.073),
    },
    ("imbalanced", "vanilla", "svm"): {
        "accuracy": (0.920, 0.024), "precision": (0.845, 0.094),
        "recall": (0.622, 0.194), "f1": (0.691, 0.128), "mcc": (0.672, 0.112),
    },
    ("imbalanced", "smote", "xgb"): {
        "accuracy": (0.969, 0.023), "precision": (0.978, 0.044),
        "recall": (0.822, 0.151), "f1": (0.884, 0.096), "mcc": (0.877, 0.094),
    },
    ("imbalanced", "smote", "dt"): {
        "accuracy": (0.955, 0.042), "precision": (0.920, 0.160),
        "recall": (0.844, 0.206), "f1": (0.850, 0.144), "mcc": (0.845, 0.140),
    },
    ("imbalanced", "smote", "rf"): {
        "accuracy": (0.944, 0.013), "precision": (0.824, 0.048),
        "recall": (0.822, 0.054), "f1": (0.822, 0.054), "mcc": (0.790, 0.049),
    },
    ("imbalanced", "smote", "knn"): {
        "accuracy": (0.872, 0.044), "precision": (0.605, 0.138),
        "recall": (0.622, 0.206), "f1": (0.592, 0.144), "mcc": (0.531, 0.162),
    },
    ("imbalanced", "smote", "svm"): {
        "accuracy": (0.920, 0.024), "precision": (0.845, 0.094),
        "recall": (0.622, 0.194), "f1": (0.691, 0.128), "mcc": (0.672, 0.112),
    },
    ("imbalanced", "threshold", "xgb"): {
        "accuracy": (0.962, 0.013), "precision": (0.964, 0.073),
        "recall": (0.800, 0.130), "f1": (0.863, 0.056), "mcc": (0.854, 0.055),
    },
    ("imbalanced", "threshold", "dt"): {
        "accuracy": (0.965, 0.027), "precision": (0.938, 0.137),
        "recall": (0.866, 0.144), "f1": (0.886, 0.083), "mcc": (0.877, 0.089),
    },
    ("imbalanced", "threshold", "rf"): {
        "accuracy": (0.961, 0.023), "precision": (0.946, 0.073),
        "recall": (0.800, 0.092), "f1": (0.866, 0.082), "mcc": (0.849, 0.093),
    },
    ("imbalanced", "threshold", "knn"): {
        "accuracy": (0.875, 0.031), "precision": (0.650, 0.152),
        "recall": (0.556, 0.136), "f1": (0.579, 0.094), "mcc": (0.521, 0.100),
    },
    ("imbalanced", "threshold", "svm"): {
        "accuracy": (0.920, 0.015), "precision": (0.756, 0.050),
        "recall": (0.733, 0.169), "f1": (0.733, 0.082), "mcc": (0.694, 0.086),
    },
    ("imbalanced", "hybrid", "xgb"): {
        "accuracy": (0.969, 0.023), "precision": (0.978, 0.044),
        "recall": (0.822, 0.151), "f1": (0.884, 0.096), "mcc": (0.877, 0.094),
    },
    ("imbalanced", "hybrid", "dt"): {
        "accuracy": (0.956, 0.035), "precision": (0.898, 0.155),
        "recall": (0.889, 0.122), "f1": (0.876, 0.091), "mcc": (0.863, 0.098),
    },
    ("imbalanced", "hybrid", "rf"): {
        "accuracy": (0.944, 0.013), "precision": (0.824, 0.048),
        "recall": (0.822, 0.054), "f1": (0.822, 0.054), "mcc": (0.790, 0.049),
    },
    ("imbalanced", "hybrid", "knn"): {
        "accuracy": (0.899, 0.033), "precision": (0.713, 0.084),
        "recall": (0.578, 0.215), "f1": (0.623, 0.156), "mcc": (0.580, 0.161),
    },
    ("imbalanced", "hybrid", "svm"): {
        "accuracy": (0.937, 0.014), "precision": (0.820, 0.092),
        "recall": (0.800, 0.163), "f1": (0.792, 0.067), "mcc": (0.768, 0.069),
    },
}


@dataclass(frozen=True)
class ResultRow:
    dataset_mode: str
    method: str
    family: str
    mean: dict[str, float] = field(hash=False)
    std: dict[str, float] = field(hash=False)
    metadata: dict = field(hash=False)


@dataclass(frozen=True)
class ResultsTable:
    rows: tuple[ResultRow, ...]
    metadata: dict = field(hash=False)

    def row(self, method: str, family: str) -> ResultRow:
        for r in self.rows:
            if r.method == method and r.family == family:
                return r
        raise KeyError(f"no row for ({method}, {family})")


def pipeline_config_for(method: str, family: str, tokenizer: str = "default") -> PipelineConfig:
    profile, smote, tuned = _METHOD_WIRING[method]
    return PipelineConfig.from_profile(
        family, profile, smote=smote, tune_threshold=tuned, tokenizer=tokenizer
    )


def _row_from_outcome(
    dataset_mode: str, method: str, family: str, outcome: CrossValResult
) -> ResultRow:
    config = outcome.config
    metadata = {
        "profile": config.profile_name,
        "smote": config.smote,
        "threshold_mode": config.threshold_mode,
        "pca_requested": config.pca_components,
        "pca_effective_per_fold": [fr.pca_effective for fr in outcome.folds],
        "smote_synthetic_per_fold": [fr.smote_synthetic for fr in outcome.folds],
        "selected_threshold_per_fold": [fr.threshold for fr in outcome.folds],
        "threshold_curves_per_fold": [
            None if fr.threshold_curve is None else list(fr.threshold_curve.grid)
            for fr in outcome.folds
        ],
        "vocab_size_per_fold": [fr.vocab_size for fr in outcome.folds],
        "per_fold_metrics": [fr.report.values() for fr in outcome.folds],
        "per_fold_flags": [sorted(fr.report.flags) for fr in outcome.folds],
        "hyperparameters": dict(config.hyperparameters),
    }
    return ResultRow(
        dataset_mode=dataset_mode,
        method=method,
        family=family,
        mean=dict(outcome.aggregate.mean),
        std=dict(outcome.aggregate.std),
        metadata=metadata,
    )


def _table(
    corpus: Corpus,
    dataset_mode: str,
    methods: tuple[str, ...],
    families: tuple[str, ...],
    seed: int,
    n_folds: int,
    tokenizer: str,
    **switches,
) -> ResultsTable:
    """One results table: rows methods outer, families inner, every cell
    cross-validated on the same folds of the ``dataset_mode`` subset by one
    ``cross_validate_all`` call, which takes the protocol ``switches``.
    The whole table is built before anything is returned; a failure in
    any cell aborts it.
    """
    data = select_subset(corpus, SubsetMode(dataset_mode), seed)
    cells = [(m, f) for m in methods for f in families]
    outcomes = cross_validate_all(
        data,
        [pipeline_config_for(m, f, tokenizer) for m, f in cells],
        n_folds=n_folds,
        seed=seed,
        **switches,
    )
    rows = [
        _row_from_outcome(dataset_mode, m, f, outcome)
        for (m, f), outcome in zip(cells, outcomes)
    ]
    metadata = {
        "dataset_mode": dataset_mode,
        "methods": list(methods),
        "families": list(families),
        "seed": seed,
        "n_folds": n_folds,
        "tokenizer": tokenizer,
        **switches,
        "corpus_hash": corpus.content_hash(),
        "dataset_hash": data.content_hash(),
        "class_counts": {k.value: v for k, v in data.class_counts.items()},
    }
    return ResultsTable(rows=tuple(rows), metadata=metadata)


def run_paper_suite(
    corpus: Corpus,
    seed: int = 0,
    families: tuple[str, ...] = FAMILIES,
    methods: tuple[str, ...] = METHODS,
    n_folds: int = 5,
    tokenizer: str = "default",
    fit_vocab_on_all: bool = False,
    tune_on_eval_fold: bool = False,
) -> dict[str, ResultsTable]:
    """Balanced-vanilla plus imbalanced x requested methods, all families.

    Returns {"table_balanced": ..., "table_imbalanced": ...} in the
    reference row order (methods outer, families inner). Filtering
    vanilla out of ``methods`` drops the balanced table, which only ever
    runs vanilla: the imbalance remedies apply to the 1:5 set.
    """
    if not methods:
        raise QflakeError("no methods requested")
    if not families:
        raise QflakeError("no families requested")
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise QflakeError(f"unknown methods: {unknown}")
    unknown = [f for f in families if f not in FAMILIES]
    if unknown:
        raise QflakeError(f"unknown families: {unknown}")
    settings = dict(
        families=families,
        seed=seed,
        n_folds=n_folds,
        tokenizer=tokenizer,
        fit_vocab_on_all=fit_vocab_on_all,
        tune_on_eval_fold=tune_on_eval_fold,
    )
    tables = {}
    if "vanilla" in methods:
        tables["table_balanced"] = _table(corpus, "balanced", ("vanilla",), **settings)
    tables["table_imbalanced"] = _table(corpus, "imbalanced", methods, **settings)
    return tables


# ---------------------------------------------------------------- output


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def table_to_csv(table: ResultsTable) -> str:
    """Rows plus per-metric best-in-method and best-overall markers (ties
    all marked; the exact highlighting rule of the reference tables is not
    published).
    """
    header = ["method", "model"]
    for name in METRIC_NAMES:
        header += [f"{name}_mean", f"{name}_std"]
    for name in METRIC_NAMES:
        header += [f"{name}_best_method", f"{name}_best_overall"]

    best_overall = {
        name: max(r.mean[name] for r in table.rows) for name in METRIC_NAMES
    }
    best_in_method = {}
    for r in table.rows:
        for name in METRIC_NAMES:
            key = (r.method, name)
            best_in_method[key] = max(
                best_in_method.get(key, -1.0), r.mean[name]
            )

    lines = [",".join(header)]
    for r in table.rows:
        cells = [r.method, r.family]
        for name in METRIC_NAMES:
            cells += [_fmt(r.mean[name]), _fmt(r.std[name])]
        for name in METRIC_NAMES:
            cells += [
                _fmt(r.mean[name] == best_in_method[(r.method, name)]),
                _fmt(r.mean[name] == best_overall[name]),
            ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def deltas_to_csv(table: ResultsTable) -> str:
    """Per-cell absolute deltas of our means against the reference means."""
    lines = ["method,model,metric,mean,reference_mean,abs_delta"]
    for r in table.rows:
        ref = REFERENCE_RESULTS.get((r.dataset_mode, r.method, r.family))
        if ref is None:
            continue
        for name in METRIC_NAMES:
            ours = r.mean[name]
            ref_mean = ref[name][0]
            lines.append(
                ",".join(
                    [
                        r.method,
                        r.family,
                        name,
                        _fmt(ours),
                        _fmt(ref_mean),
                        _fmt(abs(ours - ref_mean)),
                    ]
                )
            )
    return "\n".join(lines) + "\n"


def table_to_dict(table: ResultsTable) -> dict:
    return {
        "metadata": table.metadata,
        "rows": [
            {
                "dataset_mode": r.dataset_mode,
                "method": r.method,
                "model": r.family,
                "mean": r.mean,
                "std": r.std,
                "metadata": r.metadata,
                "reference": REFERENCE_RESULTS.get(
                    (r.dataset_mode, r.method, r.family)
                ),
            }
            for r in table.rows
        ],
    }


def write_results(tables: dict[str, ResultsTable], out_dir, run_config: dict) -> Path:
    """Write table CSVs, delta CSVs, and run.json under out_dir."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    run_payload = {"config": run_config, "tables": {}}
    for key, table in tables.items():
        (out_dir / f"{key}.csv").write_text(table_to_csv(table), encoding="utf-8")
        (out_dir / f"{key}_deltas.csv").write_text(
            deltas_to_csv(table), encoding="utf-8"
        )
        run_payload["tables"][key] = table_to_dict(table)
    (out_dir / "run.json").write_text(
        dumps(run_payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return out_dir
