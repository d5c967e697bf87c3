"""The qflake command line: ingest, train, predict, evaluate, experiment.

Configuration precedence is CLI flags > --config JSON file > builtin
defaults, and the effective configuration is echoed into every run's
outputs. Exit codes: 0 success, 2 bad input, 3 a failed run. The type of
the error decides, in ``main`` alone: a ``PipelineError`` (valid input
that a stage could not fit or score) prints ``<command> failed: <msg>``
and exits 3; any other ``QflakeError`` (bad manifest, file, bundle,
setting or hyperparameter) prints ``error: <msg>`` and exits 2. Every
JSON file is read and written through ``jsonio``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from pathlib import Path

from .bundle import ModelBundle, train_bundle
from .classifiers import FAMILIES, PROFILE_NAMES, get_profile
from .corpus import (
    Corpus,
    Label,
    SubsetMode,
    load_manifest,
    parse_manifest,
    scan_tree,
    select_subset,
    write_manifest,
)
from .errors import PipelineError, QflakeError
from .eval import METRIC_NAMES, PipelineConfig, cross_validate
from .experiment import METHODS, run_paper_suite, write_results
from .jsonio import dumps, loads
from .text import TOKENIZER_PROFILES

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3

_DATASETS = tuple(m.value for m in SubsetMode)

# --config file keys: (type, admitted values or None). A list value must
# hold admitted values only. Every value is checked before any is used.
_FILE_KEYS = {
    "seed": (int, None),
    "folds": (int, None),
    "pca": ((int, str), None),
    "profile": (str, PROFILE_NAMES),
    "tokenizer": (str, tuple(sorted(TOKENIZER_PROFILES))),
    "dataset": (str, _DATASETS),
    "methods": (list, METHODS),
    "models": (list, FAMILIES),
    "hyperparameters": (dict, None),
    "smote": (bool, None),
    "tune_threshold": (bool, None),
    "replicate_paper_vectorization": (bool, None),
    "replicate_paper_threshold": (bool, None),
}
_TYPE_NAMES = {
    int: "an integer",
    (int, str): "an integer or 'none'",
    str: "a string",
    list: "a list of values",
    dict: "a JSON object",
    bool: "true or false",
}


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="RNG seed (u64)")
    parser.add_argument("--config", type=Path, default=None, help="JSON config file")
    parser.add_argument(
        "--replicate-paper-vectorization",
        action="store_true",
        default=None,
        help="fit the vocabulary on the whole dataset instead of the "
        "training folds (matches the reference protocol; leaks eval tokens)",
    )
    parser.add_argument(
        "--replicate-paper-threshold",
        action="store_true",
        default=None,
        help="tune decision thresholds on the evaluation fold instead of an "
        "inner training split (matches the reference protocol)",
    )
    parser.add_argument("--out", type=Path, default=None, help="output path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qflake argument parser, built once per process: parsing keeps
    no state in it, and ``main`` is called many times by in-process
    callers."""
    parser = argparse.ArgumentParser(
        prog="qflake",
        description="Detect flaky tests in quantum-software repositories "
        "with bag-of-words classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="scan a corpus tree or validate a manifest")
    p.add_argument("--root", type=Path, help="directory with flaky/ and nonflaky/ subtrees")
    p.add_argument("--manifest", type=Path, help="existing manifest to validate")
    _add_common(p)

    p = sub.add_parser("train", help="train on the full corpus and save a bundle")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--profile", default=None, help="paper_vanilla | paper_smote")
    p.add_argument("--smote", action="store_true", default=None)
    p.add_argument("--pca", default=None, help="component count, or 'none'")
    p.add_argument("--tune-threshold", action="store_true", default=None)
    p.add_argument("--tokenizer", choices=sorted(TOKENIZER_PROFILES), default=None)
    _add_common(p)

    p = sub.add_parser("predict", help="score files with a saved bundle")
    p.add_argument("--bundle", type=Path, required=True)
    p.add_argument("files", nargs="+", type=Path)
    _add_common(p)

    p = sub.add_parser("evaluate", help="cross-validate one pipeline configuration")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--profile", default=None)
    p.add_argument("--smote", action="store_true", default=None)
    p.add_argument("--pca", default=None)
    p.add_argument("--tune-threshold", action="store_true", default=None)
    p.add_argument("--tokenizer", choices=sorted(TOKENIZER_PROFILES), default=None)
    p.add_argument("--dataset", choices=_DATASETS, default=None)
    p.add_argument("--folds", type=int, default=None)
    _add_common(p)

    p = sub.add_parser("experiment", help="run the full result-table suite")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--suite", choices=("paper",), default="paper")
    p.add_argument("--methods", nargs="+", choices=METHODS, default=None)
    p.add_argument("--models", nargs="+", choices=FAMILIES, default=None)
    p.add_argument("--folds", type=int, default=None)
    p.add_argument("--tokenizer", choices=sorted(TOKENIZER_PROFILES), default=None)
    _add_common(p)

    return parser


def _load_config_file(path: Path | None) -> dict:
    if path is None:
        return {}
    if not path.exists():
        raise QflakeError(f"config file not found: {path}")
    try:
        loaded = loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise QflakeError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(loaded, dict):
        raise QflakeError(f"config file {path} must hold a JSON object")
    for key, (kind, choices) in _FILE_KEYS.items():
        if key not in loaded:
            continue
        value = loaded[key]
        # bool is an int subclass; JSON true is no seed or fold count
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
        if ok and choices is not None:
            ok = all(v in choices for v in (value if kind is list else [value]))
        if not ok:
            expected = _TYPE_NAMES[kind] + (f" from {list(choices)}" if choices else "")
            raise QflakeError(f"config file {path}: {key!r} must be {expected}, got {value!r}")
    return loaded


def _effective(args, file_config: dict, key: str, default):
    """CLI flag > config file > default."""
    cli_value = getattr(args, key, None)
    if cli_value is not None:
        return cli_value
    if key in file_config:
        return file_config[key]
    return default


def _parse_pca(value):
    if value is None:
        return None, False
    if isinstance(value, str) and value.lower() == "none":
        return None, True
    try:
        return int(value), True
    except (TypeError, ValueError):
        raise QflakeError(f"--pca expects an integer or 'none', got {value!r}") from None


def _pipeline_from_args(args, file_config: dict) -> tuple[PipelineConfig, dict]:
    family = args.family
    profile_name = _effective(args, file_config, "profile", None)
    smote = bool(_effective(args, file_config, "smote", False))
    tuned = bool(_effective(args, file_config, "tune_threshold", False))
    tokenizer = _effective(args, file_config, "tokenizer", "default")
    fit_all = bool(_effective(args, file_config, "replicate_paper_vectorization", False))
    tune_eval = bool(_effective(args, file_config, "replicate_paper_threshold", False))

    if profile_name is None:
        profile_name = "paper_smote" if smote else "paper_vanilla"
    builtin = get_profile(family, profile_name)
    hyper = dict(builtin.hyperparameters)
    hyper.update(file_config.get("hyperparameters", {}))
    pca_components = builtin.pca_components
    pca_value, pca_given = _parse_pca(_effective(args, file_config, "pca", None))
    if pca_given:
        pca_components = pca_value

    config = PipelineConfig(
        family=family,
        hyperparameters=hyper,
        pca_components=pca_components,
        smote=smote,
        tune_threshold=tuned,
        tokenizer=tokenizer,
        fit_vocab_on_all=fit_all,
        tune_on_eval_fold=tune_eval,
        profile_name=builtin.name,
    )
    echo = {
        "family": family,
        "profile": builtin.name,
        "hyperparameters": hyper,
        "pca_components": pca_components,
        "smote": smote,
        "threshold_mode": "tuned" if tuned else "fixed",
        "tokenizer": tokenizer,
        "replicate_paper_vectorization": fit_all,
        "replicate_paper_threshold": tune_eval,
    }
    return config, echo


def _prepare_out(path: Path, directory: bool) -> None:
    """Check ``--out`` and create the directories it needs before any work
    is done, so a bad --out fails fast as a usage error. ``directory``
    says whether the command writes a directory at ``path`` or a file."""
    if directory and path.exists() and not path.is_dir():
        raise QflakeError(f"--out {path} is not a directory")
    if not directory and path.is_dir():
        raise QflakeError(f"--out {path} is a directory; give a file path")
    try:
        (path if directory else path.parent).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise QflakeError(
            f"--out {path}: cannot create a directory ({exc.strerror or exc})"
        ) from None


def _fmt_float(x) -> str:
    return repr(float(x))


def cmd_ingest(args, file_config: dict) -> int:
    if (args.root is None) == (args.manifest is None):
        print("ingest: provide exactly one of --root or --manifest", file=sys.stderr)
        return EXIT_VALIDATION
    if args.out is not None:
        _prepare_out(args.out, directory=False)
    if args.root is not None:
        records = scan_tree(args.root)
        if not records:
            print("no entries", file=sys.stderr)
            return EXIT_VALIDATION
        manifest_path = args.out or (args.root / "manifest.jsonl")
        write_manifest(records, manifest_path)
        corpus = load_manifest(manifest_path)
    else:
        items = list(parse_manifest(args.manifest))
        issues = [i for i in items if isinstance(i, QflakeError)]
        if not items:
            issues = ["no entries"]
        if issues:
            for issue in issues:
                print(f"invalid manifest: {issue}", file=sys.stderr)
            return EXIT_VALIDATION
        corpus = Corpus(tuple(items))
        manifest_path = args.manifest
        if args.out is not None:
            base = Path(args.out).parent.resolve()
            records = [
                {
                    "id": e.id,
                    "path": os.path.relpath(Path(e.path).resolve(), base),
                    "label": e.label.value,
                    "repo": e.repo,
                }
                for e in corpus
            ]
            write_manifest(records, args.out)
            manifest_path = args.out
    counts = corpus.class_counts
    print(
        f"{counts[Label.FLAKY]} flaky / {counts[Label.NONFLAKY]} nonflaky "
        f"({len(corpus)} entries)"
    )
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_train(args, file_config: dict) -> int:
    config, echo = _pipeline_from_args(args, file_config)
    seed = int(_effective(args, file_config, "seed", 0))
    if args.out is None:
        raise QflakeError("train: --out BUNDLE_PATH is required")
    _prepare_out(args.out, directory=False)
    bundle = train_bundle(load_manifest(args.manifest), config, seed=seed)
    bundle.metadata["effective_config"] = echo
    bundle.save(args.out)
    print(f"bundle written: {args.out} (threshold {_fmt_float(bundle.threshold)})")
    return EXIT_OK


def cmd_predict(args, file_config: dict) -> int:
    if args.out is not None:
        _prepare_out(args.out, directory=False)
    bundle = ModelBundle.load(args.bundle)
    texts = []
    for path in args.files:
        if not path.exists():
            print(f"predict: no such file {path}", file=sys.stderr)
            return EXIT_VALIDATION
        try:
            texts.append(path.read_bytes().decode("utf-8"))
        except UnicodeDecodeError:
            print(f"predict: {path} is not valid UTF-8", file=sys.stderr)
            return EXIT_VALIDATION
    scores, labels = bundle.predict_texts(texts)
    lines = [
        dumps({"path": str(p), "score": float(s), "label": l}, sort_keys=True)
        for p, s, l in zip(args.files, scores, labels)
    ]
    payload = "\n".join(lines) + "\n"
    if args.out is not None:
        Path(args.out).write_text(payload, encoding="utf-8")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def _report_csv(result) -> str:
    header = ["fold", *METRIC_NAMES, "threshold"]
    lines = [",".join(header)]
    for fr in result.folds:
        cells = [str(fr.fold)]
        cells += [_fmt_float(getattr(fr.report, name)) for name in METRIC_NAMES]
        cells.append(_fmt_float(fr.threshold))
        lines.append(",".join(cells))
    mean_cells = ["mean"] + [
        _fmt_float(result.aggregate.mean[name]) for name in METRIC_NAMES
    ] + [""]
    std_cells = ["std"] + [
        _fmt_float(result.aggregate.std[name]) for name in METRIC_NAMES
    ] + [""]
    lines.append(",".join(mean_cells))
    lines.append(",".join(std_cells))
    return "\n".join(lines) + "\n"


def cmd_evaluate(args, file_config: dict) -> int:
    config, echo = _pipeline_from_args(args, file_config)
    seed = int(_effective(args, file_config, "seed", 0))
    n_folds = int(_effective(args, file_config, "folds", 5))
    dataset = _effective(args, file_config, "dataset", "all")
    if args.out is not None:
        _prepare_out(args.out, directory=True)
    corpus = load_manifest(args.manifest)
    data = select_subset(corpus, SubsetMode(dataset), seed)
    result = cross_validate(data, config, n_folds=n_folds, seed=seed)
    report = {
        "config": echo,
        "seed": seed,
        "n_folds": n_folds,
        "dataset": dataset,
        "corpus_hash": corpus.content_hash(),
        "aggregate": {"mean": result.aggregate.mean, "std": result.aggregate.std},
        "folds": [
            {
                "fold": fr.fold,
                "metrics": fr.report.values(),
                "flags": sorted(fr.report.flags),
                "threshold": fr.threshold,
                "confusion": {
                    "tp": fr.cm.tp, "fp": fr.cm.fp, "fn": fr.cm.fn, "tn": fr.cm.tn
                },
                "vocab_size": fr.vocab_size,
                "pca_effective": fr.pca_effective,
                "smote_synthetic": fr.smote_synthetic,
            }
            for fr in result.folds
        ],
    }
    payload = dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out is not None:
        out_dir = Path(args.out)
        (out_dir / "report.json").write_text(payload, encoding="utf-8")
        (out_dir / "report.csv").write_text(_report_csv(result), encoding="utf-8")
        print(f"report written: {out_dir}")
    else:
        sys.stdout.write(payload)
    return EXIT_OK


def cmd_experiment(args, file_config: dict) -> int:
    seed = int(_effective(args, file_config, "seed", 0))
    n_folds = int(_effective(args, file_config, "folds", 5))
    tokenizer = _effective(args, file_config, "tokenizer", "default")
    fit_all = bool(_effective(args, file_config, "replicate_paper_vectorization", False))
    tune_eval = bool(_effective(args, file_config, "replicate_paper_threshold", False))
    methods = tuple(_effective(args, file_config, "methods", list(METHODS)))
    families = tuple(_effective(args, file_config, "models", list(FAMILIES)))
    corpus = load_manifest(args.manifest)

    run_config = {
        "suite": args.suite,
        "seed": seed,
        "n_folds": n_folds,
        "tokenizer": tokenizer,
        "replicate_paper_vectorization": fit_all,
        "replicate_paper_threshold": tune_eval,
        "methods": list(methods),
        "models": list(families),
        "corpus_hash": corpus.content_hash(),
    }
    run_id = hashlib.sha256(
        dumps(run_config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    out_dir = (args.out or Path("results")) / run_id
    _prepare_out(out_dir, directory=True)

    tables = run_paper_suite(
        corpus,
        seed=seed,
        families=families,
        methods=methods,
        n_folds=n_folds,
        tokenizer=tokenizer,
        fit_vocab_on_all=fit_all,
        tune_on_eval_fold=tune_eval,
    )
    run_config["run_id"] = run_id
    write_results(tables, out_dir, run_config)
    print(f"results written: {out_dir}")
    return EXIT_OK


_COMMANDS = {
    "ingest": cmd_ingest,
    "train": cmd_train,
    "predict": cmd_predict,
    "evaluate": cmd_evaluate,
    "experiment": cmd_experiment,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        file_config = _load_config_file(args.config)
        seed = _effective(args, file_config, "seed", 0)
        if int(seed) < 0:
            raise QflakeError("--seed must be non-negative")
        return _COMMANDS[args.command](args, file_config)
    except PipelineError as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except QflakeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
