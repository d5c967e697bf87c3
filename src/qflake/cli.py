"""The qflake command line: ingest, train, predict, evaluate, experiment.

Each command takes only the options it reads. Every setting is declared
once, in ``_FILE_KEYS``: its JSON type, admitted values, default and
help. ``main`` resolves the settings a command takes before it runs: a
command-line value wins over the ``--config`` JSON file's, which wins
over the default. Each output records the settings it was made with
once: a bundle in its metadata, evaluate in its report, experiment in
its run.json. Exit codes: 0 success, 2 bad input, 3 a failed run, 130
an interrupt (Ctrl-C, one ``interrupted`` line). The type of the error
decides, in ``main`` alone: a ``PipelineError`` (valid input that a
stage could not fit or score) prints ``<command> failed: <msg>`` and
exits 3; any other ``QflakeError`` (bad usage, manifest, file, bundle,
setting or hyperparameter) prints ``error: <msg>`` and exits 2. Every
JSON file is read and written through ``jsonio``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import os
import sys
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from .bundle import ModelBundle, train_bundle
from .classifiers import FAMILIES, PROFILE_NAMES, check_hyperparameters, predict_labels
from .corpus import (
    Corpus,
    Label,
    SubsetMode,
    load_manifest,
    parse_manifest,
    parse_records,
    read_source,
    scan_tree,
    select_subset,
    write_manifest,
)
from .errors import PipelineError, QflakeError
from .eval import METRIC_NAMES, PipelineConfig, cross_validate
from .experiment import METHODS, run_paper_suite, write_results
from .jsonio import dumps, loads, shown
from .text import TOKENIZER_PROFILES

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_RUNTIME = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


class _Setting(NamedTuple):
    kind: type | tuple  # its JSON type in a --config file
    choices: tuple | None  # admitted values; a list must hold these only
    default: object
    help: str | None = None


# Every setting a command reads, by --config key; its option is
# --<key with dashes>, and ``hyperparameters`` has none.
_FILE_KEYS = {
    "seed": _Setting(int, None, 0, "RNG seed (u64)"),
    "folds": _Setting(int, None, 5),
    "pca": _Setting((int, str), None, None, "component count, or 'none'"),
    "profile": _Setting(str, PROFILE_NAMES, None),
    "tokenizer": _Setting(str, tuple(sorted(TOKENIZER_PROFILES)), "default"),
    "dataset": _Setting(str, tuple(m.value for m in SubsetMode), "all"),
    "methods": _Setting(list, METHODS, METHODS),
    "models": _Setting(list, FAMILIES, FAMILIES),
    "hyperparameters": _Setting(dict, None, {}),
    "smote": _Setting(bool, None, False),
    "tune_threshold": _Setting(bool, None, False),
    "replicate_paper_vectorization": _Setting(
        bool, None, False, "fit the vocabulary on all folds, as the reference protocol did"
    ),
    "replicate_paper_threshold": _Setting(
        bool, None, False, "tune thresholds on the evaluation fold, as the reference protocol did"
    ),
}
_TYPE_NAMES = {
    int: "an integer",
    (int, str): "an integer or 'none'",
    str: "a string",
    list: "a list of values",
    dict: "a JSON object",
    bool: "true or false",
}
_PIPELINE = ("profile", "smote", "pca", "tune_threshold", "tokenizer", "hyperparameters")
_REPLICATE = ("replicate_paper_vectorization", "replicate_paper_threshold")


class _Parser(argparse.ArgumentParser):
    """A usage error raises, so ``main`` reports it in one line (exit 2);
    subparsers are made of this class too."""

    def error(self, message):
        raise QflakeError(message)


def _add_settings(parser: argparse.ArgumentParser, *keys: str) -> None:
    """The options of settings ``keys``, then ``--config``, which can give
    any of them. A setting no option gives is still resolved, from the
    file or its default."""
    for key in keys:
        kind, choices, _, text = _FILE_KEYS[key]
        flag = "--" + key.replace("_", "-")
        if kind is dict:
            parser.set_defaults(**{key: None})
        elif kind is bool:
            parser.add_argument(flag, action="store_true", default=None, help=text)
        else:
            parser.add_argument(
                flag, type=int if kind is int else None, nargs="+" if kind is list else None,
                choices=choices, default=None, help=text,
            )
    parser.add_argument("--config", type=Path, help="JSON file of settings")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The qflake argument parser, built once per process: parsing keeps
    no state in it, and ``main`` is called many times by in-process
    callers."""
    parser = _Parser(
        prog="qflake",
        description="Detect flaky tests in quantum-software repositories "
        "with bag-of-words classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="scan a corpus tree or validate a manifest")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--root", type=Path, help="directory with flaky/ and nonflaky/ subtrees")
    source.add_argument("--manifest", type=Path, help="existing manifest to validate")
    p.add_argument("--out", type=Path, help="manifest to write")

    p = sub.add_parser("train", help="train on the full corpus and save a bundle")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--family", choices=FAMILIES, required=True)
    _add_settings(p, *_PIPELINE, "seed")
    p.add_argument("--out", type=Path, required=True, help="bundle to write")

    p = sub.add_parser("predict", help="score files with a saved bundle")
    p.add_argument("--bundle", type=Path, required=True)
    p.add_argument("files", nargs="+", type=Path)
    p.add_argument("--out", type=Path, help="JSON Lines file to write (default stdout)")

    p = sub.add_parser("evaluate", help="cross-validate one pipeline configuration")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--family", choices=FAMILIES, required=True)
    _add_settings(p, *_PIPELINE, "dataset", "folds", "seed", *_REPLICATE)
    p.add_argument("--out", type=Path, help="directory to write the report into")

    p = sub.add_parser("experiment", help="run the full result-table suite")
    p.add_argument("--manifest", type=Path, required=True)
    p.add_argument("--suite", choices=("paper",), default="paper")
    _add_settings(p, "methods", "models", "folds", "tokenizer", "seed", *_REPLICATE)
    p.add_argument("--out", type=Path, help="directory of run directories (default results/)")

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
    unknown = [key for key in loaded if key not in _FILE_KEYS]
    if unknown:
        raise QflakeError(
            f"config file {path}: unknown key(s) {', '.join(map(repr, unknown))}; "
            f"known keys: {', '.join(_FILE_KEYS)}"
        )
    for key, value in loaded.items():
        kind, choices, _, _ = _FILE_KEYS[key]
        # bool is an int subclass; JSON true is no seed or fold count
        ok = isinstance(value, kind) and (kind is bool or not isinstance(value, bool))
        if ok and choices is not None:
            ok = all(v in choices for v in (value if kind is list else [value]))
        expected = _TYPE_NAMES[kind] + (f" from {list(choices)}" if choices else "")
        if ok and key == "seed" and value < 0:
            ok, expected = False, "a non-negative integer"
        if not ok:
            raise QflakeError(
                f"config file {path}: {key!r} must be {expected}, got {shown(value)}"
            )
    return loaded


def _resolve_settings(args) -> None:
    """Write into ``args`` each setting the command takes: its
    command-line value, else its --config value, else its default. A
    --config key of another command is accepted and not read."""
    file_config = _load_config_file(getattr(args, "config", None))
    if (getattr(args, "seed", None) or 0) < 0:
        raise QflakeError("--seed must be non-negative")
    for key, setting in _FILE_KEYS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, file_config.get(key, setting.default))


def _pca_components(value, default):
    """The --pca value: a component count of at least 1, 'none' for no PCA,
    or unset (None) for the profile's ``default``."""
    if value is None:
        return default
    if isinstance(value, str) and value.lower() == "none":
        return None
    try:
        components = int(value)
    except (TypeError, ValueError):
        components = 0  # not a number: refused as a size below 1 is
    if components < 1:
        raise QflakeError(f"--pca expects a positive integer or 'none', got {value!r}")
    return components


def _pipeline_from_args(args) -> PipelineConfig:
    """The pipeline train or evaluate fits: the profile's settings under
    the command's. The --replicate-paper-* switches of evaluate describe
    its cross-validation, not the pipeline, and go to ``cross_validate``.
    Hyperparameters, which only --config gives, are checked before any fit."""
    config = PipelineConfig.from_profile(
        args.family,
        args.profile or ("paper_smote" if args.smote else "paper_vanilla"),
        smote=args.smote,
        tune_threshold=args.tune_threshold,
        tokenizer=args.tokenizer,
    )
    hyperparameters = {**config.hyperparameters, **args.hyperparameters}
    try:
        check_hyperparameters(args.family, hyperparameters)
    except QflakeError as exc:
        raise QflakeError(f"config file {args.config}: {exc}") from None
    return replace(
        config,
        hyperparameters=hyperparameters,
        pca_components=_pca_components(args.pca, config.pca_components),
    )


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


def _write_manifest_at(records, manifest_path: Path) -> None:
    """Write manifest ``records``, each ``path`` one this process can open,
    with every path made relative to the manifest's own directory, where
    loading looks for it. Only directories are resolved, so a symlinked
    file keeps its own name."""
    base = manifest_path.parent.resolve()
    rebased = []
    for r in records:
        path = Path(r["path"])
        rebased.append({**r, "path": os.path.relpath(path.parent.resolve() / path.name, base)})
    write_manifest(rebased, manifest_path)


def cmd_ingest(args) -> int:
    """Check every record of the tree or manifest; only when all pass,
    write them, in the order read, to ``--out`` (default: a tree's
    ``manifest.jsonl``; a manifest is not rewritten in place)."""
    if args.out is not None:
        _prepare_out(args.out, directory=False)
    if args.root is not None:
        items = list(parse_records(((None, r) for r in scan_tree(args.root)), args.root))
        manifest_path = args.out or (args.root / "manifest.jsonl")
    else:
        items = list(parse_manifest(args.manifest))
        manifest_path = args.out or args.manifest
    issues = [i for i in items if isinstance(i, QflakeError)]
    if not items:
        issues = ["no entries"]
    if issues:
        for issue in issues:
            print(f"invalid manifest: {issue}", file=sys.stderr)
        return EXIT_VALIDATION
    if manifest_path != args.manifest:
        _write_manifest_at(
            [{"id": e.id, "path": e.path, "label": e.label.value, "repo": e.repo} for e in items],
            manifest_path,
        )
    counts = Corpus(tuple(items)).class_counts
    print(
        f"{counts[Label.FLAKY]} flaky / {counts[Label.NONFLAKY]} nonflaky "
        f"({len(items)} entries)"
    )
    print(f"manifest: {manifest_path}")
    return EXIT_OK


def cmd_train(args) -> int:
    config = _pipeline_from_args(args)
    _prepare_out(args.out, directory=False)
    bundle = train_bundle(load_manifest(args.manifest), config, seed=args.seed)
    bundle.save(args.out)
    print(f"bundle written: {args.out} (threshold {_fmt_float(bundle.threshold)})")
    return EXIT_OK


def cmd_predict(args) -> int:
    if args.out is not None:
        _prepare_out(args.out, directory=False)
    bundle = ModelBundle.load(args.bundle)
    scores = bundle.score_texts([read_source(path) for path in args.files])
    labels = predict_labels(scores, bundle.threshold)
    lines = [
        dumps(
            {"path": str(p), "score": float(s), "label": "flaky" if flaky else "nonflaky"},
            sort_keys=True,
        )
        for p, s, flaky in zip(args.files, scores, labels)
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


def cmd_evaluate(args) -> int:
    config = _pipeline_from_args(args)
    if args.out is not None:
        _prepare_out(args.out, directory=True)
    corpus = load_manifest(args.manifest)
    data = select_subset(corpus, SubsetMode(args.dataset), args.seed)
    result = cross_validate(
        data, config, args.folds, args.seed,
        args.replicate_paper_vectorization, args.replicate_paper_threshold,
    )
    report = {
        "config": {
            "family": config.family,
            "profile": config.profile_name,
            "hyperparameters": config.hyperparameters,
            "pca_components": config.pca_components,
            "smote": config.smote,
            "threshold_mode": config.threshold_mode,
            "tokenizer": config.tokenizer,
            "replicate_paper_vectorization": args.replicate_paper_vectorization,
            "replicate_paper_threshold": args.replicate_paper_threshold,
        },
        "seed": args.seed,
        "n_folds": args.folds,
        "dataset": args.dataset,
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


def cmd_experiment(args) -> int:
    corpus = load_manifest(args.manifest)
    run_config = {
        "suite": args.suite,
        "seed": args.seed,
        "n_folds": args.folds,
        "tokenizer": args.tokenizer,
        "replicate_paper_vectorization": args.replicate_paper_vectorization,
        "replicate_paper_threshold": args.replicate_paper_threshold,
        "methods": list(args.methods),
        "models": list(args.models),
        "corpus_hash": corpus.content_hash(),
    }
    run_id = hashlib.sha256(
        dumps(run_config, sort_keys=True).encode("utf-8")
    ).hexdigest()[:12]
    base = args.out or Path("results")
    out_dir = base / run_id
    # write_results creates the run directory, so a failed run leaves none
    _prepare_out(base, directory=True)
    if out_dir.exists() and not out_dir.is_dir():
        raise QflakeError(f"--out {out_dir} is not a directory")

    tables = run_paper_suite(
        corpus,
        seed=args.seed,
        families=tuple(args.models),
        methods=tuple(args.methods),
        n_folds=args.folds,
        tokenizer=args.tokenizer,
        fit_vocab_on_all=args.replicate_paper_vectorization,
        tune_on_eval_fold=args.replicate_paper_threshold,
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
    try:
        args = build_parser().parse_args(argv)
        _resolve_settings(args)
        return _COMMANDS[args.command](args)
    except PipelineError as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except QflakeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
